"""Command-line front end.

Three subcommands: `verify` checks one gate configuration against its
logical matrix, `compress` prices a grouped circuit, and `reproduce`
runs the whole battery of numeric claims. Exit codes: 0 success,
1 check failure, 2 usage or parse error or a register too large for memory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .compress import (
    CircuitFormatError,
    CircuitIR,
    Gate,
    cost_report,
    parse_circuit,
    parse_layout,
    qfa_circuit,
    qfa_layout,
    simulate_compressed,
)
from .exact import SCHEMES, BsmModel, TriggerSet, success_probability

# `compress` runs on the exact layer alone; `verify` and `reproduce` import
# numpy and the amplitude modules when they run

DEFAULT_SEED = 0

_FIDELITY_FLOOR = 1.0 - 1e-10


class UsageError(ValueError):
    pass


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    else:
        env = os.environ.get("QOMPRESS_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "QOMPRESS_SEED"
        except ValueError:
            raise UsageError(f"QOMPRESS_SEED must be an integer, got {env!r}") from None
    # numpy's generators take only non-negative seeds
    if seed < 0:
        raise UsageError(f"{source} must be non-negative, got {seed}")
    return seed


def _read_document(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise UsageError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _parse_levels(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of integers, got {text!r}") from None


def _fraction_text(f: Fraction) -> str:
    # an exact cost can outgrow CPython's int-to-text digit limit (the
    # standard row of a 13+2 qubit grouping is 1/9^8192), so the limit is
    # lifted for this formatting only; it exists from CPython 3.10.7 on
    if not hasattr(sys, "set_int_max_str_digits"):
        return f"{f.numerator}/{f.denominator}"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def _sci_text(f: Fraction) -> str:
    """f in `.3e` form. A positive f below the smallest double would print
    as 0.000e+00 through float, so its text is rounded from f exactly."""
    x = float(f)
    if x != 0.0 or f <= 0:
        return f"{x:.3e}"
    # log10 of the parts is within one of the exponent; the exact test fixes it
    e = math.floor(math.log10(f.numerator) - math.log10(f.denominator))
    if f < Fraction(10) ** e:
        e -= 1
    elif f >= Fraction(10) ** (e + 1):
        e += 1
    digits = round(f / Fraction(10) ** (e - 3))
    if digits == 10_000:
        digits, e = 1000, e + 1
    return f"{digits // 1000}.{digits % 1000:03d}e{e:+03d}"


def _fraction_payload(f: Fraction) -> dict:
    return {"fraction": _fraction_text(f), "float": float(f)}


def _emit(payload: dict | None, lines: list[str] | None, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _model_from_flag(name: str) -> BsmModel:
    return BsmModel.ideal() if name == "ideal" else BsmModel.linear_optics()


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    for flag, dim in (("--d1", args.d1), ("--d2", args.d2)):
        if dim < 2:
            raise UsageError(f"{flag} must be at least 2, got {dim}")
    trials = args.trials
    if trials < 1:
        raise UsageError(f"--trials must be at least 1, got {trials}")
    c1 = _parse_levels(args.c1, "--c1")
    c2 = _parse_levels(args.c2, "--c2")
    try:
        t1 = TriggerSet(c1, args.d1)
        t2 = TriggerSet(c2, args.d2)
    except ValueError as e:
        raise UsageError(str(e)) from None
    model = _model_from_flag(args.model)
    # the register's complex amplitudes must fit an array's address range,
    # or numpy refuses the shape before it tries to allocate
    if 16 * args.d1 * args.d2 > sys.maxsize:
        raise UsageError(
            f"a {args.d1}x{args.d2} register needs more bytes than an array can address")

    import numpy as np

    from .mcz import _signs
    from .qstate import PureState, fidelity_up_to_phase, random_state, tensor
    from .schemes import run_state_dependent, run_state_independent_joint

    signs = _signs(t1, t2)

    rng = np.random.default_rng(seed)
    min_fidelity = 1.0
    tally: dict[str, int] = {}
    result = None
    for _ in range(trials):
        psi1, psi2 = random_state((args.d1,), rng), random_state((args.d2,), rng)
        joint = tensor(psi1, psi2)
        if args.scheme == "state-dependent":
            result = run_state_dependent(psi1, psi2, t1, t2, model)
        else:
            result = run_state_independent_joint(joint, t1, t2, model=model)
        expected = PureState._fresh(joint.dims, joint.amps * signs)
        for branch in result.branches:
            min_fidelity = min(min_fidelity, fidelity_up_to_phase(branch.output, expected))
        probs = np.array([o.probability for o in result.bsm_outcomes])
        pick = int(rng.choice(len(probs), p=probs / probs.sum()))
        label = result.bsm_outcomes[pick].label
        tally[label] = tally.get(label, 0) + 1

    formula = success_probability(args.scheme, len(t1), len(t2), model)
    passed = min_fidelity >= _FIDELITY_FLOOR and result.success_probability == formula
    payload = {
        "command": "verify",
        "scheme": args.scheme,
        "model": args.model,
        "d1": args.d1,
        "d2": args.d2,
        "c1": list(t1.indices),
        "c2": list(t2.indices),
        "seed": seed,
        "trials": trials,
        "success_probability": _fraction_payload(result.success_probability),
        "min_branch_fidelity": min_fidelity,
        "ancilla_count": result.ancilla_count,
        "nonlocal_gate_count": result.nonlocal_gate_count,
        "sampled_outcomes": {k: tally[k] for k in sorted(tally)},
        "passed": passed,
    }
    lines = [
        f"scheme {args.scheme} ({args.model}) on d1={args.d1} d2={args.d2} "
        f"c1={list(t1.indices)} c2={list(t2.indices)}",
        f"success probability: {_fraction_text(result.success_probability)} "
        f"({float(result.success_probability)!r})",
        f"min branch fidelity over {trials} random inputs: {min_fidelity!r}",
        f"ancilla photons: {result.ancilla_count}, "
        f"non-local gates: {result.nonlocal_gate_count}",
        f"sampled outcomes (seed {seed}): "
        + ", ".join(f"{k}:{v}" for k, v in sorted(tally.items())),
        "PASS" if passed else "FAIL",
    ]
    _emit(payload, lines, args.format)
    return 0 if passed else 1


def cmd_compress(args) -> int:
    if args.circuit is None:
        circuit = qfa_circuit()
        layout = qfa_layout()
    else:
        if args.layout is None:
            raise UsageError("compress needs either no paths (bundled adder) or both paths")
        circuit = parse_circuit(_read_document(args.circuit))
        layout = parse_layout(_read_document(args.layout))

    try:
        report = cost_report(circuit, layout)
    except ValueError as e:
        raise UsageError(str(e)) from None
    nonlocal_info = [
        {
            "index": i,
            "kind": circuit.gates[i].kind,
            "groups": list(deriv.groups),
            "first_triggers": list(deriv.first.indices),
            "first_dim": deriv.first.dim,
            "second_triggers": list(deriv.second.indices),
            "second_dim": deriv.second.dim,
            "removed": list(deriv.removed),
        }
        for i, deriv in report.crossings
    ]
    # each row's fraction is written once, and only the format printed is built
    probs = [_fraction_payload(r.success_probability) for r in report.rows]
    payload = lines = None
    if args.format == "json":
        payload = {
            "command": "compress",
            "qubits": circuit.qubit_count,
            "groups": [list(g) for g in layout.groups],
            "gate_kinds": [g.kind for g in circuit.gates],
            "nonlocal_gates": nonlocal_info,
            "rows": [
                {
                    "backend": r.backend,
                    "gate_count": r.gate_count,
                    "success_probability": prob,
                    "ancilla_count": r.ancilla_count,
                    "legal": r.legal,
                    "reason": r.reason,
                }
                for r, prob in zip(report.rows, probs)
            ],
        }
    else:
        lines = [f"{circuit.qubit_count} qubits in groups {[list(g) for g in layout.groups]}"]
        for info in nonlocal_info:
            lines.append(
                f"gate {info['index']} ({info['kind']}): triggers {info['first_triggers']} "
                f"of {info['first_dim']} levels with {info['second_triggers']} "
                f"of {info['second_dim']}, removed controls {info['removed']}"
            )
        lines.append(f"{'backend':<18} {'gates':>5} {'success':>24} {'ancillas':>8}  legal")
        for r, prob in zip(report.rows, probs):
            text = f"{prob['fraction']} ({_sci_text(r.success_probability)})"
            lines.append(f"{r.backend:<18} {r.gate_count:>5} {text:>24} {r.ancilla_count:>8}  {r.legal}")
            if r.reason:
                lines.append(f"  note: {r.reason}")
    _emit(payload, lines, args.format)
    return 0


@dataclass(frozen=True)
class Claim:
    name: str
    expected: str
    computed: str
    passed: bool


def _claim_eq(name: str, expected, computed) -> Claim:
    return Claim(name, str(expected), str(computed), str(expected) == str(computed))


def run_claims(seed: int) -> list[Claim]:
    """Every numeric claim in one battery."""
    import numpy as np

    from .mcz import multi_level_cz, prepare_ancillas
    from .optics import (
        ModeUnitary,
        TwoPhotonState,
        evolve_two_photon,
        postselect_coincidence,
        route_with_ancilla,
    )
    from .qstate import apply, fidelity_up_to_phase, random_state, tensor
    from .schemes import run_state_dependent, run_state_independent_joint, verified_two_level_cz

    rng = np.random.default_rng(seed)
    model_lo = BsmModel.linear_optics()
    claims: list[Claim] = []

    # gate structure
    gate = multi_level_cz(8, 2, (3, 7), (1,))
    diag = np.real(np.diag(gate.entries))
    flipped = sorted(np.flatnonzero(diag < 0).tolist())
    claims.append(_claim_eq("sign flips exactly on the trigger products", [7, 15], flipped))

    # state-dependent scheme
    sd = run_state_dependent(
        random_state((8,), rng), random_state((2,), rng), (3, 7), (1,), model_lo
    )
    claims.append(_claim_eq("state-dependent success probability", "1/8",
                            _fraction_text(sd.success_probability)))
    sd_ideal = run_state_dependent(
        random_state((8,), rng), random_state((2,), rng), (3, 7), (1,), BsmModel.ideal()
    )
    claims.append(_claim_eq("state-dependent success probability, ideal analyzer", "1/4",
                            _fraction_text(sd_ideal.success_probability)))

    min_fid = 1.0
    worst_router = 0.0
    for d1, d2 in ((2, 2), (4, 3), (8, 2)):
        for _ in range(5):
            psi1, psi2 = random_state((d1,), rng), random_state((d2,), rng)
            k1 = int(rng.integers(1, d1))
            k2 = int(rng.integers(1, d2))
            t1 = TriggerSet(tuple(rng.choice(d1, size=k1, replace=False)), d1)
            t2 = TriggerSet(tuple(rng.choice(d2, size=k2, replace=False)), d2)
            res = run_state_dependent(psi1, psi2, t1, t2, BsmModel.ideal())
            want = apply(multi_level_cz(d1, d2, t1, t2), tensor(psi1, psi2))
            for br in res.branches:
                min_fid = min(min_fid, fidelity_up_to_phase(br.output, want))
            anc1, anc2 = prepare_ancillas(psi1, psi2, t1, t2)
            _, p1 = postselect_coincidence(route_with_ancilla(psi1, anc1, t1))
            _, p2 = postselect_coincidence(route_with_ancilla(psi2, anc2, t2))
            worst_router = max(worst_router, abs(p1 - 0.5), abs(p1 * p2 - 0.25))
    claims.append(Claim("state-dependent branch fidelity", ">= 1-1e-10", repr(min_fid),
                        min_fid >= _FIDELITY_FLOOR))
    claims.append(Claim("router coincidence probabilities 1/2 and 1/4 jointly",
                        "deviation <= 1e-10", repr(worst_router), worst_router <= 1e-10))

    # state-independent scheme
    si = run_state_independent_joint(
        tensor(random_state((8,), rng), random_state((2,), rng)), (3, 7), (1,), model=model_lo
    )
    claims.append(_claim_eq("state-independent success probability, two plus one triggers",
                            "1/1024", _fraction_text(si.success_probability)))
    joint = random_state((4, 3), rng)
    si_joint = run_state_independent_joint(joint, (1, 2), (0,), model=BsmModel.ideal())
    want = apply(multi_level_cz(4, 3, (1, 2), (0,)), joint)
    fid = min(fidelity_up_to_phase(br.output, want) for br in si_joint.branches)
    claims.append(Claim("state-independent fidelity on an entangled input", ">= 1-1e-10",
                        repr(fid), fid >= _FIDELITY_FLOOR))

    # resource state structure
    psi1, psi2 = random_state((4,), rng), random_state((3,), rng)
    res = run_state_independent_joint(tensor(psi1, psi2), (1, 3), (0,), model=BsmModel.ideal())
    expected = np.zeros((4, 3, 2, 2), dtype=complex)
    for m in range(4):
        for n in range(3):
            expected[m, n, int(m in (1, 3)), int(n == 0)] = psi1.amps[m] * psi2.amps[n]
    dev = float(np.max(np.abs(res.resource_state.amps - expected)))
    claims.append(Claim("flag qubits mark exactly the trigger levels", "deviation <= 1e-12",
                        repr(dev), dev <= 1e-12))

    # optical realization against the logical matrix
    try:
        verified_two_level_cz(3, 2)
        verified_two_level_cz(2, 1)
        claims.append(Claim("optical two-level realization matches the logical matrix",
                            "entrywise <= 1e-10", "entrywise <= 1e-10", True))
    except ArithmeticError as e:
        claims.append(Claim("optical two-level realization matches the logical matrix",
                            "entrywise <= 1e-10", str(e), False))

    # two-photon interference null
    bs = ModeUnitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    hom = evolve_two_photon(bs, TwoPhotonState.pair_basis(2, 1, 0, 1))
    claims.append(Claim("balanced-splitter coincidence amplitude", "0",
                        repr(abs(hom.amplitude(0, 1))), abs(hom.amplitude(0, 1)) < 1e-12))

    # the bundled adder
    circuit, layout = qfa_circuit(), qfa_layout()
    good = 0
    for backend in ("uncompressed", "standard", "state-independent"):
        table = simulate_compressed(circuit, layout, backend)
        for a, b, cin in itertools.product((0, 1), repeat=3):
            total = a + b + cin
            if table[(a, b, cin, 0)] == (a, b, total & 1, total >> 1):
                good += 1
    claims.append(_claim_eq("adder truth table across the runnable backends", "24/24",
                            f"{good}/24"))

    report = cost_report(circuit, layout)
    unc = report.row("uncompressed")
    claims.append(_claim_eq("adder, plain two-qubit count", "9 gates, 1/387420489",
                            f"{unc.gate_count} gates, {_fraction_text(unc.success_probability)}"))
    std = report.row("standard")
    claims.append(_claim_eq("adder, per-trigger factoring", "4 gates, 1/6561",
                            f"{std.gate_count} gates, {_fraction_text(std.success_probability)}"))
    sd_row = report.row("state-dependent")
    claims.append(_claim_eq("adder, router scheme is blocked by gate order", "blocked",
                            "allowed" if sd_row.legal else "blocked"))
    si_row = report.row("state-independent")
    claims.append(_claim_eq("adder, flag-ladder scheme", "6 gates, 1/1048576",
                            f"{si_row.gate_count} gates, {_fraction_text(si_row.success_probability)}"))

    # the single two-group gate the adder is usually quoted by
    bench = CircuitIR(4, (Gate("ccx", (1, 2, 3)),))
    bench_report = cost_report(bench, layout)
    ((_, deriv),) = bench_report.crossings
    claims.append(_claim_eq("benchmark gate trigger sets", "(3, 7) and (1,)",
                            f"{deriv.first.indices} and {deriv.second.indices}"))
    claims.append(_claim_eq(
        "benchmark gate, per-trigger factoring", "2 gates, 1/81",
        f"{bench_report.row('standard').gate_count} gates, "
        f"{_fraction_text(bench_report.row('standard').success_probability)}"))
    sd_bench = bench_report.row("state-dependent")
    claims.append(_claim_eq(
        "benchmark gate, router scheme", "1 gate, 1/8, allowed",
        f"{sd_bench.gate_count} gate, {_fraction_text(sd_bench.success_probability)}, "
        + ("allowed" if sd_bench.legal else "blocked")))
    claims.append(_claim_eq(
        "benchmark gate, flag ladder", "3 gates, 1/1024",
        f"{bench_report.row('state-independent').gate_count} gates, "
        f"{_fraction_text(bench_report.row('state-independent').success_probability)}"))

    # gate-count scaling
    crossover_ok = True
    for r1, r2 in itertools.product(range(7), repeat=2):
        ladder = 2 ** r1 + 2 ** r2
        product = 2 ** (r1 + r2)
        holds = ladder <= product
        should_hold = r1 >= 1 and r2 >= 1
        equal_exactly_at_one_each = (ladder == product) == (r1 == 1 and r2 == 1)
        if holds != should_hold or (should_hold and not equal_exactly_at_one_each):
            crossover_ok = False
    claims.append(Claim(
        "gate-count crossover",
        "ladder beats factoring whenever each register removes a qubit; tie only at one each",
        "holds for all removed-qubit counts up to 6" if crossover_ok else "violated",
        crossover_ok))

    return claims


def cmd_reproduce(args) -> int:
    seed = _resolve_seed(args.seed)
    claims = run_claims(seed)
    passed = all(c.passed for c in claims)
    payload = {
        "command": "reproduce",
        "seed": seed,
        "claims": [
            {"name": c.name, "expected": c.expected, "computed": c.computed, "passed": c.passed}
            for c in claims
        ],
        "passed": passed,
    }
    lines = []
    for c in claims:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"{mark}  {c.name}: expected {c.expected}, computed {c.computed}")
    lines.append(f"{sum(c.passed for c in claims)}/{len(claims)} claims hold")
    _emit(payload, lines, args.format)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qompress",
        description="heralded multi-level sign gates for spatial-mode registers, "
                    "plus a grouped-circuit cost pass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check one gate configuration against its matrix")
    verify.add_argument("--d1", type=int, default=8)
    verify.add_argument("--d2", type=int, default=2)
    verify.add_argument("--c1", default="3,7", help="comma-separated trigger levels of register 1")
    verify.add_argument("--c2", default="1", help="comma-separated trigger levels of register 2")
    verify.add_argument("--scheme", choices=SCHEMES, default="state-dependent")
    verify.add_argument("--model", choices=("linear-optics", "ideal"), default="linear-optics")
    verify.add_argument("--trials", type=int, default=20, help="random product inputs to check")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--seed", type=int, default=None)

    compress = sub.add_parser("compress", help="price a grouped circuit (bundled adder by default)")
    compress.add_argument("circuit", nargs="?", default=None, help="circuit JSON path")
    compress.add_argument("layout", nargs="?", default=None, help="layout JSON path")
    compress.add_argument("--format", choices=("text", "json"), default="text")

    reproduce = sub.add_parser("reproduce", help="run the full claim battery")
    reproduce.add_argument("--format", choices=("text", "json"), default="text")
    reproduce.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "compress":
            return cmd_compress(args)
        return cmd_reproduce(args)
    except (UsageError, CircuitFormatError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
