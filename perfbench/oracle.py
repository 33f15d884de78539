"""Reference answers computed without the package.

Each check raises OracleMismatch with a message naming what disagreed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

FIDELITY_FLOOR = 1.0 - 1e-10

# two-qubit equivalents per kind on the uncompressed backend
_CX_EQUIV = {"h": 0, "x": 0, "z": 0, "cx": 1, "cz": 1, "ccx": 3, "ccz": 3}


class OracleMismatch(AssertionError):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise OracleMismatch(message)


# ---------------------------------------------------------------- schemes

def expected_gate_output(joint: np.ndarray, c1, c2) -> np.ndarray:
    """The input with the sign of its C1 x C2 block flipped."""
    out = np.array(joint, dtype=complex)
    out[np.ix_(list(c1), list(c2))] *= -1.0
    return out


def scheme_success(scheme: str, heralds: int, k1: int, k2: int) -> Fraction:
    if scheme == "sd":
        return Fraction(heralds, 16)
    return Fraction(heralds, 4) * Fraction(heralds, 16) ** (k1 + k2)


def check_scheme_result(inp, result):
    """Every heralded branch must equal the sign-flipped input up to phase."""
    joint = np.outer(inp.first, inp.second) if inp.scheme == "sd" else inp.first
    want = expected_gate_output(joint, inp.c1, inp.c2)
    heralds = 4 if inp.model == "ideal" else 2
    _expect(len(result.branches) == heralds,
            f"{len(result.branches)} heralded branches, expected {heralds}")
    for br in result.branches:
        got = np.asarray(br.output.amps).reshape(want.shape)
        _expect(abs(np.linalg.norm(got) - 1.0) < 1e-8, f"branch {br.label} is not normalized")
        fid = abs(np.vdot(want, got)) ** 2
        _expect(fid >= FIDELITY_FLOOR, f"branch {br.label} fidelity {fid!r}")
    want_p = scheme_success(inp.scheme, heralds, len(inp.c1), len(inp.c2))
    _expect(result.success_probability == want_p,
            f"success probability {result.success_probability}, expected {want_p}")


# ---------------------------------------------------------------- circuits

def _eval_macro(kind: str, ops: tuple[int, ...], bits: list[int]):
    if kind in ("x", "cx", "ccx", "mcx", "hczh"):
        *controls, target = ops
        if all(bits[c] for c in controls):
            bits[target] ^= 1
    # sign gates and the entangle step leave basis words unchanged


def classical_table(circuit) -> dict[tuple[int, ...], tuple[int, ...]]:
    table = {}
    for word in itertools.product((0, 1), repeat=circuit.qubits):
        bits = list(word)
        for m in circuit.macros:
            _eval_macro(m.kind, m.operands, bits)
        table[word] = tuple(bits)
    return table


def check_truth_table(want: dict, got: dict):
    _expect(len(got) == len(want), f"{len(got)} words, expected {len(want)}")
    bad = [w for w, out in want.items() if tuple(got.get(w, ())) != out]
    _expect(not bad, f"{len(bad)} words wrong, first {bad[:1]}")


def _group_of(groups) -> dict[int, int]:
    return {q: g for g, members in enumerate(groups) for q in members}


def expected_rows(circuit) -> dict[str, tuple]:
    """(gate_count, success, ancillas, legal) per backend, derived from
    group sizes and operand positions alone. Backends the circuit cannot
    be priced on are left out."""
    where = _group_of(circuit.groups)
    gates = circuit.gate_list
    rows = {}
    if all(k in _CX_EQUIV for k, _ in gates):
        n = sum(_CX_EQUIV[k] for k, _ in gates)
        rows["uncompressed"] = (n, Fraction(1, 9) ** n, 0, True)
    cross = []
    for _, ops in gates:
        touched = {}
        for q in ops:
            touched[where[q]] = touched.get(where[q], 0) + 1
        if len(touched) > 2:
            return rows
        if len(touched) == 2:
            # triggers: levels with every operand bit set -> 2^(free bits)
            k1, k2 = (2 ** (len(circuit.groups[g]) - c) for g, c in sorted(touched.items()))
            cross.append((k1, k2))
    std = sum(k1 * k2 for k1, k2 in cross)
    rows["standard"] = (std, Fraction(1, 9) ** std, 0, True)
    sd = len(cross)
    rows["state-dependent"] = (sd, Fraction(1, 8) ** sd, 2 * sd, sd <= 1)
    si_gates = sum(k1 + k2 for k1, k2 in cross)
    si_p = Fraction(1)
    for k1, k2 in cross:
        si_p *= Fraction(1, 2) * Fraction(1, 8) ** (k1 + k2)
    rows["state-independent"] = (si_gates, si_p, sum(2 * (k1 + k2) + 2 for k1, k2 in cross), True)
    return rows


def check_cost_rows(want: dict[str, tuple], got: dict[str, tuple]):
    for backend, row in want.items():
        have = got.get(backend)
        if have != row:
            # success fractions can have thousands of digits; name the field
            fields = ("gate_count", "success", "ancillas", "legal")
            diff = [f for f, a, b in zip(fields, have or (None,) * 4, row) if a != b]
            raise OracleMismatch(f"{backend} row differs in {diff}")


# ---------------------------------------------------------------- cli

def check_cli_payload(name: str, payload: dict, adder=None):
    if name == "verify":
        _expect(payload["passed"] is True, "verify did not pass")
        _expect(payload["success_probability"]["fraction"] == "1/8",
                f"verify success {payload['success_probability']}")
        _expect(payload["min_branch_fidelity"] >= FIDELITY_FLOOR, "verify fidelity below floor")
    elif name == "reproduce":
        _expect(payload["passed"] is True, "reproduce did not pass")
        _expect(all(c["passed"] for c in payload["claims"]), "a reproduce claim failed")
    elif name == "compress":
        got = {
            r["backend"]: (r["gate_count"], Fraction(r["success_probability"]["fraction"]),
                           r["ancilla_count"], r["legal"])
            for r in payload["rows"]
        }
        check_cost_rows(expected_rows(adder), got)
