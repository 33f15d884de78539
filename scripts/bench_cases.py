"""One process of a `scripts/bench_record.py` series: a case, run and
timed, its fields printed as one JSON line.

    PYTHONPATH=src python3 scripts/bench_cases.py CASE ARGS...

from the root of a checkout, whose `src` is the package measured. The
cases:

- `ccx_chain N K BACKEND`: the truth table of the N-qubit
  `ccx(i, i+1, i+2)` chain on K equal groups;
- `h_sandwich BACKEND`: `h` on each of 12 qubits in two groups,
  `cz(0, 11)` twice and `h` on each qubit again, so every word spreads
  over all 4096 codes and crosses twice at full support;
- `sd_crossing_12`: `ccx(0, 1, 2)`, `ccx(3, 4, 6)` and `ccx(7, 8, 9)` on
  12 qubits in groups (0..5) and (6..11) on `state-dependent`, one
  router crossing over all 4096 words;
- `sd_crossing_14`: `ccx(0, 1, 8)` on 14 qubits in groups (0..6) and
  (7..13) on `state-dependent`, one router crossing of two 128-level
  registers, 32 and 64 of their levels triggers;
- `wide_pricing W`: `cost_report` on one `cx` across a W-qubit group and
  a 2-qubit group, in a process that never imports numpy;
- `verify SCHEME D1`: `qompress verify --trials 1` at d1 = D1, d2 = 2;
  an exit of 2 (say an allocation that failed) prints no result;
- `scheme_calls D MODEL WARMUP REPEATS`: the in-process median time of
  one `run_state_dependent`, one `run_state_independent_joint` and one
  `multi_level_cz` call at d1 = d2 = D (every other level a trigger, the
  first register's from 0 and the second's from 1), after WARMUP untimed
  calls, over REPEATS;
- `cli_argvs`: the `cli` workload's argvs at seed 31, untimed.

Every amplitude case imports numpy before its clock starts, so it times
the work alone. Each timed case prints its fields with `wall_s` and the
process's `peak_rss_mb`. A truth-table case then checks every word
against the classical table and adds `correct`; it exits 1 when a word
differs.
"""

from __future__ import annotations

import itertools
import json
import resource
import statistics
import sys
import time

H_SANDWICH_QUBITS = 12


def report(fields: dict, wall: float, check=None) -> int:
    """The epilogue of every timed case: peak RSS is read before `check`
    runs, so the check adds nothing to it."""
    fields = {**fields, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if check is not None:
        fields["correct"] = check()
    print(json.dumps(fields))
    return 0 if fields.get("correct", True) else 1


def classical(table, n: int, ccx) -> bool:
    """Whether `table` maps every n-bit word to the word its `ccx` triples
    (a, b, t), applied in order, make of it; 2^16 words at a time, so no
    second table is built."""
    import numpy as np

    if len(table) != 1 << n:
        return False
    items = iter(table.items())
    while block := list(itertools.islice(items, 1 << 16)):
        words, outs = (np.array(side, dtype=np.int8) for side in zip(*block))
        for a, b, t in ccx:
            words[:, t] ^= words[:, a] & words[:, b]
        if not np.array_equal(words, outs):
            return False
    return True


def table(fields: dict, k: int, backend: str, ccx, gates=None) -> int:
    """The truth table of `gates` (by default the `ccx` triples' gates) on
    `fields["qubits"]` qubits in k equal groups, timed, then checked
    against the classical table of the `ccx` triples."""
    import numpy  # noqa: F401  (before the clock: the case times the work alone)

    from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed

    n = fields["qubits"]
    gates = [("ccx", g) for g in ccx] if gates is None else gates
    circuit = CircuitIR(n, tuple(Gate(kind, operands) for kind, operands in gates))
    layout = QuditLayout(tuple(tuple(range(g * n // k, (g + 1) * n // k)) for g in range(k)))
    t0 = time.perf_counter()
    got = simulate_compressed(circuit, layout, backend)
    return report(fields, time.perf_counter() - t0, lambda: classical(got, n, ccx))


def ccx_chain(n: str, k: str, backend: str) -> int:
    n, k = int(n), int(k)
    return table({"qubits": n, "groups": k, "backend": backend}, k, backend,
                 [(i, i + 1, i + 2) for i in range(n - 2)])


def h_sandwich(backend: str) -> int:
    n = H_SANDWICH_QUBITS
    spread = [("h", (q,)) for q in range(n)]
    return table({"qubits": n, "backend": backend}, 2, backend, (),
                 spread + [("cz", (0, n - 1))] * 2 + spread)


def sd_crossing_12() -> int:
    return table({"qubits": 12, "backend": "state-dependent"}, 2, "state-dependent",
                 ((0, 1, 2), (3, 4, 6), (7, 8, 9)))


def sd_crossing_14() -> int:
    return table({"qubits": 14, "backend": "state-dependent"}, 2, "state-dependent", ((0, 1, 8),))


def wide_pricing(w: str) -> int:
    from qompress.compress import CircuitIR, Gate, QuditLayout, cost_report

    w = int(w)
    circuit = CircuitIR(w + 2, (Gate("cx", (0, w)),))
    layout = QuditLayout((tuple(range(w)), (w, w + 1)))
    t0 = time.perf_counter()
    cost_report(circuit, layout)
    return report({"width": w}, time.perf_counter() - t0)


def verify(scheme: str, d1: str) -> int:
    import contextlib
    import io

    import numpy  # noqa: F401

    from qompress.cli import main

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--scheme", scheme, "--d1", d1, "--d2", "2", "--trials", "1",
                     "--format", "json"])
    wall = time.perf_counter() - t0
    if code == 2:  # the error line is on stderr; no result to print
        return code
    return report({"scheme": scheme, "d1": int(d1), "exit": code,
                   "passed": json.loads(out.getvalue())["passed"]}, wall)


def scheme_calls(d: str, model: str, warmup: str, repeats: str) -> int:
    import numpy as np

    from qompress.exact import BsmModel
    from qompress.mcz import multi_level_cz
    from qompress.qstate import random_state
    from qompress.schemes import run_state_dependent, run_state_independent_joint

    d, warmup, repeats = int(d), int(warmup), int(repeats)
    bsm = BsmModel.ideal() if model == "ideal" else BsmModel.linear_optics()
    rng = np.random.default_rng(d)
    psi1, psi2, joint = random_state((d,), rng), random_state((d,), rng), random_state((d, d), rng)
    c1, c2 = tuple(range(0, d, 2)), tuple(range(1, d, 2))
    calls = {"run_state_dependent": lambda: run_state_dependent(psi1, psi2, c1, c2, bsm),
             "run_state_independent_joint": lambda: run_state_independent_joint(joint, c1, c2, model=bsm),
             "multi_level_cz": lambda: multi_level_cz(d, d, c1, c2)}
    fields = {"d": d, "model": model}
    t0 = time.perf_counter()
    for name, call in calls.items():
        times = []
        for _ in range(warmup + repeats):
            start = time.perf_counter_ns()
            call()
            times.append(time.perf_counter_ns() - start)
        fields[name + "_us"] = statistics.median(times[warmup:]) / 1e3
    return report(fields, time.perf_counter() - t0)


def cli_argvs() -> int:
    sys.path.insert(0, "perfbench")
    import gen

    print(json.dumps(gen.cli_argvs(31)))
    return 0


CASES = {f.__name__: f for f in (ccx_chain, h_sandwich, sd_crossing_12, sd_crossing_14,
                                 wide_pricing, verify, scheme_calls, cli_argvs)}


def main(argv: list[str]) -> int:
    case, *args = argv
    return CASES[case](*args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
