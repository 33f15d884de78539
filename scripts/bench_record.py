"""Record a parent/change performance comparison as one BENCH_*.json file.

Both sides are plain source checkouts (for example `git archive` of two
commits unpacked into two directories). The script runs

- `perfbench/run.py` at its default run length in alternating
  parent/change pairs, one `--pair` spec `WORKLOAD:SEED:PAIRS` each; odd
  pairs run the change first; each run keeps its result line and, beside
  it, the per-class median op times of its detail line;
- the Tier-1 suite once per side, with its wall time and `--durations=10`
  block;
- the 12-qubit `ccx(i, i+1, i+2)` chain on two and three equal groups
  with the `standard` and `state-independent` backends, wall time and
  peak RSS, one process each;
- `cost_report` on one `cx` across a w-qubit group and a 2-qubit group,
  w = 14 to 20, wall time and peak RSS, one process each;
- `qompress verify --trials 1` with both schemes at d1 = 2^10, 2^14, 2^17
  and 2^20 and d2 = 2, wall time and peak RSS, one process each, under a
  2000 MB address-space limit, so a side that asks for more memory than
  that exits instead of exhausting the machine;
- the `startup` series: each of the four `cli` workload argvs (seed 31) in
  one `python -X importtime` process, with its exit code, wall time and the
  cumulative import microseconds of `numpy` (0 when it was not imported)
  and of `qompress` (every top-level import of the package or one of its
  modules, numpy included where one of them pulled it in), beside the
  side's `sys.flags.dont_write_bytecode`: with it set, no process reuses
  compiled bytecode and every one pays for compiling the package.

A process that prints no result, say one killed for memory or a `verify`
that exits 2 when an allocation fails, keeps its exit code and stderr
instead.

The output file is written afresh.

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --pair truth-table:31:10 --pair pipeline:31:10 --out BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

CHAIN = """
import json, resource, sys, time
from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed
n, k, backend = 12, int(sys.argv[1]), sys.argv[2]
circuit = CircuitIR(n, tuple(Gate("ccx", (i, i + 1, i + 2)) for i in range(n - 2)))
layout = QuditLayout(tuple(tuple(range(g * n // k, (g + 1) * n // k)) for g in range(k)))
t0 = time.perf_counter()
simulate_compressed(circuit, layout, backend)
print(json.dumps({"groups": k, "backend": backend, "wall_s": time.perf_counter() - t0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

WIDE_PRICING = """
import json, resource, sys, time
from qompress.compress import CircuitIR, Gate, QuditLayout, cost_report
w = int(sys.argv[1])
circuit = CircuitIR(w + 2, (Gate("cx", (0, w)),))
layout = QuditLayout((tuple(range(w)), (w, w + 1)))
t0 = time.perf_counter()
cost_report(circuit, layout)
print(json.dumps({"width": w, "wall_s": time.perf_counter() - t0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

VERIFY = """
import contextlib, io, json, resource, sys, time
from qompress.cli import main
scheme, d1 = sys.argv[1], sys.argv[2]
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(["verify", "--scheme", scheme, "--d1", d1, "--d2", "2", "--trials", "1",
                 "--format", "json"])
wall = time.perf_counter() - t0
if code == 2:
    sys.exit(code)  # the error line is on stderr; no result to print
print(json.dumps({"scheme": scheme, "d1": int(d1), "exit": code,
                  "passed": json.loads(out.getvalue())["passed"], "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

CLI_ARGVS = """
import json, sys
sys.path.insert(0, "perfbench")
import gen
print(json.dumps(gen.cli_argvs(31)))
"""

# one `-X importtime` stderr line: self and cumulative microseconds, then
# the module name indented two spaces per level of nesting
IMPORT_TIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", re.MULTILINE)

VERIFY_DIMS = (1 << 10, 1 << 14, 1 << 17, 1 << 20)
# the address-space limit of each verify_scaling process, the 2 GB of the
# large-register CI step
VERIFY_LIMIT_MB = 2000


def run(cmd: list[str], cwd: Path, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, **kw)


def bench_pairs(sides: dict[str, Path], spec: str, record: dict):
    workload, seed, pairs = spec.split(":")
    for pair in range(int(pairs)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            out = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                       "--trace", "0"], sides[side])
            lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
            record.setdefault("environment", lines[0]["environment"] if lines else None)
            detail = next((line["detail"] for line in lines if "detail" in line), {})
            record["runs"].append({"workload": workload, "seed": int(seed), "pair": pair,
                                   "side": side, "result": lines[-1] if lines else out.stderr,
                                   "class_median_ms": {cls: c["median_ms"] for cls, c
                                                       in detail.get("classes", {}).items()}})
            print(side, workload, seed, pair, lines[-1]["metrics"]["op_ms"]["value"] if lines else "?",
                  file=sys.stderr)


def tier1(path: Path) -> dict:
    t0 = time.perf_counter()
    out = run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--durations=10"], path,
              env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - t0
    lines = out.stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if "slowest 10 durations" in line), len(lines))
    durations = [line for line in lines[start + 1:] if re.match(r"[\d.]+s (setup|call|teardown) ", line)]
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "durations": durations}


def script_runs(path: Path, script: str, arg_lists, limit_mb: int | None = None) -> list[dict]:
    # a process that crashes or runs out of memory prints no result line; its
    # exit code and stderr are recorded in its place, so the runs already made
    # are kept
    def cap():
        limit = limit_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    records = []
    for args in arg_lists:
        out = run([sys.executable, "-c", script, *map(str, args)], path,
                  env={**os.environ, "PYTHONPATH": "src"}, preexec_fn=cap if limit_mb else None)
        records.append(json.loads(out.stdout) if out.stdout.startswith("{") else
                       {"args": list(args), "returncode": out.returncode, "stderr": out.stderr})
    return records


def startup(path: Path) -> dict:
    """One side's `startup` series (see the module docstring)."""
    env = {**os.environ, "PYTHONPATH": "src"}
    flag = run([sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"], path,
               env=env)
    records = []
    for name, argv in json.loads(run([sys.executable, "-c", CLI_ARGVS], path, env=env).stdout):
        t0 = time.perf_counter()
        out = run([sys.executable, "-X", "importtime", *argv], path, env=env)
        wall = time.perf_counter() - t0
        numpy_us = qompress_us = 0
        for cumulative, indent, module in IMPORT_TIME.findall(out.stderr):
            if module == "numpy":
                numpy_us = int(cumulative)
            elif not indent and module.split(".")[0] == "qompress":
                qompress_us += int(cumulative)
        records.append({"command": name, "exit": out.returncode, "wall_s": wall,
                        "numpy_us": numpy_us, "qompress_us": qompress_us})
    return {"dont_write_bytecode": int(flag.stdout), "runs": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pair", action="append", default=[], help="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"runs": []}
    for spec in args.pair:
        bench_pairs(sides, spec, record)
    record["tier1"] = {side: tier1(path) for side, path in sides.items()}
    record["ccx_chain_12"] = {
        side: script_runs(path, CHAIN, [(k, b) for b in ("standard", "state-independent") for k in (2, 3)])
        for side, path in sides.items()}
    record["wide_cx_pricing"] = {side: script_runs(path, WIDE_PRICING, [(w,) for w in range(14, 21)])
                                 for side, path in sides.items()}
    record["verify_scaling"] = {
        side: script_runs(path, VERIFY, [(scheme, d1) for scheme in ("state-dependent", "state-independent")
                                         for d1 in VERIFY_DIMS], VERIFY_LIMIT_MB)
        for side, path in sides.items()}
    record["startup"] = {side: startup(path) for side, path in sides.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
