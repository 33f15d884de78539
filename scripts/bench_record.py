"""Record a parent/change performance comparison as one BENCH_*.json file.

Both sides are plain source checkouts (for example `git archive` of two
commits unpacked into two directories). The script runs

- `perfbench/run.py` at its default run length in alternating
  parent/change pairs, one `--pair` spec `WORKLOAD:SEED:PAIRS` each; odd
  pairs run the change first; each run keeps its result line and, beside
  it, the per-class median op times and the named figures (say
  `truth_table.state_independent_words_per_s`) of its detail line;
- the Tier-1 suite once per side, with its wall time and `--durations=10`
  block;
- `ccx_chain_12`: the 12-qubit `ccx(i, i+1, i+2)` chain on two and three
  equal groups with the `standard` and `state-independent` backends, wall
  time and peak RSS, one process each, in `CHAIN_PAIRS` pairs per case;
- `h_sandwich_12`: `h` on each of 12 qubits in two groups, `cz(0, 11)`
  twice and `h` on each qubit again, on the same two backends, in
  `CHAIN_PAIRS` pairs per case: every word spreads over all 4096 codes
  and crosses twice at full support;
- `sd_crossing_12`: `ccx(0, 1, 2)`, `ccx(3, 4, 6)` and `ccx(7, 8, 9)` on
  12 qubits in groups (0..5) and (6..11) with the `state-dependent`
  backend, in `CHAIN_PAIRS` pairs: one router crossing over all 4096
  words;
- `sd_crossing_14`: `ccx(0, 1, 8)` on 14 qubits in groups (0..6) and
  (7..13) with the `state-dependent` backend, in `CHAIN_PAIRS` pairs under
  the 2000 MB address-space limit below: one router crossing of two
  128-level registers, 32 and 64 of their levels triggers;
- `cost_report` on one `cx` across a w-qubit group and a 2-qubit group,
  w = 14 to 20, wall time and peak RSS, one process per side and point;
- `qompress verify --trials 1` with both schemes at d1 = 2^10, 2^14, 2^17
  and 2^20 and d2 = 2, wall time and peak RSS, one process per side and
  point, under a 2000 MB address-space limit, so a side that asks for
  more memory than that exits instead of exhausting the machine;
- the `startup` series: each of the four `cli` workload argvs (seed 31) in
  one `python -X importtime` process per side, with its exit code, wall
  time and the cumulative import microseconds of `numpy` (0 when it was
  not imported) and of `qompress` (every top-level import of the package
  or one of its modules, numpy included where one of them pulled it in),
  beside each side's `sys.flags.dont_write_bytecode`: with it set, no
  process reuses compiled bytecode and every one pays for compiling the
  package;
- on the change side alone, `ccx_chain_16` and `ccx_chain_20`: the chain
  at 16 and 20 qubits on two groups, both backends, under the same
  2000 MB limit.

Every series that runs on both sides alternates them: each point runs
once per side in a pair, and the side that runs first alternates from
point to point and from pair to pair, so the box's slow spells do not
land on one side. Each series keeps every run beside each side's medians.

A process that prints no result, say one killed for memory or a `verify`
that exits 2 when an allocation fails, keeps its exit code and stderr
instead. The chain and `verify` scripts import numpy before they start the
clock, so their series time the work alone, and the allocator's history
of large frees does not depend on where numpy was first loaded.

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
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHAIN = """
import json, resource, sys, time
import numpy
from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed
n, k, backend = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
circuit = CircuitIR(n, tuple(Gate("ccx", (i, i + 1, i + 2)) for i in range(n - 2)))
layout = QuditLayout(tuple(tuple(range(g * n // k, (g + 1) * n // k)) for g in range(k)))
t0 = time.perf_counter()
simulate_compressed(circuit, layout, backend)
print(json.dumps({"qubits": n, "groups": k, "backend": backend, "wall_s": time.perf_counter() - t0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

H_SANDWICH = """
import json, resource, sys, time
import numpy
from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed
n, backend = 12, sys.argv[1]
spread = tuple(Gate("h", (q,)) for q in range(n))
circuit = CircuitIR(n, spread + (Gate("cz", (0, n - 1)),) * 2 + spread)
layout = QuditLayout((tuple(range(n // 2)), tuple(range(n // 2, n))))
t0 = time.perf_counter()
table = simulate_compressed(circuit, layout, backend)
wall = time.perf_counter() - t0
assert all(word == out for word, out in table.items())
print(json.dumps({"qubits": n, "backend": backend, "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

SD_CROSSING = """
import json, resource, time
import numpy
from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed
ccx = ((0, 1, 2), (3, 4, 6), (7, 8, 9))
circuit = CircuitIR(12, tuple(Gate("ccx", g) for g in ccx))
layout = QuditLayout((tuple(range(6)), tuple(range(6, 12))))
t0 = time.perf_counter()
table = simulate_compressed(circuit, layout, "state-dependent")
wall = time.perf_counter() - t0
for word, out in table.items():
    bits = list(word)
    for a, b, t in ccx:
        bits[t] ^= bits[a] & bits[b]
    assert tuple(bits) == out
print(json.dumps({"qubits": 12, "backend": "state-dependent", "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

SD_CROSSING_14 = """
import json, resource, time
import numpy
from qompress.compress import CircuitIR, Gate, QuditLayout, simulate_compressed
circuit = CircuitIR(14, (Gate("ccx", (0, 1, 8)),))
layout = QuditLayout((tuple(range(7)), tuple(range(7, 14))))
t0 = time.perf_counter()
table = simulate_compressed(circuit, layout, "state-dependent")
wall = time.perf_counter() - t0
for word, out in table.items():
    bits = list(word)
    bits[8] ^= bits[0] & bits[1]
    assert tuple(bits) == out
print(json.dumps({"qubits": 14, "backend": "state-dependent", "wall_s": wall,
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
import numpy
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

BACKENDS = ("standard", "state-independent")
CHAIN_CASES = tuple((12, k, b) for b in BACKENDS for k in (2, 3))
# a 10% change in one chain's wall time is within this box's spread between
# single runs, so each case runs in alternated pairs and is read by its median
CHAIN_PAIRS = 3
# the wide chains, run on the change side alone: a dense register of 16
# qubits needs 64 GiB
WIDE_CHAIN_CASES = tuple((n, 2, b) for n in (16, 20) for b in BACKENDS)

VERIFY_DIMS = (1 << 10, 1 << 14, 1 << 17, 1 << 20)
# the address-space limit of each verify_scaling and sd_crossing_14 process,
# the 2 GB of the large-register CI steps
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
                                                       in detail.get("classes", {}).items()},
                                   "named": {name: figure["value"] for name, figure
                                             in detail.get("named", {}).items()}})
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


def alternated(sides: dict[str, Path], name: str, script: str, cases, pairs: int = 1,
               limit_mb: int | None = None) -> dict:
    """Every case of `script` in `pairs` alternated parent/change pairs, the
    first side alternating from case to case and from pair to pair: each
    run, and per side and case the median wall time and peak RSS of the
    runs that printed a result."""
    runs = []
    for pair in range(pairs):
        for j, case in enumerate(cases):
            order = ("parent", "change") if (pair + j) % 2 == 0 else ("change", "parent")
            for side in order:
                (result,) = script_runs(sides[side], script, [case], limit_mb)
                runs.append({"side": side, "pair": pair, "case": list(case), "result": result})
                print(side, name, *case, pair, result.get("wall_s", "?"), file=sys.stderr)
    return {"runs": runs, "median": medians(runs, sides, cases)}


def medians(runs: list[dict], sides, cases) -> dict:
    out = {}
    for side in sides:
        out[side] = []
        for case in cases:
            done = [r["result"] for r in runs if r["side"] == side and r["case"] == list(case)
                    and "wall_s" in r["result"]]
            out[side].append({
                "case": list(case), "runs": len(done),
                **{key: statistics.median(r[key] for r in done) if done else None
                   for key in ("wall_s", "peak_rss_mb")}})
    return out


def startup_run(path: Path, argv: list[str]) -> dict:
    """One `startup` process (see the module docstring)."""
    t0 = time.perf_counter()
    out = run([sys.executable, "-X", "importtime", *argv], path, env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - t0
    numpy_us = qompress_us = 0
    for cumulative, indent, module in IMPORT_TIME.findall(out.stderr):
        if module == "numpy":
            numpy_us = int(cumulative)
        elif not indent and module.split(".")[0] == "qompress":
            qompress_us += int(cumulative)
    return {"exit": out.returncode, "wall_s": wall, "numpy_us": numpy_us, "qompress_us": qompress_us}


def startup(sides: dict[str, Path]) -> dict:
    """The `startup` series, one process per side and argv, alternated."""
    env = {**os.environ, "PYTHONPATH": "src"}
    record = {side: {"dont_write_bytecode": int(run(
        [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"], path,
        env=env).stdout), "runs": []} for side, path in sides.items()}
    argvs = json.loads(run([sys.executable, "-c", CLI_ARGVS], sides["change"], env=env).stdout)
    for j, (name, argv) in enumerate(argvs):
        for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
            record[side]["runs"].append({"command": name, **startup_run(sides[side], argv)})
    return record


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
    record["ccx_chain_12"] = alternated(sides, "ccx_chain_12", CHAIN, CHAIN_CASES, CHAIN_PAIRS)
    record["h_sandwich_12"] = alternated(sides, "h_sandwich_12", H_SANDWICH,
                                         [(b,) for b in BACKENDS], CHAIN_PAIRS)
    record["sd_crossing_12"] = alternated(sides, "sd_crossing_12", SD_CROSSING, [()], CHAIN_PAIRS)
    record["sd_crossing_14"] = alternated(sides, "sd_crossing_14", SD_CROSSING_14, [()], CHAIN_PAIRS,
                                          limit_mb=VERIFY_LIMIT_MB)
    record["wide_cx_pricing"] = alternated(sides, "wide_cx_pricing", WIDE_PRICING,
                                           [(w,) for w in range(14, 21)])
    record["verify_scaling"] = alternated(
        sides, "verify_scaling", VERIFY,
        [(scheme, d1) for scheme in ("state-dependent", "state-independent") for d1 in VERIFY_DIMS],
        limit_mb=VERIFY_LIMIT_MB)
    record["startup"] = startup(sides)
    for case in WIDE_CHAIN_CASES:
        name = f"ccx_chain_{case[0]}"
        (result,) = script_runs(sides["change"], CHAIN, [case], VERIFY_LIMIT_MB)
        record.setdefault(name, {"change": []})["change"].append(result)
        print("change", name, *case, result.get("wall_s", "?"), file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
