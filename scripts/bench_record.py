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
- the series below, each process one case of `bench_cases.py` (beside
  this script, so a side without it is measured too), run in that side's
  checkout with its `src` on the path:
  - `ccx_chain_12`: `ccx_chain 12 K BACKEND` on two and three groups,
    `standard` and `state-independent`, in `CHAIN_PAIRS` pairs;
  - `h_sandwich_12`: `h_sandwich BACKEND` on the same two backends, in
    `CHAIN_PAIRS` pairs;
  - `sd_crossing_12` and `sd_crossing_14`, in `CHAIN_PAIRS` pairs, the
    second under the 2000 MB address-space limit below;
  - `wide_cx_pricing`: `wide_pricing W`, w = 14 to 20;
  - `verify_scaling`: `verify SCHEME D1` with both schemes at d1 = 2^10,
    2^14, 2^17 and 2^20, under the 2000 MB limit, so a side that asks
    for more memory than that exits instead of exhausting the machine;
  - `scheme_calls`: `scheme_calls D MODEL` at d = 2, 4, 8 and 16 under
    the ideal and the linear-optics analyzer, `SCHEME_CALL_REPEATS` calls
    after `SCHEME_CALL_WARMUP`, in `CHAIN_PAIRS` pairs;
  - on the change side alone, `ccx_chain_16` and `ccx_chain_20`: the
    chain at 16 and 20 qubits on two groups, both backends, under the
    2000 MB limit;
- the `startup` series: each of the four `cli` workload argvs (seed 31) in
  one `python -X importtime` process per side, with its exit code, wall
  time and the cumulative import microseconds of `numpy` (0 when it was
  not imported) and of `qompress` (every top-level import of the package
  or one of its modules, numpy included where one of them pulled it in),
  beside each side's `sys.flags.dont_write_bytecode`: with it set, no
  process reuses compiled bytecode and every one pays for compiling the
  package.

Every series that runs on both sides alternates them: each point runs
once per side in a pair, and the side that runs first alternates from
point to point and from pair to pair, so the box's slow spells do not
land on one side. Each series keeps every run beside each side's medians.
A process that prints no result keeps its exit code and stderr instead.

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

# every series process: `bench_cases.py CASE ARGS...` beside this script,
# run in each side's checkout on that side's `src`
CASES = Path(__file__).resolve().parent / "bench_cases.py"

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

SCHEME_CALL_CASES = tuple((d, model) for d in (2, 4, 8, 16) for model in ("ideal", "linear-optics"))
SCHEME_CALL_WARMUP, SCHEME_CALL_REPEATS = 200, 2000
SCHEME_CALL_KEYS = tuple(f"{name}_us" for name in
                         ("run_state_dependent", "run_state_independent_joint", "multi_level_cz"))

SCHEMES = ("state-dependent", "state-independent")
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


def case_run(path: Path, case: str, args, limit_mb: int | None = None) -> dict:
    """One `bench_cases.py` process in the checkout at `path`, under an
    address-space limit of `limit_mb` if given. A process that crashes or
    runs out of memory prints no result line; its exit code and stderr are
    recorded in its place, so the runs already made are kept."""
    def cap():
        limit = limit_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = run([sys.executable, str(CASES), case, *map(str, args)], path,
              env={**os.environ, "PYTHONPATH": "src"}, preexec_fn=cap if limit_mb else None)
    return (json.loads(out.stdout) if out.stdout.startswith("{") else
            {"args": list(args), "returncode": out.returncode, "stderr": out.stderr})


def alternated(sides: dict[str, Path], case: str, arg_lists, pairs: int = 1,
               limit_mb: int | None = None, keys=("wall_s", "peak_rss_mb")) -> dict:
    """Every argument list of `case` in `pairs` alternated parent/change
    pairs, the first side alternating from point to point and from pair to
    pair: each run, and per side and point the median of each of `keys` (by
    default the wall time and peak RSS) over the runs that printed a result."""
    runs = []
    for pair in range(pairs):
        for j, args in enumerate(arg_lists):
            order = ("parent", "change") if (pair + j) % 2 == 0 else ("change", "parent")
            for side in order:
                result = case_run(sides[side], case, args, limit_mb)
                runs.append({"side": side, "pair": pair, "case": list(args), "result": result})
                print(side, case, *args, pair, result.get("wall_s", "?"), file=sys.stderr)
    return {"runs": runs, "median": medians(runs, sides, arg_lists, keys)}


def medians(runs: list[dict], sides, cases, keys) -> dict:
    out = {}
    for side in sides:
        out[side] = []
        for case in cases:
            done = [r["result"] for r in runs if r["side"] == side and r["case"] == list(case)
                    and "wall_s" in r["result"]]
            out[side].append({
                "case": list(case), "runs": len(done),
                **{key: statistics.median(r[key] for r in done) if done else None
                   for key in keys}})
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
    argvs = json.loads(run([sys.executable, str(CASES), "cli_argvs"], sides["change"], env=env).stdout)
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
    record["ccx_chain_12"] = alternated(sides, "ccx_chain", CHAIN_CASES, CHAIN_PAIRS)
    record["h_sandwich_12"] = alternated(sides, "h_sandwich", [(b,) for b in BACKENDS], CHAIN_PAIRS)
    record["sd_crossing_12"] = alternated(sides, "sd_crossing_12", [()], CHAIN_PAIRS)
    record["sd_crossing_14"] = alternated(sides, "sd_crossing_14", [()], CHAIN_PAIRS, VERIFY_LIMIT_MB)
    record["wide_cx_pricing"] = alternated(sides, "wide_pricing", [(w,) for w in range(14, 21)])
    record["verify_scaling"] = alternated(
        sides, "verify", [(scheme, d1) for scheme in SCHEMES for d1 in VERIFY_DIMS],
        limit_mb=VERIFY_LIMIT_MB)
    record["startup"] = startup(sides)
    record["scheme_calls"] = alternated(
        sides, "scheme_calls",
        [(d, model, SCHEME_CALL_WARMUP, SCHEME_CALL_REPEATS) for d, model in SCHEME_CALL_CASES],
        CHAIN_PAIRS, keys=SCHEME_CALL_KEYS + ("wall_s",))
    for case in WIDE_CHAIN_CASES:
        name = f"ccx_chain_{case[0]}"
        result = case_run(sides["change"], "ccx_chain", case, VERIFY_LIMIT_MB)
        record.setdefault(name, {"change": []})["change"].append(result)
        print("change", name, *case, result.get("wall_s", "?"), file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
