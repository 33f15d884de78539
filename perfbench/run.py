"""Benchmark runner for qompress.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. Workloads (see README.md for why each exists):

  pipeline     single run_state_dependent / run_state_independent_joint calls
  truth-table  simulate_compressed on 6- and 8-qubit circuits, four backends
  pricing      parse_circuit + parse_layout + cost_report on 100-1000 gates
  cli          `qompress verify|compress|reproduce` and `import qompress`
               as subprocesses

Each workload is a closed loop with one client. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a separate traced run. Earlier lines carry the
environment, the traffic summary and the per-class figures.
"""

from __future__ import annotations

# gen, workloads and tracer import numpy, so they are imported inside
# functions, after pin_blas_threads() has run

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "truth-table", "pricing", "cli")
SETUP_PROBES = 5
CLI_SAMPLES = 3  # subprocess and in-process repeats per command in a traced run
OUT_DIR = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def pin_blas_threads():
    """One client on small matrices: one BLAS thread, which is <= nproc.
    Must run before numpy is imported; children inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_package():
    src = ROOT / "src"
    if not (src / "qompress" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {src}; run from a qompress checkout")
    sys.path.insert(0, str(src))
    import qompress
    import qompress.cli  # noqa: F401  (the cli workload calls qompress.cli.main)

    if Path(qompress.__file__).resolve().parent != (src / "qompress").resolve():
        raise SystemExit(f"error: imported qompress from {qompress.__file__}, not {src}")
    return qompress


# ---------------------------------------------------------------- environment

def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = [ln.split()[-1] for ln in fh if "openblas" in ln.lower()]
    except OSError:
        return None
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
        f = getattr(lib, fn, None)
        if f is not None:
            f.restype, f.argtypes = ctypes.c_int, []
            return int(f())
    return None


def environment(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------- set-up

def build_ops(workload: str, seed: int, q):
    import workloads as w

    if workload == "pipeline":
        return w.pipeline_ops(seed, q)
    if workload == "truth-table":
        return w.truth_table_ops(seed, q)
    if workload == "pricing":
        return w.pricing_ops(seed, q)
    return w.cli_ops(seed, ROOT)


def setup(workload: str, seed: int, q):
    """Build the inputs and run one plain operation of each class, so lazy
    initialization is done before anything is timed."""
    ops = build_ops(workload, seed, q)
    seen = set()
    for op in ops:
        if op.cls in seen or op.known_defect or op.expect_refusal:
            continue
        seen.add(op.cls)
        try:
            op.call()
        except Exception:  # tallied with its input id when the passes run it
            pass
    return ops


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the package and
    run `setup` for this workload."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return statistics.median(times)


# ---------------------------------------------------------------- untraced run

def measure(ops, seconds: float):
    """Whole passes over the pool; after the first, as many more as fill
    `seconds` in total."""
    from workloads import Tally, run_pass

    tally = Tally()
    t0 = perf_counter()
    run_pass(ops, tally)
    first = perf_counter() - t0
    passes = max(1, round(seconds / first))
    for _ in range(passes - 1):
        run_pass(ops, tally)
    return tally, passes


def class_figures(tally) -> dict:
    out = {}
    for cls in tally.classes:
        samples = [t for i, op in tally.ops.items() if op.cls == cls for t in tally.samples[i]]
        fig = {"ops": sum(op.cls == cls for op in tally.ops.values()), "samples": len(samples),
               "rate_per_s": tally.rate([cls]),
               "median_ms": 1000.0 * statistics.median(tally.class_medians(cls))}
        if len(samples) >= 100:
            fig["p90_ms"] = 1000.0 * statistics.quantiles(samples, n=10)[-1]
        out[cls] = fig
    return out


def named_figures(workload: str, tally) -> dict:
    """The per-class figures under the names the workload is known by."""
    if workload == "pipeline":
        return {
            "pipeline.sd_inputs_per_s": {"value": tally.rate(["sd"]), "unit": "1/s"},
            "pipeline.si_inputs_per_s": {"value": tally.rate(["si"]), "unit": "1/s"},
        }
    if workload == "truth-table":
        return {
            f"truth_table.{b.replace('-', '_')}_words_per_s": {"value": tally.rate([b]), "unit": "1/s"}
            for b in ("uncompressed", "standard", "state-dependent", "state-independent")
        }
    if workload == "pricing":
        return {"pricing.gates_per_s": {"value": tally.rate(tally.classes), "unit": "1/s"}}
    return {
        f"cli.{c}_s": {"value": statistics.median(tally.class_medians(c)), "unit": "s",
                       "samples": len(tally.samples[c])}
        for c in ("verify", "compress", "reproduce", "import")
    }


def untraced_run(workload: str, seed: int, seconds: float, q) -> tuple[dict, dict]:
    ops = setup(workload, seed, q)
    tally, passes = measure(ops, seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_s = setup_seconds(workload, seed)

    medians = [1000.0 * statistics.median(tally.class_medians(c)) for c in tally.classes]
    lost = len(tally.rejected) + len(tally.failed)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_s": {"value": tally.rate(tally.classes), "unit": "1/s"},
        "op_ms": {"value": math.exp(statistics.fmean(math.log(m) for m in medians)), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "served_frac": {"value": 1.0 - (lost + len(tally.wrong)) / tally.attempted,
                        "unit": "ratio"},
    }
    detail = {
        "passes": passes,
        "named": named_figures(workload, tally),
        "classes": class_figures(tally),
        "failed_frac": lost / tally.attempted,
        "rejected_known_defects": _dedupe(tally.rejected),
        "failed": tally.failed,
        "wrong": tally.wrong,
    }
    return {"tally": tally, "metrics": metrics}, detail


def _dedupe(rows: list[dict]) -> list[dict]:
    """One entry per input id (the pool repeats every pass)."""
    seen = {}
    for r in rows:
        seen.setdefault(r["id"], {**r, "times": 0})["times"] += 1
    return list(seen.values())


# ---------------------------------------------------------------- traced run

def traced_run(workload: str, seed: int, seconds: float, q) -> tuple[dict, dict]:
    import tracer as tr
    import workloads as w

    t_begin = perf_counter()
    tally = w.Tally()
    extra = {}
    if workload == "cli":
        # startup = subprocess wall - in-process main, per command
        ops = setup(workload, seed, q)

        def build():
            return w.cli_inprocess_ops(seed, q, ROOT)

        base_ops = build()
        w.run_pass(base_ops, w.Tally())  # fills the package's own caches
        for _ in range(CLI_SAMPLES):
            w.run_pass(ops, tally)
            w.run_pass(base_ops, tally)
        for op in ops:
            main_s = 0.0
            if op.id != "import":
                main_s = statistics.median(tally.samples[f"{op.id}/main"])
                extra[f"cli.main_s.{op.id}"] = main_s
            extra[f"cli.startup_s.{op.id}"] = statistics.median(tally.samples[op.id]) - main_s
    else:
        def build():
            return build_ops(workload, seed, q)

        base_ops = setup(workload, seed, q)

    # untraced and traced passes alternate; each traced pass gets inputs
    # built afresh from the seed, untraced, so its counts can be compared
    tracer = tr.Tracer()
    passes, untraced = [], []
    while len(passes) < 2 or perf_counter() - t_begin < seconds:
        t0 = perf_counter()
        w.run_pass(base_ops, tally)
        untraced.append(perf_counter() - t0)
        ops = build()
        first, counters = len(tracer.start), dict(tracer.counters)
        tracer.install(q)
        try:
            t0 = perf_counter()
            w.run_pass(ops, tally, tracer)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append((first, len(tracer.start), counters, dict(tracer.counters), wall))
    untraced_pass = statistics.median(untraced)
    overhead = statistics.median(p[4] / u for p, u in zip(passes, untraced)) - 1.0
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.npz")
    metrics, problems = tr.per_layer(tracer, passes, overhead, extra)
    detail = {
        "traced_passes": len(passes),
        "untraced_pass_s": untraced_pass,
        "self_check": problems or "per-pass counts identical",
        "failed": tally.failed,
        "wrong": tally.wrong,
    }
    return {"tally": tally, "metrics": metrics, "problems": problems}, detail


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    q = load_package()
    import numpy as np

    import gen

    if args.setup_probe:
        setup(args.workload, args.seed, q)
        return 0

    print(json.dumps({"environment": environment(np)}))
    print(json.dumps({"traffic": gen.traffic(args.workload, args.seed)}))
    run = traced_run if args.trace else untraced_run
    result, detail = run(args.workload, args.seed, args.seconds, q)
    print(json.dumps({"detail": detail}, default=str))

    tally = result["tally"]
    declared = declared_metrics()[args.trace]
    metrics = result["metrics"]
    if args.trace:
        metrics = {k: {"value": v, "unit": declared.get(k)} for k, v in metrics.items()}
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        raise SystemExit("error: emitted metrics do not match BENCHMARK.json")
    correct = not tally.wrong and not result.get("problems")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
