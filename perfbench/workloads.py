"""The four workloads as passes of operations on the package's public API.

An operation is one closed-loop request: the next one starts only after
the previous one returned. Its call is timed; its oracle check runs after
the clock stops.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import gen
import oracle


@dataclass
class Op:
    id: str
    cls: str  # the class its timing is reported under
    size: str  # size bucket for the per-layer scaling view
    units: int  # work items completed when it succeeds
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_defect: str | None = None  # why today's package rejects this input
    defect_errors: tuple[str, ...] = ()  # exception class names it rejects with
    expect_refusal: bool = False  # the oracle's answer is a CompressionError


@dataclass
class Tally:
    """Outcomes and call times of every operation of a run.

    Rates and latencies are built from each operation's median time over
    the passes, so a stall that hits one call does not move them."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    ops: dict[str, Op] = field(default_factory=dict)
    answered: set[str] = field(default_factory=set)  # returned, right or wrong
    served: set[str] = field(default_factory=set)  # returned and checked right
    attempted: int = 0
    rejected: list[dict] = field(default_factory=list)
    failed: list[dict] = field(default_factory=list)
    wrong: list[dict] = field(default_factory=list)

    def record(self, op: Op, seconds: float, result, error: BaseException | None):
        self.attempted += 1
        self.samples.setdefault(op.id, []).append(seconds)
        self.ops[op.id] = op
        name = type(error).__name__ if error is not None else None
        if op.expect_refusal:
            if name != "CompressionError":
                self.wrong.append({"id": op.id, "error": f"expected a refusal, got {name or 'a result'}"})
            return
        if error is None:
            self.answered.add(op.id)
            try:
                op.check(result)
            except Exception as e:  # a malformed answer is a wrong one, too
                self.wrong.append({"id": op.id, "error": f"{type(e).__name__}: {e}"[:300]})
                return
            self.served.add(op.id)
        elif op.known_defect and name in op.defect_errors:
            self.rejected.append({"id": op.id, "defect": op.known_defect, "error": name})
        else:
            self.failed.append({"id": op.id, "error": name, "message": str(error)[:200]})

    @property
    def classes(self) -> list[str]:
        return sorted({op.cls for op in self.ops.values()})

    def _median(self, op_id: str) -> float:
        return statistics.median(self.samples[op_id])

    def rate(self, classes) -> float:
        """Work items served per second of median call time."""
        ids = [i for i, op in self.ops.items() if op.cls in classes]
        busy = sum(self._median(i) for i in ids)
        return sum(self.ops[i].units for i in ids if i in self.served) / busy

    def class_medians(self, cls: str) -> list[float]:
        """Median call times of the class's operations that returned, or
        of all of them when none did."""
        ids = [i for i, op in self.ops.items() if op.cls == cls]
        return [self._median(i) for i in [i for i in ids if i in self.answered] or ids]


def run_pass(ops: list[Op], tally: Tally, tracer=None):
    """One closed-loop pass; with a tracer, each call and each check is a
    harness span tagged with the operation's size bucket."""
    for op in ops:
        error = result = None
        if tracer is not None:
            tracer.set_tag(op.size)
            span = tracer.open("harness.op")
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as e:  # every failure is tallied with its input id
            error = e
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            span = tracer.open("harness.check")
        tally.record(op, seconds, result, error)
        if tracer is not None:
            tracer.close(span)


# ---------------------------------------------------------------- pipeline

def pipeline_ops(seed: int, q) -> list[Op]:
    ops = []
    for inp in gen.pipeline_pool(seed):
        def call(inp=inp):
            model = q.BsmModel.ideal() if inp.model == "ideal" else q.BsmModel.linear_optics()
            if inp.scheme == "sd":
                return q.run_state_dependent(
                    q.PureState((inp.d1,), inp.first), q.PureState((inp.d2,), inp.second),
                    inp.c1, inp.c2, model)
            return q.run_state_independent_joint(
                q.PureState((inp.d1, inp.d2), inp.first), inp.c1, inp.c2, model=model)

        ops.append(Op(
            id=inp.id, cls=inp.scheme, size=f"dim{max(inp.d1, inp.d2)}", units=1,
            call=call, check=lambda r, inp=inp: oracle.check_scheme_result(inp, r),
        ))
    return ops


# ---------------------------------------------------------------- truth table

TT_BACKENDS = ("uncompressed", "standard", "state-dependent", "state-independent")


def truth_table_ops(seed: int, q) -> list[Op]:
    ops = []
    for circ in gen.truth_table_pool(seed):
        ir = q.parse_circuit(circ.circuit_json())
        layout = q.parse_layout(circ.layout_json())
        want = oracle.classical_table(circ)
        for backend in TT_BACKENDS:
            ops.append(Op(
                id=f"{circ.id}/{backend}", cls=backend, size=f"q{circ.qubits}",
                units=2 ** circ.qubits,
                call=lambda ir=ir, layout=layout, b=backend: q.simulate_compressed(ir, layout, b),
                check=lambda got, want=want: oracle.check_truth_table(want, got),
                known_defect=circ.known_defect, defect_errors=("CompressionError",),
                # more than one cross-group gate: the router backend must refuse
                expect_refusal=backend == "state-dependent" and circ.family != "A",
            ))
    return ops


# ---------------------------------------------------------------- pricing

def _rows(report) -> dict[str, tuple]:
    return {r.backend: (r.gate_count, r.success_probability, r.ancilla_count, r.legal)
            for r in report.rows}


def pricing_ops(seed: int, q) -> list[Op]:
    ops = []
    for circ in gen.pricing_pool(seed):
        ctext, ltext = circ.circuit_json(), circ.layout_json()
        want = oracle.expected_rows(circ)

        def call(ctext=ctext, ltext=ltext):
            return _rows(q.cost_report(q.parse_circuit(ctext), q.parse_layout(ltext)))

        ops.append(Op(
            id=circ.id, cls=f"g{len(circ.macros)}", size=f"g{len(circ.macros)}",
            units=len(circ.macros), call=call,
            check=lambda got, want=want: oracle.check_cost_rows(want, got),
            known_defect=circ.known_defect, defect_errors=("ValueError",),
        ))
    return ops


# ---------------------------------------------------------------- cli

def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def adder_circuit(root: Path) -> gen.CircuitInput:
    data = root / "src" / "qompress" / "data"
    c = json.loads((data / "qfa_circuit.json").read_text())
    groups = json.loads((data / "qfa_layout.json").read_text())["groups"]
    return gen.CircuitInput(
        id="adder", family="plain", qubits=c["qubits"],
        groups=tuple(tuple(g) for g in groups),
        macros=tuple(gen.Macro(g["kind"], tuple(g["operands"])) for g in c["gates"]),
        known_defect=None,
    )


def cli_ops(seed: int, root: Path) -> list[Op]:
    env = child_env(root)
    adder = adder_circuit(root)
    first_stdout: dict[str, bytes] = {}

    def check(name, proc):
        key = " ".join(proc.args)
        if first_stdout.setdefault(key, proc.stdout) != proc.stdout:
            raise oracle.OracleMismatch("stdout differs from an earlier run of the same argv")
        if name == "import":
            if proc.stdout:
                raise oracle.OracleMismatch("import printed output")
            return
        oracle.check_cli_payload(name, json.loads(proc.stdout), adder)

    ops = []
    for name, argv in gen.cli_argvs(seed):
        ops.append(Op(
            id=name, cls=name, size=name, units=1,
            # a nonzero exit raises, so it is tallied as a failure
            call=lambda argv=argv: subprocess.run(
                [sys.executable, *argv], env=env, cwd=root, capture_output=True, timeout=120,
                check=True),
            check=lambda proc, name=name: check(name, proc),
        ))
    return ops


def cli_inprocess_ops(seed: int, q, root: Path) -> list[Op]:
    """The same commands through `qompress.cli.main` in this process."""
    adder = adder_circuit(root)

    def call(args):
        out = io.StringIO()
        with redirect_stdout(out):
            code = q.cli.main(args)
        if code != 0:
            raise RuntimeError(f"main returned {code}")
        return out.getvalue()

    ops = []
    for name, argv in gen.cli_argvs(seed):
        if name == "import":
            continue
        args = argv[argv.index("qompress.cli") + 1:]
        ops.append(Op(id=f"{name}/main", cls=name, size=name, units=1,
                      call=lambda args=args: call(args),
                      check=lambda text, name=name: oracle.check_cli_payload(
                          name, json.loads(text), adder)))
    return ops
