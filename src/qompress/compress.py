"""Qubit circuits over qudit groups.

A layout packs qubits into groups; each group becomes one 2^w-level
register with its first-listed qubit as the most significant bit. Gates
that stay inside a group are free local operations. A gate spanning two
groups is one multi-level sign gate between the group registers, and the
four cost rows price the ways of running it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from importlib import resources
from operator import attrgetter

import numpy as np

from .mcz import BsmModel, TriggerSet, _signs
from .qstate import PureState, apply, hadamard
from .schemes import _run_state_dependent, _run_state_independent, success_probability

BACKENDS = ("uncompressed", "standard", "state-dependent", "state-independent")

# two-qubit equivalents of each kind when no grouping is used; the
# variadic kinds have no fixed decomposition and are rejected there
_CX_EQUIV = {"h": 0, "x": 0, "z": 0, "cx": 1, "cz": 1, "ccx": 3, "ccz": 3}

_ARITY = {"h": 1, "x": 1, "z": 1, "cx": 2, "cz": 2, "ccx": 3, "ccz": 3}
_VARIADIC = ("mcx", "mcz")

_ENTANGLEMENT_ATOL = 1e-9


class CircuitFormatError(ValueError):
    """Raised when a circuit or layout document is malformed."""


class CompressionError(RuntimeError):
    """Raised when a backend cannot execute the circuit as grouped."""


@dataclass(frozen=True)
class Gate:
    kind: str
    operands: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _ARITY and self.kind not in _VARIADIC:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        operands = tuple(int(q) for q in self.operands)
        want = _ARITY.get(self.kind)
        if want is not None and len(operands) != want:
            raise ValueError(f"{self.kind} takes {want} operands, got {len(operands)}")
        if want is None and len(operands) < 2:
            raise ValueError(f"{self.kind} takes at least 2 operands")
        if len(set(operands)) != len(operands):
            raise ValueError(f"repeated operand in {operands}")
        if any(q < 0 for q in operands):
            raise ValueError(f"negative operand in {operands}")
        object.__setattr__(self, "operands", operands)

    @property
    def is_x_kind(self) -> bool:
        return self.kind in ("x", "cx", "ccx", "mcx")

    @property
    def target(self) -> int:
        """The flipped qubit of an x-kind gate (the last operand)."""
        if not self.is_x_kind:
            raise ValueError(f"{self.kind} has no target")
        return self.operands[-1]


@dataclass(frozen=True)
class CircuitIR:
    qubit_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("need at least one qubit")
        for i, gate in enumerate(self.gates):
            if any(q >= self.qubit_count for q in gate.operands):
                raise ValueError(f"gate {i} addresses a qubit outside the register")
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class QuditLayout:
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(q) for q in g) for g in self.groups)
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be nonempty")
        flat = [q for g in groups for q in g]
        if len(set(flat)) != len(flat):
            raise ValueError("a qubit appears in more than one group")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must cover qubits 0..n-1 exactly")
        object.__setattr__(self, "groups", groups)

    @property
    def qubit_count(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(2 ** len(g) for g in self.groups)

    def group_of(self, qubit: int) -> int:
        for i, g in enumerate(self.groups):
            if qubit in g:
                return i
        raise ValueError(f"qubit {qubit} not in any group")


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitFormatError(f"not valid JSON: {e}") from None


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CircuitFormatError(f"{what} must be an integer, got {value!r}")
    return value


def parse_circuit(text: str) -> CircuitIR:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"qubits", "gates"}:
        raise CircuitFormatError("circuit must carry exactly the keys 'qubits' and 'gates'")
    qubits = _check_int(data["qubits"], "'qubits'")
    if not isinstance(data["gates"], list):
        raise CircuitFormatError("'gates' must be a list")
    gates = []
    for i, entry in enumerate(data["gates"]):
        if not isinstance(entry, dict) or set(entry) != {"kind", "operands"}:
            raise CircuitFormatError(f"gate {i} must carry exactly 'kind' and 'operands'")
        if not isinstance(entry["kind"], str):
            raise CircuitFormatError(f"gate {i}: kind must be a string")
        if not isinstance(entry["operands"], list):
            raise CircuitFormatError(f"gate {i}: operands must be a list")
        ops = tuple(_check_int(q, f"gate {i} operand") for q in entry["operands"])
        try:
            gates.append(Gate(entry["kind"], ops))
        except ValueError as e:
            raise CircuitFormatError(f"gate {i}: {e}") from None
    try:
        return CircuitIR(qubits, tuple(gates))
    except ValueError as e:
        raise CircuitFormatError(str(e)) from None


def parse_layout(text: str) -> QuditLayout:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"groups"}:
        raise CircuitFormatError("layout must carry exactly the key 'groups'")
    if not isinstance(data["groups"], list) or not all(isinstance(g, list) for g in data["groups"]):
        raise CircuitFormatError("'groups' must be a list of lists")
    groups = tuple(
        tuple(_check_int(q, "group entry") for q in g) for g in data["groups"]
    )
    try:
        return QuditLayout(groups)
    except ValueError as e:
        raise CircuitFormatError(str(e)) from None


def circuit_to_dict(circuit: CircuitIR) -> dict:
    return {
        "qubits": circuit.qubit_count,
        "gates": [{"kind": g.kind, "operands": list(g.operands)} for g in circuit.gates],
    }


def layout_to_dict(layout: QuditLayout) -> dict:
    return {"groups": [list(g) for g in layout.groups]}


@dataclass(frozen=True)
class GateTag:
    local: bool
    groups: tuple[int, ...]


def classify_gates(circuit: CircuitIR, layout: QuditLayout) -> tuple[GateTag, ...]:
    if layout.qubit_count != circuit.qubit_count:
        raise ValueError("layout does not cover the circuit's qubits")
    tags = []
    for gate in circuit.gates:
        gs = tuple(sorted({layout.group_of(q) for q in gate.operands}))
        tags.append(GateTag(len(gs) == 1, gs))
    return tuple(tags)


@dataclass(frozen=True)
class TriggerDerivation:
    """Trigger sets of a two-group gate on its group registers."""

    first: TriggerSet
    second: TriggerSet
    removed: tuple[int, int]
    groups: tuple[int, int]


def _group_triggers(gate: Gate, layout: QuditLayout, g: int) -> tuple[TriggerSet, int]:
    group = layout.groups[g]
    w = len(group)
    positions = [group.index(q) for q in gate.operands if q in group]
    levels = tuple(
        m for m in range(2 ** w)
        if all((m >> (w - 1 - pos)) & 1 for pos in positions)
    )
    return TriggerSet(levels, 2 ** w), w - len(positions)


def trigger_sets(gate: Gate, layout: QuditLayout) -> TriggerDerivation:
    """Lift a two-group gate to trigger sets on the group registers.

    x-kinds are read through their Hadamard sandwich, so the diagonal
    core involves the same qubits as the symmetric sign gate."""
    gs = sorted({layout.group_of(q) for q in gate.operands})
    if len(gs) == 1:
        raise ValueError("gate stays inside one group")
    if len(gs) > 2:
        raise ValueError("gate spans more than two groups")
    g1, g2 = gs
    first, r1 = _group_triggers(gate, layout, g1)
    second, r2 = _group_triggers(gate, layout, g2)
    return TriggerDerivation(first, second, (r1, r2), (g1, g2))


@dataclass(frozen=True)
class BackendCost:
    backend: str
    gate_count: int
    success_probability: Fraction
    ancilla_count: int
    legal: bool
    reason: str | None = None


@dataclass(frozen=True)
class CostReport:
    """The four backend rows of a grouped circuit. `crossings` holds each
    two-group gate's index with the trigger-set derivation the rows were
    priced from; `compress --format json` prints them as `nonlocal_gates`."""

    rows: tuple[BackendCost, ...]
    crossings: tuple[tuple[int, TriggerDerivation], ...]

    def row(self, backend: str) -> BackendCost:
        for r in self.rows:
            if r.backend == backend:
                return r
        raise KeyError(backend)


def cost_report(circuit: CircuitIR, layout: QuditLayout) -> CostReport:
    tags = classify_gates(circuit, layout)

    unc_count = 0
    for gate in circuit.gates:
        if gate.kind not in _CX_EQUIV:
            raise ValueError(f"{gate.kind!r} has no fixed two-qubit decomposition")
        unc_count += _CX_EQUIV[gate.kind]

    crossings = tuple(
        (i, trigger_sets(circuit.gates[i], layout)) for i, tag in enumerate(tags) if not tag.local
    )
    derivs = [d for _, d in crossings]

    std_count = sum(len(d.first) * len(d.second) for d in derivs)

    sd_count = len(crossings)
    reason = None
    if sd_count > 1:
        reason = (
            f"gate {crossings[1][0]} follows an earlier two-group gate, so its input "
            "marginals are unknown and no router ancilla can be prepared"
        )

    si_counts = [len(d.first) + len(d.second) for d in derivs]
    si_prob = reduce(
        lambda acc, d: acc * success_probability("state-independent", len(d.first), len(d.second)),
        derivs,
        Fraction(1),
    )

    rows = (
        BackendCost("uncompressed", unc_count, Fraction(1, 9) ** unc_count, 0, True),
        BackendCost("standard", std_count, Fraction(1, 9) ** std_count, 0, True),
        BackendCost(
            "state-dependent",
            sd_count,
            success_probability("state-dependent", 0, 0) ** sd_count,
            2 * sd_count,
            reason is None,
            reason,
        ),
        BackendCost(
            "state-independent",
            sum(si_counts),
            si_prob,
            sum(2 * k + 2 for k in si_counts),
            True,
        ),
    )
    return CostReport(rows, crossings)


def _hadamard_on(factors: list[np.ndarray], layout: QuditLayout, qubit: int):
    """Hadamard on one qubit, in place in its group's stacked (words, 2^w) factor."""
    g = layout.group_of(qubit)
    group, factor = layout.groups[g], factors[g]
    state = PureState((len(factor),) + (2,) * len(group), factor)
    factors[g] = apply(hadamard().on(1 + group.index(qubit)), state).amps.reshape(len(factor), -1)


def _refactor(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each (d1, d2) slice of a stacked joint state into its two factors."""
    u, s, vh = np.linalg.svd(joint)
    # both dims are at least 2, so every slice has a second singular value
    entangled = np.flatnonzero(s[:, 1] > _ENTANGLEMENT_ATOL)
    if entangled.size:
        raise CompressionError(
            f"groups became entangled (second singular value {s[entangled[0], 1]:.3e}); "
            "the factored register layout cannot represent this state"
        )
    return u[:, :, 0] * s[:, :1], vh[:, 0]


def simulate_compressed(
    circuit: CircuitIR, layout: QuditLayout, backend: str
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Run every classical input word through the grouped circuit.

    All backends realize the same logic; they only differ in how each
    two-group gate would be executed, so the state-dependent backend
    refuses circuits whose gate order makes its ancillas unpreparable.

    All words run together, one gate at a time: each group holds one
    (words, 2^w) factor. Every gate but `h` is a sign flip on the levels
    where all its operands are set, inside a Hadamard on the target for
    x-kinds. The scheme backends run their scheme once per crossing, with
    the words as its batch. A failure is raised at the earliest gate where any word
    fails, for the lowest such word; the final basis-word readout counts
    as coming after the last gate. The state-dependent refusal comes
    first, before any gate runs.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    tags = classify_gates(circuit, layout)
    if backend == "state-dependent":
        later = [i for i, tag in enumerate(tags) if not tag.local][1:]
        if later:
            raise CompressionError(
                f"gate {later[0]} follows an earlier two-group gate; "
                "no router ancilla can be matched to its input"
            )
    words = list(itertools.product((0, 1), repeat=circuit.qubit_count))
    bits = np.array(words)
    # bit shifts of each group's qubits, first-listed most significant
    shifts = [np.arange(len(group) - 1, -1, -1) for group in layout.groups]
    factors = [
        np.eye(2 ** len(group), dtype=complex)[bits[:, list(group)] @ (1 << sh)]
        for group, sh in zip(layout.groups, shifts)
    ]

    for gate, tag in zip(circuit.gates, tags):
        if gate.kind == "h":
            _hadamard_on(factors, layout, gate.operands[0])
            continue
        if gate.is_x_kind:
            _hadamard_on(factors, layout, gate.target)
        if tag.local:
            g = tag.groups[0]
            factors[g] = factors[g] * _signs(_group_triggers(gate, layout, g)[0])
        else:
            deriv = trigger_sets(gate, layout)
            g1, g2 = deriv.groups
            d1, d2 = deriv.first.dim, deriv.second.dim
            if backend in ("uncompressed", "standard"):
                # no name for the product: it is freed before the SVD
                joint = (
                    factors[g1][:, :, None] * factors[g2][:, None, :]
                    * _signs(deriv.first, deriv.second)
                )
            else:
                if backend == "state-dependent":
                    runs = _run_state_dependent(
                        PureState((d1,), factors[g1]), PureState((d2,), factors[g2]),
                        deriv.first, deriv.second, BsmModel.linear_optics(),
                    )
                else:
                    runs = _run_state_independent(
                        PureState((d1, d2), factors[g1][:, :, None] * factors[g2][:, None, :]),
                        deriv.first, deriv.second, "fast", BsmModel.linear_optics(),
                    )
                # the scheme runs once per crossing over all words and hands them
                # back a slice at a time; map holds no finished slice's result
                # while the next slice runs
                joint = np.concatenate(list(map(attrgetter("output.amps"), runs)))
            factors[g1], factors[g2] = _refactor(joint.reshape(-1, d1, d2))
        if gate.is_x_kind:
            _hadamard_on(factors, layout, gate.target)

    out = np.empty_like(bits)
    for group, sh, factor in zip(layout.groups, shifts, factors):
        levels = np.argmax(np.abs(factor), axis=1)
        peaks = np.abs(factor[np.arange(len(words)), levels])
        if np.any(np.abs(peaks - 1.0) > _ENTANGLEMENT_ATOL):
            raise CompressionError("final state is not a computational basis word")
        out[:, list(group)] = (levels[:, None] >> sh) & 1
    return dict(zip(words, map(tuple, out.tolist())))


def qfa_circuit() -> CircuitIR:
    """The bundled four-qubit full adder."""
    text = resources.files("qompress").joinpath("data/qfa_circuit.json").read_text()
    return parse_circuit(text)


def qfa_layout() -> QuditLayout:
    """The adder's grouping: three qubits fused into one 8-level register."""
    text = resources.files("qompress").joinpath("data/qfa_layout.json").read_text()
    return parse_layout(text)
