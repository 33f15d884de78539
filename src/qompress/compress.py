"""Qubit circuits over qudit groups.

A layout packs qubits into groups; each group becomes one 2^w-level
register with its first-listed qubit as the most significant bit. Gates
that stay inside a group are free local operations. A gate spanning two
groups is one multi-level sign gate between the group registers, and the
four cost rows price the ways of running it.

Parsing and pricing are exact and load no numpy; only the simulation
(`simulate_compressed`) imports numpy and the amplitude modules, when it
runs.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from importlib import resources
from operator import attrgetter

from .exact import BsmModel, TriggerSet, success_probability

BACKENDS = ("uncompressed", "standard", "state-dependent", "state-independent")

# two-qubit equivalents of each kind when no grouping is used; the
# variadic kinds have no fixed decomposition and are rejected there
_CX_EQUIV = {"h": 0, "x": 0, "z": 0, "cx": 1, "cz": 1, "ccx": 3, "ccz": 3}

_ARITY = {"h": 1, "x": 1, "z": 1, "cx": 2, "cz": 2, "ccx": 3, "ccz": 3}
_VARIADIC = ("mcx", "mcz")

# a final amplitude this close to 1 in modulus reads as a basis word
_READOUT_ATOL = 1e-9


class CircuitFormatError(ValueError):
    """Raised when a circuit or layout document is malformed."""


class CompressionError(RuntimeError):
    """Raised when a backend cannot execute the circuit as grouped."""


@dataclass(frozen=True)
class Gate:
    kind: str
    operands: tuple[int, ...]

    def __post_init__(self):
        want = _ARITY.get(self.kind)
        if want is None and self.kind not in _VARIADIC:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        operands = tuple(map(int, self.operands))
        if want is not None and len(operands) != want:
            raise ValueError(f"{self.kind} takes {want} operands, got {len(operands)}")
        if want is None and len(operands) < 2:
            raise ValueError(f"{self.kind} takes at least 2 operands")
        if len(set(operands)) != len(operands):
            raise ValueError(f"repeated operand in {operands}")
        if min(operands) < 0:
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
            if max(gate.operands) >= self.qubit_count:
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
        # each qubit's (group, bit), bit 0 the least significant of its group
        where = {q: (i, len(g) - 1 - pos) for i, g in enumerate(groups) for pos, q in enumerate(g)}
        object.__setattr__(self, "_where", where)
        object.__setattr__(self, "dims", tuple(2 ** len(g) for g in groups))

    @property
    def qubit_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def group_of(self, qubit: int) -> int:
        if qubit not in self._where:
            raise ValueError(f"qubit {qubit} not in any group")
        return self._where[qubit][0]


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        # besides a syntax error (JSONDecodeError), an integer past CPython's
        # int digit limit raises ValueError and deep nesting RecursionError
        raise CircuitFormatError(f"not valid JSON: {e}") from None


def _check_int(value, what: str) -> int:
    if type(value) is not int:  # a JSON number loads as exactly an int, float or bool
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
        for q in entry["operands"]:  # the message is built only for a bad operand
            if type(q) is not int:
                _check_int(q, f"gate {i} operand")
        try:
            gates.append(Gate(entry["kind"], tuple(entry["operands"])))
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
    groups = tuple(tuple(_check_int(q, "group entry") for q in g) for g in data["groups"])
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


def _masks(gate: Gate, layout: QuditLayout) -> dict[int, int]:
    """The gate's operand bits in each group it touches, {group: mask}."""
    masks: dict[int, int] = {}
    for q in gate.operands:
        g, bit = layout._where[q]
        masks[g] = masks.get(g, 0) | 1 << bit
    return masks


def _gate_masks(circuit: CircuitIR, layout: QuditLayout):
    """Each gate with its operand masks: the one pass that tags and crossings are read from."""
    if layout.qubit_count != circuit.qubit_count:
        raise ValueError("layout does not cover the circuit's qubits")
    return ((gate, _masks(gate, layout)) for gate in circuit.gates)


def classify_gates(circuit: CircuitIR, layout: QuditLayout) -> tuple[GateTag, ...]:
    return tuple(GateTag(len(m) == 1, tuple(sorted(m))) for _, m in _gate_masks(circuit, layout))


def _listed(mask: int, width: int) -> TriggerSet:
    """The sorted levels of a width-bit register with every mask bit set, in 2^free steps."""
    levels = [mask]
    for bit in range(width):  # each free bit, lowest first, doubles the list in order
        if not mask >> bit & 1:
            levels += [level | 1 << bit for level in levels]
    return TriggerSet(tuple(levels), 1 << width)


@dataclass(frozen=True)
class TriggerDerivation:
    """Trigger sets of a two-group gate on its group registers, kept as each
    register's operand bits (`masks`) and qubit count (`widths`); the levels
    are listed as a TriggerSet on the first read of `first` or `second`."""

    groups: tuple[int, int]
    masks: tuple[int, int]
    widths: tuple[int, int]
    first = cached_property(lambda self: _listed(self.masks[0], self.widths[0]))
    second = cached_property(lambda self: _listed(self.masks[1], self.widths[1]))

    @property
    def removed(self) -> tuple[int, int]:
        (m1, m2), (w1, w2) = self.masks, self.widths
        return w1 - m1.bit_count(), w2 - m2.bit_count()


def _derivation(masks: dict[int, int], layout: QuditLayout) -> TriggerDerivation:
    if len(masks) != 2:
        spread = "stays inside one group" if len(masks) == 1 else "spans more than two groups"
        raise ValueError(f"gate {spread}")
    (g1, m1), (g2, m2) = sorted(masks.items())
    return TriggerDerivation((g1, g2), (m1, m2), (len(layout.groups[g1]), len(layout.groups[g2])))


def trigger_sets(gate: Gate, layout: QuditLayout) -> TriggerDerivation:
    """Lift a two-group gate to trigger sets on the group registers.

    A register's trigger levels are those with every operand bit set; its
    other bits are free, so it removes as many controls as it has free bits.
    x-kinds are read through their Hadamard sandwich, so the diagonal
    core involves the same qubits as the symmetric sign gate."""
    for q in gate.operands:
        layout.group_of(q)  # a qubit in no group raises ValueError
    return _derivation(_masks(gate, layout), layout)


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
    """The four backend rows, priced from operand masks alone: no trigger level is listed."""
    unc_count, spans = 0, []
    for i, (gate, masks) in enumerate(_gate_masks(circuit, layout)):
        if gate.kind not in _CX_EQUIV:
            raise ValueError(f"{gate.kind!r} has no fixed two-qubit decomposition")
        unc_count += _CX_EQUIV[gate.kind]
        if len(masks) > 1:
            spans.append((i, masks))

    # every gate without a fixed decomposition is refused above, before a gate
    # over three groups raises here
    crossings = tuple((i, _derivation(masks, layout)) for i, masks in spans)
    # a register that removes r controls has 2^r trigger levels; each distinct
    # pair of removed counts is priced once, the probability as an exact power
    std_count = si_count = 0
    si_prob = Fraction(1)
    for (r1, r2), count in Counter(d.removed for _, d in crossings).items():
        std_count += count * 2 ** (r1 + r2)
        si_count += count * (2**r1 + 2**r2)
        si_prob *= success_probability("state-independent", 2**r1, 2**r2) ** count

    sd_count = len(crossings)
    reason = None if sd_count < 2 else (
        f"gate {crossings[1][0]} follows an earlier two-group gate, so its input "
        "marginals are unknown and no router ancilla can be prepared")
    rows = (
        BackendCost("uncompressed", unc_count, Fraction(1, 9) ** unc_count, 0, True),
        BackendCost("standard", std_count, Fraction(1, 9) ** std_count, 0, True),
        BackendCost("state-dependent", sd_count, success_probability("state-dependent", 0, 0) ** sd_count,
                    2 * sd_count, reason is None, reason),
        # a crossing's ladder over k1 + k2 trigger levels takes 2(k1 + k2) + 2 ancillas
        BackendCost("state-independent", si_count, si_prob, 2 * (si_count + sd_count), True),
    )
    return CostReport(rows, crossings)


def _gate(reg, n: int, axes, kind: str):
    """Run one gate in place on a C-contiguous n-qubit register, and return it:
    on the block of its (words, 2, ..., 2) view where all `axes` but the last
    are 1, `h` maps the last axis's halves (lo, hi) to (lo + hi, lo − hi)·H,
    `x` swaps them and `z` negates hi. No view outlives the call."""
    view = reg.reshape((-1,) + (2,) * n)  # a view, since the register is C-contiguous
    block = [1 if a in axes else slice(None) for a in range(n)]
    hi = view[(..., *block)]
    block[axes[-1]] = 0
    lo = view[(..., *block)]
    if kind == "x":
        lo[...], hi[...] = hi, lo.copy()
    elif kind == "z":
        hi *= -1
    else:
        import numpy as np

        from .qstate import _H

        total = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        reg *= _H  # an h has no controls: its block is the whole register
    return reg


def _hadamard(reg, n: int, axis: int):
    """Hadamard on one qubit axis of the (words, 2, ..., 2) view of an n-qubit register."""
    return _gate(reg, n, (axis,), "h")


def _scheme_crossing(reg, deriv: TriggerDerivation, backend: str):
    """Run one crossing's scheme in place on a C-contiguous (words, d_1,
    ..., d_k) register, and return the register.

    The other groups' axes fold into the word axis, so each (word,
    spectator) slice is a (d1, d2) state. A nonzero slice c·ψ enters the
    scheme as the unit input ψ, and its output Uψ is scaled back by c; a
    zero slice stays zero. One squared-modulus pass gives the live slices,
    their scales and the router's largest row and column. When every slice
    is live and the crossing's groups are the register's last axes, the
    scheme reads the register's own rows; otherwise it reads a gathered
    copy of the live ones. The scheme runs a slice of words at a time, and
    each slice's output is written into the rows it came from, through the
    transposed view, once that slice has run, so no second register is
    built and `reg` stays C-contiguous.
    """
    import numpy as np

    from .qstate import PureState
    from .schemes import _run_state_dependent, _run_state_independent

    g1, g2 = deriv.groups
    d1, d2 = deriv.first.dim, deriv.second.dim
    perm = [0] + [1 + g for g in range(reg.ndim - 1) if g not in (g1, g2)] + [1 + g1, 1 + g2]
    moved = reg.transpose(perm)  # a view: writes through it land in `reg`
    x = moved.reshape(-1, d1, d2)  # `reg`'s own rows when g1, g2 are its last axes
    mass = np.abs(x)
    mass *= mass
    total = mass.reshape(len(x), -1).sum(axis=1)
    live = np.flatnonzero(total)
    if len(live) < len(x):
        x = x[live]
    model = BsmModel.linear_optics()
    if backend == "state-independent":
        scale = np.sqrt(total[live])
        x *= 1 / scale[:, None, None]  # bit for bit x / scale, at half its cost
        joint = PureState._fresh((d1, d2), x)
        runs = _run_state_independent(joint, deriv.first, deriv.second, "fast", model)
    else:
        # one crossing only, so every slice is a product a bᵀ: a is read off
        # its largest column and b off its largest row
        rows = np.arange(len(x))
        a = x[rows, :, np.argmax(mass.sum(axis=1)[live], axis=1)]
        b = x[rows, np.argmax(mass.sum(axis=2)[live], axis=1)]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        scale = np.einsum("wi,wj,wij->w", a.conj(), b.conj(), x)
        runs = _run_state_dependent(
            PureState._fresh((d1,), a), PureState._fresh((d2,), b), deriv.first, deriv.second, model
        )
    del x, mass  # the run below is where memory peaks; the scheme keeps what it reads

    done = 0
    # the scheme hands its words back a slice at a time; each is written
    # into place and dropped before the next one runs, since an output is
    # a view that keeps every branch of its slice alive
    for amps in map(attrgetter("output.amps"), runs):
        at = np.unravel_index(live[done : done + len(amps)], moved.shape[:-2])
        moved[at] = amps * scale[done : done + len(amps), None, None]
        done += len(amps)
        del amps
    return reg


def simulate_compressed(
    circuit: CircuitIR, layout: QuditLayout, backend: str
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Run every classical input word through the grouped circuit.

    All backends realize the same logic; they only differ in how each
    two-group gate would be executed, so the state-dependent backend
    refuses circuits whose gate order makes its ancillas unpreparable.

    The words run together, one gate at a time, on one dense register of
    shape (words, d_1, ..., d_k), one axis per group in layout order, so the
    groups may entangle. Every `h`, and every dense gate (a local gate on
    any backend, every gate on `uncompressed` and `standard`), runs in place
    on the register's qubit view: a z-kind negates the block where all its
    operands are 1, and an x-kind, whose Hadamard sandwich H·S·H is the
    multi-controlled flip, swaps its target's halves of the block where its
    controls are 1. Only a scheme crossing keeps the sandwich, since the
    scheme realizes the diagonal core; the scheme backends run it once per
    crossing and word chunk, and write its output back into the rows of the
    register it read (`_scheme_crossing`). A chunk holds as many amplitudes
    as all words' widest per-word state (the group registers side by side,
    or a crossing's d1·d2 product), so two groups with a crossing run in one
    chunk while more groups, whose register grows as 4^n, run in several.

    Errors come in a fixed order. Before any gate runs, the state-dependent
    backend refuses a circuit with a second gate over more than one group,
    and then a gate over three groups raises ValueError. After every chunk
    has run every gate, a word that does not end on a computational basis
    word raises CompressionError.
    """
    import numpy as np

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    spans = [i for i, tag in enumerate(classify_gates(circuit, layout)) if not tag.local]
    if backend == "state-dependent" and len(spans) > 1:
        raise CompressionError(
            f"gate {spans[1]} follows an earlier two-group gate; "
            "no router ancilla can be matched to its input")
    # a gate over three groups raises here
    crossings = {i: trigger_sets(circuit.gates[i], layout) for i in spans}
    n, dims = circuit.qubit_count, layout.dims
    # each qubit's axis in the (words, 2, ..., 2) view, first-listed most significant
    axis = {q: i for i, q in enumerate(q for group in layout.groups for q in group)}
    order = list(axis)
    shifts = np.arange(n - 1, -1, -1)
    words = list(itertools.product((0, 1), repeat=n))
    # word w holds qubit q's bit at w >> (n - 1 - q); its level reads them in `order`
    codes = (np.arange(len(words))[:, None] >> shifts[order] & 1) @ (1 << shifts)
    # a chunk of `step` words holds step·2^n amplitudes, as many as all 2^n
    # words' widest per-word state
    step = max([sum(dims)] + [dims[d.groups[0]] * dims[d.groups[1]] for d in crossings.values()])

    levels, peaks = [], []
    for lo in range(0, len(words), step):
        chunk = codes[lo : lo + step]
        reg = np.zeros((len(chunk),) + dims, dtype=complex)
        reg.reshape(len(chunk), -1)[np.arange(len(chunk)), chunk] = 1.0
        for i, gate in enumerate(circuit.gates):
            if gate.kind == "h":
                reg = _hadamard(reg, n, axis[gate.operands[0]])
            elif i not in crossings or backend in ("uncompressed", "standard"):
                reg = _gate(reg, n, [axis[q] for q in gate.operands], "x" if gate.is_x_kind else "z")
            else:
                if gate.is_x_kind:
                    reg = _hadamard(reg, n, axis[gate.target])
                reg = _scheme_crossing(reg, crossings[i], backend)
                if gate.is_x_kind:
                    reg = _hadamard(reg, n, axis[gate.target])
        flat = np.abs(reg.reshape(len(chunk), -1))
        levels.append(np.argmax(flat, axis=1))
        peaks.append(flat[np.arange(len(chunk)), levels[-1]])

    if np.any(np.abs(np.concatenate(peaks) - 1.0) > _READOUT_ATOL):
        raise CompressionError("final state is not a computational basis word")
    out = np.empty((len(words), n), dtype=int)
    out[:, order] = (np.concatenate(levels)[:, None] >> shifts) & 1
    return dict(zip(words, map(tuple, out.tolist())))


def qfa_circuit() -> CircuitIR:
    """The bundled four-qubit full adder."""
    text = resources.files("qompress").joinpath("data/qfa_circuit.json").read_text()
    return parse_circuit(text)


def qfa_layout() -> QuditLayout:
    """The adder's grouping: three qubits fused into one 8-level register."""
    text = resources.files("qompress").joinpath("data/qfa_layout.json").read_text()
    return parse_layout(text)
