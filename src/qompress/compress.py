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

from .exact import BsmModel, TriggerSet, success_probability

BACKENDS = ("uncompressed", "standard", "state-dependent", "state-independent")

# two-qubit equivalents of each kind when no grouping is used; the
# variadic kinds have no fixed decomposition and are rejected there
_CX_EQUIV = {"h": 0, "x": 0, "z": 0, "cx": 1, "cz": 1, "ccx": 3, "ccz": 3}

_ARITY = {"h": 1, "x": 1, "z": 1, "cx": 2, "cz": 2, "ccx": 3, "ccz": 3}
_VARIADIC = ("mcx", "mcz")

# a final amplitude this close to 1 in modulus reads as a basis word
_READOUT_ATOL = 1e-9
# an entry of a word's support below this modulus has cancelled and leaves
_SUPPORT_CUTOFF = 1e-14


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


def _hadamard(codes, amps, bit: int):
    """`h` on the qubit at `bit` of every word's support (codes, amps), a
    slice of words at a time (`schemes._by_slice`, 16 amplitudes of arrays
    per entry); returns the new support, as wide as the widest word's."""
    import numpy as np

    from .qstate import _H, PureState, _check_discard
    from .schemes import _by_slice

    def split(state, codes):
        flip = codes & bit
        lo = codes ^ flip
        codes = np.concatenate([lo, lo | bit], axis=1)
        amps = np.concatenate([state.amps, np.where(flip, -state.amps, state.amps)], axis=1) * _H
        if (flip == flip[:, :1]).all():  # each word's entries share the bit: none meet
            return codes, amps
        # sorted, two entries on one code meet: the second and what cancels leave
        order = np.argsort(codes, axis=1) + np.arange(0, codes.size, codes.shape[1])[:, None]
        codes, amps = codes.ravel()[order], amps.ravel()[order]
        twice = codes[:, 1:] == codes[:, :-1]
        amps[:, :-1] += np.where(twice, amps[:, 1:], 0)
        amps[:, 1:][twice] = 0
        keep = np.abs(amps) > _SUPPORT_CUTOFF
        dropped = np.where(keep, 0, amps)
        if dropped.any():
            _check_discard(dropped, 1)
        counts = keep.sum(axis=1)
        packed = np.arange(counts.max()) < counts[:, None]
        out = np.full(packed.shape, -1), np.zeros(packed.shape, dtype=complex)
        out[0][packed], out[1][packed] = codes[keep], amps[keep]
        return out

    out, lo = None, 0
    for c, a in _by_slice(split, [PureState._fresh(amps.shape[1:], amps)], 16 * amps.shape[1], codes):
        if len(c) == len(codes):
            return c, a
        if out is None or c.shape[1] > out[0].shape[1]:  # a wider slice widens every support
            grown = np.full((len(codes), c.shape[1]), -1), np.zeros((len(codes), c.shape[1]), complex)
            for new, old in zip(grown, out or ()):
                new[:lo, : old.shape[1]] = old[:lo]
            out = grown
        out[0][lo : lo + len(c), : c.shape[1]], out[1][lo : lo + len(c), : c.shape[1]] = c, a
        lo += len(c)
    return out


def _crossing(codes, amps, layout: QuditLayout, deriv: TriggerDerivation, backend: str):
    """Run one crossing's scheme on the supports, writing into `amps`. The
    entries of a word that agree off the crossing's groups form a slice, a
    (d1, d2) state on level pairs l1·d2 + l2: a word's own codes with two
    groups, else a gathered row padded by level -1. A slice c·ψ enters as
    the unit ψ, all in one core call, and leaves as c·Uψ; the router reads
    ψ as a bᵀ through its largest entry, checking the residual as a
    truncation."""
    import numpy as np

    from . import schemes
    from .qstate import PureState, _check_discard

    (g1, g2), t1, t2 = deriv.groups, deriv.first, deriv.second
    d1, d2, n = t1.dim, t2.dim, layout.qubit_count
    low1, low2 = (sum(map(len, layout.groups[g + 1 :])) for g in (g1, g2))
    others = (1 << n) - 1 - (d1 - 1 << low1) - (d2 - 1 << low2)
    x, levels = amps, codes
    if others:  # the valid entries by (word, other groups' bits): each run is a slice
        key = np.where(codes >= 0, np.arange(len(codes))[:, None] << n | codes & others, -1).ravel()
        at = np.argsort(key)[np.count_nonzero(key < 0) :]
        new = np.diff(key[at], prepend=-1) != 0
        which = np.cumsum(new) - 1
        pos = np.arange(len(at)) - np.flatnonzero(new)[which]
        levels = np.full((which[-1] + 1, pos.max() + 1), -1)
        c = codes.reshape(-1)[at]
        levels[which, pos] = (c >> low1 & d1 - 1) * d2 + (c >> low2 & d2 - 1)
        x = np.zeros(levels.shape, dtype=complex)
        x[which, pos] = amps.reshape(-1)[at]
    valid = levels >= 0
    mass = x.real**2 + x.imag**2
    if backend == "state-independent":
        scale = np.sqrt(mass.sum(axis=1))
        unit = PureState._fresh(x.shape[1:], x * (1 / scale)[:, None])
        runs = schemes._run_state_independent(unit, t1, t2, "fast", BsmModel.linear_optics(), levels)
    else:
        l1, l2 = np.divmod(levels, d2)
        top = np.take_along_axis(levels, np.argmax(mass, axis=1)[:, None], axis=1)
        col, row = valid & (l2 == top % d2), valid & (l1 == top // d2)
        a, b = np.zeros((len(x), d1), dtype=complex), np.zeros((len(x), d2), dtype=complex)
        for vec, on, at_level in ((a, col, l1), (b, row, l2)):
            vec[on.nonzero()[0], at_level[on]] = x[on]
            vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        ab = np.take_along_axis(a, l1, axis=1) * np.take_along_axis(b, l2, axis=1) * valid
        scale = np.einsum("we,we->w", ab.conj(), x)
        _check_discard(x - scale[:, None] * ab, 1)
        runs = schemes._run_state_dependent(PureState._fresh((d1,), a), PureState._fresh((d2,), b),
                                            t1, t2, BsmModel.linear_optics())
    del mass  # the run below is where memory peaks; the scheme keeps what it reads

    lo = 0
    for res in runs:  # each slice is written into place and dropped before the next one runs
        out, hi = res.output.amps, lo + len(res.output.amps)
        if backend == "state-dependent":
            out = np.take_along_axis(out.reshape(len(out), -1), levels[lo:hi], axis=1) * valid[lo:hi]
        x[lo:hi] = out * scale[lo:hi, None]
        lo = hi
        del res, out
    if others:
        amps.reshape(-1)[at] = x[which, pos]
    return amps


def simulate_compressed(
    circuit: CircuitIR, layout: QuditLayout, backend: str
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Run every classical input word through the grouped circuit.

    All backends realize the same logic; they only differ in how each
    two-group gate would be executed, so the state-dependent backend
    refuses circuits whose gate order makes its ancillas unpreparable.

    Each word is kept as its support, so the groups may entangle: `codes`
    and `amps`, both (words, s) for the widest support s, a code being the
    groups' levels side by side, first group most significant; padding
    holds amplitude 0 and a negative code. A dense gate (a local gate on
    any backend, every gate on `uncompressed` and `standard`) flips an
    x-kind's target bit where all control bits are set, or negates a
    z-kind's amplitudes where all operand bits are; only a scheme crossing
    keeps an x-kind's Hadamard sandwich, the scheme being the diagonal
    core. A word reads out at its largest squared modulus.

    Errors come in a fixed order. Before any gate runs, the state-dependent
    backend refuses a circuit with a second gate over more than one group,
    and then a gate over three groups raises ValueError. After every gate
    has run, a word that does not end on a computational basis word raises
    CompressionError.
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
    n = circuit.qubit_count
    order = [q for group in layout.groups for q in group]
    bit = {q: 1 << (n - 1 - i) for i, q in enumerate(order)}
    shifts = np.arange(n - 1, -1, -1)
    words = list(itertools.product((0, 1), repeat=n))
    # word w holds qubit q's bit at w >> (n - 1 - q); its code reads them in `order`
    codes = (np.arange(len(words))[:, None] >> shifts[order] & 1) @ (1 << shifts)[:, None]
    amps = np.ones(codes.shape, dtype=complex)

    for i, gate in enumerate(circuit.gates):
        mask = sum(bit[q] for q in gate.operands)
        target = bit[gate.target] if gate.is_x_kind else 0
        if gate.kind == "h":
            codes, amps = _hadamard(codes, amps, mask)
        elif i in crossings and backend not in ("uncompressed", "standard"):
            codes, amps = _hadamard(codes, amps, target) if target else (codes, amps)
            amps = _crossing(codes, amps, layout, crossings[i], backend)
            codes, amps = _hadamard(codes, amps, target) if target else (codes, amps)
        elif target:
            np.bitwise_xor(codes, target, out=codes, where=(codes & mask - target) == mask - target)
        else:
            np.negative(amps, out=amps, where=(codes & mask) == mask)

    mass = amps.real**2 + amps.imag**2
    top = np.argmax(mass, axis=1)
    rows = np.arange(len(words))
    if np.any(np.abs(np.sqrt(mass[rows, top]) - 1.0) > _READOUT_ATOL):
        raise CompressionError("final state is not a computational basis word")
    out = (codes[rows, top][:, None] >> shifts[np.argsort(order)]) & 1
    return dict(zip(words, map(tuple, out.tolist())))


def qfa_circuit() -> CircuitIR:
    """The bundled four-qubit full adder."""
    text = resources.files("qompress").joinpath("data/qfa_circuit.json").read_text()
    return parse_circuit(text)


def qfa_layout() -> QuditLayout:
    """The adder's grouping: three qubits fused into one 8-level register."""
    text = resources.files("qompress").joinpath("data/qfa_layout.json").read_text()
    return parse_layout(text)
