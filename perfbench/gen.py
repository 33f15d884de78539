"""Seeded inputs for the four workloads; numpy and the standard library only.

Every pool is stratified: the seed fills in trigger levels, amplitudes,
operands and layouts, while the shape of each input (register dims,
trigger counts, gate counts, families, the share of known-defect inputs)
is fixed by its slot. That keeps the cost of a pass nearly independent of
the seed, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PIPELINE_DIMS = (2, 4, 8, 16)
PIPELINE_SLOTS = 8  # calls per (scheme, d1, d2) in a pass


def _spread_counts(d: int, slots: int) -> list[int]:
    """Trigger counts 1..d-1 spread evenly over the slots of one group."""
    return [1 + ((2 * j + 1) * (d - 1)) // (2 * slots) for j in range(slots)]


def _random_levels(rng: np.random.Generator, d: int, k: int) -> tuple[int, ...]:
    return tuple(sorted(int(i) for i in rng.choice(d, size=k, replace=False)))


def _random_amps(rng: np.random.Generator, shape) -> np.ndarray:
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class SchemeInput:
    id: str
    scheme: str  # "sd" (product input) or "si" (joint input)
    model: str  # "linear-optics" or "ideal"
    d1: int
    d2: int
    c1: tuple[int, ...]
    c2: tuple[int, ...]
    basis: bool
    first: np.ndarray  # sd: register 1 amplitudes; si: the (d1, d2) joint amplitudes
    second: np.ndarray | None  # sd: register 2 amplitudes


def pipeline_pool(seed: int) -> list[SchemeInput]:
    """Half state-dependent calls on product inputs, half state-independent
    calls on entangled joint inputs, over every (d1, d2) pair of
    PIPELINE_DIMS. One slot in four uses the ideal analyzer; one
    state-dependent slot in eight gets basis inputs whose first register
    has no support on its triggers (the uniform-pattern ancilla fallback)."""
    rng = np.random.default_rng([seed, 1])
    pool = []
    for scheme in ("sd", "si"):
        for d1 in PIPELINE_DIMS:
            for d2 in PIPELINE_DIMS:
                k1s = _spread_counts(d1, PIPELINE_SLOTS)
                k2s = [int(k) for k in rng.permutation(_spread_counts(d2, PIPELINE_SLOTS))]
                for j in range(PIPELINE_SLOTS):
                    c1 = _random_levels(rng, d1, k1s[j])
                    c2 = _random_levels(rng, d2, k2s[j])
                    basis = scheme == "sd" and j == 5
                    if basis:
                        free = [m for m in range(d1) if m not in c1]
                        first = np.zeros(d1, dtype=complex)
                        first[free[int(rng.integers(len(free)))]] = 1.0
                        second = np.zeros(d2, dtype=complex)
                        second[int(rng.integers(d2))] = 1.0
                    elif scheme == "sd":
                        first, second = _random_amps(rng, d1), _random_amps(rng, d2)
                    else:
                        first, second = _random_amps(rng, (d1, d2)), None
                    pool.append(SchemeInput(
                        id=f"{scheme}-{d1}x{d2}-{j}",
                        scheme=scheme,
                        model="ideal" if j % 4 == 3 else "linear-optics",
                        d1=d1, d2=d2, c1=c1, c2=c2, basis=basis,
                        first=first, second=second,
                    ))
    return pool


# ---------------------------------------------------------------- circuits

@dataclass(frozen=True)
class Macro:
    """One logical step of a generated circuit.

    `hczh` is a cz between a control and a target sandwiched by Hadamards
    on the target (a cx in disguise); `entangle` is h(c), cx(c, t),
    cx(c, t), h(c), which is the identity on basis words but entangles
    the groups in between. Everything else is a single gate."""

    kind: str
    operands: tuple[int, ...]

    def gates(self) -> list[tuple[str, tuple[int, ...]]]:
        if self.kind == "hczh":
            c, t = self.operands
            return [("h", (t,)), ("cz", (c, t)), ("h", (t,))]
        if self.kind == "entangle":
            c, t = self.operands
            return [("h", (c,)), ("cx", (c, t)), ("cx", (c, t)), ("h", (c,))]
        return [(self.kind, self.operands)]


@dataclass(frozen=True)
class CircuitInput:
    id: str
    family: str
    qubits: int
    groups: tuple[tuple[int, ...], ...]
    macros: tuple[Macro, ...]
    known_defect: str | None  # why today's package is expected to reject it

    @property
    def gate_list(self) -> list[tuple[str, tuple[int, ...]]]:
        return [g for m in self.macros for g in m.gates()]

    def circuit_json(self) -> str:
        return json.dumps({
            "qubits": self.qubits,
            "gates": [{"kind": k, "operands": list(ops)} for k, ops in self.gate_list],
        })

    def layout_json(self) -> str:
        return json.dumps({"groups": [list(g) for g in self.groups]})


def _random_groups(rng: np.random.Generator, sizes: list[int]) -> tuple[tuple[int, ...], ...]:
    order = [int(q) for q in rng.permutation(sum(sizes))]
    groups, at = [], 0
    for s in sizes:
        groups.append(tuple(order[at:at + s]))
        at += s
    return tuple(groups)


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _local_macro(rng, group: tuple[int, ...]) -> Macro:
    kind = _pick(rng, ("x", "cx", "ccx", "cz", "ccz", "mcx", "mcz", "hczh"))
    arity = {"x": 1, "cx": 2, "cz": 2, "hczh": 2, "ccx": 3, "ccz": 3}.get(kind)
    if arity is None:
        arity = int(rng.integers(2, len(group) + 1))
    ops = tuple(int(q) for q in rng.choice(group, size=arity, replace=False))
    return Macro(kind, ops)


def _cross_macro(rng, g1: tuple[int, ...], g2: tuple[int, ...], kind: str, arity: int = 3) -> Macro:
    """A gate touching both groups; `arity` applies to mcx and mcz only."""
    arity = {"cx": 2, "cz": 2, "hczh": 2, "ccx": 3, "ccz": 3}.get(kind, arity)
    arity = min(arity, len(g1) + len(g2))
    # at least one operand from each group, the rest from either
    first = int(rng.choice(g1))
    second = int(rng.choice(g2))
    rest = [q for q in g1 + g2 if q not in (first, second)]
    extra = [int(q) for q in rng.choice(rest, size=arity - 2, replace=False)]
    ops = [first, second] + extra
    return Macro(kind, tuple(int(q) for q in rng.permutation(ops)))


_CROSS_KINDS = ("cx", "ccx", "cz", "ccz", "mcx", "mcz", "hczh")

# per pass: (qubits, family) slots; 1 circuit in 8 is an entangler
TRUTH_TABLE_SLOTS = (
    (6, "A"), (6, "A"), (6, "B"), (6, "E"), (6, "A"), (6, "B"), (6, "B"),
    (8, "A"),
)


def truth_table_pool(seed: int) -> list[CircuitInput]:
    """Circuits of 8-12 gates on two equal groups (3+3 or 4+4 qubits).

    Family A has exactly one cross-group gate, family B three, family E
    carries an `entangle` step (two cross-group cx) plus local gates."""
    rng = np.random.default_rng([seed, 2])
    pool = []
    for i, (n, family) in enumerate(TRUTH_TABLE_SLOTS):
        groups = _random_groups(rng, [n // 2, n // 2])
        target_len = 8 + i % 5
        cross = {"A": 1, "B": 3, "E": 0}[family]
        macros: list[Macro] = []
        if family == "E":
            c = int(rng.choice(groups[0]))
            t = int(rng.choice(groups[1]))
            macros.append(Macro("entangle", (c, t)) if rng.integers(2) else Macro("entangle", (t, c)))
        # the cross-group kinds rotate by slot, so the cost of a pass does
        # not hinge on which kinds the seed happens to draw
        for c in range(cross):
            kind = _CROSS_KINDS[(2 * i + c) % len(_CROSS_KINDS)]
            macros.append(_cross_macro(rng, groups[0], groups[1], kind, 3 + (i + c) % 3))
        length = sum(len(m.gates()) for m in macros)
        while length < target_len:
            m = _local_macro(rng, groups[int(rng.integers(2))])
            if length + len(m.gates()) > target_len:
                continue
            macros.append(m)
            length += len(m.gates())
        order = [int(j) for j in rng.permutation(len(macros))]
        pool.append(CircuitInput(
            id=f"tt-{i}-{n}q-{family}",
            family=family,
            qubits=n,
            groups=groups,
            macros=tuple(macros[j] for j in order),
            known_defect="entangles the groups mid-circuit" if family == "E" else None,
        ))
    return pool


PRICING_SIZES = (100, 300, 1000)
PRICING_PER_SIZE = 8
_DEFECTS = {100: "mcx", 300: "mcz", 1000: "three-group"}


_PRICING_KINDS = ("h", "x", "z", "cx", "cz", "ccx", "ccz")


def _pricing_group_sizes(n: int) -> list[int]:
    """Sizes 2, 3, 4, 2, 3, 4, ... summing to n (the last ones adjusted)."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(2 + len(sizes) % 3)
    extra = sum(sizes) - n
    while extra:
        # shrink the largest groups, never below 2
        i = sizes.index(max(sizes))
        if sizes[i] == 2:
            sizes.pop(i)
            extra -= 2
            continue
        sizes[i] -= 1
        extra -= 1
    return sizes


def pricing_pool(seed: int) -> list[CircuitInput]:
    """Circuits of 100, 300 and 1000 gates on 24-40 qubits in groups of
    2-4, over h, x, z, cx, cz, ccx and ccz. One circuit per size in eight
    carries a gate today's pricer rejects: mcx, mcz, or a ccx spanning
    three groups.

    The cost of `cost_report` grows with the number of cross-group gates,
    so the kinds come in shuffled blocks of all seven and every other
    multi-qubit gate crosses groups: the seed moves operands, not cost."""
    rng = np.random.default_rng([seed, 3])
    pool = []
    for size in PRICING_SIZES:
        for j in range(PRICING_PER_SIZE):
            n = 24 + (16 * j) // (PRICING_PER_SIZE - 1)
            groups = _random_groups(rng, [int(s) for s in rng.permutation(_pricing_group_sizes(n))])
            macros = []
            multi = 0
            while len(macros) < size:
                for kind in rng.permutation(_PRICING_KINDS)[: size - len(macros)]:
                    kind = str(kind)
                    arity = {"h": 1, "x": 1, "z": 1, "cx": 2, "cz": 2}.get(kind, 3)
                    if arity == 1:
                        ops = (int(rng.choice(_pick(rng, groups))),)
                    elif multi % 2:
                        fits = [g for g in groups if len(g) >= arity]
                        ops = tuple(int(q) for q in rng.choice(_pick(rng, fits), size=arity, replace=False))
                    else:
                        picks = rng.choice(len(groups), size=2, replace=False)
                        ops = _cross_macro(rng, groups[int(picks[0])], groups[int(picks[1])], kind).operands
                    multi += arity > 1
                    macros.append(Macro(kind, ops))
            defect = None
            if j == PRICING_PER_SIZE - 1:
                defect = _DEFECTS[size]
                picks = rng.choice(len(groups), size=3, replace=False)
                g1, g2, g3 = (groups[int(p)] for p in picks)
                if defect == "three-group":
                    bad = Macro("ccx", tuple(int(rng.choice(g)) for g in (g1, g2, g3)))
                else:
                    bad = _cross_macro(rng, g1, g2, defect, 3)
                macros[int(rng.integers(size))] = bad
            pool.append(CircuitInput(
                id=f"price-{size}-{j}",
                family=defect or "plain",
                qubits=n,
                groups=groups,
                macros=tuple(macros),
                known_defect=None if defect is None else f"{defect} gate",
            ))
    return pool


def cli_argvs(seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv after the interpreter) for each CLI step of a pass."""
    rng = np.random.default_rng([seed, 4])
    s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
    return [
        ("verify", ["-m", "qompress.cli", "verify", "--format", "json", "--seed", str(s1)]),
        ("compress", ["-m", "qompress.cli", "compress", "--format", "json"]),
        ("reproduce", ["-m", "qompress.cli", "reproduce", "--format", "json", "--seed", str(s2)]),
        ("import", ["-c", "import qompress"]),
    ]


# ---------------------------------------------------------------- traffic

def _shares(values) -> dict[str, float]:
    values = list(values)
    out = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return {k: c / len(values) for k, c in sorted(out.items())}


def _gate_bucket(n: int) -> str:
    return "8-9" if n <= 9 else "10-12" if n <= 12 else str(n)


def traffic(workload: str, seed: int) -> dict:
    """The input properties of one pass, as shares, so a later claim that
    depends on one of them can cite how common it is."""
    if workload == "pipeline":
        pool = pipeline_pool(seed)
        return {
            "ops": len(pool),
            "scheme": _shares(p.scheme for p in pool),
            "analyzer": _shares(p.model for p in pool),
            "register_dim": _shares(d for p in pool for d in (p.d1, p.d2)),
            "joint_dim": _shares(p.d1 * p.d2 for p in pool),
            "trigger_count": _shares(len(c) for p in pool for c in (p.c1, p.c2)),
            "basis_inputs": sum(p.basis for p in pool) / len(pool),
            "expected_rejected": 0.0,
        }
    if workload == "truth-table":
        pool = truth_table_pool(seed)
        # four backends per circuit; family A alone runs on the router backend
        ops = 4 * len(pool)
        return {
            "circuits": len(pool),
            "ops": ops,
            "qubits": _shares(c.qubits for c in pool),
            "gate_count": _shares(_gate_bucket(len(c.gate_list)) for c in pool),
            "family": _shares(c.family for c in pool),
            "expected_refused": sum(c.family != "A" for c in pool) / ops,
            "expected_rejected": sum(3 for c in pool if c.known_defect) / ops,
        }
    if workload == "pricing":
        pool = pricing_pool(seed)
        return {
            "circuits": len(pool),
            "gate_count": _shares(len(c.macros) for c in pool),
            "qubits": _shares(c.qubits for c in pool),
            "group_size": _shares(len(g) for c in pool for g in c.groups),
            "defect": _shares(c.family for c in pool),
            "expected_rejected": sum(c.known_defect is not None for c in pool) / len(pool),
        }
    return {
        "commands": _shares(name for name, _ in cli_argvs(seed)),
        "expected_rejected": 0.0,
    }
