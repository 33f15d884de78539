"""Circuit IR, qudit grouping, cost rows and compressed simulation."""

from __future__ import annotations

import functools
import itertools
import json
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qompress import compress, mcz, schemes
from qompress.compress import (
    BACKENDS,
    CircuitFormatError,
    CircuitIR,
    CompressionError,
    Gate,
    QuditLayout,
    classify_gates,
    circuit_to_dict,
    cost_report,
    layout_to_dict,
    parse_circuit,
    parse_layout,
    qfa_circuit,
    qfa_layout,
    simulate_compressed,
    trigger_sets,
)
from qompress.mcz import multi_level_cz
from qompress.qstate import PureState, Unitary, apply, hadamard, random_state


def full_adder_bits(a: int, b: int, cin: int) -> tuple[int, int]:
    total = a + b + cin
    return total & 1, total >> 1


# independently derived truth table, kept literal on purpose
ADDER_TABLE = {
    (0, 0, 0): (0, 0),
    (0, 0, 1): (1, 0),
    (0, 1, 0): (1, 0),
    (0, 1, 1): (0, 1),
    (1, 0, 0): (1, 0),
    (1, 0, 1): (0, 1),
    (1, 1, 0): (0, 1),
    (1, 1, 1): (1, 1),
}


def benchmark_circuit() -> CircuitIR:
    # one doubly controlled flip spanning the two groups of the adder layout
    return CircuitIR(4, (Gate("ccx", (1, 2, 3)),))


def random_supports(rng: np.random.Generator, words: int, n: int, width: int):
    """Random (codes, amps) supports of n-qubit words, `width` wide: each
    word holds 1 to `width` distinct random codes with unit-norm random
    amplitudes, and padding (code -1, amplitude 0) in its other slots."""
    codes = np.full((words, width), -1)
    amps = np.zeros((words, width), dtype=complex)
    for w in range(words):
        k = int(rng.integers(1, width + 1))
        at = rng.permutation(width)[:k]
        codes[w, at] = rng.choice(2**n, size=k, replace=False)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        amps[w, at] = x / np.linalg.norm(x)
    return codes, amps


def dense_rows(codes: np.ndarray, amps: np.ndarray, n: int) -> np.ndarray:
    """Supports as dense (words, 2^n) rows, after checking that each word's
    codes are distinct and that its padding holds amplitude 0."""
    valid = codes >= 0
    for row in codes:
        assert len(set(row[row >= 0].tolist())) == np.count_nonzero(row >= 0)
    assert not amps[~valid].any()
    dense = np.zeros((len(codes), 2**n), dtype=complex)
    dense[np.nonzero(valid)[0], codes[valid]] = amps[valid]
    return dense


class TestOracleSelfConsistency:
    def test_table_matches_arithmetic(self):
        for (a, b, cin), expected in ADDER_TABLE.items():
            assert full_adder_bits(a, b, cin) == expected


class TestParsing:
    def test_round_trip(self):
        text = json.dumps({
            "qubits": 3,
            "gates": [
                {"kind": "h", "operands": [0]},
                {"kind": "ccz", "operands": [0, 1, 2]},
            ],
        })
        circuit = parse_circuit(text)
        assert circuit.qubit_count == 3
        assert circuit.gates == (Gate("h", (0,)), Gate("ccz", (0, 1, 2)))

    def test_layout_round_trip(self):
        layout = parse_layout(json.dumps({"groups": [[0, 1], [2]]}))
        assert layout.groups == ((0, 1), (2,))
        assert layout.dims == (4, 2)
        assert layout.qubit_count == 3
        assert layout.group_of(2) == 1

    @pytest.mark.parametrize("payload", [
        {"qubits": 2},
        {"gates": []},
        {"qubits": 2, "gates": [], "extra": 1},
        {"qubits": 2, "gates": [{"kind": "cx"}]},
        {"qubits": 2, "gates": [{"kind": "cx", "operands": [0, 1], "extra": 1}]},
        {"qubits": 2, "gates": [{"kind": "nope", "operands": [0]}]},
        {"qubits": 2, "gates": [{"kind": "cx", "operands": [0, 2]}]},
        {"qubits": 2, "gates": [{"kind": "cx", "operands": [1, 1]}]},
        {"qubits": 2, "gates": [{"kind": "cx", "operands": [0]}]},
        {"qubits": 2, "gates": [{"kind": "h", "operands": [0, 1]}]},
        {"qubits": 2, "gates": [{"kind": "cx", "operands": [0, 1.5]}]},
        {"qubits": 0, "gates": []},
        {"qubits": 2, "gates": [{"kind": "mcz", "operands": [0]}]},
    ])
    def test_bad_circuits_rejected(self, payload):
        with pytest.raises(CircuitFormatError):
            parse_circuit(json.dumps(payload))

    @pytest.mark.parametrize("payload", [
        {},
        {"groups": [[0, 1], [1, 2]]},
        {"groups": [[0, 1], []]},
        {"groups": [[0, 2]]},
        {"groups": [[0, 1]], "extra": 1},
        {"groups": [[0, -1]]},
    ])
    def test_bad_layouts_rejected(self, payload):
        with pytest.raises(CircuitFormatError):
            parse_layout(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(CircuitFormatError):
            parse_circuit("{nope")


class TestBundledAdder:
    def test_shape(self):
        circuit = qfa_circuit()
        layout = qfa_layout()
        assert circuit.qubit_count == 4
        assert [g.kind for g in circuit.gates] == ["ccx", "cx", "ccx", "cx", "cx"]
        assert layout.groups == ((0, 1, 2), (3,))
        assert layout.dims == (8, 2)

    def test_classification(self):
        tags = classify_gates(qfa_circuit(), qfa_layout())
        assert [t.local for t in tags] == [False, True, False, True, True]
        assert tags[0].groups == (0, 1)
        assert tags[1].groups == (0,)

    def test_trigger_derivation_gate_a(self):
        # controls on bits 0 and 1 of the 3-bit group, bit 2 free: two levels
        derivation = trigger_sets(qfa_circuit().gates[0], qfa_layout())
        assert derivation.first.indices == (6, 7)
        assert derivation.first.dim == 8
        assert derivation.second.indices == (1,)
        assert derivation.second.dim == 2
        assert derivation.removed == (1, 0)
        assert derivation.groups == (0, 1)

    def test_trigger_derivation_gate_c(self):
        derivation = trigger_sets(qfa_circuit().gates[2], qfa_layout())
        assert derivation.first.indices == (3, 7)
        assert derivation.second.indices == (1,)
        assert derivation.removed == (1, 0)

    def test_trigger_derivation_plain_cz(self):
        # single control high in the wide group leaves two free bits
        layout = qfa_layout()
        derivation = trigger_sets(Gate("cz", (0, 3)), layout)
        assert derivation.first.indices == (4, 5, 6, 7)
        assert derivation.second.indices == (1,)
        assert derivation.removed == (2, 0)

    def test_local_gate_has_no_derivation(self):
        with pytest.raises(ValueError):
            trigger_sets(Gate("cx", (0, 1)), qfa_layout())

    def test_legality(self):
        row = cost_report(qfa_circuit(), qfa_layout()).row("state-dependent")
        # a nonlocal gate ran before gate 2, so its marginals are no longer product
        assert row.legal is False
        assert row.reason.startswith("gate 2 ")
        assert cost_report(benchmark_circuit(), qfa_layout()).row("state-dependent").legal


@contextmanager
def trigger_sets_built():
    """The TriggerSets constructed inside the block, in order."""
    built = []
    real = mcz.TriggerSet.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    with mock.patch.object(mcz.TriggerSet, "__post_init__", counted):
        yield built


def listed_triggers(gate: Gate, group: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    # every level of the group scanned for all operand bits set, and the
    # group's qubits that are not operands
    w = len(group)
    positions = [group.index(q) for q in gate.operands if q in group]
    levels = tuple(
        m for m in range(2**w) if all((m >> (w - 1 - pos)) & 1 for pos in positions)
    )
    return levels, w - len(positions)


@st.composite
def two_group_crossings(draw):
    """A sign gate over both groups of a two-group layout of 2-11 qubits, so
    either group may be 10 qubits wide."""
    n = draw(st.integers(2, 11))
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    layout = QuditLayout((tuple(order[:cut]), tuple(order[cut:])))
    operands = [
        q for g in layout.groups
        for q in draw(st.lists(st.sampled_from(g), min_size=1, unique=True))
    ]
    return Gate("mcz", tuple(draw(st.permutations(operands)))), layout


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(two_group_crossings())
def test_trigger_sets_match_every_level_scanned(case):
    gate, layout = case
    # the levels are listed on the first read of each side, and only then
    with trigger_sets_built() as built:
        derivation = trigger_sets(gate, layout)
        assert built == []
        listed = [derivation.first, derivation.first, derivation.second, derivation.second]
    assert built == [listed[0], listed[2]]
    (first, r1), (second, r2) = (listed_triggers(gate, g) for g in layout.groups)
    assert derivation.first.indices == first
    assert derivation.second.indices == second
    assert (derivation.first.dim, derivation.second.dim) == layout.dims
    assert derivation.removed == (r1, r2)
    assert derivation.groups == (0, 1)
    # the rows priced from the removed counts are the rows priced from the
    # lists, wherever the gate has a fixed two-qubit decomposition
    kind = {2: "cz", 3: "ccz"}.get(len(gate.operands))
    if kind is not None:
        report = cost_report(CircuitIR(layout.qubit_count, (Gate(kind, gate.operands),)), layout)
        assert report.row("standard").gate_count == len(first) * len(second)
        assert report.row("state-independent").gate_count == len(first) + len(second)
        assert report.row("state-independent").success_probability == (
            schemes.success_probability("state-independent", len(first), len(second))
        )


@st.composite
def grouped_circuits(draw):
    """A layout of 2-4 groups of 2-4 qubits each and up to 50 gates over two
    groups, with local Hadamards between them."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    order = draw(st.permutations(range(sum(sizes))))
    cuts = list(itertools.accumulate(sizes, initial=0))
    layout = QuditLayout(tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:])))
    gates = []
    for _ in range(draw(st.integers(0, 50))):
        if draw(st.booleans()):
            gates.append(Gate("h", (draw(st.sampled_from(order)),)))
        pair = draw(st.lists(st.sampled_from(layout.groups), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["cz", "cx", "ccz", "ccx"]))
        operands = [draw(st.sampled_from(g)) for g in pair]
        if kind.startswith("cc"):
            operands.append(draw(st.sampled_from([q for g in pair for q in g if q not in operands])))
        gates.append(Gate(kind, tuple(draw(st.permutations(operands)))))
    return CircuitIR(layout.qubit_count, tuple(gates)), layout


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(grouped_circuits())
def test_mask_priced_rows_equal_rows_from_listed_sets(case):
    circuit, layout = case
    with trigger_sets_built() as built:
        report = cost_report(circuit, layout)
    assert built == []

    # the reference lists every level of both registers per crossing and
    # multiplies one exact probability per crossing
    cx_equiv = {"h": 0, "cz": 1, "cx": 1, "ccz": 3, "ccx": 3}
    unc = sum(cx_equiv[g.kind] for g in circuit.gates)
    lists = [
        [listed_triggers(gate, g)[0] for g in layout.groups if set(g) & set(gate.operands)]
        for gate in circuit.gates if gate.kind != "h"
    ]
    std = sum(len(a) * len(b) for a, b in lists)
    si = sum(len(a) + len(b) for a, b in lists)
    sd_prob = si_prob = Fraction(1)
    for a, b in lists:
        sd_prob *= schemes.success_probability("state-dependent", len(a), len(b))
        si_prob *= schemes.success_probability("state-independent", len(a), len(b))
    want = [
        ("uncompressed", unc, Fraction(1, 9) ** unc, 0, True),
        ("standard", std, Fraction(1, 9) ** std, 0, True),
        ("state-dependent", len(lists), sd_prob, 2 * len(lists), len(lists) <= 1),
        ("state-independent", si, si_prob, sum(2 * (len(a) + len(b)) + 2 for a, b in lists), True),
    ]
    got = [(r.backend, r.gate_count, r.success_probability, r.ancilla_count, r.legal)
           for r in report.rows]
    assert got == want
    assert [(d.first.indices, d.second.indices) for _, d in report.crossings] == [tuple(x) for x in lists]


def three_crossing_circuit() -> tuple[CircuitIR, QuditLayout]:
    # crossings at gates 1, 4 and 5, one over each pair of the three groups
    circuit = CircuitIR(6, (
        Gate("h", (0,)),
        Gate("ccx", (0, 1, 2)),
        Gate("x", (4,)),
        Gate("cx", (1, 0)),
        Gate("cz", (3, 5)),
        Gate("cx", (4, 0)),
    ))
    return circuit, QuditLayout(((0, 1), (2, 3), (4, 5)))


class TestCrossings:
    @pytest.mark.parametrize("case", ["adder", "three-crossing"])
    def test_report_carries_derivations(self, case):
        circuit, layout = (
            (qfa_circuit(), qfa_layout()) if case == "adder" else three_crossing_circuit()
        )
        tags = classify_gates(circuit, layout)
        want = [
            (i, trigger_sets(g, layout))
            for i, (g, t) in enumerate(zip(circuit.gates, tags)) if not t.local
        ]
        assert list(cost_report(circuit, layout).crossings) == want

    def test_second_crossing_is_named(self):
        circuit, layout = three_crossing_circuit()
        assert "gate 4 " in cost_report(circuit, layout).row("state-dependent").reason
        with pytest.raises(CompressionError, match="gate 4 "):
            simulate_compressed(circuit, layout, "state-dependent")

    def test_three_group_second_crossing_is_refused(self):
        circuit = CircuitIR(6, (Gate("cx", (0, 2)), Gate("ccx", (0, 2, 4))))
        with pytest.raises(CompressionError, match="gate 1 "):
            simulate_compressed(circuit, QuditLayout(((0, 1), (2, 3), (4, 5))), "state-dependent")

    def test_entangling_gate_fails_before_a_later_three_group_gate(self):
        # the entangling gate runs fine on the dense register; the gate over
        # three groups is refused before any gate runs
        circuit = CircuitIR(6, (Gate("h", (0,)), Gate("cx", (0, 2)), Gate("ccx", (0, 2, 4))))
        with pytest.raises(ValueError, match="more than two groups"):
            simulate_compressed(circuit, QuditLayout(((0, 1), (2, 3), (4, 5))), "standard")

    def test_failure_comes_from_the_earliest_gate_over_all_words(self):
        # the words with qubit 1 set entangle at gate 2, which no longer
        # fails, so the three-group gate is what every backend refuses
        circuit = CircuitIR(6, (
            Gate("h", (0,)),
            Gate("h", (2,)),
            Gate("ccz", (1, 0, 2)),
            Gate("h", (0,)),
            Gate("h", (2,)),
            Gate("ccx", (0, 2, 4)),
        ))
        for backend in ("uncompressed", "standard", "state-independent"):
            with pytest.raises(ValueError, match="more than two groups"):
                simulate_compressed(circuit, QuditLayout(((0, 1), (2, 3), (4, 5))), backend)

    @pytest.mark.parametrize("qubits, gates, message", [
        # an uncovered layout is reported before an undecomposable kind,
        # and that before a gate over three groups
        (4, (Gate("mcx", (0, 1, 2, 3)),), "does not cover"),
        (6, (Gate("ccx", (0, 2, 4)), Gate("mcx", (0, 2, 4, 5))), "no fixed two-qubit"),
        (6, (Gate("cx", (0, 3)), Gate("ccx", (0, 2, 4))), "more than two groups"),
    ])
    def test_rejection_order(self, qubits, gates, message):
        layout = QuditLayout(((0, 1), (2, 3), (4, 5)))
        with pytest.raises(ValueError, match=message):
            cost_report(CircuitIR(qubits, gates), layout)


class TestCostRows:
    def test_qfa_rows(self):
        report = cost_report(qfa_circuit(), qfa_layout())
        assert tuple(r.backend for r in report.rows) == BACKENDS

        unc = report.row("uncompressed")
        assert unc.gate_count == 9
        assert unc.success_probability == Fraction(1, 9**9)
        assert unc.ancilla_count == 0
        assert unc.legal

        std = report.row("standard")
        assert std.gate_count == 4
        assert std.success_probability == Fraction(1, 9**4)
        assert std.ancilla_count == 0
        assert std.legal

        sd = report.row("state-dependent")
        assert sd.gate_count == 2
        assert sd.success_probability == Fraction(1, 64)
        assert sd.ancilla_count == 4
        assert sd.legal is False
        assert sd.reason is not None and "2" in sd.reason

        si = report.row("state-independent")
        assert si.gate_count == 6
        assert si.success_probability == Fraction(1, 4 * 8**6)
        assert si.ancilla_count == 16
        assert si.legal

    def test_benchmark_rows(self):
        report = cost_report(benchmark_circuit(), qfa_layout())
        assert report.row("uncompressed").gate_count == 3
        assert report.row("uncompressed").success_probability == Fraction(1, 729)
        assert report.row("standard").gate_count == 2
        assert report.row("standard").success_probability == Fraction(1, 81)
        sd = report.row("state-dependent")
        assert sd.gate_count == 1
        assert sd.success_probability == Fraction(1, 8)
        assert sd.ancilla_count == 2
        assert sd.legal
        si = report.row("state-independent")
        assert si.gate_count == 3
        assert si.success_probability == Fraction(1, 1024)
        assert si.ancilla_count == 8

    def test_many_control_gate_has_no_fixed_decomposition(self):
        circuit = CircuitIR(4, (Gate("mcz", (0, 1, 2, 3)),))
        layout = QuditLayout(((0, 1, 2), (3,)))
        with pytest.raises(ValueError):
            cost_report(circuit, layout)

    def test_local_only_circuit(self):
        circuit = CircuitIR(3, (Gate("cx", (0, 1)), Gate("x", (2,))))
        layout = QuditLayout(((0, 1), (2,)))
        report = cost_report(circuit, layout)
        for backend in ("standard", "state-dependent", "state-independent"):
            row = report.row(backend)
            assert row.gate_count == 0
            assert row.success_probability == Fraction(1, 1)
            assert row.legal


class TestSimulation:
    @pytest.mark.parametrize("backend", ["uncompressed", "standard", "state-independent"])
    def test_adder_truth_table(self, backend):
        table = simulate_compressed(qfa_circuit(), qfa_layout(), backend)
        assert len(table) == 16
        for (a, b, cin) in itertools.product((0, 1), repeat=3):
            s, carry = full_adder_bits(a, b, cin)
            assert table[(a, b, cin, 0)] == (a, b, s, carry), (a, b, cin, backend)

    def test_adder_state_dependent_blocked(self):
        with pytest.raises(CompressionError):
            simulate_compressed(qfa_circuit(), qfa_layout(), "state-dependent")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_benchmark_all_backends(self, backend):
        table = simulate_compressed(benchmark_circuit(), qfa_layout(), backend)
        for bits in itertools.product((0, 1), repeat=4):
            q0, q1, q2, q3 = bits
            expected = (q0, q1, q2, q3 ^ (q1 & q2))
            assert table[bits] == expected, (bits, backend)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            simulate_compressed(benchmark_circuit(), qfa_layout(), "magic")

    def test_each_crossing_is_built_once(self, monkeypatch):
        # one derivation per crossing, not one per word; the crossing is a
        # sign multiply, so no dense gate matrix is built at all, and the
        # dense backends read no trigger level, so none is listed
        calls = {"_derivation": 0, "multi_level_cz": 0}
        for module in (compress, schemes, mcz):
            for name in calls:
                real = getattr(module, name, None)
                if real is None:
                    continue

                def counted(*args, _real=real, _name=name):
                    calls[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
        with trigger_sets_built() as built:
            simulate_compressed(qfa_circuit(), qfa_layout(), "standard")
            assert calls == {"_derivation": 2, "multi_level_cz": 0}
            simulate_compressed(qfa_circuit(), qfa_layout(), "uncompressed")
        assert built == []

    @pytest.mark.parametrize("backend", ["uncompressed", "standard"])
    def test_crossing_sign_multiply_equals_dense_gate(self, monkeypatch, backend):
        # random supports enter the crossing; its output must equal the
        # dense gate's apply exactly (IEEE equality, so the sign of a zero
        # does not count)
        rng = np.random.default_rng(113)

        class Stop(Exception):
            pass

        def hadamard(codes, amps, bit):
            n = layout.qubit_count
            if "in" in seen:
                seen["out"] = dense_rows(codes, amps, n)
                raise Stop
            seen["in"] = random_supports(rng, len(codes), n, 2**n // 2)
            return tuple(x.copy() for x in seen["in"])

        monkeypatch.setattr(compress, "_hadamard", hadamard)
        for layout, gate in [
            (qfa_layout(), Gate("ccz", (1, 2, 3))),
            # the crossing skips the middle group, which passes through
            (QuditLayout(((0, 1), (2, 3), (4, 5))), Gate("ccz", (1, 4, 5))),
            # groups listed out of index order: the first-listed qubit is the
            # most significant bit, so qubits 0 and 1 are each group's low bit
            (QuditLayout(((2, 0), (3, 1))), Gate("cz", (0, 1))),
        ]:
            seen = {}
            circuit = CircuitIR(layout.qubit_count, (Gate("h", (0,)), gate, Gate("h", (0,))))
            with pytest.raises(Stop):
                simulate_compressed(circuit, layout, backend)
            deriv = trigger_sets(gate, layout)
            dense = apply(
                multi_level_cz(deriv.first.dim, deriv.second.dim, deriv.first, deriv.second)
                .on(*deriv.groups),
                PureState(layout.dims, dense_rows(*seen["in"], layout.qubit_count)
                          .reshape((-1,) + layout.dims)),
            )
            assert np.array_equal(seen["out"], dense.amps.reshape(len(seen["out"]), -1))

    # (layout, gate): each kind with its target in either group in turn
    X_KINDS = [(layout, Gate(kind, operands)) for layout, gates in [
        (qfa_layout(), [("x", (1,)), ("x", (3,)), ("cx", (1, 3)), ("cx", (3, 1)), ("ccx", (0, 2, 3)),
                        ("ccx", (3, 0, 2)), ("ccx", (0, 1, 2)), ("mcx", (0, 1, 3, 2)),
                        ("mcx", (2, 1, 0, 3))]),
        # the crossing skips the middle group, which passes through
        (QuditLayout(((0, 1), (2, 3), (4, 5))),
         [("x", (0,)), ("x", (4,)), ("cx", (1, 4)), ("cx", (5, 0)), ("ccx", (0, 1, 5)),
          ("ccx", (4, 5, 1)), ("mcx", (0, 1, 4, 5)), ("mcx", (4, 5, 1, 0))]),
        # groups listed out of index order
        (QuditLayout(((2, 0), (3, 1))),
         [("x", (0,)), ("x", (1,)), ("cx", (0, 1)), ("cx", (1, 0)), ("ccx", (2, 0, 1)),
          ("ccx", (3, 1, 0)), ("mcx", (2, 3, 0, 1)), ("mcx", (3, 1, 2, 0))]),
    ] for kind, operands in gates]

    @staticmethod
    def hadamard_sandwich(gate: Gate, layout: QuditLayout) -> Unitary:
        """The dense H·S·H of an x-kind gate on the whole register, S the sign
        over its operands, in the register's level order."""
        order = [q for group in layout.groups for q in group]
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        ht = functools.reduce(np.kron, [h if q == gate.target else np.eye(2) for q in order])
        signs = [-1.0 if all(word[order.index(q)] for q in gate.operands) else 1.0
                 for word in itertools.product((0, 1), repeat=len(order))]
        return Unitary(ht @ np.diag(signs) @ ht)

    @pytest.mark.parametrize("backend, layout, gate", [
        # every backend runs a local gate densely; a crossing only on the
        # dense backends
        (backend, layout, gate) for layout, gate in X_KINDS for backend in BACKENDS
        if backend not in schemes.SCHEMES or len({layout.group_of(q) for q in gate.operands}) == 1
    ])
    def test_dense_x_kind_equals_its_hadamard_sandwich(self, monkeypatch, backend, layout, gate):
        # random supports enter the gate; they must come out as the dense
        # H·S·H applied to them, with no Hadamard run in between
        rng = np.random.default_rng(127)
        n = layout.qubit_count
        seen = {}

        class Stop(Exception):
            pass

        def hadamard(codes, amps, bit):
            if "in" in seen:
                seen["out"] = dense_rows(codes, amps, n)
                raise Stop
            seen["in"] = random_supports(rng, len(codes), n, 2**n // 2)
            return tuple(x.copy() for x in seen["in"])

        monkeypatch.setattr(compress, "_hadamard", hadamard)
        circuit = CircuitIR(n, (Gate("h", (0,)), gate, Gate("h", (0,))))
        with pytest.raises(Stop):
            simulate_compressed(circuit, layout, backend)
        dense = apply(self.hadamard_sandwich(gate, layout),
                      PureState(layout.dims, dense_rows(*seen["in"], n).reshape((-1,) + layout.dims)))
        np.testing.assert_allclose(seen["out"], dense.amps.reshape(len(seen["out"]), -1),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hadamards_run_for_h_and_scheme_crossings_only(self, monkeypatch, backend):
        # local x-kinds, and on the dense backends the crossing too, are
        # permutations; a scheme crossing runs inside a Hadamard on its target
        layout = QuditLayout(((0, 1), (2, 3)))
        circuit = CircuitIR(4, (
            Gate("h", (0,)), Gate("x", (1,)), Gate("cx", (1, 0)),
            Gate("ccx", (1, 2, 3)), Gate("cx", (2, 3)), Gate("h", (0,)),
        ))
        axes = []

        def hadamard(codes, amps, bit, _real=compress._hadamard):
            axes.append(4 - bit.bit_length())  # the qubit's place in layout order
            return _real(codes, amps, bit)

        monkeypatch.setattr(compress, "_hadamard", hadamard)
        table = simulate_compressed(circuit, layout, backend)
        assert axes == ([0, 3, 3, 0] if backend in schemes.SCHEMES else [0, 0])
        assert table == {
            w: (w[0], 1 - w[1], w[2], w[3] ^ ((1 - w[1]) & w[2]) ^ w[2])
            for w in itertools.product((0, 1), repeat=4)
        }

    @pytest.mark.parametrize("backend, core, circuit, crossings", [
        ("state-independent", "_run_state_independent", qfa_circuit, 2),
        ("state-dependent", "_run_state_dependent", benchmark_circuit, 1),
    ])
    def test_each_scheme_runs_once_per_crossing(
        self, monkeypatch, backend, core, circuit, crossings
    ):
        # one scheme call per crossing with every input word as its batch;
        # each core returns its outputs at the slices' entries, (slices, e)
        batches, shapes = [], []

        def counted(*args, _real=getattr(schemes, core)):
            batches.append(args[0].batch)
            for res in _real(*args):
                shapes.append((res.output.amps.shape, args[-1].shape[1]))
                yield res

        # the crossing imports the core from its home module when it runs
        monkeypatch.setattr(schemes, core, counted)
        table = simulate_compressed(circuit(), qfa_layout(), backend)
        assert batches == [(16,)] * crossings
        assert shapes and all(shape[1:] == (e,) for shape, e in shapes)
        assert table == simulate_compressed(circuit(), qfa_layout(), "standard")

    def test_entangling_circuit_rejected(self):
        # a Bell pair is no basis word, so its table cannot be read out
        circuit = CircuitIR(2, (Gate("h", (0,)), Gate("cx", (0, 1))))
        layout = QuditLayout(((0,), (1,)))
        with pytest.raises(CompressionError, match="not a computational basis word"):
            simulate_compressed(circuit, layout, "standard")


_CLASSICAL_ARITY = {"x": 1, "z": 1, "cx": 2, "cz": 2, "ccx": 3, "ccz": 3}


@st.composite
def classical_grouped_circuits(draw):
    """h-free circuits on 2-6 qubits in 2-3 groups, no gate over three groups."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(2, n - 1))))
    layout = QuditLayout(tuple(
        tuple(order[a:b]) for a, b in zip((0, *cuts), (*cuts, n))
    ))
    kinds = sorted(k for k, arity in _CLASSICAL_ARITY.items() if arity <= n)
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        operands = tuple(draw(st.permutations(range(n)))[:_CLASSICAL_ARITY[kind]])
        if len({layout.group_of(q) for q in operands}) <= 2:
            gates.append(Gate(kind, operands))
    return CircuitIR(n, tuple(gates)), layout


def classical_table(circuit: CircuitIR) -> dict[tuple[int, ...], tuple[int, ...]]:
    # x-kinds flip the target when every control is set; z-kinds only
    # change signs, which a basis word does not show
    table = {}
    for word in itertools.product((0, 1), repeat=circuit.qubit_count):
        bits = list(word)
        for gate in circuit.gates:
            if gate.is_x_kind and all(bits[q] for q in gate.operands[:-1]):
                bits[gate.target] ^= 1
        table[word] = tuple(bits)
    return table


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(classical_grouped_circuits())
def test_every_backend_returns_the_classical_truth_table(case):
    circuit, layout = case
    want = classical_table(circuit)
    crossings = sum(not t.local for t in classify_gates(circuit, layout))
    for backend in BACKENDS:
        if backend == "state-dependent" and crossings > 1:
            with pytest.raises(CompressionError):
                simulate_compressed(circuit, layout, backend)
        else:
            assert simulate_compressed(circuit, layout, backend) == want, backend


@st.composite
def grouped_circuits_with_h(draw):
    """The grouped circuits above with lone h gates and h-sandwiched cz
    spliced in, so the backends also see superposed group registers."""
    circuit, layout = draw(classical_grouped_circuits())
    gates = list(circuit.gates)
    for _ in range(draw(st.integers(1, 3))):
        control, target = draw(st.permutations(range(circuit.qubit_count)))[:2]
        block = [Gate("h", (target,))]
        if draw(st.integers(0, 2)):  # two blocks in three are an h-sandwiched cz
            block += [Gate("cz", (control, target)), Gate("h", (target,))]
        at = draw(st.integers(0, len(gates)))
        gates[at:at] = block
    return CircuitIR(circuit.qubit_count, tuple(gates)), layout


def table_or_error(circuit: CircuitIR, layout: QuditLayout, backend: str):
    try:
        return simulate_compressed(circuit, layout, backend)
    except (CompressionError, ValueError) as e:
        return type(e)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(grouped_circuits_with_h())
def test_every_backend_agrees_with_standard_on_circuits_with_h(case):
    circuit, layout = case
    want = table_or_error(circuit, layout, "standard")
    crossings = sum(not t.local for t in classify_gates(circuit, layout))
    for backend in BACKENDS:
        if backend == "state-dependent" and crossings > 1:
            with pytest.raises(CompressionError, match="no router ancilla"):
                simulate_compressed(circuit, layout, backend)
        else:
            assert table_or_error(circuit, layout, backend) == want, backend


def reference_states(circuit: CircuitIR) -> np.ndarray:
    """Every input word's final state on a plain qubit register, built from
    2×2 Hadamards and sign flips where all operands are 1 (x-kinds inside a
    Hadamard on the target); no layout and no trigger sets. Row w is word
    w's state, qubit 0 most significant."""
    n = circuit.qubit_count
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    states = np.eye(2**n, dtype=complex).reshape((2**n,) + (2,) * n)
    ones = np.indices((2,) * n)

    def hadamard(states, q):
        return np.moveaxis(np.tensordot(h, states, axes=([1], [1 + q])), 0, 1 + q)

    for gate in circuit.gates:
        if gate.kind == "h":
            states = hadamard(states, gate.operands[0])
            continue
        if gate.is_x_kind:
            states = hadamard(states, gate.target)
        states = states * np.where(np.all(ones[list(gate.operands)], axis=0), -1.0, 1.0)
        if gate.is_x_kind:
            states = hadamard(states, gate.target)
    return states.reshape(2**n, -1)


def reference_table(circuit: CircuitIR) -> dict | None:
    """The reference's truth table, or None when a word does not end on a
    basis word."""
    states = np.abs(reference_states(circuit))
    if np.any(np.abs(states.max(axis=1) - 1.0) > 1e-9):
        return None
    n = circuit.qubit_count
    words = itertools.product((0, 1), repeat=n)
    levels = states.argmax(axis=1)
    return {w: tuple(int(b) for b in np.binary_repr(m, n)) for w, m in zip(words, levels)}


@st.composite
def entangling_grouped_circuits(draw):
    """The circuits with h above; half of them are followed by their own
    mirror image, which entangles the groups midway and ends on the input
    word, so tables are served as well as refused."""
    circuit, layout = draw(grouped_circuits_with_h())
    gates = circuit.gates
    if draw(st.booleans()):
        gates += gates[::-1]
    return CircuitIR(circuit.qubit_count, gates), layout


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(entangling_grouped_circuits())
# every word spreads over all 64 codes and crosses twice at full support;
# state-dependent refuses the second crossing
@example((CircuitIR(6, tuple(Gate("h", (q,)) for q in range(6)) + (Gate("cz", (0, 5)),) * 2
                    + tuple(Gate("h", (q,)) for q in range(6))),
          QuditLayout(((0, 1, 2), (3, 4, 5)))))
def test_every_backend_matches_a_plain_qubit_state_vector(case):
    circuit, layout = case
    want = reference_table(circuit)
    crossings = sum(not t.local for t in classify_gates(circuit, layout))
    for backend in BACKENDS:
        if backend == "state-dependent" and crossings > 1:
            with pytest.raises(CompressionError, match="no router ancilla"):
                simulate_compressed(circuit, layout, backend)
        elif want is None:
            with pytest.raises(CompressionError, match="not a computational basis word"):
                simulate_compressed(circuit, layout, backend)
        else:
            assert simulate_compressed(circuit, layout, backend) == want, backend


class TestDenseRegister:
    @pytest.mark.parametrize("backend", ["uncompressed", "standard", "state-independent"])
    def test_entangle_and_disentangle_is_the_identity(self, backend):
        # the two cx entangle the groups and then undo it
        cx = Gate("cx", (0, 1))
        circuit = CircuitIR(2, (Gate("h", (0,)), cx, cx, Gate("h", (0,))))
        table = simulate_compressed(circuit, QuditLayout(((0,), (1,))), backend)
        assert table == {w: w for w in itertools.product((0, 1), repeat=2)}

    @pytest.mark.parametrize("backend", ["state-dependent", "state-independent"])
    def test_scheme_crossing_with_a_superposed_spectator(self, backend):
        # the crossing joins groups 0 and 2 while the middle group sits in
        # superposition; each of its levels is one slice of the scheme's
        # batch, and the closing Hadamards read the spectator back out
        layout = QuditLayout(((0, 1), (2, 3), (4, 5)))
        spread = (Gate("h", (0,)), Gate("h", (2,)), Gate("h", (3,)))
        circuit = CircuitIR(6, spread + (Gate("ccz", (0, 1, 4)),) + spread)
        want = {w: (w[0] ^ (w[1] & w[4]),) + w[1:] for w in itertools.product((0, 1), repeat=6)}
        assert simulate_compressed(circuit, layout, backend) == want

    def test_scheme_crossing_with_an_entangled_spectator(self):
        # the middle group is entangled with group 0 when the crossing over
        # groups 0 and 2 runs, so no slice of it is a product state
        layout = QuditLayout(((0, 1), (2, 3), (4, 5)))
        entangle = (Gate("h", (2,)), Gate("cx", (2, 0)))
        circuit = CircuitIR(
            6, entangle + (Gate("h", (1,)), Gate("cz", (1, 5)), Gate("h", (1,))) + entangle[::-1]
        )
        want = {w: (w[0], w[1] ^ w[5]) + w[2:] for w in itertools.product((0, 1), repeat=6)}
        assert simulate_compressed(circuit, layout, "state-independent") == want

    @pytest.mark.parametrize("backend", schemes.SCHEMES)
    @pytest.mark.parametrize("layout, gate", [
        (QuditLayout(((0, 1), (2, 3))), Gate("ccz", (1, 2, 3))),
        # the crossing skips the middle group; its level 2 is zero in every
        # word, so those slices are not live
        (QuditLayout(((0, 1), (2, 3), (4, 5))), Gate("ccz", (0, 1, 5))),
    ], ids=["last-axes", "spectator"])
    def test_scheme_crossing_writes_into_its_register(self, backend, layout, gate):
        # each slice's output lands in the entries it was read from: the
        # crossing writes into the amplitudes it was given, on the same
        # codes, the dense gate's output
        rng = np.random.default_rng(197)
        parts = [random_state((4,), rng).amps * np.ones((3, 1)) for _ in layout.groups]
        parts[1][:, 2] = 0.0
        reg = functools.reduce(lambda a, b: (a[..., None] * b[:, None, :]).reshape(3, -1), parts)
        deriv = trigger_sets(gate, layout)
        want = apply(multi_level_cz(deriv.first.dim, deriv.second.dim, deriv.first, deriv.second)
                     .on(*deriv.groups), PureState(layout.dims, reg.reshape((3,) + layout.dims)))
        want = want.amps.reshape(3, -1)
        # each word's support: its nonzero levels, so the zero level is no entry
        width = np.count_nonzero(reg[0])
        codes = np.flatnonzero(reg[0]) * np.ones((3, 1), dtype=int)
        amps = reg[:, reg[0] != 0].copy()
        assert width < reg.shape[1] and np.count_nonzero(reg) == 3 * width
        out = compress._crossing(codes, amps, layout, deriv, backend)
        assert out is amps
        np.testing.assert_allclose(dense_rows(codes, out, layout.qubit_count), want,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_register_alive(self, backend):
        # every dense gate writes into the register it reads, so the peak
        # stays well under two (words, 2^n) complex registers; a scheme
        # crossing writes its output back into the rows it read, beside its
        # own working set, which its slices hold within one register
        bound = 2.25 if backend in schemes.SCHEMES else 1.75
        n = 10
        sandwich = (Gate("h", (0,)), Gate("cz", (n - 1, 0)), Gate("h", (0,)))
        layout = QuditLayout((tuple(range(n // 2)), tuple(range(n // 2, n))))
        chain = tuple(Gate("ccx", (i, i + 1, i + 2)) for i in range(n - 2))
        if backend == "state-dependent":
            # the router takes one crossing: the chain's local gates only
            chain = tuple(g for g in chain if len({layout.group_of(q) for q in g.operands}) == 1)
        circuit = CircuitIR(n, chain + sandwich)
        register = 2**n * 2**n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            table = simulate_compressed(circuit, layout, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 2**n
        assert peak < bound * register, peak / register


class TestButterflyHadamard:
    """The support form's `h` splits each entry into its two codes, adds
    the two that land on one code and drops what cancels; the public
    apply(hadamard().on(i), ...) on the dense state is its reference."""

    @pytest.mark.parametrize("width, sliced", [(8, False), (3, False), (3, True)],
                             ids=["full", "sparse", "sliced"])
    def test_matches_apply_on_every_qubit_axis(self, monkeypatch, width, sliced):
        if sliced:
            # without the slice floor every word is a slice of its own, and
            # the slices' supports differ in width
            monkeypatch.setattr(schemes, "_SLICE_FLOOR", 0)
        rng = np.random.default_rng(131)
        n, words = 3, 5
        codes, amps = random_supports(rng, words, n, width)
        state = PureState((2,) * n, dense_rows(codes, amps, n).reshape((words,) + (2,) * n))
        for sub in range(n):
            bit = 1 << (n - 1 - sub)
            want = apply(hadamard().on(sub), state).amps.reshape(words, -1)
            got = compress._hadamard(codes.copy(), amps.copy(), bit)
            np.testing.assert_allclose(dense_rows(*got, n), want, rtol=0, atol=1e-15,
                                       err_msg=str(sub))
            # the second h merges every pair back and drops what cancels:
            # each word ends on its own entries
            back = compress._hadamard(*got, bit)
            np.testing.assert_allclose(dense_rows(*back, n), state.amps.reshape(words, -1),
                                       rtol=0, atol=1e-15)
            assert np.count_nonzero(back[0] >= 0) == np.count_nonzero(codes >= 0)

    def test_cancelled_mass_is_checked(self, monkeypatch):
        # an entry below the cutoff leaves only if its word loses no more
        # than the truncation bound
        codes = np.array([[0, 1]])
        amps = np.array([[1.0, 1e-10]], dtype=complex) / np.sqrt(1 + 1e-20)
        assert compress._hadamard(*compress._hadamard(codes, amps, 1), 1)[0].shape == (1, 2)
        monkeypatch.setattr(compress, "_SUPPORT_CUTOFF", 1e-9)
        with pytest.raises(ValueError, match="discard amplitude mass"):
            compress._hadamard(*compress._hadamard(codes, amps, 1), 1)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(grouped_circuits_with_h())
def test_documents_round_trip(case):
    circuit, layout = case
    assert parse_circuit(json.dumps(circuit_to_dict(circuit))) == circuit
    assert parse_layout(json.dumps(layout_to_dict(layout))) == layout


class TestGateValidation:
    def test_arities(self):
        Gate("h", (0,))
        Gate("mcz", (0, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            Gate("h", (0, 1))
        with pytest.raises(ValueError):
            Gate("ccx", (0, 1))
        with pytest.raises(ValueError):
            Gate("cz", (2, 2))
