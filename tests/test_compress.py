"""Circuit IR, qudit grouping, cost rows and compressed simulation."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qompress import compress
from qompress.compress import (
    BACKENDS,
    CircuitFormatError,
    CircuitIR,
    CompressionError,
    Gate,
    QuditLayout,
    classify_gates,
    cost_report,
    legality_state_dependent,
    parse_circuit,
    parse_layout,
    qfa_circuit,
    qfa_layout,
    simulate_compressed,
    trigger_sets,
)


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
        circuit, layout = qfa_circuit(), qfa_layout()
        assert legality_state_dependent(circuit, 0, layout) is True
        # a nonlocal gate ran earlier, so the marginals are no longer product
        assert legality_state_dependent(circuit, 2, layout) is False


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
        circuit = CircuitIR(6, (Gate("h", (0,)), Gate("cx", (0, 2)), Gate("ccx", (0, 2, 4))))
        with pytest.raises(CompressionError, match="entangled"):
            simulate_compressed(circuit, QuditLayout(((0, 1), (2, 3), (4, 5))), "standard")

    def test_failure_comes_from_the_earliest_gate_over_all_words(self):
        # word 0 never entangles and would reach the three-group gate, but
        # the words with qubit 1 set entangle at gate 2, which comes first
        circuit = CircuitIR(6, (
            Gate("h", (0,)),
            Gate("h", (2,)),
            Gate("ccz", (1, 0, 2)),
            Gate("h", (0,)),
            Gate("h", (2,)),
            Gate("ccx", (0, 2, 4)),
        ))
        with pytest.raises(CompressionError, match="entangled"):
            simulate_compressed(circuit, QuditLayout(((0, 1), (2, 3), (4, 5))), "standard")

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
        # one derivation and one gate matrix per crossing, not one per word
        calls = {"trigger_sets": 0, "multi_level_cz": 0}
        for name in calls:
            def counted(*args, _real=getattr(compress, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(compress, name, counted)
        simulate_compressed(qfa_circuit(), qfa_layout(), "standard")
        assert calls == {"trigger_sets": 2, "multi_level_cz": 2}

    def test_entangling_circuit_rejected(self):
        circuit = CircuitIR(2, (Gate("h", (0,)), Gate("cx", (0, 1))))
        layout = QuditLayout(((0,), (1,)))
        with pytest.raises(CompressionError):
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
