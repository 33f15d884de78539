"""The validation raises no other test reaches, one case each: malformed
documents through the CLI, and every other refusal through pytest.raises."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qompress.cli import main
from qompress.compress import (
    CircuitFormatError,
    Gate,
    QuditLayout,
    cost_report,
    parse_circuit,
    qfa_circuit,
    qfa_layout,
)
from qompress.mcz import (
    BsmModel,
    TriggerSet,
    _as_trigger_set,
    bell_measurement,
    bell_vector,
    trigger_pattern,
)
from qompress.optics import (
    ModeUnitary,
    PhotonConfig,
    TwoPhotonState,
    build_smr_mesh,
    evolve_two_photon,
    pair_swap_mesh,
    route_with_ancilla,
)
from qompress.qstate import PureState, fidelity_up_to_phase, truncate_subsystem
from qompress.schemes import run_state_independent_joint

VALID_CIRCUIT = {"qubits": 2, "gates": [{"kind": "cx", "operands": [0, 1]}]}
VALID_LAYOUT = {"groups": [[0], [1]]}


@pytest.mark.parametrize("circuit, layout, message", [
    ({"qubits": 2, "gates": {"kind": "cx"}}, VALID_LAYOUT, "'gates' must be a list"),
    ({"qubits": 2, "gates": [{"kind": "cx", "operands": 0}]}, VALID_LAYOUT,
     "gate 0: operands must be a list"),
    (VALID_CIRCUIT, {"groups": [0, 1]}, "'groups' must be a list of lists"),
    # a gate with no fixed decomposition is refused before an earlier gate over three groups
    ({"qubits": 3, "gates": [{"kind": "ccz", "operands": [0, 1, 2]}, {"kind": "mcx", "operands": [0, 1]}]},
     {"groups": [[0], [1], [2]]}, "'mcx' has no fixed two-qubit decomposition"),
], ids=["gates-not-a-list", "operands-not-a-list", "groups-not-lists", "mcx-before-three-groups"])
def test_malformed_document_exits_2(capsys, tmp_path, circuit, layout, message):
    assert_compress_exits_2(capsys, tmp_path, circuit, layout, message)


def assert_compress_exits_2(capsys, tmp_path, circuit, layout, message):
    paths = [tmp_path / "c.json", tmp_path / "l.json"]
    for path, doc in zip(paths, (circuit, layout)):
        path.write_text(json.dumps(doc))
    code = main(["compress", *map(str, paths)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("operand, message", [
    (True, "gate 0 operand must be an integer, got True"),
    (1.0, "gate 0 operand must be an integer, got 1.0"),
    ("0", "gate 0 operand must be an integer, got '0'"),
    (None, "gate 0 operand must be an integer, got None"),
    ([0], "gate 0 operand must be an integer, got [0]"),
    (-1, "gate 0: negative operand in (-1, 1)"),
    (2, "gate 0 addresses a qubit outside the register"),
], ids=["true", "float", "string", "null", "list", "negative", "n"])
def test_bad_operand_text(capsys, tmp_path, operand, message):
    # each operand is type-checked once while parsing; the text is pinned
    # both as raised and as the CLI prints it
    circuit = {"qubits": 2, "gates": [{"kind": "cx", "operands": [operand, 1]}]}
    with pytest.raises(CircuitFormatError) as raised:
        parse_circuit(json.dumps(circuit))
    assert str(raised.value) == message
    assert_compress_exits_2(capsys, tmp_path, circuit, VALID_LAYOUT, message)


def _unit(n: int) -> np.ndarray:
    return np.ones(n) / np.sqrt(n)


RAISES = {
    "gate-negative-operand": (lambda: Gate("cx", (0, -1)), ValueError, "negative operand"),
    "gate-target-of-a-sign-kind": (lambda: Gate("cz", (0, 1)).target, ValueError,
                                   "cz has no target"),
    "layout-unknown-qubit": (lambda: QuditLayout(((0,), (1,))).group_of(2), ValueError,
                             "qubit 2 not in any group"),
    "cost-row-unknown-backend": (lambda: cost_report(qfa_circuit(), qfa_layout()).row("teleport"),
                                 KeyError, "teleport"),
    "bell-vector-unknown-label": (lambda: bell_vector("chi+"), ValueError,
                                  "unknown Bell label"),
    "trigger-set-dim-mismatch": (lambda: _as_trigger_set(TriggerSet((1,), 3), 4), ValueError,
                                 "trigger set dim 3 does not match 4"),
    "pattern-of-two-registers": (lambda: trigger_pattern(PureState((2, 2), _unit(4)),
                                                         TriggerSet((1,), 2)),
                                 ValueError, "single register"),
    "analyzer-unknown-herald": (lambda: BsmModel.linear_optics(frozenset({"psi+", "chi"})),
                                ValueError, r"unknown herald labels \['chi'\]"),
    "bell-measurement-no-qubit-pair": (lambda: bell_measurement(PureState((2, 3), _unit(6)),
                                                                BsmModel.ideal()),
                                       ValueError, "need a qubit pair at the end"),
    # a plain list of levels, not a TriggerSet, reaches the mesh
    "router-levels-as-a-list": (lambda: build_smr_mesh(2, [2]), ValueError,
                                r"pair \(2, 2\) out of range"),
    "photon-negative-mode": (lambda: PhotonConfig((-1, 2), 2), ValueError, "negative mode"),
    "mode-matrix-not-unitary": (lambda: ModeUnitary(np.ones((2, 2))), ValueError,
                                "not unitary"),
    "pair-state-asymmetric": (lambda: TwoPhotonState(np.array([[0.0, 1.0], [0.0, 0.0]]), 1),
                              ValueError, "must be symmetric"),
    "pair-state-split-out-of-range": (lambda: TwoPhotonState(np.eye(2) / 2, 2), ValueError,
                                      "split 2 out of range for 2 modes"),
    "evolve-mode-mismatch": (lambda: evolve_two_photon(ModeUnitary(np.eye(3)),
                                                       TwoPhotonState(np.eye(2) / 2, 1)),
                             ValueError, "3 modes vs 2"),
    "swap-mesh-pair-out-of-range": (lambda: pair_swap_mesh(2, 2, [(0, 2)]), ValueError,
                                    r"pair \(0, 2\) out of range"),
    "swap-mesh-reused-mode": (lambda: pair_swap_mesh(2, 2, [(0, 0), (0, 1)]), ValueError,
                              r"mode reused in pair \(0, 1\)"),
    "router-ancilla-wrong-dim": (lambda: route_with_ancilla(PureState((3,), _unit(3)),
                                                            PureState((3,), _unit(3)),
                                                            TriggerSet((1,), 3)),
                                 ValueError, "ancilla dim 3 does not match 1 triggers"),
    "state-bad-dims": (lambda: PureState((2, 0), []), ValueError, "bad dims"),
    "basis-wrong-arity": (lambda: PureState.basis((2, 2), (0,)), ValueError,
                          "index arity must match dims"),
    "truncate-bad-new-dim": (lambda: truncate_subsystem(PureState((2, 3), _unit(6)), 1, 4),
                             ValueError, "cannot truncate dim 3 to 4"),
    "fidelity-unequal-dims": (lambda: fidelity_up_to_phase(PureState((2,), _unit(2)),
                                                           PureState((3,), _unit(3))),
                              ValueError, "dims differ"),
    "joint-not-two-registers": (lambda: run_state_independent_joint(PureState((4,), _unit(4)),
                                                                    (1,), (1,)),
                                ValueError, "need a two-register state"),
    "joint-not-normalized": (lambda: run_state_independent_joint(
        PureState((2, 2), 2 * _unit(4)), (1,), (1,)), ValueError, "input is not normalized"),
}


@pytest.mark.parametrize("call, error, match", RAISES.values(), ids=RAISES.keys())
def test_refusal_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
