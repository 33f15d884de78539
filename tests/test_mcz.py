"""Gate definitions, ancilla preparation and Bell analysis."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import random_amplitudes
from qompress.mcz import (
    BELL_LABELS,
    BsmModel,
    TriggerSet,
    _signs,
    ancilla_flag_unitary,
    bell_measurement,
    bell_vector,
    correction_unitary,
    multi_level_cz,
    prepare_ancillas,
    trigger_pattern,
    two_level_cz,
)
from qompress.qstate import PureState, apply, tensor

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def mcz_oracle(d1: int, d2: int, c1: tuple[int, ...], c2: tuple[int, ...]) -> np.ndarray:
    """Sign matrix by plain enumeration: -1 exactly on the trigger product."""
    u = np.zeros((d1 * d2, d1 * d2))
    for m in range(d1):
        for n in range(d2):
            idx = m * d2 + n
            u[idx, idx] = -1.0 if (m in c1 and n in c2) else 1.0
    return u


class TestTriggerSet:
    def test_sorts_input(self):
        ts = TriggerSet((3, 1), 5)
        assert ts.indices == (1, 3)
        assert ts.dim == 5
        assert len(ts) == 2
        assert 3 in ts and 0 not in ts

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            TriggerSet((), 4)
        with pytest.raises(ValueError):
            TriggerSet((0, 1, 2, 3), 4)  # must leave at least one free level
        with pytest.raises(ValueError):
            TriggerSet((1, 1), 4)
        with pytest.raises(ValueError):
            TriggerSet((4,), 4)
        with pytest.raises(ValueError):
            TriggerSet((-1,), 4)


class TestGateMatrices:
    def test_matches_oracle_exhaustively(self):
        for d1, d2 in itertools.product((2, 3, 4), repeat=2):
            sets1 = [c for k in range(1, d1) for c in itertools.combinations(range(d1), k)]
            sets2 = [c for k in range(1, d2) for c in itertools.combinations(range(d2), k)]
            for c1 in sets1:
                for c2 in sets2:
                    gate = multi_level_cz(d1, d2, c1, c2)
                    np.testing.assert_array_equal(gate.entries, mcz_oracle(d1, d2, c1, c2))

    def test_involutory_and_hermitian(self):
        gate = multi_level_cz(4, 3, (1, 3), (0, 2)).entries
        np.testing.assert_array_equal(gate, gate.conj().T)
        np.testing.assert_array_equal(gate @ gate, np.eye(12))

    def test_two_level_special_case(self):
        for d in (2, 3, 5):
            np.testing.assert_array_equal(
                two_level_cz(d).entries,
                mcz_oracle(d, d, (d - 1,), (d - 1,)),
            )

    def test_accepts_trigger_sets(self):
        a = multi_level_cz(3, 3, TriggerSet((1,), 3), TriggerSet((0, 2), 3))
        b = multi_level_cz(3, 3, (1,), (0, 2))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_correction_unitary(self):
        u = correction_unitary(TriggerSet((0, 2), 4)).entries
        np.testing.assert_array_equal(u, np.diag([-1.0, 1.0, -1.0, 1.0]))

    def test_signs_are_every_gate_diagonal(self):
        # -1 exactly where every register sits on one of its trigger levels
        t1, t2 = TriggerSet((1, 3), 4), TriggerSet((0,), 3)
        np.testing.assert_array_equal(_signs(t1), [1.0, -1.0, 1.0, -1.0])
        hit = np.array([[m in t1 and n in t2 for n in range(3)] for m in range(4)])
        np.testing.assert_array_equal(_signs(t1, t2), np.where(hit, -1.0, 1.0))
        np.testing.assert_array_equal(
            multi_level_cz(4, 3, t1, t2).entries, np.diag(_signs(t1, t2).ravel())
        )
        np.testing.assert_array_equal(correction_unitary(t1).entries, np.diag(_signs(t1)))

    def test_sign_gate_is_a_read_only_unbound_unitary(self):
        gate = multi_level_cz(3, 2, (1,), (1,))
        assert gate.entries.dtype == complex and not gate.entries.flags.writeable
        assert gate.targets is None
        assert gate.on(0, 1).entries is gate.entries


class TestAncillaPreparation:
    def test_frozen_pattern_and_ancilla(self):
        # (|0> + |3> + |7>)/sqrt(3) on d=8 with triggers {3, 7}: the trigger
        # amplitudes are equal, so the pattern is uniform and the ancilla is
        # [1/2, 1/2, 1/sqrt(2)].
        amps = np.zeros(8)
        amps[[0, 3, 7]] = 1.0 / np.sqrt(3.0)
        psi = PureState((8,), amps)
        ts = TriggerSet((3, 7), 8)
        pattern, weight = trigger_pattern(psi, ts)
        np.testing.assert_allclose(pattern, [INV_SQRT2, INV_SQRT2], atol=1e-15)
        np.testing.assert_allclose(weight, 2.0 / 3.0, atol=1e-15)

        anc1, anc2 = prepare_ancillas(psi, psi, ts, ts)
        expected = [0.5, 0.5, 0.7071067811865476]
        np.testing.assert_allclose(anc1.amps, expected, atol=1e-15)
        np.testing.assert_allclose(anc2.amps, expected, atol=1e-15)
        assert anc1.dims == (3,)

    def test_weighted_pattern(self):
        amps = np.array([0.0, 0.6, 0.0, 0.8])
        psi = PureState((4,), amps)
        pattern, weight = trigger_pattern(psi, TriggerSet((1, 3), 4))
        np.testing.assert_allclose(pattern, [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(weight, 1.0, atol=1e-15)

    def test_zero_weight_falls_back_to_uniform(self):
        # no amplitude on any trigger level: same frozen numbers as above
        psi = PureState((4,), np.array([0.0, 1.0, 0.0, 0.0]))
        pattern, weight = trigger_pattern(psi, TriggerSet((0, 2), 4))
        np.testing.assert_allclose(pattern, [INV_SQRT2, INV_SQRT2], atol=1e-15)
        assert weight == 0.0
        anc1, _ = prepare_ancillas(psi, psi, TriggerSet((0, 2), 4), TriggerSet((3,), 4))
        np.testing.assert_allclose(anc1.amps, [0.5, 0.5, 0.7071067811865476], atol=1e-15)

    def test_phase_carried_into_pattern(self):
        amps = np.array([0.0, 0.6j, 0.0, -0.8])
        psi = PureState((4,), amps)
        pattern, _ = trigger_pattern(psi, TriggerSet((1, 3), 4))
        np.testing.assert_allclose(pattern, [0.6j, -0.8], atol=1e-15)


class TestAncillaFlagUnitary:
    def test_single_trigger_is_swap(self):
        u = ancilla_flag_unitary(np.array([1.0])).entries
        np.testing.assert_allclose(u, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_maps_pass_mode_and_pattern(self):
        rng = np.random.default_rng(17)
        patterns = [random_amplitudes(k, rng) for k in (1, 2, 3, 5)]
        # no weight on the first level, and a phased first basis vector
        patterns.append(np.array([0.0, 0.6, 0.8j]))
        patterns.append(np.exp(0.7j) * np.eye(4)[0])
        for pattern in patterns:
            k = pattern.size
            u = ancilla_flag_unitary(pattern).entries
            assert u.shape == (k + 1, k + 1)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(k + 1), atol=1e-12)
            pass_mode = np.eye(k + 1)[k]
            np.testing.assert_allclose(u @ pass_mode, np.eye(k + 1)[0], atol=1e-12)
            xi = np.concatenate([pattern, [0.0]])
            np.testing.assert_allclose(u @ xi, np.eye(k + 1)[1], atol=1e-12)

    def test_rejects_unnormalized_pattern(self):
        with pytest.raises(ValueError):
            ancilla_flag_unitary(np.array([1.0, 1.0]))


class TestBellMeasurement:
    @staticmethod
    def embed(front: PureState, label_weights: dict[str, complex]) -> PureState:
        pair = np.zeros(4, dtype=complex)
        for label, w in label_weights.items():
            pair = pair + w * bell_vector(label)
        return tensor(front, PureState((2, 2), pair.reshape(2, 2)))

    def test_bell_vectors_frozen(self):
        np.testing.assert_allclose(bell_vector("phi+"), np.array([1, 0, 0, 1]) * INV_SQRT2)
        np.testing.assert_allclose(bell_vector("phi-"), np.array([1, 0, 0, -1]) * INV_SQRT2)
        np.testing.assert_allclose(bell_vector("psi+"), np.array([0, 1, 1, 0]) * INV_SQRT2)
        np.testing.assert_allclose(bell_vector("psi-"), np.array([0, 1, -1, 0]) * INV_SQRT2)
        assert BELL_LABELS == ("phi+", "phi-", "psi+", "psi-")

    def test_ideal_model_resolves_all_four(self):
        front = PureState((3, 3), np.eye(9)[0].reshape(3, 3))
        state = self.embed(front, {"phi+": np.sqrt(0.25), "psi-": np.sqrt(0.75)})
        outcomes = bell_measurement(state, BsmModel.ideal())
        probs = {o.label: o.probability for o in outcomes}
        np.testing.assert_allclose(probs["phi+"], 0.25, atol=1e-12)
        np.testing.assert_allclose(probs["psi-"], 0.75, atol=1e-12)
        np.testing.assert_allclose(probs["phi-"], 0.0, atol=1e-12)
        np.testing.assert_allclose(probs["psi+"], 0.0, atol=1e-12)
        assert [o.label for o in outcomes] == list(BELL_LABELS)

    def test_linear_optics_merges_phi_into_fail(self):
        front = PureState((2, 2), np.eye(4)[1].reshape(2, 2))
        state = self.embed(front, {"phi+": 0.5, "phi-": 0.5, "psi+": 0.5, "psi-": 0.5})
        outcomes = bell_measurement(state, BsmModel.linear_optics())
        probs = {o.label: o.probability for o in outcomes}
        assert set(probs) == {"psi+", "psi-", "fail"}
        np.testing.assert_allclose(probs["psi+"], 0.25, atol=1e-12)
        np.testing.assert_allclose(probs["psi-"], 0.25, atol=1e-12)
        np.testing.assert_allclose(probs["fail"], 0.5, atol=1e-12)
        fail = next(o for o in outcomes if o.label == "fail")
        assert fail.state is None

    def test_heralds_override(self):
        front = PureState((2, 2), np.eye(4)[0].reshape(2, 2))
        state = self.embed(front, {"psi+": 1.0})
        model = BsmModel.linear_optics(heralds=frozenset({"psi-"}))
        outcomes = bell_measurement(state, model)
        probs = {o.label: o.probability for o in outcomes}
        np.testing.assert_allclose(probs["fail"], 1.0, atol=1e-12)
        np.testing.assert_allclose(probs["psi-"], 0.0, atol=1e-12)

    def test_takes_one_state(self):
        front = PureState((2,), np.eye(2))
        pair = PureState((2, 2), np.eye(4)[1].reshape(2, 2))
        with pytest.raises(ValueError):
            bell_measurement(tensor(front, pair), BsmModel.ideal())

    def test_conditional_states_normalized(self):
        rng = np.random.default_rng(23)
        front = PureState((3, 2), random_amplitudes(6, rng).reshape(3, 2))
        state = self.embed(front, {"phi-": np.sqrt(0.5), "psi+": np.sqrt(0.5)})
        for o in bell_measurement(state, BsmModel.ideal()):
            if o.probability > 1e-12:
                assert o.state is not None
                assert o.state.dims == (3, 2)
                assert abs(o.state.norm - 1.0) < 1e-10


class TestGateAction:
    def test_phase_lands_on_trigger_products_only(self):
        rng = np.random.default_rng(29)
        d1, d2 = 4, 3
        c1, c2 = TriggerSet((1, 2), d1), TriggerSet((0,), d2)
        gate = multi_level_cz(d1, d2, c1, c2)
        state = PureState((d1, d2), random_amplitudes(d1 * d2, rng).reshape(d1, d2))
        out = apply(gate.on(0, 1), state)
        flat_in = state.amps.reshape(-1)
        flat_out = out.amps.reshape(-1)
        for m in range(d1):
            for n in range(d2):
                sign = -1.0 if (m in c1 and n in c2) else 1.0
                np.testing.assert_allclose(flat_out[m * d2 + n], sign * flat_in[m * d2 + n], atol=1e-15)
