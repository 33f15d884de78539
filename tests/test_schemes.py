"""End-to-end scheme pipelines against the logical gate."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_amplitudes, random_trigger_indices
from qompress import schemes
from qompress.mcz import (
    BELL_LABELS,
    BsmModel,
    BsmOutcome,
    TriggerSet,
    correction_unitary,
    multi_level_cz,
)
from qompress.qstate import PureState, apply, fidelity_up_to_phase, random_state, tensor
from qompress.schemes import (
    _feedforward,
    _run_state_dependent,
    _run_state_independent,
    run_state_dependent,
    run_state_independent_joint,
    success_probability,
    verified_two_level_cz,
)


def expected_output(joint: PureState, c1, c2) -> PureState:
    d1, d2 = joint.dims
    return apply(multi_level_cz(d1, d2, c1, c2), joint)


class TestStateDependent:
    def test_all_branches_reproduce_gate(self):
        rng = np.random.default_rng(41)
        for d1, d2 in ((2, 2), (3, 4), (8, 2), (5, 3)):
            for _ in range(8):
                c1 = random_trigger_indices(d1, rng)
                c2 = random_trigger_indices(d2, rng)
                psi1, psi2 = random_state((d1,), rng), random_state((d2,), rng)
                res = run_state_dependent(psi1, psi2, c1, c2, BsmModel.ideal())
                want = expected_output(tensor(psi1, psi2), c1, c2)
                assert [b.label for b in res.branches] == list(BELL_LABELS)
                for branch in res.branches:
                    # the optical chain is phase-exact, not just equal up to phase
                    np.testing.assert_allclose(branch.output.amps, want.amps, atol=1e-10)
                    np.testing.assert_allclose(branch.probability, 0.25, atol=1e-12)

    def test_success_probabilities_exact(self):
        rng = np.random.default_rng(43)
        psi1, psi2 = random_state((4,), rng), random_state((4,), rng)
        res = run_state_dependent(psi1, psi2, (1, 2), (3,))
        assert res.success_probability == Fraction(1, 8)
        assert res.success_probability_float == 0.125
        res = run_state_dependent(psi1, psi2, (1, 2), (3,), BsmModel.ideal())
        assert res.success_probability == Fraction(1, 4)

    def test_linear_optics_heralds_only_psi(self):
        rng = np.random.default_rng(47)
        psi1, psi2 = random_state((3,), rng), random_state((3,), rng)
        res = run_state_dependent(psi1, psi2, (0,), (2,))
        assert [b.label for b in res.branches] == ["psi+", "psi-"]
        labels = [o.label for o in res.bsm_outcomes]
        assert labels == ["psi+", "psi-", "fail"]
        fail = res.bsm_outcomes[-1]
        np.testing.assert_allclose(fail.probability, 0.5, atol=1e-12)

    def test_herald_injection_changes_fraction(self):
        rng = np.random.default_rng(53)
        psi1, psi2 = random_state((3,), rng), random_state((2,), rng)
        model = BsmModel.linear_optics(heralds=frozenset({"psi+"}))
        res = run_state_dependent(psi1, psi2, (1,), (1,), model)
        assert res.success_probability == Fraction(1, 16)
        assert [b.label for b in res.branches] == ["psi+"]

    def test_resource_state_structure(self):
        rng = np.random.default_rng(59)
        d1, d2 = 4, 3
        c1, c2 = (1, 3), (0,)
        psi1, psi2 = random_state((d1,), rng), random_state((d2,), rng)
        res = run_state_dependent(psi1, psi2, c1, c2, BsmModel.ideal())
        expected = np.zeros((d1, d2, 2, 2), dtype=complex)
        for m in range(d1):
            for n in range(d2):
                expected[m, n, int(m in c1), int(n in c2)] = psi1.amps[m] * psi2.amps[n]
        assert res.resource_state.dims == (d1, d2, 2, 2)
        np.testing.assert_allclose(res.resource_state.amps, expected, atol=1e-12)

    def test_counts(self):
        rng = np.random.default_rng(61)
        res = run_state_dependent(random_state((4,), rng), random_state((4,), rng), (0,), (1, 2))
        assert res.ancilla_count == 2
        assert res.nonlocal_gate_count == 1

    def test_rejects_bad_inputs(self):
        good = PureState((3,), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            run_state_dependent(PureState((3,), np.array([1.0, 1.0, 0.0])), good, (1,), (1,))
        with pytest.raises(ValueError):
            run_state_dependent(PureState((2, 2), np.eye(2) / np.sqrt(2.0)), good, (1,), (1,))

    def test_basis_inputs(self):
        # zero trigger mass on one side exercises the uniform ancilla fallback
        for m in range(3):
            for n in range(2):
                psi1 = PureState.basis((3,), (m,))
                psi2 = PureState.basis((2,), (n,))
                res = run_state_dependent(psi1, psi2, (2,), (1,), BsmModel.ideal())
                want = expected_output(tensor(psi1, psi2), (2,), (1,))
                for branch in res.branches:
                    np.testing.assert_allclose(branch.output.amps, want.amps, atol=1e-12)


class TestStateIndependent:
    def test_matches_gate_on_product_inputs(self):
        rng = np.random.default_rng(67)
        for d1, d2 in ((2, 2), (4, 3), (8, 2)):
            for _ in range(5):
                c1 = random_trigger_indices(d1, rng, max_size=3)
                c2 = random_trigger_indices(d2, rng, max_size=3)
                psi1, psi2 = random_state((d1,), rng), random_state((d2,), rng)
                res = run_state_independent_joint(
                    tensor(psi1, psi2), c1, c2, model=BsmModel.ideal()
                )
                want = expected_output(tensor(psi1, psi2), c1, c2)
                for branch in res.branches:
                    np.testing.assert_allclose(branch.output.amps, want.amps, atol=1e-10)

    def test_entangled_input(self):
        rng = np.random.default_rng(71)
        joint = random_state((4, 4), rng)
        res = run_state_independent_joint(joint, (1, 2), (0, 3), model=BsmModel.ideal())
        want = expected_output(joint, (1, 2), (0, 3))
        assert len(res.branches) == 4
        for branch in res.branches:
            np.testing.assert_allclose(branch.output.amps, want.amps, atol=1e-10)
            np.testing.assert_allclose(branch.probability, 0.25, atol=1e-12)

    def test_success_probability_formula(self):
        rng = np.random.default_rng(73)
        psi1, psi2 = random_state((8,), rng), random_state((2,), rng)
        joint = tensor(psi1, psi2)
        res = run_state_independent_joint(joint, (3, 7), (1,))
        assert res.success_probability == Fraction(1, 1024)
        assert res.ancilla_count == 8
        assert res.nonlocal_gate_count == 3
        res = run_state_independent_joint(joint, (3, 7), (1,), model=BsmModel.ideal())
        assert res.success_probability == Fraction(1, 64)

    def test_resource_state_structure(self):
        rng = np.random.default_rng(79)
        joint = random_state((3, 3), rng)
        c1, c2 = (1,), (0, 2)
        res = run_state_independent_joint(joint, c1, c2, model=BsmModel.ideal())
        expected = np.zeros((3, 3, 2, 2), dtype=complex)
        for m in range(3):
            for n in range(3):
                expected[m, n, int(m in c1), int(n in c2)] = joint.amps[m, n]
        np.testing.assert_allclose(res.resource_state.amps, expected, atol=1e-12)

    def test_faithful_mode_agrees_with_fast(self):
        rng = np.random.default_rng(83)
        joint = random_state((3, 2), rng)
        fast = run_state_independent_joint(joint, (0, 2), (1,), mode="fast", model=BsmModel.ideal())
        faithful = run_state_independent_joint(joint, (0, 2), (1,), mode="faithful", model=BsmModel.ideal())
        for a, b in zip(fast.branches, faithful.branches):
            assert a.label == b.label
            np.testing.assert_allclose(a.output.amps, b.output.amps, atol=1e-12)

    def test_unknown_mode(self):
        rng = np.random.default_rng(89)
        with pytest.raises(ValueError):
            run_state_independent_joint(random_state((2, 2), rng), (1,), (1,), mode="psychic")


MODELS = pytest.mark.parametrize(
    "model", [BsmModel.ideal(), BsmModel.linear_optics()], ids=["ideal", "linear-optics"]
)


class TestBatchedCores:
    """A scheme core runs a stack of words a slice at a time. Every word
    must come out as the logical gate, with the probabilities of its own
    single call."""

    @staticmethod
    def check_words(slices, singles, wants):
        # the stack spans several slices of several words each
        assert len(slices) > 1 and len(slices[0].output.amps) > 1
        assert [b.label for b in slices[0].branches] == [b.label for b in singles[0].branches]
        outputs = [np.concatenate([s.branches[i].output.amps for s in slices])
                   for i in range(len(slices[0].branches))]
        branch_probs = [np.concatenate([s.branches[i].probability for s in slices])
                        for i in range(len(slices[0].branches))]
        outcome_probs = [np.concatenate([s.bsm_outcomes[i].probability for s in slices])
                         for i in range(len(slices[0].bsm_outcomes))]
        for w, (single, want) in enumerate(zip(singles, wants)):
            for i, branch in enumerate(single.branches):
                got = PureState(want.dims, outputs[i][w])
                assert fidelity_up_to_phase(got, want) > 1 - 1e-10
                np.testing.assert_allclose(branch_probs[i][w], branch.probability, atol=1e-12)
            for i, outcome in enumerate(single.bsm_outcomes):
                np.testing.assert_allclose(outcome_probs[i][w], outcome.probability, atol=1e-12)

    @MODELS
    def test_state_dependent_core(self, model):
        rng = np.random.default_rng(97)
        d1, d2, c1, c2 = 4, 3, (1, 3), (0,)
        # basis words with no trigger weight take the uniform-pattern
        # fallback; they sit among random words
        firsts = [random_amplitudes(d1, rng) for _ in range(40)]
        seconds = [random_amplitudes(d2, rng) for _ in range(40)]
        for w, (m, n) in zip((0, 5, 6, 39), ((0, 1), (2, 2), (0, 2), (2, 1))):
            firsts[w], seconds[w] = np.eye(d1)[m], np.eye(d2)[n]
        psi1 = PureState((d1,), np.array(firsts))
        psi2 = PureState((d2,), np.array(seconds))
        slices = list(_run_state_dependent(psi1, psi2, c1, c2, model))
        singles, wants = [], []
        for a, b in zip(firsts, seconds):
            pair = PureState((d1,), a), PureState((d2,), b)
            singles.append(run_state_dependent(*pair, c1, c2, model))
            wants.append(expected_output(tensor(*pair), c1, c2))
        self.check_words(slices, singles, wants)

    @MODELS
    @pytest.mark.parametrize("mode", ["fast", "faithful"])
    def test_state_independent_core(self, model, mode):
        rng = np.random.default_rng(101)
        d1, d2, c1, c2 = 3, 4, (2,), (0, 3)
        joints = [random_amplitudes(d1 * d2, rng).reshape(d1, d2) for _ in range(40)]
        joints[3] = np.eye(d1 * d2)[5].reshape(d1, d2)
        joint = PureState((d1, d2), np.array(joints))
        slices = list(_run_state_independent(joint, c1, c2, mode, model))
        singles = [run_state_independent_joint(PureState((d1, d2), j), c1, c2, mode, model)
                   for j in joints]
        wants = [expected_output(PureState((d1, d2), j), c1, c2) for j in joints]
        self.check_words(slices, singles, wants)

    def test_single_calls_refuse_a_batch(self):
        batch = PureState((2,), np.eye(2))
        with pytest.raises(ValueError):
            run_state_dependent(batch, batch, (1,), (1,))
        with pytest.raises(ValueError):
            run_state_independent_joint(PureState((2, 2), np.eye(4).reshape(4, 2, 2)), (1,), (1,))


def random_batch(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSignMultiplies:
    """Inside the schemes every sign gate is a multiply by a ±1 array. On
    random batched states each must equal the dense gate's apply exactly;
    IEEE equality, so the sign of a zero does not count."""

    def test_feedforward_corrections(self):
        rng = np.random.default_rng(107)
        t1, t2 = TriggerSet((1, 3), 4), TriggerSet((0,), 3)
        state = PureState((4, 3), random_batch((16, 4, 3), rng))
        outcomes = [BsmOutcome(label, np.full(16, 0.25), state) for label in BELL_LABELS]
        branches = _feedforward(outcomes, t1, t2)
        # phi- corrects register 1, psi+ register 2 and psi- both
        fixes = {"phi+": (), "phi-": (0,), "psi+": (1,), "psi-": (0, 1)}
        assert [b.label for b in branches] == list(BELL_LABELS)
        for branch in branches:
            want = state
            for sub in fixes[branch.label]:
                want = apply(correction_unitary((t1, t2)[sub]).on(sub), want)
            assert np.array_equal(branch.output.amps, want.amps), branch.label

    @pytest.mark.parametrize("mode", ["fast", "faithful"])
    def test_flag_ladder(self, monkeypatch, mode):
        d1, d2, c1, c2 = 4, 3, (0, 2, 3), (1,)
        seen = {"verified": []}

        def ladder_fuse(joint, t1, t2, ladders, *rest, _real=schemes._ladder_fuse):
            seen["ladders"] = ladders
            return _real(joint, t1, t2, ladders, *rest)

        def verified(d, s, _real=verified_two_level_cz):
            seen["verified"].append((d, s))
            return _real(d, s)

        monkeypatch.setattr(schemes, "_ladder_fuse", ladder_fuse)
        monkeypatch.setattr(schemes, "verified_two_level_cz", verified)
        rng = np.random.default_rng(109)
        joint = PureState((d1, d2), np.array([random_state((d1, d2), rng).amps for _ in range(8)]))
        list(_run_state_independent(joint, c1, c2, mode, BsmModel.ideal()))
        # faithful mode cross-checks every two-level gate the ladder uses
        checked = [(d1, s) for s in c1] + [(d2, s) for s in c2]
        assert seen["verified"] == (checked if mode == "faithful" else [])

        # the ladder on a random batched flag register (d1, d2, f1, f2)
        reg = PureState((d1, d2, 2, 2), random_batch((8, d1, d2, 2, 2), rng))
        want = reg
        for s in c1:
            want = apply(multi_level_cz(d1, 2, (s,), (1,)).on(0, 2), want)
        for s in c2:
            want = apply(multi_level_cz(d2, 2, (s,), (1,)).on(1, 3), want)
        first, second = seen["ladders"]
        assert np.array_equal(reg.amps * first * second, want.amps)


class TestVerifiedGate:
    def test_matches_logical_matrix(self):
        u = verified_two_level_cz(3, 2)
        np.testing.assert_array_equal(u.entries, multi_level_cz(3, 2, (2,), (1,)).entries)

    def test_cached(self):
        assert verified_two_level_cz(3, 2) is verified_two_level_cz(3, 2)


class TestSuccessProbability:
    def test_formulas(self):
        assert success_probability("state-dependent", 5, 2) == Fraction(1, 8)
        assert success_probability("state-independent", 1, 1) == Fraction(1, 128)
        assert success_probability("state-independent", 2, 1) == Fraction(1, 1024)
        ideal = BsmModel.ideal()
        assert success_probability("state-dependent", 1, 1, ideal) == Fraction(1, 4)
        assert success_probability("state-independent", 2, 1, ideal) == Fraction(1, 64)
        with pytest.raises(ValueError):
            success_probability("teleport", 1, 1)
