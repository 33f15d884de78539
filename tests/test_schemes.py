"""End-to-end scheme pipelines against the logical gate."""

from __future__ import annotations

import dataclasses
import tracemalloc
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
    _ancilla,
    ancilla_flag_unitary,
    bell_measurement,
    correction_unitary,
    multi_level_cz,
    trigger_pattern,
)
from qompress.optics import (
    _coincidence,
    _postselect,
    _routed_coincidence,
    postselect_coincidence,
    route_with_ancilla,
)
from qompress.qstate import (
    PureState,
    apply,
    fidelity_up_to_phase,
    hadamard,
    random_state,
    tensor,
    truncate_subsystem,
)
from qompress.schemes import (
    _Tail,
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
        # built on its first read, once
        assert "resource_state" not in vars(res)
        assert res.resource_state is res.resource_state
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


class TestRouterFlag:
    """The router flag is one-hot, so each level keeps one amplitude, its
    row of the two flag-unitary rows that survive: on batched random inputs
    it must equal the unitary applied and truncated, read at the level's
    flag, and a pattern off the input's must leak and be refused."""

    @staticmethod
    def routed(psi: PureState, triggers: TriggerSet, pattern: np.ndarray):
        return _coincidence(route_with_ancilla(psi, _ancilla(pattern), triggers))

    @pytest.mark.parametrize("d, k", [(2, 1), (4, 3), (8, 4), (16, 7)])
    def test_matches_the_flag_unitary(self, d, k):
        rng = np.random.default_rng(173 + d)
        words = random_batch((12, d), rng)
        psi = PureState((d,), words / np.linalg.norm(words, axis=1, keepdims=True))
        triggers = TriggerSet(tuple(rng.choice(d, size=k, replace=False)), d)
        pattern, _ = trigger_pattern(psi, triggers)
        reg, kept = self.routed(psi, triggers, pattern)
        want = truncate_subsystem(apply(ancilla_flag_unitary(pattern).on(1), reg), 1, 2)
        got, got_kept = schemes._route_flag(psi, triggers)
        assert want.dims == (d, 2) and got.dims == (d,)
        # a trigger level's flag is 1, a free level's 0
        levels, flag = np.arange(d), np.isin(np.arange(d), triggers.indices).astype(int)
        np.testing.assert_allclose(got.amps, want.amps[:, levels, flag], rtol=0, atol=1e-12)
        np.testing.assert_allclose(want.amps[:, levels, 1 - flag], 0, rtol=0, atol=1e-12)
        # the flag keeps the coincidence mass and all of the routed register's
        np.testing.assert_array_equal(got_kept, kept)
        np.testing.assert_allclose(got.norm, reg.norm, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("inputs", ["random", "sparse", "all-trigger", "no-trigger-mass"])
    @pytest.mark.parametrize("d", [2, 8, 64, 512])
    def test_the_flag_is_one_hot(self, d, inputs):
        # the router is a permutation: a free level's trigger rails and a
        # trigger level's pass rail are exactly 0, and so is the overlap of
        # those rails with the pattern, the uniform one included
        rng = np.random.default_rng(197 + d)
        triggers = TriggerSet(tuple(rng.choice(d, size=max(1, d // 3), replace=False)), d)
        on = np.isin(np.arange(d), triggers.indices)
        words = random_batch((8, d), rng)
        if inputs == "sparse":  # two levels per word
            words *= np.argsort(rng.random((8, d)), axis=1) < 2
        elif inputs != "random":
            words[:, on if inputs == "no-trigger-mass" else ~on] = 0.0
        psi = PureState((d,), words / np.linalg.norm(words, axis=1, keepdims=True))
        pattern, _ = trigger_pattern(psi, triggers)
        reg, _ = _postselect(_routed_coincidence(psi.amps, _ancilla(pattern).amps, triggers.indices))
        passing = reg.amps[..., -1]
        overlap = (reg.amps[..., :-1] @ pattern.conj()[..., :, None])[..., 0]
        assert np.all(passing[:, on] == 0) and np.all(overlap[:, ~on] == 0)
        got, _ = schemes._route_flag(psi, triggers)
        np.testing.assert_array_equal(got.amps, np.where(on, overlap, passing))

    def test_a_tilted_pattern_is_refused(self, monkeypatch):
        rng = np.random.default_rng(179)
        d, triggers = 8, TriggerSet((1, 3, 4, 6), 8)
        words = random_batch((6, d), rng)
        psi = PureState((d,), words / np.linalg.norm(words, axis=1, keepdims=True))
        tilts = {j: random_batch((len(triggers),), rng) for j in (2, 4)}

        def tilted(state, triggers, _real=trigger_pattern):
            pattern, weight = _real(state, triggers)
            for j, tilt in tilts.items():
                pattern[j] = tilt / np.linalg.norm(tilt)
            return pattern, weight

        monkeypatch.setattr(schemes, "trigger_pattern", tilted)
        # what the flag unitary's discarded rows carry for the lowest tilted word
        pattern, _ = tilted(psi, triggers)
        reg, _ = self.routed(psi, triggers, pattern)
        leak = np.linalg.norm(apply(ancilla_flag_unitary(pattern).on(1), reg).amps[2, :, 2:])
        assert leak > 1e-3
        with pytest.raises(ValueError, match="truncation would discard amplitude mass") as exc:
            schemes._route_flag(psi, triggers)
        assert float(str(exc.value).rsplit(" ", 1)[1]) == pytest.approx(leak, rel=1e-3)


class TestRoutedCoincidence:
    """The router forms only its (d, k+1) coincidence block, from the two
    photons' mode vectors: on batched words, some with no trigger weight,
    it must be the dense router's post-selected block, and its memory must
    grow with d, not d²."""

    @pytest.mark.parametrize("d, k", [(2, 1), (4, 3), (8, 4), (16, 7)])
    def test_block_matches_the_dense_router(self, d, k):
        rng = np.random.default_rng(191 + d)
        triggers = TriggerSet(tuple(rng.choice(d, size=k, replace=False)), d)
        free = [m for m in range(d) if m not in triggers]
        words = random_batch((10, d), rng)
        # words with no weight on the triggers take the uniform pattern
        for w in (2, 7):
            words[w] = 0.0
            words[w, free] = random_batch((len(free),), rng)
        psi = PureState((d,), words / np.linalg.norm(words, axis=1, keepdims=True))
        pattern, weight = trigger_pattern(psi, triggers)
        assert np.count_nonzero(weight == 0.0) == 2
        ancilla = _ancilla(pattern)
        block = _routed_coincidence(psi.amps, ancilla.amps, triggers.indices)
        assert block.shape == (10, d, k + 1)
        want, want_kept = _coincidence(route_with_ancilla(psi, ancilla, triggers))
        np.testing.assert_allclose(block, want.amps * np.sqrt(want_kept)[:, None, None], rtol=0, atol=1e-12)
        got, got_kept = _postselect(block)
        np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_kept, want_kept, rtol=0, atol=1e-12)
        # and word by word through the public single-state calls
        for w in range(len(words)):
            word = PureState((d,), psi.amps[w])
            reg, kept = postselect_coincidence(route_with_ancilla(word, _ancilla(pattern[w]), triggers))
            np.testing.assert_allclose(got.amps[w], reg.amps, rtol=0, atol=1e-12)
            assert abs(got_kept[w] - kept) <= 1e-12

    def test_a_large_register_routes_in_linear_memory(self):
        # the dense two-photon matrix of this router alone would take
        # (d1 + 3)² amplitudes, 69 GB; one word of the scheme stays within
        # a few dozen amplitudes per level
        rng = np.random.default_rng(197)
        d1 = 1 << 16
        psi1 = PureState((d1,), random_batch((d1,), rng))
        psi1 = PureState((d1,), psi1.amps / psi1.norm)
        psi2 = random_state((2,), rng)
        model = BsmModel.linear_optics()
        peak = TestSliceMemory.peak_above_input(
            lambda: _run_state_dependent(psi1, psi2, (3, 7), (1,), model))
        assert peak <= 32 * 16 * d1


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

    @pytest.fixture(autouse=True)
    def several_slices(self, monkeypatch):
        # without the slice floor the 40-word stacks below still span
        # several slices
        monkeypatch.setattr(schemes, "_SLICE_FLOOR", 0)

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


class TestSliceMemory:
    """A scheme core runs its words in slices that fit within the batch's
    (words, d1, d2) register, counting every array a slice has live, the
    result it yields included. numpy's iteration buffers (np.getbufsize()
    elements for each of up to three operands) do not grow with the words
    and are allowed on top."""

    REGISTER = 8 << 20

    @staticmethod
    def peak_above_input(run) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runs = run()
            # each result is dropped before the next slice runs
            while next(runs, None) is not None:
                pass
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @MODELS
    @pytest.mark.parametrize("d1, d2, c1, c2", [
        (16, 16, (1, 4, 9, 12), (0, 5, 10, 15)),
        (16, 2, tuple(range(15)), (1,)),
        (4, 4, (1, 2), (3,)),
    ], ids=["16x16", "router-bound", "4x4"])
    def test_both_cores_fit_the_register(self, model, d1, d2, c1, c2):
        rng = np.random.default_rng(163)
        words = self.REGISTER // (16 * d1 * d2)

        def unit(shape):
            x = random_batch(shape, rng)
            return x / np.linalg.norm(x.reshape(words, -1), axis=1).reshape((words,) + (1,) * (len(shape) - 1))

        joint = PureState((d1, d2), unit((words, d1, d2)))
        psi1, psi2 = PureState((d1,), unit((words, d1))), PureState((d2,), unit((words, d2)))
        allowance = 3 * np.getbufsize() * 16
        for name, run in [
            ("state-independent", lambda: _run_state_independent(joint, c1, c2, "fast", model)),
            ("state-dependent", lambda: _run_state_dependent(psi1, psi2, c1, c2, model)),
        ]:
            assert self.peak_above_input(run) <= self.REGISTER + allowance, name

    @MODELS
    def test_a_small_batch_runs_in_one_slice(self, model):
        # 64 words of (8, 8) sit below the slice floor, so one slice holds them
        rng = np.random.default_rng(173)
        joints = random_batch((64, 8, 8), rng)
        joints /= np.linalg.norm(joints.reshape(64, -1), axis=1)[:, None, None]
        slices = list(_run_state_independent(PureState((8, 8), joints), (7,), (5, 7), "fast", model))
        assert len(slices) == 1 and len(slices[0].output.amps) == 64

    def test_outputs_are_read_only(self):
        rng = np.random.default_rng(167)
        words = np.array([random_state((3, 4), rng).amps for _ in range(6)])
        joint = PureState((3, 4), words)
        psi1 = PureState((3,), np.array([random_state((3,), rng).amps for _ in range(6)]))
        psi2 = PureState((4,), np.array([random_state((4,), rng).amps for _ in range(6)]))
        for model in (BsmModel.ideal(), BsmModel.linear_optics()):
            for res in (*_run_state_independent(joint, (1,), (0, 3), "fast", model),
                        *_run_state_dependent(psi1, psi2, (1,), (0, 3), model)):
                states = [res.resource_state, *(b.output for b in res.branches),
                          *(o.state for o in res.bsm_outcomes if o.state is not None)]
                assert all(not s.amps.flags.writeable for s in states)
        np.testing.assert_array_equal(joint.amps, words)


def random_batch(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLayout:
    """The fusion tail's stacks are C-ordered (..., h, d1, d2): each word's
    conditional state and branch output per label is one contiguous block,
    so every pass over the stack and every read of a branch is contiguous."""

    @MODELS
    @pytest.mark.parametrize("words", [None, 3], ids=["single", "batch"])
    def test_outcome_states_are_contiguous(self, model, words):
        rng = np.random.default_rng(191)
        d1, d2, c1, c2 = 8, 4, (1, 6), (0, 3)
        batch = () if words is None else (words,)

        def unit(dims):
            x = random_batch(batch + dims, rng)
            return x / np.linalg.norm(x.reshape(batch + (-1,)), axis=-1)[(...,) + (None,) * len(dims)]

        psi1, psi2 = PureState((d1,), unit((d1,))), PureState((d2,), unit((d2,)))
        joint = PureState((d1, d2), unit((d1, d2)))
        for res in (*_run_state_independent(joint, c1, c2, "fast", model),
                    *_run_state_dependent(psi1, psi2, c1, c2, model)):
            states = [*(b.output for b in res.branches),
                      *(o.state for o in res.bsm_outcomes if o.state is not None)]
            assert len(states) == 2 * len(res.branches) > 0
            for state in states:
                assert all(state.amps[w].flags.c_contiguous for w in np.ndindex(batch)), res.scheme
        # the corrections read at the flags, on the grid and at a support's entries
        tail = _Tail.build("state-independent", TriggerSet(c1, d1), TriggerSet(c2, d2), model)
        entries = rng.integers(-1, d1 * d2, size=(3, 5))
        assert schemes._on_levels(tail.corrections, tail.flags, 2).flags.c_contiguous
        assert schemes._on_levels(tail.corrections, tail.flags.ravel()[entries], 1).flags.c_contiguous


class TestSignMultiplies:
    """Inside the schemes every sign gate is a multiply by a ±1 array. On
    random batched states each must equal the dense gate's apply exactly;
    IEEE equality, so the sign of a zero does not count. The flag ladder's
    gates are folded into its closed form, which must equal their dense
    composition up to the Hadamards' rounding."""

    def test_feedforward_corrections(self):
        rng = np.random.default_rng(107)
        t1, t2 = TriggerSet((1, 3), 4), TriggerSet((0,), 3)
        state = PureState((4, 3), random_batch((16, 4, 3), rng))
        tail = _Tail.build("state-dependent", t1, t2, BsmModel.ideal())
        # phi- corrects register 1, psi+ register 2 and psi- both
        fixes = {"phi+": (), "phi-": (0,), "psi+": (1,), "psi-": (0, 1)}
        on_registers = schemes._on_levels(tail.corrections, tail.flags, 2)
        assert on_registers.shape == (len(BELL_LABELS), 4, 3)
        for label, signs in zip(BELL_LABELS, on_registers):
            want = state
            for sub in fixes[label]:
                want = apply(correction_unitary((t1, t2)[sub]).on(sub), want)
            assert np.array_equal(state.amps * signs, want.amps), label

    @pytest.mark.parametrize("words", [None, 3])
    @pytest.mark.parametrize("model", [BsmModel.ideal(), BsmModel.linear_optics()],
                             ids=["ideal", "linear-optics"])
    def test_fuse_branches(self, model, words):
        # the second heralded label is below the cutoff in every word, and
        # in a batch the first one is below it in word 0 alone: the second
        # gets no branch, the first a zero output in that word. The tail's
        # bras are random here, the second scaled by 1e-9 and the first 0
        # at flags (0, 0), the only flags of word 0's level pairs
        rng = np.random.default_rng(109)
        t1, t2 = TriggerSet((1, 3), 4), TriggerSet((0,), 3)
        labels = [label for label in BELL_LABELS if label in model.heralds]
        bras = random_batch((len(labels), 2, 2), rng)
        bras[1] *= 1e-9
        bras[0, 0, 0] = 0.0
        tail = dataclasses.replace(_Tail.build("state-dependent", t1, t2, model), bras=bras)
        batch = () if words is None else (words,)
        x = random_batch(batch + (4, 3), rng)
        if words:
            x[0] *= tail.flags == 0
        # C-ordered like the tail's stack, so every sum runs in the same order
        raw = x[..., None, :, :] * bras.reshape(len(labels), 4).take(tail.flags, axis=1)
        probs = (np.abs(raw) ** 2).sum(axis=(-2, -1))
        heralded = probs.sum(axis=-1)
        total = heralded + (0.0 if len(labels) == 4 else 0.5)
        res = schemes._fuse(tail, x, tail.target / heralded, total)
        assert [o.label for o in res.bsm_outcomes] == labels + ["fail"] * (len(labels) < 4)
        assert res.bsm_outcomes[1].state is None
        assert [b.label for b in res.branches] == labels[:1] + labels[2:]
        assert res.output is res.branches[0].output
        fixes = {"phi+": (), "phi-": (0,), "psi+": (1,), "psi-": (0, 1)}
        for branch in res.branches:
            i = labels.index(branch.label)
            np.testing.assert_allclose(branch.probability, probs[..., i], rtol=1e-12)
            norm = np.sqrt(probs[..., i])
            want = PureState((4, 3), raw[..., i, :, :] / np.where(norm > 0, norm, 1.0)[..., None, None])
            for sub in fixes[branch.label]:
                want = apply(correction_unitary((t1, t2)[sub]).on(sub), want)
            np.testing.assert_allclose(branch.output.amps, want.amps, rtol=0, atol=1e-15)
        if words:
            assert not res.branches[0].output.amps[0].any()
        if len(labels) < 4:
            np.testing.assert_allclose(res.bsm_outcomes[-1].probability, total - heralded,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["fast", "faithful"])
    def test_flag_ladder(self, monkeypatch, mode):
        d1, d2, c1, c2 = 4, 3, (0, 2, 3), (1,)
        verified = []

        def verify(d, s, _real=verified_two_level_cz):
            verified.append((d, s))
            return _real(d, s)

        monkeypatch.setattr(schemes, "verified_two_level_cz", verify)
        rng = np.random.default_rng(109)
        joint = PureState((d1, d2), np.array([random_state((d1, d2), rng).amps for _ in range(8)]))
        (res,) = _run_state_independent(joint, c1, c2, mode, BsmModel.ideal())
        # faithful mode cross-checks every two-level gate the ladder uses
        checked = [(d1, s) for s in c1] + [(d2, s) for s in c2]
        assert verified == (checked if mode == "faithful" else [])

        # the closed form against the ladder gate by gate: flags (subsystems
        # 2 and 3) in |0>, a Hadamard on each, every two-level gate, and the
        # Hadamards again
        want = tensor(joint, PureState.basis((2, 2), (0, 0)))
        for flag in (2, 3):
            want = apply(hadamard().on(flag), want)
        for s in c1:
            want = apply(multi_level_cz(d1, 2, (s,), (1,)).on(0, 2), want)
        for s in c2:
            want = apply(multi_level_cz(d2, 2, (s,), (1,)).on(1, 3), want)
        for flag in (2, 3):
            want = apply(hadamard().on(flag), want)
        assert res.resource_state.dims == want.dims
        np.testing.assert_allclose(res.resource_state.amps, want.amps, rtol=0, atol=1e-15)


class TestFusion:
    """Both schemes fuse the flags by a Bell measurement that reads the
    second flag through a Hadamard, folded into the analyzer's bras, in one
    stacked pass over every heralded outcome: the outcomes must be the
    public analyzer's on the rotated resource register."""

    TRIGGERS = {(2, 2): ((1,), (0,)), (4, 3): ((0, 2), (1, 2)), (8, 2): ((3, 7), (1,))}

    @MODELS
    @pytest.mark.parametrize("d1, d2", [(2, 2), (4, 3), (8, 2)])
    def test_folded_hadamard(self, model, d1, d2):
        rng = np.random.default_rng(181 + d1 * d2)
        c1, c2 = self.TRIGGERS[d1, d2]
        for _ in range(4):
            psi1, psi2 = random_state((d1,), rng), random_state((d2,), rng)
            for res in (run_state_dependent(psi1, psi2, c1, c2, model),
                        run_state_independent_joint(random_state((d1, d2), rng), c1, c2, model=model)):
                self.check(res, model, d1, d2)

    @staticmethod
    def check(res, model, d1, d2):
        want = bell_measurement(apply(hadamard().on(3), res.resource_state), model)
        got = res.bsm_outcomes
        assert [o.label for o in got] == [o.label for o in want]
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.probability, b.probability, rtol=0, atol=1e-15)
            assert (a.state is None) == (b.state is None)
            if a.state is not None:
                assert a.state.dims == b.state.dims == (d1, d2)
                np.testing.assert_allclose(a.state.amps, b.state.amps, rtol=0, atol=1e-14)


class TestProbabilityCheck:
    """Each scheme checks its simulated success against the exact one, so a
    wrong formula value cannot pass silently."""

    @pytest.fixture(autouse=True)
    def wrong_formula(self, monkeypatch):
        monkeypatch.setattr(schemes, "success_probability", lambda *_: Fraction(1, 3))

    def test_state_dependent(self):
        rng = np.random.default_rng(113)
        psi1, psi2 = random_state((4,), rng), random_state((3,), rng)
        with pytest.raises(ArithmeticError):
            run_state_dependent(psi1, psi2, (1, 2), (0,))

    def test_state_independent(self):
        rng = np.random.default_rng(127)
        with pytest.raises(ArithmeticError):
            run_state_independent_joint(random_state((4, 3), rng), (1, 2), (0,))


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
