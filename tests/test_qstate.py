"""Register plumbing: embedding, permutation, truncation, completion."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import haar_unitary, random_amplitudes
from qompress import compress, schemes
from qompress.cli import main
from qompress.mcz import BsmModel
from qompress.qstate import (
    PureState,
    Unitary,
    apply,
    fidelity_up_to_phase,
    hadamard,
    permute_subsystems,
    random_state,
    tensor,
    truncate_subsystem,
)


def embedded_matrix(u: np.ndarray, dims: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Full-register matrix built by brute-force index bookkeeping."""
    n = int(np.prod(dims))
    full = np.zeros((n, n), dtype=complex)
    strides = [int(np.prod(dims[i + 1:])) for i in range(len(dims))]

    def digits(idx):
        return [(idx // strides[i]) % dims[i] for i in range(len(dims))]

    def compose(ds):
        return sum(d * s for d, s in zip(ds, strides))

    tdims = [dims[t] for t in targets]
    tstrides = [int(np.prod(tdims[i + 1:])) for i in range(len(tdims))]
    for col in range(n):
        ds = digits(col)
        tcol = sum(ds[t] * tstrides[i] for i, t in enumerate(targets))
        for trow in range(int(np.prod(tdims))):
            out = list(ds)
            rem = trow
            for i, t in enumerate(targets):
                out[t] = rem // tstrides[i]
                rem %= tstrides[i]
            full[compose(out), col] += u[trow, tcol]
    return full


class TestPureState:
    def test_basis_and_norm(self):
        s = PureState.basis((2, 3), (1, 2))
        assert s.dims == (2, 3)
        assert s.dim == 6
        assert s.amps[1, 2] == 1.0
        assert s.norm == 1.0

    def test_reshapes_flat_input(self):
        s = PureState((2, 2), np.arange(4.0))
        np.testing.assert_array_equal(s.amps, [[0.0, 1.0], [2.0, 3.0]])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.zeros(5))

    def test_amps_read_only(self):
        s = PureState((2,), np.ones(2))
        with pytest.raises(ValueError):
            s.amps[0] = 3.0


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Unitary(np.ones((2, 3)))

    def test_on_binds_targets(self):
        u = hadamard().on(2)
        assert u.targets == (2,)

    def test_hadamard_is_validated_once(self):
        assert hadamard() is hadamard()
        assert not hadamard().entries.flags.writeable

    def test_on_shares_validated_entries(self):
        u = hadamard()
        bound = u.on(1)
        assert bound.entries is u.entries
        assert u.targets is None


class TestApply:
    def test_matches_embedded_matrix(self):
        rng = np.random.default_rng(13)
        dims = (2, 3, 2)
        for targets in [(0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (1, 0)]:
            dt = int(np.prod([dims[t] for t in targets]))
            u = haar_unitary(dt, rng)
            state = random_state(dims, rng)
            got = apply(Unitary(u).on(*targets), state).amps.reshape(-1)
            want = embedded_matrix(u, dims, targets) @ state.amps.reshape(-1)
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=str(targets))

    def test_whole_register(self):
        rng = np.random.default_rng(19)
        state = random_state((2, 2), rng)
        u = haar_unitary(4, rng)
        got = apply(Unitary(u), state).amps.reshape(-1)
        np.testing.assert_allclose(got, u @ state.amps.reshape(-1), atol=1e-12)

    def test_bad_targets(self):
        state = PureState.basis((2, 2), (0, 0))
        with pytest.raises(ValueError):
            apply(hadamard().on(5), state)
        with pytest.raises(ValueError):
            apply(Unitary(np.eye(4)).on(0, 0), state)
        with pytest.raises(ValueError):
            apply(Unitary(np.eye(3)).on(0), state)


class TestRegisterOps:
    def test_tensor(self):
        a = PureState((2,), np.array([1.0, 2.0]))
        b = PureState((3,), np.array([1.0, 0.0, 1.0]))
        t = tensor(a, b)
        assert t.dims == (2, 3)
        np.testing.assert_array_equal(t.amps.reshape(-1), np.kron([1.0, 2.0], [1.0, 0.0, 1.0]))

    def test_permute(self):
        rng = np.random.default_rng(23)
        s = random_state((2, 3, 4), rng)
        p = permute_subsystems(s, (2, 0, 1))
        assert p.dims == (4, 2, 3)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert p.amps[k, i, j] == s.amps[i, j, k]
        with pytest.raises(ValueError):
            permute_subsystems(s, (0, 0, 1))

    def test_truncate(self):
        amps = np.zeros((2, 3))
        amps[0, 0] = 0.6
        amps[1, 1] = 0.8
        s = PureState((2, 3), amps)
        t = truncate_subsystem(s, 1, 2)
        assert t.dims == (2, 2)
        np.testing.assert_array_equal(t.amps, [[0.6, 0.0], [0.0, 0.8]])
        amps2 = amps.copy()
        amps2[0, 2] = 0.1
        with pytest.raises(ValueError):
            truncate_subsystem(PureState((2, 3), amps2), 1, 2)

    def test_fidelity(self):
        rng = np.random.default_rng(29)
        s = random_state((4,), rng)
        rotated = PureState((4,), s.amps * np.exp(0.7j))
        np.testing.assert_allclose(fidelity_up_to_phase(s, rotated), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            fidelity_up_to_phase(s, PureState((4,), s.amps * 2.0))

    def test_fidelity_refuses_a_batch(self):
        rng = np.random.default_rng(29)
        s = random_state((4,), rng)
        batch = PureState((4,), np.stack([s.amps, s.amps]))
        for a, b in ((batch, s), (s, batch)):
            with pytest.raises(ValueError, match="takes one state, got a batch"):
                fidelity_up_to_phase(a, b)


class TestBatches:
    """Leading axes in front of the register axes are a batch of words;
    every stage must act on each word as it acts on that word alone."""

    def test_leading_axes_are_a_batch(self):
        rng = np.random.default_rng(41)
        amps = np.stack([random_state((2, 3), rng).amps * f for f in (1.0, 2.0)])
        s = PureState((2, 3), amps)
        assert s.batch == (2,)
        assert s.amps.shape == (2, 2, 3)
        np.testing.assert_allclose(s.norm, [1.0, 2.0], atol=1e-12)
        assert PureState((2, 3), amps[0]).batch == ()

    def test_apply_acts_word_by_word(self):
        rng = np.random.default_rng(43)
        dims = (2, 3, 2)
        words = [random_state(dims, rng) for _ in range(3)]
        batch = PureState(dims, np.stack([w.amps for w in words]))
        shared = Unitary(haar_unitary(4, rng)).on(2, 0)
        own = Unitary(np.stack([haar_unitary(3, rng) for _ in words])).on(1)
        for u in (shared, own, Unitary(haar_unitary(12, rng))):
            got = apply(u, batch).amps
            for w, word in enumerate(words):
                single = u if u.entries.ndim == 2 else Unitary(u.entries[w]).on(*u.targets)
                np.testing.assert_allclose(got[w], apply(single, word).amps, atol=1e-12)

    def test_tensor_and_permute_act_word_by_word(self):
        rng = np.random.default_rng(47)
        firsts = [random_state((2,), rng) for _ in range(3)]
        seconds = [random_state((3,), rng) for _ in range(3)]
        a = PureState((2,), np.stack([f.amps for f in firsts]))
        b = PureState((3,), np.stack([s.amps for s in seconds]))
        for got, want in (
            (tensor(a, b).amps, [tensor(f, s).amps for f, s in zip(firsts, seconds)]),
            (tensor(a, seconds[0]).amps, [tensor(f, seconds[0]).amps for f in firsts]),
            (tensor(firsts[0], b).amps, [tensor(firsts[0], s).amps for s in seconds]),
            (permute_subsystems(tensor(a, b), (1, 0)).amps,
             [tensor(s, f).amps for f, s in zip(firsts, seconds)]),
        ):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_truncation_reports_the_lowest_failing_word(self):
        amps = np.zeros((3, 2, 3))
        amps[:, 0, 0] = 1.0
        amps[1, 1, 2] = 0.25
        amps[2, 0, 2] = 0.5
        with pytest.raises(ValueError, match="2.500e-01"):
            truncate_subsystem(PureState((2, 3), amps), 1, 2)
        kept = truncate_subsystem(PureState((2, 3), amps[[0]]), 1, 2)
        assert kept.batch == (1,) and kept.dims == (2, 2)


def test_random_state_normalized():
    rng = np.random.default_rng(37)
    for _ in range(20):
        assert abs(random_state((3, 5), rng).norm - 1.0) < 1e-12


def test_hadamard_involutory():
    h = hadamard().entries
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)


class TestOwnership:
    """A caller's array is copied in; every array a stage hands out is
    frozen, and a stage never writes into its input."""

    def test_caller_array_is_not_aliased(self):
        amps = np.array([0.6, 0.8j])
        s = PureState((2,), amps)
        assert not np.shares_memory(s.amps, amps)
        amps[0] = 5.0
        assert s.amps[0] == 0.6
        assert amps.flags.writeable

    def test_stage_outputs_are_read_only(self):
        rng = np.random.default_rng(139)
        batch = PureState((2, 3), rng.standard_normal((4, 2, 3)) + 0j)
        before = batch.amps.copy()
        outputs = [
            tensor(batch, PureState((2,), np.array([1.0, 0.0]))),
            tensor(random_state((2,), rng), random_state((3,), rng)),
            apply(hadamard().on(0), batch),
            permute_subsystems(batch, (1, 0)),
            truncate_subsystem(PureState((2, 3), np.eye(2, 3)), 1, 2),
        ]
        for out in outputs:
            assert not out.amps.flags.writeable
            with pytest.raises(ValueError):
                out.amps[(0,) * out.amps.ndim] = 1.0
        np.testing.assert_array_equal(batch.amps, before)


class TestFreshStates:
    """PureState._fresh wraps the array a stage has just computed without
    the constructor's checks, so every stage must hand it a complex array
    of shape batch + dims, dims a tuple of ints."""

    def test_every_stage_hands_over_a_checked_register(self, monkeypatch, capsys):
        calls = []
        real = PureState._fresh.__func__

        def fresh(cls, dims, amps):
            assert type(dims) is tuple and all(isinstance(d, int) for d in dims), dims
            assert isinstance(amps, np.ndarray) and amps.dtype == complex, type(amps)
            assert amps.shape[amps.ndim - len(dims):] == dims, (amps.shape, dims)
            calls.append(dims)
            return real(cls, dims, amps)

        monkeypatch.setattr(PureState, "_fresh", classmethod(fresh))
        monkeypatch.delenv("QOMPRESS_SEED", raising=False)
        rng = np.random.default_rng(191)
        words = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        words /= np.linalg.norm(words, axis=1, keepdims=True)
        joint = PureState((3, 4), words.reshape(5, 3, 4))
        psi1, psi2 = (PureState((d,), w / np.linalg.norm(w, axis=1, keepdims=True))
                      for d, w in ((3, words[:, :3]), (4, words[:, 8:])))
        # a crossing with a spectator qubit in superposition
        circuit = compress.CircuitIR(4, tuple(
            compress.Gate(*g) for g in (("h", (0,)), ("ccx", (1, 2, 3)), ("h", (0,)))))

        def runs():
            """Run every stage; yield after each run whether it builds states."""
            for model in (BsmModel.ideal(), BsmModel.linear_optics()):
                for mode in ("fast", "faithful"):
                    list(schemes._run_state_independent(joint, (1,), (0, 3), mode, model))
                    yield True
                list(schemes._run_state_dependent(psi1, psi2, (1,), (0, 3), model))
                yield True
            for backend in compress.BACKENDS:
                compress.simulate_compressed(circuit, compress.qfa_layout(), backend)
                # the dense backends work on plain arrays
                yield backend not in ("uncompressed", "standard")
            for argv in (["verify", "--scheme", "state-dependent"],
                         ["verify", "--scheme", "state-independent"], ["reproduce"]):
                assert main(argv) == 0, argv
                capsys.readouterr()
                yield True

        before = 0
        for builds in runs():
            assert len(calls) > before or not builds
            before = len(calls)
