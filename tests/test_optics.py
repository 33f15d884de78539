"""Two-photon layer tests.

The evolution oracle below computes each output amplitude from the 2x2
permanent with explicit factorial normalization, independently of the
implementation's matrix-congruence route.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import haar_unitary, random_amplitudes
from qompress.mcz import TriggerSet
from qompress.optics import (
    _SYMMETRY_ATOL,
    ModeUnitary,
    PhotonConfig,
    TwoPhotonState,
    build_smr_mesh,
    evolve_two_photon,
    pair_swap_mesh,
    postselect_coincidence,
    route_with_ancilla,
    smr_abstract,
)
from qompress.qstate import PureState

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def pair_amplitude_oracle(u: np.ndarray, src: tuple[int, int], dst: tuple[int, int]) -> complex:
    """Two-photon transition amplitude via the permanent rule.

    amplitude = perm(U[dst, src]) / sqrt(mu(src) * mu(dst)) with mu the
    product of mode-occupancy factorials (2 for a doubly occupied mode).
    """
    p, q = src
    r, s = dst
    perm = u[r, p] * u[s, q] + u[r, q] * u[s, p]
    mu_src = 2.0 if p == q else 1.0
    mu_dst = 2.0 if r == s else 1.0
    return perm / np.sqrt(mu_src * mu_dst)


def unordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(p, n)]


class TestEvolutionAgainstPermanentOracle:
    def test_random_unitaries_match_oracle(self):
        rng = np.random.default_rng(7)
        n = 5
        for _ in range(20):
            u = haar_unitary(n, rng)
            for src in unordered_pairs(n):
                state = TwoPhotonState.pair_basis(n, 2, *src)
                out = evolve_two_photon(ModeUnitary(u), state)
                for dst in unordered_pairs(n):
                    expected = pair_amplitude_oracle(u, src, dst)
                    np.testing.assert_allclose(
                        out.amplitude(*dst), expected, atol=1e-12,
                        err_msg=f"src={src} dst={dst}",
                    )

    def test_hong_ou_mandel(self):
        # 50:50 beamsplitter on one photon per input rail: the coincidence
        # amplitude cancels and the bunched amplitudes carry 1/sqrt(2) each.
        bs = ModeUnitary(np.array([[1, 1], [1, -1]]) * INV_SQRT2)
        out = evolve_two_photon(bs, TwoPhotonState.pair_basis(2, 1, 0, 1))
        np.testing.assert_allclose(out.amplitude(0, 1), 0.0, atol=1e-15)
        np.testing.assert_allclose(out.amplitude(0, 0), INV_SQRT2, atol=1e-15)
        np.testing.assert_allclose(out.amplitude(1, 1), -INV_SQRT2, atol=1e-15)
        with pytest.raises(ValueError):
            postselect_coincidence(out)

    def test_norm_preserved_for_random_unitaries(self):
        # unitarity contract: 1000 random unitaries, norm drift below 1e-10
        rng = np.random.default_rng(11)
        n = 6
        state = TwoPhotonState.product(random_amplitudes(3, rng), random_amplitudes(3, rng))
        worst = 0.0
        for _ in range(1000):
            u = ModeUnitary(haar_unitary(n, rng))
            state = evolve_two_photon(u, state)
            worst = max(worst, abs(state.norm - 1.0))
        assert worst < 1e-10


class TestShapeChecks:
    """A 0-d array is refused by the shape check, like any non-square one."""

    def test_mode_unitary_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="square"):
            ModeUnitary(np.array(1.0))

    def test_two_photon_state_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="square"):
            TwoPhotonState(np.array(1.0), 1)


class TestPhotonConfig:
    def test_occupancy_and_coincidence(self):
        c = PhotonConfig((1, 4), split=3)
        assert c.occupancy == {1: 1, 4: 1}
        assert c.port_counts == (1, 1)
        assert c.is_coincidence

        bunched = PhotonConfig((2, 2), split=3)
        assert bunched.occupancy == {2: 2}
        assert bunched.port_counts == (2, 0)
        assert not bunched.is_coincidence

    def test_modes_must_be_sorted(self):
        with pytest.raises(ValueError):
            PhotonConfig((4, 1), split=3)


class TestRoutingTable:
    # d=4, triggers {1,3}: one frozen row per case of the routing table
    def test_four_cases(self):
        ts = TriggerSet((1, 3), 4)
        assert smr_abstract(0, 2, ts, 4) == PhotonConfig((0, 6), 4)   # pass through
        assert smr_abstract(0, 3, ts, 4) == PhotonConfig((0, 3), 4)   # bunch into first port
        assert smr_abstract(1, 2, ts, 4) == PhotonConfig((5, 6), 4)   # bunch into second port
        assert smr_abstract(1, 3, ts, 4) == PhotonConfig((3, 5), 4)   # swap

    def test_mesh_matches_table_exhaustively(self):
        for d in range(2, 7):
            sets = [c for k in (1, 2, 3) if k < d for c in itertools.combinations(range(d), k)]
            for indices in sets:
                ts = TriggerSet(indices, d)
                mesh = build_smr_mesh(d, ts)
                assert mesh.n_modes == 2 * d
                for x in range(d):
                    for y in range(d):
                        out = evolve_two_photon(mesh, TwoPhotonState.pair_basis(2 * d, d, x, d + y))
                        expected = smr_abstract(x, y, ts, d)
                        # permutation arithmetic on dyadic weights is exact
                        assert out.amplitude(*expected.modes) == 1.0
                        assert abs(out.norm - 1.0) < 1e-15

    def test_mesh_blocks(self):
        # trigger rails couple straight across, everything else is identity
        ts = TriggerSet((2,), 3)
        mesh = build_smr_mesh(3, ts).entries
        expected = np.eye(6)
        expected[[2, 5], [2, 5]] = 0.0
        expected[2, 5] = expected[5, 2] = 1.0
        np.testing.assert_array_equal(mesh, expected)

    def test_pair_swap_mesh_asymmetric(self):
        # qudit rails 0..3, ancilla rails 4..5, pairing 1<->0 and 3<->1
        mesh = pair_swap_mesh(4, 2, [(1, 0), (3, 1)]).entries
        v = np.zeros(6)
        v[1] = 1.0
        np.testing.assert_array_equal(mesh @ v, np.eye(6)[4])
        w = np.zeros(6)
        w[5] = 1.0
        np.testing.assert_array_equal(mesh @ w, np.eye(6)[3])


class TestPostselection:
    def test_route_and_postselect_probability_half(self):
        rng = np.random.default_rng(3)
        ts = TriggerSet((1, 3), 4)
        for _ in range(50):
            qudit = PureState((4,), random_amplitudes(4, rng))
            ancilla = PureState((3,), random_amplitudes(3, rng))
            routed = route_with_ancilla(qudit, ancilla, ts)
            assert abs(routed.norm - 1.0) < 1e-12
            state, prob = postselect_coincidence(routed)
            assert state.dims == (4, 3)
            assert abs(state.norm - 1.0) < 1e-12
            assert 0.0 < prob <= 1.0

    def test_takes_one_state(self):
        batch = TwoPhotonState(np.stack([TwoPhotonState.pair_basis(4, 2, 0, 2).coeff] * 2), 2)
        with pytest.raises(ValueError):
            postselect_coincidence(batch)

    def test_zero_coincidence_rejected(self):
        # both photons on the first port group: no coincidence mass at all
        state = TwoPhotonState.pair_basis(4, 2, 0, 1)
        with pytest.raises(ValueError):
            postselect_coincidence(state)

    def test_product_state_round_trip(self):
        rng = np.random.default_rng(5)
        a = random_amplitudes(3, rng)
        b = random_amplitudes(4, rng)
        state = TwoPhotonState.product(a, b)
        assert abs(state.norm - 1.0) < 1e-12
        recovered, prob = postselect_coincidence(state)
        assert abs(prob - 1.0) < 1e-12
        expected = np.kron(a, b)
        overlap = abs(np.vdot(recovered.amps, expected))
        assert abs(overlap - 1.0) < 1e-12


def random_batch(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRouterPermutation:
    """route_with_ancilla permutes the photons' mode vectors by the swap
    image; the public mesh and congruence evolution are its reference."""

    @pytest.mark.parametrize("batch", [(), (7,)], ids=["single", "batch"])
    def test_equals_the_mesh_evolution_exactly(self, batch):
        rng = np.random.default_rng(149)
        for d, triggers in [(2, (1,)), (4, (1, 3)), (5, (0, 2, 4)), (8, (3, 7))]:
            ts = TriggerSet(triggers, d)
            k = len(triggers)
            qudit = PureState((d,), random_batch(batch + (d,), rng))
            ancilla = PureState((k + 1,), random_batch(batch + (k + 1,), rng))
            routed = route_with_ancilla(qudit, ancilla, ts)
            mesh = pair_swap_mesh(d, k + 1, [(c, i) for i, c in enumerate(triggers)])
            want = evolve_two_photon(mesh, TwoPhotonState.product(qudit.amps, ancilla.amps))
            assert routed.split == want.split == d
            assert np.array_equal(routed.coeff, want.coeff), (d, triggers)

    def test_routed_state_is_symmetric_and_frozen(self):
        # the router skips the runtime symmetry check, so its output must
        # pass that check by construction
        rng = np.random.default_rng(151)
        qudit = PureState((6,), random_batch((9, 6), rng))
        ancilla = PureState((4,), random_batch((9, 4), rng))
        routed = route_with_ancilla(qudit, ancilla, TriggerSet((0, 2, 5), 6))
        assert np.allclose(routed.coeff, routed.coeff.swapaxes(-2, -1), atol=_SYMMETRY_ATOL)
        assert not routed.coeff.flags.writeable
        register, _ = postselect_coincidence(TwoPhotonState(routed.coeff[0], routed.split))
        assert not register.amps.flags.writeable
