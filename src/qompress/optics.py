"""Two indistinguishable photons on a set of modes.

A state is stored as a symmetric coefficient matrix M with
state = sum_pq M[p,q] adag_p adag_q |vac>, so a mode unitary acts by
congruence, M -> U M U^T. The physical amplitude of finding the pair in
distinct modes (p, q) is 2 M[p,q]; a doubly occupied mode carries
sqrt(2) M[p,p]. Leading axes of M hold a batch of independent words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .qstate import UNITARITY_ATOL, PureState

# modes below split sit on the first port group, the rest on the second
_SYMMETRY_ATOL = 1e-10


def _trigger_indices(triggers) -> tuple[int, ...]:
    indices = getattr(triggers, "indices", None)
    if indices is None:
        indices = tuple(sorted(int(i) for i in triggers))
    return tuple(indices)


@dataclass(frozen=True)
class PhotonConfig:
    """Where the two photons ended up, as a sorted mode pair."""

    modes: tuple[int, int]
    split: int

    def __post_init__(self):
        p, q = self.modes
        if p > q:
            raise ValueError(f"modes must be sorted, got {self.modes}")
        if p < 0:
            raise ValueError(f"negative mode in {self.modes}")
        object.__setattr__(self, "modes", (int(p), int(q)))
        object.__setattr__(self, "split", int(self.split))

    @property
    def occupancy(self) -> dict[int, int]:
        p, q = self.modes
        return {p: 2} if p == q else {p: 1, q: 1}

    @property
    def port_counts(self) -> tuple[int, int]:
        first = sum(1 for m in self.modes if m < self.split)
        return first, 2 - first

    @property
    def is_coincidence(self) -> bool:
        return self.port_counts == (1, 1)


@dataclass(frozen=True)
class ModeUnitary:
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        n = entries.shape[0]
        if entries.ndim != 2 or entries.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {entries.shape}")
        if not np.allclose(entries.conj().T @ entries, np.eye(n), atol=UNITARITY_ATOL):
            raise ValueError("mode matrix is not unitary within tolerance")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TwoPhotonState:
    coeff: np.ndarray = field(repr=False)
    split: int

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=complex)
        n = coeff.shape[-1]
        if coeff.ndim < 2 or coeff.shape[-2] != n:
            raise ValueError(f"coefficient matrix must be square, got {coeff.shape}")
        if not np.allclose(coeff, coeff.swapaxes(-2, -1), atol=_SYMMETRY_ATOL):
            raise ValueError("coefficient matrix must be symmetric")
        if not 0 < self.split < n:
            raise ValueError(f"split {self.split} out of range for {n} modes")
        coeff = coeff.copy()
        coeff.setflags(write=False)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "split", int(self.split))

    @classmethod
    def product(cls, first: np.ndarray, second: np.ndarray) -> "TwoPhotonState":
        """One photon carrying `first` on the first port group, one carrying
        `second` on the other; leading axes are batch axes."""
        first = np.asarray(first, dtype=complex)
        second = np.asarray(second, dtype=complex)
        n1, n2 = first.shape[-1], second.shape[-1]
        v = np.concatenate([first, np.zeros(first.shape[:-1] + (n2,))], axis=-1)
        w = np.concatenate([np.zeros(second.shape[:-1] + (n1,)), second], axis=-1)
        outer_vw = v[..., :, None] * w[..., None, :]
        outer_wv = w[..., :, None] * v[..., None, :]
        return cls((outer_vw + outer_wv) / 2.0, n1)

    @classmethod
    def pair_basis(cls, n: int, split: int, p: int, q: int) -> "TwoPhotonState":
        coeff = np.zeros((n, n), dtype=complex)
        if p == q:
            coeff[p, p] = 1.0 / np.sqrt(2.0)
        else:
            coeff[p, q] = coeff[q, p] = 0.5
        return cls(coeff, split)

    def amplitude(self, p: int, q: int) -> complex:
        if p == q:
            return complex(np.sqrt(2.0) * self.coeff[p, p])
        return complex(2.0 * self.coeff[p, q])

    def amplitudes(self, atol: float = 1e-12) -> dict[PhotonConfig, complex]:
        n = self.coeff.shape[0]
        out = {}
        for p in range(n):
            for q in range(p, n):
                a = self.amplitude(p, q)
                if abs(a) > atol:
                    out[PhotonConfig((p, q), self.split)] = a
        return out

    @property
    def norm(self) -> float:
        return float(np.sqrt(2.0) * np.linalg.norm(self.coeff))


def evolve_two_photon(u: ModeUnitary, state: TwoPhotonState) -> TwoPhotonState:
    if u.n_modes != state.coeff.shape[-1]:
        raise ValueError(f"{u.n_modes} modes vs {state.coeff.shape[-1]}")
    return TwoPhotonState(u.entries @ state.coeff @ u.entries.T, state.split)


def postselect_coincidence(
    state: TwoPhotonState, min_probability: float = 1e-14
) -> tuple[PureState, float]:
    """Keep one photon per port group of one state and renormalize.

    Returns the surviving amplitudes as a two-subsystem register
    (first-group mode, second-group mode) together with the kept
    probability mass.
    """
    if state.coeff.ndim != 2:
        raise ValueError(
            f"postselect_coincidence takes one state, got a batch {state.coeff.shape[:-2]}"
        )
    register, prob = _coincidence(state, min_probability)
    return register, float(prob)


def _coincidence(state: TwoPhotonState, min_probability: float = 1e-14):
    """postselect_coincidence over a batch: the kept mass is an array with
    one entry per word, and the lowest word below the cutoff is reported."""
    n = state.coeff.shape[-1]
    s = state.split
    block = 2.0 * state.coeff[..., :s, s:]
    prob = np.sum(np.abs(block) ** 2, axis=(-2, -1))
    low = np.flatnonzero(prob < min_probability)
    if low.size:
        raise ValueError(f"coincidence probability {prob.flat[low[0]]:.3e} below cutoff")
    return PureState((s, n - s), block / np.sqrt(prob)[..., None, None]), prob


def smr_abstract(x: int, y: int, triggers, d: int) -> PhotonConfig:
    """Routing table for one qudit photon (mode x) and one ancilla photon
    (mode y) of a d-rail router, by trigger membership:

      x free,    y free    -> pass through on separate ports
      x free,    y trigger -> both photons leave on the first port
      x trigger, y free    -> both photons leave on the second port
      x trigger, y trigger -> the photons exchange ports
    """
    indices = _trigger_indices(triggers)
    x_hit, y_hit = x in indices, y in indices
    if not x_hit and not y_hit:
        modes = (x, d + y)
    elif not x_hit:
        modes = tuple(sorted((x, y)))
    elif not y_hit:
        modes = (d + x, d + y) if x < y else (d + y, d + x)
    else:
        modes = (y, d + x)
    return PhotonConfig(modes, d)


def pair_swap_mesh(n_first: int, n_second: int, pairs: Iterable[tuple[int, int]]) -> ModeUnitary:
    """Permutation coupling first-group mode p with second-group mode q for
    every (p, q) pair; all other modes pass straight through."""
    n = n_first + n_second
    image = list(range(n))
    seen: set[int] = set()
    for p, q in pairs:
        if not (0 <= p < n_first and 0 <= q < n_second):
            raise ValueError(f"pair {(p, q)} out of range")
        a, b = p, n_first + q
        if a in seen or b in seen:
            raise ValueError(f"mode reused in pair {(p, q)}")
        seen.update((a, b))
        image[a], image[b] = b, a
    mesh = np.zeros((n, n))
    mesh[image, range(n)] = 1.0
    return ModeUnitary(mesh)


def build_smr_mesh(d: int, triggers) -> ModeUnitary:
    indices = _trigger_indices(triggers)
    return pair_swap_mesh(d, d, [(c, c) for c in indices])


def route_with_ancilla(qudit: PureState, ancilla: PureState, triggers) -> TwoPhotonState:
    """Send the qudit photon and its ancilla photon through the router,
    word by word for batched registers.

    Trigger rail i of the qudit couples to ancilla rail i; the last
    ancilla rail is the pass mode and never couples.
    """
    indices = _trigger_indices(triggers)
    d = qudit.dim
    if ancilla.dim != len(indices) + 1:
        raise ValueError(
            f"ancilla dim {ancilla.dim} does not match {len(indices)} triggers"
        )
    state = TwoPhotonState.product(
        qudit.amps.reshape(qudit.batch + (d,)), ancilla.amps.reshape(ancilla.batch + (-1,))
    )
    mesh = pair_swap_mesh(d, ancilla.dim, [(c, i) for i, c in enumerate(indices)])
    return evolve_two_photon(mesh, state)
