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
# a word whose coincidence mass is below this has no state to renormalize
_COINCIDENCE_CUTOFF = 1e-14


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
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got {entries.shape}")
        n = entries.shape[0]
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
        if coeff.ndim < 2 or coeff.shape[-2] != coeff.shape[-1]:
            raise ValueError(f"coefficient matrix must be square, got {coeff.shape}")
        n = coeff.shape[-1]
        if not np.allclose(coeff, coeff.swapaxes(-2, -1), atol=_SYMMETRY_ATOL):
            raise ValueError("coefficient matrix must be symmetric")
        if not 0 < self.split < n:
            raise ValueError(f"split {self.split} out of range for {n} modes")
        coeff = coeff.copy()
        coeff.setflags(write=False)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "split", int(self.split))

    @classmethod
    def _trusted(cls, coeff: np.ndarray, split: int) -> "TwoPhotonState":
        """A complex coefficient matrix the package built to be symmetric
        (the routed pair product), wrapped without the check or a copy."""
        coeff.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "coeff", coeff)
        object.__setattr__(state, "split", split)
        return state

    @classmethod
    def product(cls, first: np.ndarray, second: np.ndarray) -> "TwoPhotonState":
        """One photon carrying `first` on the first port group, one carrying
        `second` on the other; leading axes are batch axes."""
        v, w = _port_vectors(first, second)
        return cls(_pair_coeff(v, w), np.shape(first)[-1])

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

    @property
    def norm(self) -> float:
        return float(np.sqrt(2.0) * np.linalg.norm(self.coeff))


def _port_vectors(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two photons' mode vectors over both port groups, each padded
    with zeros on the other group."""
    first = np.asarray(first, dtype=complex)
    second = np.asarray(second, dtype=complex)
    n1, n2 = first.shape[-1], second.shape[-1]
    v = np.concatenate([first, np.zeros(first.shape[:-1] + (n2,))], axis=-1)
    w = np.concatenate([np.zeros(second.shape[:-1] + (n1,)), second], axis=-1)
    return v, w


def _pair_coeff(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The coefficient matrix (v wᵀ + w vᵀ)/2 of one photon in mode vector
    v and one in w. Entries (p, q) and (q, p) sum the same two complex
    products, so it is symmetric up to their rounding by construction."""
    coeff = v[..., :, None] * w[..., None, :]
    coeff += w[..., :, None] * v[..., None, :]
    coeff /= 2.0
    return coeff


def evolve_two_photon(u: ModeUnitary, state: TwoPhotonState) -> TwoPhotonState:
    if u.n_modes != state.coeff.shape[-1]:
        raise ValueError(f"{u.n_modes} modes vs {state.coeff.shape[-1]}")
    return TwoPhotonState(u.entries @ state.coeff @ u.entries.T, state.split)


def postselect_coincidence(state: TwoPhotonState) -> tuple[PureState, float]:
    """Keep one photon per port group of one state and renormalize.

    Returns the surviving amplitudes as a two-subsystem register
    (first-group mode, second-group mode) together with the kept
    probability mass.
    """
    if state.coeff.ndim != 2:
        raise ValueError(
            f"postselect_coincidence takes one state, got a batch {state.coeff.shape[:-2]}"
        )
    register, prob = _coincidence(state)
    return register, float(prob)


def _coincidence(state: TwoPhotonState) -> tuple[PureState, np.ndarray]:
    """postselect_coincidence over a batch: the coincidence register from
    its amplitude block (first-group mode, second-group mode), renormalized
    in place, and the kept mass, an array with one entry per word."""
    s = state.split
    block = 2.0 * state.coeff[..., :s, s:]
    mass = np.abs(block)
    mass *= mass
    prob = _above_cutoff(mass.sum(axis=(-2, -1)))
    del mass
    block /= np.sqrt(prob)[..., None, None]
    return PureState._fresh(block.shape[-2:], block), prob


def _above_cutoff(prob: np.ndarray) -> np.ndarray:
    """The coincidence mass kept, one entry per word, refused if any word's
    is below the cutoff; the lowest such word is reported."""
    low = prob < _COINCIDENCE_CUTOFF
    if low.any():
        first = np.flatnonzero(low)[0]
        raise ValueError(f"coincidence probability {prob.flat[first]:.3e} below cutoff")
    return prob


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
    image = _swap_image(n_first, n_second, pairs)
    n = len(image)
    mesh = np.zeros((n, n))
    mesh[image, range(n)] = 1.0
    return ModeUnitary(mesh)


def _swap_image(n_first: int, n_second: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Where each mode goes under pair_swap_mesh. Each pair is a swap, so
    the image is its own inverse."""
    image = list(range(n_first + n_second))
    seen: set[int] = set()
    for p, q in pairs:
        if not (0 <= p < n_first and 0 <= q < n_second):
            raise ValueError(f"pair {(p, q)} out of range")
        a, b = p, n_first + q
        if a in seen or b in seen:
            raise ValueError(f"mode reused in pair {(p, q)}")
        seen.update((a, b))
        image[a], image[b] = b, a
    return image


def build_smr_mesh(d: int, triggers) -> ModeUnitary:
    indices = _trigger_indices(triggers)
    return pair_swap_mesh(d, d, [(c, c) for c in indices])


def route_with_ancilla(qudit: PureState, ancilla: PureState, triggers) -> TwoPhotonState:
    """Send the qudit photon and its ancilla photon through the router,
    word by word for batched registers.

    Trigger rail i of the qudit couples to ancilla rail i; the last
    ancilla rail is the pass mode and never couples. The router is the
    permutation mesh of pair_swap_mesh, and a permutation U only relabels
    modes: U M Uᵀ is M with rows and columns permuted by the swap image,
    here applied to the two photons' mode vectors before their product.
    """
    indices = _trigger_indices(triggers)
    d = qudit.dim
    if ancilla.dim != len(indices) + 1:
        raise ValueError(f"ancilla dim {ancilla.dim} does not match {len(indices)} triggers")
    image = np.array(_swap_image(d, ancilla.dim, [(c, i) for i, c in enumerate(indices)]))
    v, w = _port_vectors(qudit.amps.reshape(qudit.batch + (d,)),
                         ancilla.amps.reshape(ancilla.batch + (-1,)))
    return TwoPhotonState._trusted(_pair_coeff(v[..., image], w[..., image]), d)
