"""Dense pure states on mixed-radix registers plus small unitary helpers.

Composite indices are big-endian throughout: subsystem 0 is the most
significant digit, matching numpy's C-order reshape.

A state or a unitary may carry leading batch axes in front of its
register axes: a batch of independent words pushed through the same
stages together. An unbatched one has batch (), and every stage below
treats it exactly as a batch of one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

UNITARITY_ATOL = 1e-10
NORM_ATOL = 1e-8
# the largest amplitude norm truncate_subsystem may drop from a word
_TRUNCATION_ATOL = 1e-12


def _fit(dims, amps) -> tuple[tuple[int, ...], np.ndarray]:
    """Checked dims, and amps as a complex array of shape batch + dims."""
    checked = tuple(map(int, dims))
    if not checked or min(checked) < 1:
        raise ValueError(f"bad dims {dims!r}")
    dims, amps = checked, np.asarray(amps, dtype=complex)
    lead = amps.ndim - len(dims)
    if lead > 0 and amps.shape[lead:] == dims:
        return dims, amps
    if amps.size == math.prod(dims):
        return dims, amps.reshape(dims)
    raise ValueError(f"amplitude count {amps.size} does not fit dims {dims}")


@dataclass(frozen=True)
class PureState:
    """Amplitude tensor over a tuple of subsystem dimensions.

    The norm is deliberately unconstrained: post-selection intermediates
    are legal values. Axes of `amps` in front of a trailing `dims`-shaped
    block are batch axes; any other shape of the right size is reshaped
    to `dims`.
    """

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, amps = _fit(self.dims, self.amps)
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _fresh(cls, dims: tuple[int, ...], amps: np.ndarray) -> "PureState":
        """A state over a complex array of shape batch + dims that a stage
        has just computed, wrapped without the constructor's checks or copy.
        The array is frozen as it is, so the caller hands it over and keeps
        no writable reference to it."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "amps", amps)
        return state

    @classmethod
    def basis(cls, dims: tuple[int, ...], index: tuple[int, ...]) -> "PureState":
        if len(index) != len(dims):
            raise ValueError("index arity must match dims")
        amps = np.zeros(dims, dtype=complex)
        amps[tuple(index)] = 1.0
        return cls(dims, amps)

    @property
    def batch(self) -> tuple[int, ...]:
        return self.amps.shape[: self.amps.ndim - len(self.dims)]

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def norm(self) -> float | np.ndarray:
        """The norm, one per word for a batched state."""
        batch = self.batch
        # np.linalg.norm's sums without its dispatch, per word without its |z|² copy
        flat = self.amps.reshape(batch + (-1,)) if batch else self.amps.ravel(order="K")
        re, im = flat.real, flat.imag
        if not batch:
            return math.sqrt(re.dot(re) + im.dot(im))
        return np.sqrt(np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im))


@dataclass(frozen=True)
class Unitary:
    """A unitary matrix, optionally bound to subsystem positions via on().

    Leading axes of `entries` hold one matrix per word of a batch."""

    entries: np.ndarray = field(repr=False)
    targets: tuple[int, ...] | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim < 2 or entries.shape[-2] != entries.shape[-1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        n = entries.shape[-1]
        if not np.allclose(
            entries.conj().swapaxes(-2, -1) @ entries, np.eye(n), atol=UNITARITY_ATOL
        ):
            raise ValueError("matrix is not unitary within tolerance")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "Unitary":
        """A complex matrix the package built to be unitary (a ±1 diagonal,
        the closed-form flag unitary), wrapped without the check or a copy."""
        entries.setflags(write=False)
        u = object.__new__(cls)
        object.__setattr__(u, "entries", entries)
        object.__setattr__(u, "targets", None)
        return u

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def on(self, *targets: int) -> "Unitary":
        """The same matrix bound to subsystem positions. The copy shares the
        validated, read-only entries, so the unitarity check does not rerun."""
        bound = copy.copy(self)
        object.__setattr__(bound, "targets", tuple(int(t) for t in targets))
        return bound


def tensor(a: PureState, b: PureState) -> PureState:
    if not (a.batch or b.batch):
        return PureState._fresh(a.dims + b.dims, np.tensordot(a.amps, b.amps, axes=0))
    # np.tensordot cannot carry a batch axis, so a batch takes one outer
    # product per word by broadcasting; single states keep tensordot's digits
    left = a.amps.reshape(a.amps.shape + (1,) * len(b.dims))
    right = b.amps.reshape(b.batch + (1,) * len(a.dims) + b.dims)
    return PureState._fresh(a.dims + b.dims, left * right)


def apply(u: Unitary, state: PureState) -> PureState:
    """Apply u to the subsystems named by u.targets (whole register if unset).

    Batch axes pass through; a batched u applies its own matrix to each word."""
    targets = tuple(range(len(state.dims))) if u.targets is None else u.targets
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated targets {targets}")
    if any(t < 0 or t >= len(state.dims) for t in targets):
        raise ValueError(f"targets {targets} out of range for dims {state.dims}")
    dt = math.prod(state.dims[t] for t in targets)
    if u.dim != dt:
        raise ValueError(f"unitary dim {u.dim} does not match target dims product {dt}")
    batch = state.batch
    axes = [len(batch) + t for t in targets]
    front = range(len(batch), len(batch) + len(targets))
    moved = np.moveaxis(state.amps, axes, front)
    out = (u.entries @ moved.reshape(batch + (dt, -1))).reshape(moved.shape)
    return PureState._fresh(state.dims, np.moveaxis(out, front, axes))


def permute_subsystems(state: PureState, order: tuple[int, ...]) -> PureState:
    """Reorder subsystems so that new position i holds old subsystem order[i]."""
    if sorted(order) != list(range(len(state.dims))):
        raise ValueError(f"{order} is not a permutation of the subsystems")
    dims = tuple(state.dims[i] for i in order)
    nb = len(state.batch)
    return PureState._fresh(
        dims, state.amps.transpose(tuple(range(nb)) + tuple(nb + i for i in order))
    )


def truncate_subsystem(state: PureState, sub: int, new_dim: int) -> PureState:
    """Drop the high levels of one subsystem; the discarded mass must be tiny
    in every word, and the lowest word that breaks this is reported."""
    if not 0 < new_dim <= state.dims[sub]:
        raise ValueError(f"cannot truncate dim {state.dims[sub]} to {new_dim}")
    batch = state.batch
    sl = [slice(None)] * (len(batch) + len(state.dims))
    sl[len(batch) + sub] = slice(new_dim, None)
    _check_discard(state.amps[tuple(sl)], len(batch))
    sl[len(batch) + sub] = slice(0, new_dim)
    dims = list(state.dims)
    dims[sub] = new_dim
    return PureState._fresh(tuple(dims), state.amps[tuple(sl)])


def _check_discard(dropped: np.ndarray, nbatch: int):
    """Refuse to drop `dropped`, the amplitudes behind its first `nbatch`
    (word) axes, unless their norm is within _TRUNCATION_ATOL in every
    word; the lowest word that breaks this is reported."""
    mass = np.abs(dropped)
    mass *= mass
    discarded = np.sqrt(mass.sum(axis=tuple(range(nbatch, mass.ndim))))
    over = discarded > _TRUNCATION_ATOL
    if _any(over):
        first = np.flatnonzero(over)[0]
        raise ValueError(f"truncation would discard amplitude mass {discarded.flat[first]:.3e}")


def _any(flags) -> bool:
    """Whether any word's flag is set, without wrapping an unbatched input's one flag."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    if a.dims != b.dims:
        raise ValueError(f"dims differ: {a.dims} vs {b.dims}")
    for s in (a, b):
        if s.batch:
            raise ValueError(f"fidelity_up_to_phase takes one state, got a batch {s.batch}")
        if abs(s.norm - 1.0) > NORM_ATOL:
            raise ValueError("fidelity is only defined for normalized states")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def random_state(dims: tuple[int, ...], rng: np.random.Generator) -> PureState:
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, v / np.linalg.norm(v))


_HADAMARD = Unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
_H = _HADAMARD.entries[0, 0].real


def hadamard() -> Unitary:
    """The qubit Hadamard, validated once: the same frozen Unitary, with
    read-only entries, on every call."""
    return _HADAMARD
