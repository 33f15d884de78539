"""Dense pure states on mixed-radix registers plus small unitary helpers.

Composite indices are big-endian throughout: subsystem 0 is the most
significant digit, matching numpy's C-order reshape.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

UNITARITY_ATOL = 1e-10
NORM_ATOL = 1e-8


@dataclass(frozen=True)
class PureState:
    """Amplitude tensor over a tuple of subsystem dimensions.

    The norm is deliberately unconstrained: post-selection intermediates
    are legal values.
    """

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"bad dims {self.dims!r}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.size != math.prod(dims):
            raise ValueError(f"amplitude count {amps.size} does not fit dims {dims}")
        amps = amps.reshape(dims).copy()
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def basis(cls, dims: tuple[int, ...], index: tuple[int, ...]) -> "PureState":
        if len(index) != len(dims):
            raise ValueError("index arity must match dims")
        amps = np.zeros(dims, dtype=complex)
        amps[tuple(index)] = 1.0
        return cls(dims, amps)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "PureState":
        n = self.norm
        if n < 1e-14:
            raise ValueError("cannot normalize a null state")
        return PureState(self.dims, self.amps / n)


@dataclass(frozen=True)
class Unitary:
    """A unitary matrix, optionally bound to subsystem positions via on()."""

    entries: np.ndarray = field(repr=False)
    targets: tuple[int, ...] | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        n = entries.shape[0]
        if not np.allclose(entries.conj().T @ entries, np.eye(n), atol=UNITARITY_ATOL):
            raise ValueError("matrix is not unitary within tolerance")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def on(self, *targets: int) -> "Unitary":
        """The same matrix bound to subsystem positions. The copy shares the
        validated, read-only entries, so the unitarity check does not rerun."""
        bound = copy.copy(self)
        object.__setattr__(bound, "targets", tuple(int(t) for t in targets))
        return bound


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(a.dims + b.dims, np.tensordot(a.amps, b.amps, axes=0))


def apply(u: Unitary, state: PureState) -> PureState:
    """Apply u to the subsystems named by u.targets (whole register if unset)."""
    if u.targets is None:
        if u.dim != state.dim:
            raise ValueError(f"unitary dim {u.dim} vs register dim {state.dim}")
        return PureState(state.dims, u.entries @ state.amps.reshape(-1))
    targets = u.targets
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated targets {targets}")
    if any(t < 0 or t >= len(state.dims) for t in targets):
        raise ValueError(f"targets {targets} out of range for dims {state.dims}")
    dt = math.prod(state.dims[t] for t in targets)
    if u.dim != dt:
        raise ValueError(f"unitary dim {u.dim} does not match target dims product {dt}")
    moved = np.moveaxis(state.amps, targets, range(len(targets)))
    rest = moved.shape[len(targets):]
    out = (u.entries @ moved.reshape(dt, -1)).reshape(
        tuple(state.dims[t] for t in targets) + rest
    )
    return PureState(state.dims, np.moveaxis(out, range(len(targets)), targets))


def permute_subsystems(state: PureState, order: tuple[int, ...]) -> PureState:
    """Reorder subsystems so that new position i holds old subsystem order[i]."""
    if sorted(order) != list(range(len(state.dims))):
        raise ValueError(f"{order} is not a permutation of the subsystems")
    dims = tuple(state.dims[i] for i in order)
    return PureState(dims, state.amps.transpose(order))


def truncate_subsystem(state: PureState, sub: int, new_dim: int, atol: float = 1e-12) -> PureState:
    """Drop the high levels of one subsystem; the discarded mass must be tiny."""
    if not 0 < new_dim <= state.dims[sub]:
        raise ValueError(f"cannot truncate dim {state.dims[sub]} to {new_dim}")
    sl = [slice(None)] * len(state.dims)
    sl[sub] = slice(new_dim, None)
    discarded = float(np.linalg.norm(state.amps[tuple(sl)]))
    if discarded > atol:
        raise ValueError(f"truncation would discard amplitude mass {discarded:.3e}")
    sl[sub] = slice(0, new_dim)
    dims = list(state.dims)
    dims[sub] = new_dim
    return PureState(tuple(dims), state.amps[tuple(sl)])


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    if a.dims != b.dims:
        raise ValueError(f"dims differ: {a.dims} vs {b.dims}")
    for s in (a, b):
        if abs(s.norm - 1.0) > NORM_ATOL:
            raise ValueError("fidelity is only defined for normalized states")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def random_state(dims: tuple[int, ...], rng: np.random.Generator) -> PureState:
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, v / np.linalg.norm(v))


def hadamard() -> Unitary:
    return Unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
