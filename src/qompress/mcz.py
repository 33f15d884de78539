"""Multi-level controlled sign gates, ancilla preparation and the Bell
analyzer used to fuse two routed registers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import BELL_LABELS, BsmModel, TriggerSet, _ALL_HERALDS, _as_trigger_set
from .qstate import PureState, Unitary

# the Bell vectors over the qubit pair, one (2, 2) array per label in
# BELL_LABELS order
_BELL_PAIRS = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]]
) / np.sqrt(2.0)


def bell_vector(label: str) -> np.ndarray:
    if label not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {label!r}")
    return _BELL_PAIRS[BELL_LABELS.index(label)].flatten()


def _signs(*triggers: TriggerSet) -> np.ndarray:
    """The sign gate over one register per trigger set, as a ±1 array of
    shape (d1, d2, ...): -1 exactly where every register sits on one of
    its trigger levels. Every sign gate of the package is this array;
    internal callers multiply by it and build no matrix."""
    signs = np.ones(tuple(t.dim for t in triggers))
    signs[np.ix_(*(t.indices for t in triggers))] = -1.0
    return signs


def _diagonal(signs: np.ndarray) -> Unitary:
    """The diagonal matrix of a ±1 sign array, read in C order."""
    return Unitary._trusted(np.diag(np.ravel(signs)).astype(complex))


def multi_level_cz(d1: int, d2: int, c1, c2) -> Unitary:
    """Sign flip exactly on the product of the two trigger sets."""
    return _diagonal(_signs(_as_trigger_set(c1, d1), _as_trigger_set(c2, d2)))


def two_level_cz(d: int) -> Unitary:
    return multi_level_cz(d, d, (d - 1,), (d - 1,))


def correction_unitary(triggers: TriggerSet) -> Unitary:
    return _diagonal(_signs(triggers))


def trigger_pattern(state: PureState, triggers: TriggerSet) -> tuple[np.ndarray, float]:
    """Amplitude pattern of the state on the trigger levels.

    Returns (pattern, weight) with the pattern normalized and the weight
    the probability mass it carried, one of each per word for a batched
    state. A word with no support on the triggers gets the uniform
    pattern.
    """
    if len(state.dims) != 1:
        raise ValueError("pattern is defined for a single register")
    beta = state.amps[..., list(triggers.indices)]
    weight = (np.abs(beta) ** 2).sum(axis=-1)
    empty = weight == 0.0
    pattern = beta / np.sqrt(np.where(empty, 1.0, weight))[..., None]
    pattern[empty] = 1.0 / np.sqrt(len(triggers))
    return pattern, (weight if state.batch else float(weight))


def prepare_ancillas(
    psi1: PureState, psi2: PureState, c1: TriggerSet, c2: TriggerSet
) -> tuple[PureState, PureState]:
    """Ancilla photons for the two routers: the input's trigger pattern on
    the coupling rails plus an even share on the pass rail."""
    return _ancilla(trigger_pattern(psi1, c1)[0]), _ancilla(trigger_pattern(psi2, c2)[0])


def _ancilla(pattern: np.ndarray) -> PureState:
    """One router's ancilla photon for a trigger pattern, per word."""
    pass_rail = np.ones(pattern.shape[:-1] + (1,))
    amps = np.concatenate([pattern, pass_rail], axis=-1) / np.sqrt(2.0)
    return PureState._fresh((pattern.shape[-1] + 1,), amps)


def ancilla_flag_unitary(pattern: np.ndarray) -> Unitary:
    """Mode unitary that maps the pass rail to level 0 and the pattern
    state to level 1, completing the rest with a Householder reflection.
    The closed form is unitary by construction, so only the pattern, which
    a caller hands in, is checked.

    Leading axes of `pattern` give one unitary per word."""
    pattern = np.asarray(pattern, dtype=complex)
    k = pattern.shape[-1]
    if np.any(np.abs(np.linalg.norm(pattern, axis=-1) - 1.0) > 1e-10):
        raise ValueError("pattern must be normalized")
    # R = I - 2vv†/(v†v) sends the pattern to a multiple of e0, so rows 1..
    # of R are orthonormal and orthogonal to it; the + sign keeps v†v >= 2
    v = pattern.copy()
    v[..., 0] += np.exp(1j * np.angle(pattern[..., 0]))
    vv = np.sum(np.abs(v) ** 2, axis=-1)[..., None, None]
    reflection = np.eye(k) - 2.0 * v[..., :, None] * v.conj()[..., None, :] / vv
    # row i of the matrix is the bra of the state sent to level i
    mat = np.zeros(pattern.shape[:-1] + (k + 1, k + 1), dtype=complex)
    mat[..., 0, k] = 1.0
    mat[..., 1, :k] = pattern.conj()
    mat[..., 2:, :k] = reflection[..., 1:, :]
    return Unitary._trusted(mat)


@dataclass(frozen=True)
class BsmOutcome:
    """One analyzer outcome. From a batched state its probability holds
    one entry per word and its state carries the word axis."""

    label: str
    probability: float
    state: PureState | None = field(repr=False, default=None)


def bell_measurement(state: PureState, model: BsmModel) -> list[BsmOutcome]:
    """Measure the last two (qubit) subsystems of one state in the Bell basis.

    Heralded outcomes come in canonical label order with their conditional
    register states; whatever the model cannot herald is merged into a
    single terminal "fail" row.
    """
    if state.batch:
        raise ValueError(f"bell_measurement takes one state, got a batch {state.batch}")
    if len(state.dims) < 2 or state.dims[-2:] != (2, 2):
        raise ValueError(f"need a qubit pair at the end, got dims {state.dims}")
    front_dims = state.dims[:-2]
    bras = _BELL_PAIRS[_heralded(model)].conj().reshape(-1, 4)
    fronts = (bras @ state.amps.reshape(-1, 4).T).reshape((len(bras),) + front_dims)
    outcomes, _ = _outcomes(fronts, len(front_dims), model, state.norm**2)
    return outcomes


def _heralded(model: BsmModel) -> list[int]:
    """The positions in BELL_LABELS of the labels the model heralds."""
    return [i for i, label in enumerate(BELL_LABELS) if label in model.heralds]


def _outcomes(
    fronts: np.ndarray, ndims: int, model: BsmModel, total
) -> tuple[list[BsmOutcome], np.ndarray]:
    """The analyzer's outcomes from `fronts`, each heralded label's
    unnormalized conditional state stacked in canonical order on the axis
    before the last `ndims` ones. The fail row is `total`, the measured
    register's squared norm, less the heralded mass.

    One pass over the stack gives every probability, an array with one
    entry per word from a batch, and normalizes `fronts` in place and
    freezes it; each outcome's state is a view of it. A word whose outcome
    is below 1e-14 gets a zero conditional state, and an outcome below it
    in every word (or in the unbatched one) gets None. Also returns the
    heralded mass, per word."""
    mass = np.abs(fronts)
    mass *= mass
    probs = mass.sum(axis=tuple(range(-ndims, 0)))
    del mass
    kept = probs > 1e-14
    per_word = (...,) + (None,) * ndims
    fronts /= np.sqrt(np.where(kept, probs, 1.0))[per_word]
    fronts[~kept] = 0.0
    fronts.setflags(write=False)
    batched, dims = probs.ndim > 1, fronts.shape[fronts.ndim - ndims :]
    live = kept.any(axis=tuple(range(kept.ndim - 1))).tolist()
    outcomes = []
    for i, label in enumerate(BELL_LABELS[j] for j in _heralded(model)):
        prob = probs[..., i]
        state = None
        if live[i]:
            state = PureState._fresh(dims, fronts[(..., i) + (slice(None),) * ndims])
        outcomes.append(BsmOutcome(label, prob if batched else float(prob), state))
    heralded = probs.sum(axis=-1)
    if model.heralds != _ALL_HERALDS:
        fail = np.maximum(0.0, total - heralded)
        outcomes.append(BsmOutcome("fail", fail if batched else float(fail), None))
    return outcomes, heralded
