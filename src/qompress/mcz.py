"""Multi-level controlled sign gates, ancilla preparation and the Bell
analyzer used to fuse two routed registers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .qstate import PureState, Unitary

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

_BELL = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}


def bell_vector(label: str) -> np.ndarray:
    try:
        return _BELL[label].copy()
    except KeyError:
        raise ValueError(f"unknown Bell label {label!r}") from None


@dataclass(frozen=True)
class TriggerSet:
    """The control levels of one register; at least one level stays free."""

    indices: tuple[int, ...]
    dim: int

    def __post_init__(self):
        indices = tuple(sorted(int(i) for i in self.indices))
        dim = int(self.dim)
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated trigger level in {self.indices}")
        if not indices:
            raise ValueError("trigger set cannot be empty")
        if len(indices) >= dim:
            raise ValueError(f"{len(indices)} triggers leave no free level in dim {dim}")
        if indices[0] < 0 or indices[-1] >= dim:
            raise ValueError(f"trigger {indices} out of range for dim {dim}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "dim", dim)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, level: object) -> bool:
        return level in self.indices


def _as_trigger_set(triggers, dim: int) -> TriggerSet:
    if isinstance(triggers, TriggerSet):
        if triggers.dim != dim:
            raise ValueError(f"trigger set dim {triggers.dim} does not match {dim}")
        return triggers
    return TriggerSet(tuple(triggers), dim)


def _signs(*triggers: TriggerSet) -> np.ndarray:
    """The sign gate over one register per trigger set, as a ±1 array of
    shape (d1, d2, ...): -1 exactly where every register sits on one of
    its trigger levels. Every sign gate of the package is this array;
    internal callers multiply by it and build no matrix."""
    signs = np.ones(tuple(t.dim for t in triggers))
    signs[np.ix_(*(t.indices for t in triggers))] = -1.0
    return signs


def multi_level_cz(d1: int, d2: int, c1, c2) -> Unitary:
    """Sign flip exactly on the product of the two trigger sets."""
    return Unitary._diagonal(_signs(_as_trigger_set(c1, d1), _as_trigger_set(c2, d2)))


def two_level_cz(d: int) -> Unitary:
    return multi_level_cz(d, d, (d - 1,), (d - 1,))


def correction_unitary(triggers: TriggerSet) -> Unitary:
    return Unitary._diagonal(_signs(triggers))


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
    weight = np.sum(np.abs(beta) ** 2, axis=-1)
    empty = weight == 0.0
    pattern = beta / np.sqrt(np.where(empty, 1.0, weight))[..., None]
    pattern[empty] = 1.0 / np.sqrt(len(triggers))
    return pattern, (weight if state.batch else float(weight))


def prepare_ancillas(
    psi1: PureState, psi2: PureState, c1: TriggerSet, c2: TriggerSet
) -> tuple[PureState, PureState]:
    """Ancilla photons for the two routers: the input's trigger pattern on
    the coupling rails plus an even share on the pass rail."""
    out = []
    for state, triggers in ((psi1, c1), (psi2, c2)):
        pattern, _ = trigger_pattern(state, triggers)
        pass_rail = np.ones(pattern.shape[:-1] + (1,))
        amps = np.concatenate([pattern, pass_rail], axis=-1) / np.sqrt(2.0)
        out.append(PureState((len(triggers) + 1,), amps))
    return out[0], out[1]


def ancilla_flag_unitary(pattern: np.ndarray) -> Unitary:
    """Mode unitary that maps the pass rail to level 0 and the pattern
    state to level 1, completing the rest with a Householder reflection.

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
    return Unitary(mat)


@dataclass(frozen=True)
class BsmModel:
    """Which Bell outcomes the analyzer can herald."""

    kind: str
    heralds: frozenset[str]

    def __post_init__(self):
        if self.kind not in ("ideal", "linear-optics"):
            raise ValueError(f"unknown analyzer kind {self.kind!r}")
        bad = set(self.heralds) - set(BELL_LABELS)
        if bad:
            raise ValueError(f"unknown herald labels {sorted(bad)}")
        object.__setattr__(self, "heralds", frozenset(self.heralds))

    @classmethod
    def ideal(cls, heralds: frozenset[str] | None = None) -> "BsmModel":
        return cls("ideal", frozenset(BELL_LABELS) if heralds is None else heralds)

    @classmethod
    def linear_optics(cls, heralds: frozenset[str] | None = None) -> "BsmModel":
        # a passive analyzer only resolves the antisymmetric pair
        return cls("linear-optics", frozenset({"psi+", "psi-"}) if heralds is None else heralds)


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
    return _bell_outcomes(state, model)


def _bell_outcomes(state: PureState, model: BsmModel) -> list[BsmOutcome]:
    """bell_measurement over a batch: every probability is then an array
    with one entry per word, and a word whose outcome is below 1e-14 gets
    a zero conditional state (an unbatched state gets None)."""
    if len(state.dims) < 2 or state.dims[-2:] != (2, 2):
        raise ValueError(f"need a qubit pair at the end, got dims {state.dims}")
    front_dims = state.dims[:-2]
    front_axes = tuple(range(-len(front_dims), 0))
    per_word = (...,) + (None,) * len(front_dims)
    outcomes = []
    heralded_mass = 0.0
    for label in BELL_LABELS:
        if label not in model.heralds:
            continue
        vec = _BELL[label].reshape(2, 2)
        front = np.tensordot(state.amps, vec.conj(), axes=([-2, -1], [0, 1]))
        prob = np.sum(np.abs(front) ** 2, axis=front_axes)
        heralded_mass = heralded_mass + prob
        kept = prob > 1e-14
        conditional = None
        if np.any(kept):
            amps = front / np.sqrt(np.where(kept, prob, 1.0))[per_word]
            amps[~kept] = 0.0
            conditional = PureState(front_dims, amps)
        outcomes.append(BsmOutcome(label, prob if state.batch else float(prob), conditional))
    if model.heralds != frozenset(BELL_LABELS):
        fail = np.maximum(0.0, state.norm**2 - heralded_mass)
        outcomes.append(BsmOutcome("fail", fail if state.batch else float(fail), None))
    return outcomes
