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


def multi_level_cz(d1: int, d2: int, c1, c2) -> Unitary:
    """Sign flip exactly on the product of the two trigger sets."""
    t1 = _as_trigger_set(c1, d1)
    t2 = _as_trigger_set(c2, d2)
    diag = np.ones(d1 * d2)
    for m in t1:
        for n in t2:
            diag[m * d2 + n] = -1.0
    return Unitary(np.diag(diag))


def two_level_cz(d: int) -> Unitary:
    return multi_level_cz(d, d, (d - 1,), (d - 1,))


def correction_unitary(triggers: TriggerSet) -> Unitary:
    diag = np.ones(triggers.dim)
    diag[list(triggers.indices)] = -1.0
    return Unitary(np.diag(diag))


def trigger_pattern(state: PureState, triggers: TriggerSet) -> tuple[np.ndarray, float]:
    """Amplitude pattern of the state on the trigger levels.

    Returns (pattern, weight) with the pattern normalized and the weight
    the probability mass it carried. A state with no support on the
    triggers gets the uniform pattern.
    """
    if len(state.dims) != 1:
        raise ValueError("pattern is defined for a single register")
    beta = state.amps.reshape(-1)[list(triggers.indices)]
    weight = float(np.sum(np.abs(beta) ** 2))
    if weight == 0.0:
        k = len(triggers)
        return np.ones(k, dtype=complex) / np.sqrt(k), 0.0
    return beta / np.sqrt(weight), weight


def prepare_ancillas(
    psi1: PureState, psi2: PureState, c1: TriggerSet, c2: TriggerSet
) -> tuple[PureState, PureState]:
    """Ancilla photons for the two routers: the input's trigger pattern on
    the coupling rails plus an even share on the pass rail."""
    out = []
    for state, triggers in ((psi1, c1), (psi2, c2)):
        pattern, _ = trigger_pattern(state, triggers)
        amps = np.concatenate([pattern, [1.0]]) / np.sqrt(2.0)
        out.append(PureState((len(triggers) + 1,), amps))
    return out[0], out[1]


def ancilla_flag_unitary(pattern: np.ndarray) -> Unitary:
    """Mode unitary that maps the pass rail to level 0 and the pattern
    state to level 1, completing the rest with a Householder reflection."""
    pattern = np.asarray(pattern, dtype=complex).reshape(-1)
    k = pattern.size
    if abs(np.linalg.norm(pattern) - 1.0) > 1e-10:
        raise ValueError("pattern must be normalized")
    # R = I - 2vv†/(v†v) sends the pattern to a multiple of e0, so rows 1..
    # of R are orthonormal and orthogonal to it; the + sign keeps v†v >= 2
    v = pattern.copy()
    v[0] += np.exp(1j * np.angle(pattern[0]))
    reflection = np.eye(k) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    # row i of the matrix is the bra of the state sent to level i
    mat = np.zeros((k + 1, k + 1), dtype=complex)
    mat[0, k] = 1.0
    mat[1, :k] = pattern.conj()
    mat[2:, :k] = reflection[1:]
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
    label: str
    probability: float
    state: PureState | None = field(repr=False, default=None)


def bell_measurement(state: PureState, model: BsmModel) -> list[BsmOutcome]:
    """Measure the last two (qubit) subsystems in the Bell basis.

    Heralded outcomes come in canonical label order with their conditional
    register states; whatever the model cannot herald is merged into a
    single terminal "fail" row.
    """
    if len(state.dims) < 2 or state.dims[-2:] != (2, 2):
        raise ValueError(f"need a qubit pair at the end, got dims {state.dims}")
    front_dims = state.dims[:-2]
    outcomes = []
    heralded_mass = 0.0
    for label in BELL_LABELS:
        if label not in model.heralds:
            continue
        vec = _BELL[label].reshape(2, 2)
        front = np.tensordot(state.amps, vec.conj(), axes=([-2, -1], [0, 1]))
        prob = float(np.sum(np.abs(front) ** 2))
        heralded_mass += prob
        conditional = None
        if prob > 1e-14:
            conditional = PureState(front_dims, front / np.sqrt(prob))
        outcomes.append(BsmOutcome(label, prob, conditional))
    if model.heralds != frozenset(BELL_LABELS):
        outcomes.append(BsmOutcome("fail", max(0.0, state.norm**2 - heralded_mass), None))
    return outcomes
