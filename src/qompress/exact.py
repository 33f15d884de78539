"""The exact layer: trigger sets, the Bell analyzer's herald model, the
scheme names and their exact success probabilities.

Everything here is plain Python with exact rationals, so pricing a
circuit (`compress.cost_report`, `qompress compress`) never loads numpy;
the amplitude modules import these names from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

# an ideal analyzer heralds every Bell outcome
_ALL_HERALDS = frozenset(BELL_LABELS)

SCHEMES = ("state-dependent", "state-independent")


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


@dataclass(frozen=True)
class BsmModel:
    """Which Bell outcomes the analyzer can herald."""

    heralds: frozenset[str]

    def __post_init__(self):
        bad = set(self.heralds) - set(BELL_LABELS)
        if bad:
            raise ValueError(f"unknown herald labels {sorted(bad)}")
        object.__setattr__(self, "heralds", frozenset(self.heralds))

    @classmethod
    def ideal(cls) -> "BsmModel":
        return cls(_ALL_HERALDS)

    @classmethod
    def linear_optics(cls, heralds: frozenset[str] | None = None) -> "BsmModel":
        # a passive analyzer only resolves the antisymmetric pair
        return cls(frozenset({"psi+", "psi-"}) if heralds is None else heralds)


def success_probability(scheme: str, k1: int, k2: int, model: BsmModel | None = None) -> Fraction:
    """Exact heralded success probability for the given trigger counts."""
    model = model or BsmModel.linear_optics()
    h = len(model.heralds)
    if scheme == "state-dependent":
        # two router postselections at 1/2 each, then h of 4 fusion branches
        return Fraction(h, 16)
    if scheme == "state-independent":
        # one fused two-level gate per trigger level, then the final fusion
        return Fraction(h, 4) * Fraction(h, 16) ** (k1 + k2)
    raise ValueError(f"unknown scheme {scheme!r}")
