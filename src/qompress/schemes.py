"""Heralded realizations of the multi-level sign gate.

Both schemes end the same way: each register carries an entangled flag
qubit that marks its trigger subspace, the two flags are fused by a Bell
measurement, and the heralded outcome fixes a local sign correction.
They differ in how the flag is attached. The state-dependent router
entangles it in one shot using an ancilla photon matched to the input;
the state-independent ladder builds it from one two-level gate per
trigger level and works for any (entangled) input.

Each scheme has one core that runs a batch of inputs, a leading word axis
on its states, a slice of words at a time; the public functions run it
on a single input, a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator

import numpy as np

from .exact import SCHEMES as SCHEMES  # re-exported: qompress.schemes.SCHEMES
from .exact import BELL_LABELS, BsmModel, TriggerSet, _as_trigger_set, success_probability
from .mcz import (
    BsmOutcome,
    _BELL_PAIRS,
    _heralded,
    _outcomes,
    multi_level_cz,
    trigger_pattern,
)
from .optics import _above_cutoff
from .qstate import (
    _H,
    NORM_ATOL,
    PureState,
    Unitary,
    _any,
    _check_discard,
    hadamard,
)

PROBABILITY_ATOL = 1e-10

# a batch's slice budget in amplitudes is never below this (1 MiB), so a
# small register runs in one slice instead of paying every stage's call
# cost once per handful of words
_SLICE_FLOOR = 1 << 16

# per Bell label, the sign correction over the two flags' (f1, f2) values:
# phi+ fixes nothing, phi- flips register 1 on its trigger levels (f1 = 1),
# psi+ register 2 (f2 = 1) and psi- both
_CORRECTIONS = np.array(
    [[[1, 1], [1, 1]], [[1, 1], [-1, -1]], [[1, -1], [1, -1]], [[1, -1], [-1, 1]]], dtype=float
)

# the fusion reads the second flag through a Hadamard: the analyzer projects
# the flags on the Bell vectors' images under it, B·H, and no rotated copy of
# the flagged register is made; these are their bras, one (2, 2) per label
_FUSION = (_BELL_PAIRS @ hadamard().entries).conj()
_FUSION.setflags(write=False)
_CORRECTIONS.setflags(write=False)


@dataclass(frozen=True)
class BranchOutcome:
    """One heralded fusion outcome after its sign correction. From a
    scheme core its probability and output carry the slice's word axis."""

    label: str
    probability: float
    output: PureState = field(repr=False)


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    output: PureState | None = field(repr=False)
    success_probability: Fraction
    bsm_outcomes: tuple[BsmOutcome, ...] = field(repr=False)
    ancilla_count: int
    nonlocal_gate_count: int
    branches: tuple[BranchOutcome, ...] = field(repr=False)
    # the flagged register, from the slice's level-pair amplitudes and flags
    _flagged: Callable[[], PureState] = field(repr=False, compare=False)

    @property
    def success_probability_float(self) -> float:
        return float(self.success_probability)

    @cached_property
    def resource_state(self) -> PureState:
        """The (d1, d2, 2, 2) flagged register the fusion measured, each
        register beside its flag qubit, built on its first read."""
        return self._flagged()


def _require_unit(state: PureState, message: str) -> float | np.ndarray:
    """The state's norm, one per word, which must be 1 within NORM_ATOL."""
    norm = state.norm
    if _any(abs(norm - 1.0) > NORM_ATOL):
        raise ValueError(message)
    return norm


def _one_input(*states: PureState):
    for state in states:
        if state.batch:
            raise ValueError(f"a scheme call takes one input, got a batch {state.batch}")


def _by_slice(
    run: Callable[..., SchemeResult], states: list[PureState], per_word: int, *columns
) -> Iterator[SchemeResult]:
    """Run the scheme on the words of `states` a slice at a time, each
    beside its slice of the per-word `columns`.

    `per_word` is the scheme's working memory for one word, in amplitudes:
    every array a slice has live at once, the SchemeResult it yields
    included. A slice holds as many words as fit it within the larger of
    the batch's register, its words times the sum of its states' sizes,
    and 2^16 amplitudes; an unbatched input is one slice. Every check
    reports the lowest failing word of its slice.
    """
    (words,) = states[0].batch or (1,)
    step = max(1, max(words * sum(s.dim for s in states), _SLICE_FLOOR) // per_word)
    if step >= words:
        yield run(*states, *columns)
        return
    for lo in range(0, words, step):
        yield run(
            *(PureState._fresh(s.dims, s.amps[lo : lo + step]) for s in states),
            *(c[lo : lo + step] for c in columns),
        )


def _on_levels(table: np.ndarray, at: np.ndarray, ndims: int) -> np.ndarray:
    """A per-label table, (h, ...), read at flat indices `at` of shape
    (..., register axes), `ndims` of them: (..., h, register axes),
    C-ordered, so each label's block of a stack stays contiguous."""
    flat = table.reshape(len(table), -1)
    if at.ndim == ndims:  # one grid for every word: the label axis leads
        return flat.take(at, axis=1)
    return flat[np.arange(len(flat))[:, None], at[..., None, :]]


@dataclass
class _Tail:
    """The fusion tail's constants, built once per core call: both flags'
    values per level pair, 2·f1 + f2 (d1, d2), the heralded labels' bras
    over the flags and their sign corrections, both (h, 2, 2), the exact
    success and the share of it that is simulated, and the counts."""

    scheme: str
    model: BsmModel
    flags: np.ndarray
    bras: np.ndarray
    corrections: np.ndarray
    expected: Fraction
    simulated: Fraction
    target: float
    ancillas: int
    gates: int

    @classmethod
    def build(cls, scheme: str, t1: TriggerSet, t2: TriggerSet, model: BsmModel) -> "_Tail":
        heralded = list(_heralded(model.heralds))
        b1, b2 = np.zeros(t1.dim, dtype=np.int8), np.zeros(t2.dim, dtype=np.int8)
        b1.put(t1.indices, 2)
        b2.put(t2.indices, 1)
        # int8: a support's flags are read at its entries and kept beside them
        flags = b1[:, None] + b2
        expected = success_probability(scheme, len(t1), len(t2), model)
        simulated, ancillas, gates = expected, 2, 1
        if scheme == "state-independent":
            # the ladder's two-level gate successes (h/16)^(k1+k2) come from
            # the formula, since no stage simulates them; a model that
            # heralds nothing has nothing left to divide
            k = len(t1) + len(t2)
            from_formula = Fraction(len(heralded), 16) ** k
            simulated = expected / from_formula if from_formula else expected
            ancillas, gates = 2 * k + 2, k
        return cls(scheme, model, flags, _FUSION[heralded], _CORRECTIONS[heralded],
                   expected, simulated, float(simulated), ancillas, gates)


def _fuse_words(size: int, model: BsmModel, grid: bool) -> int:
    """Amplitudes per word of `size` live at once in the fusion tail: one
    conditional state per heralded outcome and its corrected branch, and
    the word's probabilities and masks (8). At a support a word also reads
    the corrections at its own flags (real, half of h·size) beside them
    (int8, a sixteenth of size); on the grid both are one table per slice.
    Before the branches exist, the bras read at the flags and then the
    analyzer's modulus buffer stand where they will be."""
    h = len(model.heralds)
    return 2 * h * size + 8 + (0 if grid else h * size // 2 + size // 16)


def _fuse(tail: _Tail, x: np.ndarray, mass, total, levels=None) -> SchemeResult:
    """The tail both schemes share, from `x`, the flagged register's
    amplitude at each level pair: (..., d1, d2) on the grid, or (words, e)
    at a support's flat `levels` l1·d2 + l2. Both flags are fixed by the
    level pair, so each heralded outcome's unnormalized conditional state
    is x times its bra at the flags; one stacked pass normalizes them all,
    each is multiplied by its correction at the flags, and the simulation
    is checked against the exact success.

    `mass` is the simulated probability kept before the fusion, per word,
    and `total` the flagged register's squared norm. Times the heralded
    mass, `mass` must equal the tail's simulated share of the success.
    """
    ndims = 2 if levels is None else 1
    flags = tail.flags if levels is None else tail.flags.ravel()[levels]
    fronts = x[(..., None) + (slice(None),) * ndims] * _on_levels(tail.bras, flags, ndims)
    outcomes, heralded = _outcomes(fronts, ndims, tail.model, total)
    off = abs(mass * heralded - tail.target) > PROBABILITY_ATOL
    if _any(off):  # the lowest word off the target is reported
        raise ArithmeticError(
            f"simulated success {float(np.ravel(mass * heralded)[np.flatnonzero(off)[0]])!r} "
            f"deviates from {tail.simulated} by more than {PROBABILITY_ATOL}"
        )
    corrected = fronts * _on_levels(tail.corrections, flags, ndims)
    corrected.setflags(write=False)
    branches = tuple(
        BranchOutcome(o.label, o.probability,
                      PureState._fresh(o.state.dims, corrected[(..., i) + (slice(None),) * ndims]))
        for i, o in enumerate(outcomes[: len(tail.bras)])
        if o.state is not None
    )

    def flagged() -> PureState:  # each level pair beside both flags' 0/1 states
        amps = x[..., None, None] * np.eye(4).reshape(4, 2, 2)[flags]
        return PureState._fresh(x.shape[x.ndim - ndims :] + (2, 2), amps)

    return SchemeResult(
        scheme=tail.scheme,
        output=branches[0].output if branches else None,
        success_probability=tail.expected,
        bsm_outcomes=tuple(outcomes),
        ancilla_count=tail.ancillas,
        nonlocal_gate_count=tail.gates,
        branches=branches,
        _flagged=flagged,
    )


def run_state_dependent(
    psi1: PureState,
    psi2: PureState,
    c1,
    c2,
    model: BsmModel | None = None,
) -> SchemeResult:
    """Route both product-state registers, flag them, fuse the flags.

    The routers need ancilla photons shaped like the inputs' trigger
    patterns, which is what makes this variant state-dependent.
    """
    _one_input(psi1, psi2)
    (result,) = _run_state_dependent(psi1, psi2, c1, c2, model or BsmModel.linear_optics())
    return result


def _run_state_dependent(
    psi1: PureState, psi2: PureState, c1, c2, model: BsmModel, levels: np.ndarray | None = None
) -> Iterator[SchemeResult]:
    """The router scheme on a batch of product inputs: psi1 and psi2 carry
    one word per entry of their leading axis. Yields one SchemeResult per
    slice of words. With `levels` (words, e), a word's output is read at e
    entries, dims (e,), at level pairs l1·d2 + l2, padding -1 reading 0."""
    for who, psi in (("psi1", psi1), ("psi2", psi2)):
        if len(psi.dims) != 1:
            raise ValueError(f"{who} must be a single register, got dims {psi.dims}")
        _require_unit(psi, f"{who} is not normalized")
    t1 = _as_trigger_set(c1, psi1.dim)
    t2 = _as_trigger_set(c2, psi2.dim)
    tail = _Tail.build("state-dependent", t1, t2, model)
    d1, d2, k1, k2 = t1.dim, t2.dim, len(t1), len(t2)
    e = d1 * d2 if levels is None else levels.shape[-1]
    # a router beside nothing, the second beside the first's flag amplitudes
    # and mass, their product formed beside both, then the fusion tail beside it
    per_word = max(
        _route_words(d1, k1),
        _route_words(d2, k2) + d1 + 1,
        d1 + d2 + 4 * e + 2,
        _fuse_words(e, model, levels is None) + e,
    )

    return _by_slice(
        lambda psi1, psi2, *levels: _route_flag_fuse(psi1, psi2, t1, t2, tail, *levels),
        [psi1, psi2],
        per_word,
        *(() if levels is None else (levels,)),
    )


def _route_words(d: int, k: int) -> int:
    """Amplitudes per word live at once while one register is routed and
    flagged (tracemalloc): its flag amplitudes (d), beside the pattern, the
    trigger amplitudes β, the coupling rails and the residual (k each), the
    residual's modulus (half of k) while it is checked, and a few per-word
    masses. All stay within d + 9k/2 + 6."""
    return d + 9 * k // 2 + 6


def _route_flag_fuse(
    psi1: PureState, psi2: PureState, t1: TriggerSet, t2: TriggerSet, tail: _Tail, levels=None
) -> SchemeResult:
    # each register meets its own router and flag; the two first meet at
    # the fusion, which reads the flagged register as r1 ⊗ r2, the product
    # of the registers' amplitudes, on the grid or at the entries
    (r1, kept1), (r2, kept2) = _route_flag(psi1, t1), _route_flag(psi2, t2)
    kept, total = kept1 * kept2, r1.norm**2 * r2.norm**2
    if levels is None:
        x = r1.amps[..., :, None] * r2.amps[..., None, :]
    else:
        x = np.take_along_axis(r1.amps, levels // t2.dim, axis=-1)
        x *= np.take_along_axis(r2.amps, levels % t2.dim, axis=-1)
        x *= levels >= 0
    del r1, r2, kept1, kept2
    return _fuse(tail, x, kept, total, levels)


def _route_flag(psi: PureState, triggers: TriggerSet) -> tuple[PureState, np.ndarray]:
    """One register through its ancilla, router, coincidence and flag, with
    the coincidence mass it kept, in O(d + k) per word. The ancilla is read,
    not built: the pattern over √2 on its coupling rails, 1/√2 on its pass
    rail. The router is a permutation, so its (d, k+1) coincidence block
    v_a w_bᵀ + w_a v_bᵀ is two blocks on disjoint rows and columns: the free
    levels beside the pass rail, and the rails, on the trigger levels, beside
    the trigger amplitudes β. So the kept mass is |free|²·|pass|² +
    |rails|²·|β|², and the flag is one-hot: a free level keeps its amplitude
    times the pass rail (flag 0), a trigger level its rail times ⟨pattern|β⟩
    (flag 1). The residual |rails|·|β - ⟨pattern|β⟩·pattern| that the flag
    unitary's other rows would carry is checked as a truncation."""
    pattern, weight = trigger_pattern(psi, triggers)
    at = np.array(triggers.indices)
    beta = psi.amps.take(at, axis=-1)  # C-ordered, as in `trigger_pattern`
    rails = pattern / np.sqrt(2.0)
    out = psi.amps * _H
    out[..., at] = 0
    rail_mass = _mass(rails)
    kept = _above_cutoff(_mass(out) + rail_mass * weight)
    overlap = np.einsum("...k,...k->...", pattern.conj(), beta)[..., None]
    # the residual itself: a difference of masses leaves ~1e-8 of amplitude
    residual = overlap * pattern
    np.subtract(beta, residual, out=residual)
    residual *= np.sqrt(rail_mass / kept)[..., None]
    _check_discard(residual, len(psi.batch))
    del residual
    out[..., at] = rails * overlap
    # the float view times the reciprocal norm: bit for bit the divide
    parts = out[..., None].view(float)
    parts *= (1 / np.sqrt(kept))[..., None, None]
    return PureState._fresh(psi.dims, out), kept


def _mass(x: np.ndarray) -> np.ndarray:
    """The squared norm of x over its last axis, from its float view."""
    parts = x[..., None].view(float)
    return np.einsum("...kc,...kc->...", parts, parts)


@cache
def verified_two_level_cz(d: int, s: int) -> Unitary:
    """Two-level sign gate on (d-level register, flag qubit), cross-checked
    against its own optical realization.

    Every basis pair is pushed through the state-dependent pipeline and
    each heralded branch must reproduce the logical matrix entrywise.
    """
    logical = multi_level_cz(d, 2, (s,), (1,))
    # one word per basis pair (m, f), in the matrix's column order 2m + f
    registers = PureState((d,), np.repeat(np.eye(d), 2, axis=0))
    flags = PureState((2,), np.tile(np.eye(2), (d, 1)))
    slices = list(_run_state_dependent(registers, flags, (s,), (1,), BsmModel.ideal()))
    for i, label in enumerate(BELL_LABELS):
        columns = np.concatenate([res.branches[i].output.amps for res in slices])
        if not np.allclose(columns.reshape(2 * d, 2 * d).T, logical.entries, atol=1e-10):
            raise ArithmeticError(
                f"optical realization of the ({d},{s}) two-level gate disagrees "
                f"with the logical matrix on branch {label}"
            )
    return logical


def run_state_independent_joint(
    joint: PureState,
    c1,
    c2,
    mode: str = "fast",
    model: BsmModel | None = None,
) -> SchemeResult:
    """State-independent pipeline on an arbitrary (possibly entangled)
    two-register state."""
    _one_input(joint)
    (result,) = _run_state_independent(joint, c1, c2, mode, model or BsmModel.linear_optics())
    return result


def _run_state_independent(
    joint: PureState, c1, c2, mode: str, model: BsmModel, levels: np.ndarray | None = None
) -> Iterator[SchemeResult]:
    """The flag-ladder scheme on a batch of two-register inputs, one word
    per entry of the leading axis. Yields one SchemeResult per slice of
    words. With `levels` (words, e), a word is a support: e entries, dims
    (e,), at level pairs l1·d2 + l2, and c1, c2 are trigger sets."""
    if levels is None and len(joint.dims) != 2:
        raise ValueError(f"need a two-register state, got dims {joint.dims}")
    d1, d2 = joint.dims if levels is None else (c1.dim, c2.dim)
    norm = _require_unit(joint, "input is not normalized")
    if mode not in ("fast", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    t1 = _as_trigger_set(c1, d1)
    t2 = _as_trigger_set(c2, d2)

    # faithful mode cross-checks every two-level gate the ladder uses against
    # its optical realization; a gate that passes is the logical sign gate
    if mode == "faithful":
        for ts in (t1, t2):
            for s in ts:
                verified_two_level_cz(ts.dim, s)
    tail = _Tail.build("state-independent", t1, t2, model)
    # a flag's ladder, H·S·H on |0> with S its register's two-level gates of
    # signs s, leaves it ((1+s)|0> + (1-s)|1>)/2: exactly |1> on the trigger
    # levels and |0> elsewhere. So the flagged register's amplitude at each
    # level pair is the input's, and the ladder's sign gates keep the whole mass
    return _by_slice(
        lambda joint, total, *levels: _fuse(tail, joint.amps, 1.0, total, *levels),
        [joint],
        _fuse_words(joint.dim, model, levels is None),
        norm**2,
        *(() if levels is None else (levels,)),
    )
