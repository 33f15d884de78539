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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .mcz import (
    BELL_LABELS,
    BsmModel,
    BsmOutcome,
    TriggerSet,
    _BELL_PAIRS,
    _as_trigger_set,
    _ancilla,
    _bell_outcomes,
    _signs,
    multi_level_cz,
    trigger_pattern,
)
from .optics import _coincidence, route_with_ancilla
from .qstate import (
    NORM_ATOL,
    PureState,
    Unitary,
    hadamard,
    truncate_subsystem,
)

SCHEMES = ("state-dependent", "state-independent")

PROBABILITY_ATOL = 1e-10

# a batch's slice budget in amplitudes is never below this (1 MiB), so a
# small register runs in one slice instead of paying every stage's call
# cost once per handful of words
_SLICE_FLOOR = 1 << 16

# herald label -> (flip signs on register 1, flip signs on register 2)
_CORRECTIONS = {
    "phi+": (False, False),
    "phi-": (True, False),
    "psi+": (False, True),
    "psi-": (True, True),
}

# the fusion reads the second flag through a Hadamard: the analyzer projects
# the flags on the Bell vectors' images under it, B·H, and no rotated copy of
# the flagged register is made
_FUSION = _BELL_PAIRS @ hadamard().entries


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
    resource_state: PureState = field(repr=False)

    @property
    def success_probability_float(self) -> float:
        return float(self.success_probability)


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


def _require_register(state: PureState, who: str):
    if len(state.dims) != 1:
        raise ValueError(f"{who} must be a single register, got dims {state.dims}")
    if np.any(np.abs(state.norm - 1.0) > NORM_ATOL):
        raise ValueError(f"{who} is not normalized")


def _one_input(*states: PureState):
    for state in states:
        if state.batch:
            raise ValueError(f"a scheme call takes one input, got a batch {state.batch}")


def _first_off(values, target: float) -> float | None:
    """The lowest word's value that is off its target, if any is."""
    off = np.flatnonzero(np.abs(np.asarray(values) - target) > PROBABILITY_ATOL)
    return float(np.ravel(values)[off[0]]) if off.size else None


def _by_slice(
    run: Callable[..., SchemeResult], states: list[PureState], per_word: int
) -> Iterator[SchemeResult]:
    """Run the scheme on the words of `states` a slice at a time.

    `per_word` is the scheme's working memory for one word, in amplitudes:
    every array a slice has live at once, the SchemeResult it yields
    included. A slice holds as many words as fit it within the larger of
    the batch's (words, d1, d2) product register, the one the dense
    backends build, and 2^16 amplitudes; an unbatched input is one slice.
    Every check reports the lowest failing word of its slice.
    """
    if not states[0].batch:
        yield run(*states)
        return
    words, d1d2 = states[0].batch[0], math.prod(s.dim for s in states)
    step = max(1, max(words * d1d2, _SLICE_FLOOR) // per_word)
    for lo in range(0, words, step):
        yield run(*(PureState._fresh(s.dims, s.amps[lo : lo + step]) for s in states))


def _flips(t1: TriggerSet, t2: TriggerSet) -> tuple[np.ndarray, np.ndarray]:
    """Each register's ±1 correction, laid out on the (d1, d2) register
    axes; a core builds them once and every slice's feedforward reads them."""
    return _signs(t1)[:, None], _signs(t2)


def _feedforward(
    outcomes: list[BsmOutcome], flips: tuple[np.ndarray, np.ndarray]
) -> tuple[BranchOutcome, ...]:
    branches = []
    for o in outcomes:
        if o.label == "fail" or o.state is None:
            continue
        out = o.state
        fixes = [signs for fix, signs in zip(_CORRECTIONS[o.label], flips) if fix]
        if fixes:
            out = PureState._fresh(out.dims, out.amps * math.prod(fixes))
        branches.append(BranchOutcome(o.label, o.probability, out))
    return tuple(branches)


def _fuse_words(d1: int, d2: int, model: BsmModel) -> int:
    """Amplitudes per word live at once in the fusion tail: the flagged
    register (4·d1·d2) beside one conditional state per heralded outcome
    and one corrected branch per outcome at most (d1·d2 each), plus the
    word's probabilities and masks (8). While the analyzer runs, its
    modulus buffer (half of d1·d2) stands where the branches will be."""
    return (4 + 2 * len(model.heralds)) * d1 * d2 + 8


def _fuse(
    scheme: str,
    flagged: PureState,
    mass,
    t1: TriggerSet,
    t2: TriggerSet,
    flips: tuple[np.ndarray, np.ndarray],
    model: BsmModel,
    expected: Fraction,
) -> SchemeResult:
    """The tail both schemes share: Bell-fuse the two flag qubits
    (subsystems 2 and 3) of the (d1, d2, 2, 2) flagged register, correct
    each heralded branch, and check the simulation against `expected`.

    `mass` is the simulated probability kept before the fusion, per word.
    Times the heralded mass it must equal `expected` over the factor no
    stage simulates: 1 for the router scheme, and for the flag ladder its
    two-level gate successes (h/16)^(k1+k2), taken from the formula.
    """
    ladder = scheme == "state-independent"
    k, h = len(t1) + len(t2), len(model.heralds)
    from_formula = Fraction(h, 16) ** k if ladder else 1
    # a model that heralds nothing has nothing left to divide
    simulated = expected / from_formula if from_formula else expected
    outcomes = _bell_outcomes(flagged, model, _FUSION)
    heralded = sum(o.probability for o in outcomes if o.label != "fail")
    off = _first_off(mass * heralded, float(simulated))
    if off is not None:
        raise ArithmeticError(
            f"simulated success {off!r} deviates from {simulated} by more than "
            f"{PROBABILITY_ATOL}"
        )
    branches = _feedforward(outcomes, flips)
    return SchemeResult(
        scheme=scheme,
        output=branches[0].output if branches else None,
        success_probability=expected,
        bsm_outcomes=tuple(outcomes),
        ancilla_count=2 * k + 2 if ladder else 2,
        nonlocal_gate_count=k if ladder else 1,
        branches=branches,
        resource_state=flagged,
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
    psi1: PureState, psi2: PureState, c1, c2, model: BsmModel
) -> Iterator[SchemeResult]:
    """The router scheme on a batch of product inputs: psi1 and psi2 carry
    one word per entry of their leading axis. Yields one SchemeResult per
    slice of words."""
    _require_register(psi1, "psi1")
    _require_register(psi2, "psi2")
    t1 = _as_trigger_set(c1, psi1.dim)
    t2 = _as_trigger_set(c2, psi2.dim)
    expected = success_probability("state-dependent", len(t1), len(t2), model)
    flips = _flips(t1, t2)
    d1, d2, k1, k2 = t1.dim, t2.dim, len(t1), len(t2)
    # a router's n-mode two-photon matrix beside the product it is summed
    # from and its photons' mode vectors, 2n(n+2), the second one beside
    # the first register's flag, a view that keeps its (d1, k1+2) base
    # alive; then the fusion tail, whose flagged register is the flags'
    # C-ordered product, beside both flags. A flag's own stage, at most
    # d(3k+4), stays below its router's 2n(n+2).
    n1, n2 = d1 + k1 + 1, d2 + k2 + 1
    per_word = max(
        2 * n1 * (n1 + 2),
        2 * n2 * (n2 + 2) + d1 * (k1 + 2),
        _fuse_words(d1, d2, model) + d1 * (k1 + 2) + d2 * (k2 + 2),
    )

    return _by_slice(
        lambda psi1, psi2: _route_flag_fuse(psi1, psi2, t1, t2, flips, model, expected),
        [psi1, psi2],
        per_word,
    )


def _route_flag_fuse(
    psi1: PureState,
    psi2: PureState,
    t1: TriggerSet,
    t2: TriggerSet,
    flips: tuple[np.ndarray, np.ndarray],
    model: BsmModel,
    expected: Fraction,
) -> SchemeResult:
    # each register meets its own router and flag; the two first meet at
    # the fusion, as one C-ordered (d1, d2, f1, f2) product that the
    # analyzer reads without a copy
    (flag1, kept1), (flag2, kept2) = _route_flag(psi1, t1), _route_flag(psi2, t2)
    product = flag1.amps[..., :, None, :, None] * flag2.amps[..., None, :, None, :]
    resource = PureState._fresh((t1.dim, t2.dim, 2, 2), product)
    return _fuse("state-dependent", resource, kept1 * kept2, t1, t2, flips, model, expected)


def _route_flag(psi: PureState, triggers: TriggerSet) -> tuple[PureState, np.ndarray]:
    """One register through its ancilla, router, coincidence and flag, with
    the coincidence mass it kept per word. The flag is the two surviving rows
    of `ancilla_flag_unitary`, a view of the (d, k+2) array [pass rail, trigger
    rails' overlap with the pattern, their residual off it]: the truncation
    checks the residual, which is what the unitary's other rows would carry."""
    pattern, _ = trigger_pattern(psi, triggers)
    reg, kept = _coincidence(route_with_ancilla(psi, _ancilla(pattern), triggers))
    rails = reg.amps[..., :-1]
    overlap = rails @ pattern.conj()[..., :, None]
    # the residual itself: a difference of masses leaves ~1e-8 of amplitude
    residual = rails - overlap * pattern[..., None, :]
    flag = np.concatenate([reg.amps[..., -1:], overlap, residual], axis=-1)
    return truncate_subsystem(PureState._fresh(flag.shape[-2:], flag), 1, 2), kept


_VERIFIED: dict[tuple[int, int], Unitary] = {}


def verified_two_level_cz(d: int, s: int) -> Unitary:
    """Two-level sign gate on (d-level register, flag qubit), cross-checked
    against its own optical realization.

    Every basis pair is pushed through the state-dependent pipeline and
    each heralded branch must reproduce the logical matrix entrywise.
    The result is cached per (d, s).
    """
    key = (d, int(s))
    cached = _VERIFIED.get(key)
    if cached is not None:
        return cached
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
    _VERIFIED[key] = logical
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
    joint: PureState, c1, c2, mode: str, model: BsmModel
) -> Iterator[SchemeResult]:
    """The flag-ladder scheme on a batch of two-register inputs, one word
    per entry of the leading axis. Yields one SchemeResult per slice of
    words."""
    if len(joint.dims) != 2:
        raise ValueError(f"need a two-register state, got dims {joint.dims}")
    if np.any(np.abs(joint.norm - 1.0) > NORM_ATOL):
        raise ValueError("input is not normalized")
    if mode not in ("fast", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    d1, d2 = joint.dims
    t1 = _as_trigger_set(c1, d1)
    t2 = _as_trigger_set(c2, d2)

    # faithful mode cross-checks every two-level gate the ladder uses against
    # its optical realization; a gate that passes is the logical sign gate
    if mode == "faithful":
        for ts in (t1, t2):
            for s in ts:
                verified_two_level_cz(ts.dim, s)
    flips = _flips(t1, t2)
    # a flag's ladder, H·S·H on |0> with S its register's two-level gates of
    # signs s, leaves it ((1+s)|0> + (1-s)|1>)/2: exactly |1> on the trigger
    # levels and |0> elsewhere. Both flags' states, laid out on the flagged
    # register's axes (d1, d2, f1, f2), are 0 or 1
    f1, f2 = (np.stack([1 + f, 1 - f], axis=-1) / 2 for f in flips)
    marks = f1[..., None] * f2[:, None, :]
    expected = success_probability("state-independent", len(t1), len(t2), model)

    # the ladder holds the (d1, d2, 2, 2) register alone, less than the
    # fusion tail
    return _by_slice(
        lambda joint: _ladder_fuse(joint, t1, t2, marks, flips, model, expected),
        [joint],
        _fuse_words(d1, d2, model),
    )


def _ladder_fuse(
    joint: PureState,
    t1: TriggerSet,
    t2: TriggerSet,
    marks: np.ndarray,
    flips: tuple[np.ndarray, np.ndarray],
    model: BsmModel,
    expected: Fraction,
) -> SchemeResult:
    # the ladder in closed form: each word beside both flags' states
    reg = PureState._fresh(joint.dims + (2, 2), joint.amps[..., None, None] * marks)

    # the ladder's sign gates keep the whole mass
    return _fuse("state-independent", reg, 1.0, t1, t2, flips, model, expected)

