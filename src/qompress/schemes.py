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
    _as_trigger_set,
    _bell_outcomes,
    _signs,
    ancilla_flag_unitary,
    multi_level_cz,
    prepare_ancillas,
    trigger_pattern,
)
from .optics import _coincidence, route_with_ancilla
from .qstate import (
    NORM_ATOL,
    PureState,
    Unitary,
    apply,
    hadamard,
    permute_subsystems,
    tensor,
    truncate_subsystem,
)

SCHEMES = ("state-dependent", "state-independent")

PROBABILITY_ATOL = 1e-10

# herald label -> (flip signs on register 1, flip signs on register 2)
_CORRECTIONS = {
    "phi+": (False, False),
    "phi-": (True, False),
    "psi+": (False, True),
    "psi-": (True, True),
}

# the flag qubit's trigger level: a two-level gate flips the sign where its
# register sits on one trigger level and the flag on 1
_FLAG = TriggerSet((1,), 2)


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

    `per_word` is the scheme's working memory for one word, in amplitudes.
    A slice holds as many words as fit it within the amplitudes of the
    whole batch's (words, d1, d2) product register, the one the dense
    backends build; an unbatched input is one slice. When a check fails,
    the slice is replayed word by word, so the error raised is the lowest
    failing word's own.
    """
    if not states[0].batch:
        yield run(*states)
        return
    words, d1d2 = states[0].batch[0], math.prod(s.dim for s in states)
    step = max(1, words * d1d2 // per_word)
    for lo in range(0, words, step):
        yield _run_words(run, states, lo, min(lo + step, words))


def _run_words(run: Callable[..., SchemeResult], states: list[PureState], lo: int, hi: int):
    try:
        return run(*(PureState(s.dims, s.amps[lo:hi]) for s in states))
    except (ValueError, ArithmeticError):
        for w in range(lo, hi):
            run(*(PureState(s.dims, s.amps[w : w + 1]) for s in states))
        raise


def _feedforward(
    outcomes: list[BsmOutcome], t1: TriggerSet, t2: TriggerSet
) -> tuple[BranchOutcome, ...]:
    # each register's correction, laid out on the (d1, d2) register axes
    flips = (_signs(t1)[:, None], _signs(t2))
    branches = []
    for o in outcomes:
        if o.label == "fail" or o.state is None:
            continue
        out = o.state
        for fix, signs in zip(_CORRECTIONS[o.label], flips):
            if fix:
                out = PureState(out.dims, out.amps * signs)
        branches.append(BranchOutcome(o.label, o.probability, out))
    return tuple(branches)


def _fuse(
    flagged: PureState,
    t1: TriggerSet,
    t2: TriggerSet,
    model: BsmModel,
) -> tuple[list[BsmOutcome], tuple[BranchOutcome, ...], float]:
    """Bell-fuse the two flag qubits (subsystems 2 and 3) and correct."""
    fused = apply(hadamard().on(3), flagged)
    outcomes = _bell_outcomes(fused, model)
    heralded = sum(o.probability for o in outcomes if o.label != "fail")
    return outcomes, _feedforward(outcomes, t1, t2), heralded


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
    d1, d2, k1, k2 = t1.dim, t2.dim, len(t1), len(t2)
    # the largest of: the joint register before truncation, a router's
    # two-photon matrix, and the flagged register beside its fused image
    per_word = max(
        d1 * d2 * (k1 + 1) * (k2 + 1), (d1 + k1 + 1) ** 2, (d2 + k2 + 1) ** 2, 8 * d1 * d2
    )

    return _by_slice(
        lambda psi1, psi2: _route_flag_fuse(psi1, psi2, t1, t2, model, expected),
        [psi1, psi2],
        per_word,
    )


def _route_flag_fuse(
    psi1: PureState,
    psi2: PureState,
    t1: TriggerSet,
    t2: TriggerSet,
    model: BsmModel,
    expected: Fraction,
) -> SchemeResult:
    anc1, anc2 = prepare_ancillas(psi1, psi2, t1, t2)
    reg1, p1 = _coincidence(route_with_ancilla(psi1, anc1, t1))
    reg2, p2 = _coincidence(route_with_ancilla(psi2, anc2, t2))

    joint = permute_subsystems(tensor(reg1, reg2), (0, 2, 1, 3))
    pat1, _ = trigger_pattern(psi1, t1)
    pat2, _ = trigger_pattern(psi2, t2)
    joint = apply(ancilla_flag_unitary(pat1).on(2), joint)
    joint = apply(ancilla_flag_unitary(pat2).on(3), joint)
    # the flagged register is exactly two-level on each ancilla side
    joint = truncate_subsystem(joint, 2, 2)
    resource = truncate_subsystem(joint, 3, 2)

    outcomes, branches, heralded = _fuse(resource, t1, t2, model)
    measured = _first_off(p1 * p2 * heralded, float(expected))
    if measured is not None:
        raise ArithmeticError(
            f"measured success {measured!r} deviates from {expected} by more than "
            f"{PROBABILITY_ATOL}"
        )
    return SchemeResult(
        scheme="state-dependent",
        output=branches[0].output if branches else None,
        success_probability=expected,
        bsm_outcomes=tuple(outcomes),
        ancilla_count=2,
        nonlocal_gate_count=1,
        branches=branches,
        resource_state=resource,
    )


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
    # the two-level gates are diagonal on (register, flag), so a side's whole
    # ladder is one sign pattern over (level, flag), laid out on the flag
    # register's axes (d1, d2, f1, f2)
    ladders = [_signs(t1, _FLAG)[:, None, :, None], _signs(t2, _FLAG)[:, None, :]]
    expected = success_probability("state-independent", len(t1), len(t2), model)

    # the (d1, d2, 2, 2) flag register beside its image under each gate, and
    # beside the fused register it is measured from
    return _by_slice(
        lambda joint: _ladder_fuse(joint, t1, t2, ladders, model, expected), [joint], 8 * d1 * d2
    )


def _ladder_fuse(
    joint: PureState,
    t1: TriggerSet,
    t2: TriggerSet,
    ladders: list[np.ndarray],
    model: BsmModel,
    expected: Fraction,
) -> SchemeResult:
    reg = tensor(joint, PureState.basis((2, 2), (0, 0)))
    for fsub, signs in zip((2, 3), ladders):
        reg = apply(hadamard().on(fsub), reg)
        reg = PureState(reg.dims, reg.amps * signs)
        reg = apply(hadamard().on(fsub), reg)

    outcomes, branches, heralded = _fuse(reg, t1, t2, model)
    # the flag ladder's gate successes are accounted in the formula; the
    # simulated fusion must still carry its share of the mass
    herald_mass = _first_off(heralded, len(model.heralds) / 4.0)
    if herald_mass is not None:
        raise ArithmeticError(
            f"fusion herald mass {herald_mass!r} deviates from {len(model.heralds)}/4"
        )
    k = len(t1) + len(t2)
    return SchemeResult(
        scheme="state-independent",
        output=branches[0].output if branches else None,
        success_probability=expected,
        bsm_outcomes=tuple(outcomes),
        ancilla_count=2 * k + 2,
        nonlocal_gate_count=k,
        branches=branches,
        resource_state=reg,
    )

