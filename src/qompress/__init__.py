"""Heralded multi-level controlled-Z gates for spatial-mode photonic
registers, with a grouped-circuit compression cost pass.

The package namespace is lazy: each name below is imported from its home
module on first read and then bound here, so `import qompress` loads no
submodule and pricing a circuit loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name's home module
_HOMES = {
    "compress": (
        "BACKENDS",
        "BackendCost",
        "CircuitFormatError",
        "CircuitIR",
        "CompressionError",
        "CostReport",
        "Gate",
        "QuditLayout",
        "classify_gates",
        "cost_report",
        "parse_circuit",
        "parse_layout",
        "qfa_circuit",
        "qfa_layout",
        "simulate_compressed",
        "trigger_sets",
    ),
    "exact": ("BELL_LABELS", "SCHEMES", "BsmModel", "TriggerSet", "success_probability"),
    "mcz": (
        "BsmOutcome",
        "bell_measurement",
        "bell_vector",
        "correction_unitary",
        "multi_level_cz",
        "prepare_ancillas",
        "trigger_pattern",
        "two_level_cz",
    ),
    "optics": (
        "ModeUnitary",
        "PhotonConfig",
        "TwoPhotonState",
        "build_smr_mesh",
        "evolve_two_photon",
        "pair_swap_mesh",
        "postselect_coincidence",
        "route_with_ancilla",
        "smr_abstract",
    ),
    "qstate": (
        "PureState",
        "Unitary",
        "apply",
        "fidelity_up_to_phase",
        "hadamard",
        "permute_subsystems",
        "random_state",
        "tensor",
        "truncate_subsystem",
    ),
    "schemes": (
        "BranchOutcome",
        "SchemeResult",
        "run_state_dependent",
        "run_state_independent_joint",
        "verified_two_level_cz",
    ),
}
_SUBMODULES = ("cli", *_HOMES)
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, the next read is a plain attribute lookup
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
