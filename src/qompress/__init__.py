"""Heralded multi-level controlled-Z gates for spatial-mode photonic
registers, with a grouped-circuit compression cost pass."""

from .compress import (
    BACKENDS,
    BackendCost,
    CircuitFormatError,
    CircuitIR,
    CompressionError,
    CostReport,
    Gate,
    QuditLayout,
    classify_gates,
    cost_report,
    parse_circuit,
    parse_layout,
    qfa_circuit,
    qfa_layout,
    simulate_compressed,
    trigger_sets,
)
from .mcz import (
    BELL_LABELS,
    BsmModel,
    BsmOutcome,
    TriggerSet,
    bell_measurement,
    bell_vector,
    correction_unitary,
    multi_level_cz,
    prepare_ancillas,
    trigger_pattern,
    two_level_cz,
)
from .optics import (
    ModeUnitary,
    PhotonConfig,
    TwoPhotonState,
    build_smr_mesh,
    evolve_two_photon,
    pair_swap_mesh,
    postselect_coincidence,
    route_with_ancilla,
    smr_abstract,
)
from .qstate import (
    PureState,
    Unitary,
    apply,
    fidelity_up_to_phase,
    hadamard,
    permute_subsystems,
    random_state,
    tensor,
    truncate_subsystem,
)
from .schemes import (
    SCHEMES,
    BranchOutcome,
    SchemeResult,
    run_state_dependent,
    run_state_independent_joint,
    success_probability,
    verified_two_level_cz,
)

__version__ = "0.1.0"
