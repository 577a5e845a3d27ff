"""Bell and steering inequality analysis for two-copy beam-splitter
measurements of number-conserving bosonic states."""

from .fock import (
    LinearModeMap,
    ModeCollisionError,
    ModeMismatchError,
    ModePolynomial,
    NonUnitaryMapError,
    fock_amplitudes,
    from_fock_amplitudes,
    inner,
    monomial_state,
    substitute,
    tensor,
)
from .states import (
    CompositeState,
    DegenerateComponentError,
    admix,
    bec_pair,
    bec_state,
    noon_pair,
    noon_state,
    sector_basis,
    two_copy,
)
from .measurement import (
    BALANCED_ALPHA,
    BasisVector,
    BeamSplitterSetting,
    Outcome,
    effective_basis,
    epsilon,
    joint_distribution,
    local_outcomes,
    outcome_count,
    sector_trace_product,
    weighted_parity,
)
from .inequalities import (
    AngleQuad,
    CLASSICAL_BOUND,
    CLOSED_FORM_FAMILIES,
    CorrelationVector,
    FORM_ORIENTATION,
    NegativeRadicandError,
    NoViolationError,
    QUANTUM_BOUND,
    bell_value,
    closed_form,
    closed_form_state,
    correlation,
    correlation_vector,
    steering_value,
    verify_closed_forms,
    visibility_threshold,
)
from .search import (
    OptimizationResult,
    ScanSeries,
    count_local_maxima,
    optimize,
    scan_1d,
)

__version__ = "0.1.0"

__all__ = [
    "ModePolynomial", "LinearModeMap", "monomial_state", "from_fock_amplitudes",
    "tensor", "substitute", "fock_amplitudes", "inner",
    "ModeCollisionError", "ModeMismatchError", "NonUnitaryMapError",
    "CompositeState", "DegenerateComponentError",
    "bec_state", "noon_state", "two_copy", "bec_pair", "noon_pair",
    "sector_basis", "admix",
    "BeamSplitterSetting", "BALANCED_ALPHA", "Outcome",
    "BasisVector", "epsilon", "outcome_count", "local_outcomes",
    "effective_basis",
    "joint_distribution", "weighted_parity", "sector_trace_product",
    "AngleQuad", "CorrelationVector", "correlation", "correlation_vector",
    "bell_value", "steering_value", "closed_form", "closed_form_state",
    "verify_closed_forms", "visibility_threshold",
    "CLOSED_FORM_FAMILIES", "FORM_ORIENTATION",
    "CLASSICAL_BOUND", "QUANTUM_BOUND",
    "NoViolationError", "NegativeRadicandError",
    "OptimizationResult", "ScanSeries", "optimize", "scan_1d",
    "count_local_maxima",
]
