"""Operator-word level spaces, dilations and classical-limit diagnostics
for quantum channels presented by finitely many Kraus matrices."""

__version__ = "0.1.0"

from .linalg import (
    Tolerances,
    SingularMatrixError,
    kron,
    orthonormal_range,
    numerical_rank,
    partial_trace_right,
    partial_trace_left,
    psd_inverse,
    operator_norm,
    kron_power_apply,
)
from .channel import (
    KrausSet,
    ValidationReport,
    validate,
    require_unital_minimal,
    check_state,
    apply_heisenberg,
    apply_schrodinger,
    kraus_word,
    minimal_kraus,
    choi_matrix,
)
from .subproduct import (
    SubproductSystem,
    TruncatedFock,
    build_subproduct,
    level_projection,
    subproduct_residual,
    shift_left,
    shift_right,
    inductive_map,
    multiplicativity_residual,
    presentation_residual,
    truncated_fock,
)
from .dilation import (
    DilationBundle,
    stinespring_isometry,
    unitary_dilation,
    compressed_action,
    complementary_state,
    complementary_state_via_dilation,
    covariant_symbol,
)
from .dequantization import (
    StateSpec,
    state_spec,
    LevelCorrelation,
    CorrelationData,
    correlation_matrix,
    correlations,
    phi_symmetry_residual,
    dequantize,
    BalancedWordSum,
    normal_ordering_residual,
    ConvergenceReport,
    convergence_report,
    trend_verdict,
)
from .catalog import (
    FAMILIES,
    CatalogSpec,
    identity_channel,
    unitary_channel,
    projective_measurement,
    uniform_projective,
    commuting_generic,
    random_unital,
    sequential_projective,
    build_catalog,
)

__all__ = [name for name in dir() if not name.startswith("_")]
