"""Weighted l1 sparse recovery and desk-scale certification of weighted
null space and restricted isometry properties."""

from .bounds import (
    ErrorBudget,
    PremiseError,
    RecoveryConstants,
    RobustNspConstants,
    largest_singular_value,
    operator_norm_bound,
    recovery_constants_floor_weights,
    rip_nsp_error_budget,
    robust_nsp_constants_from_rip,
    smallest_positive_singular_value,
)
from .certify import (
    CERTIFICATION_MARGIN,
    BoundViolationError,
    CertificationReport,
    DisjointBoundReport,
    EquivalenceVerdict,
    NspResult,
    RipResult,
    RobustNspReport,
    check_robust_nsp_kernel,
    disjoint_inner_product_bound_check,
    exact_recovery_equivalence_test,
    nsp_constant,
    null_space_basis,
    rip_constant,
)
from .construct import (
    ConstructionError,
    CounterexampleBundle,
    Provenance,
    SenseMatrix,
    ShrinkResult,
    build_counterexample,
    dft_matrix,
    sample_partial_unitary,
    shrink_to_break_robust_nsp,
    unitary_with_flat_first_row,
)
from .core import (
    DEFAULT_ENUM_CAP,
    BudgetError,
    EnumerationCapError,
    Partition,
    SparseModel,
    TermApproximation,
    WeightProfile,
    as_matrix,
    as_weights,
    best_weighted_s_term,
    build_partition,
    complement,
    enumerate_admissible_supports,
    enumeration_cap,
    maximal_admissible_supports,
    sparse_measure,
    standing_assumption_holds,
    weighted_l1_norm,
)
from .matrixio import (
    MatrixFormatError,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from .solver import (
    ConvergenceError,
    InfeasibleProblemError,
    SolverOutcome,
    complex_soft_threshold,
    solve_weighted_bp,
    solve_weighted_bpdn,
)

__version__ = "0.1.0"
