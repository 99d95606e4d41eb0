"""Generalized symmetric matrix factorization with nonmonotone alternating
updates: measurement operators, regularizers, the split-variable potential,
the alternating solver, and numerical diagnostics."""

from .data import DatasetRecipe, MatrixFileError, gen_data, load_matrix, save_matrix
from .diagnostics import (
    DiagnosticsReport,
    descent_audit,
    exact_penalty_threshold,
    relaxation_consistency,
    report,
    scheme_inclusion_residual,
    spectral_norm_sq,
    stationarity_residual,
    symmetry_gap,
)
from .objective import (
    GramCache,
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    relobj,
    snmf_objective_cached,
    snmf_spec,
    theta,
    z_star,
)
from .operators import (
    DimensionMismatchError,
    FullVectorization,
    LinearMap,
    SymmetricSampling,
    gamma_min,
    random_symmetric_omega,
    rho,
)
from .regularizers import L1, NonnegIndicator, NonnegPlusL1, Regularizer, Zero
from .solver import (
    AlgorithmInvariantError,
    ConfigError,
    IterationRecord,
    SolveResult,
    SolverConfig,
    SolverState,
    init_state,
    inner_iteration_budget,
    solve,
    step,
    update_u,
    update_v,
)

__version__ = "0.1.0"
