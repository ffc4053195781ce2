"""Shuffled SGD for linear-predictor ERM: permutation schedules, a primal-dual
epoch engine, data-dependent smoothness constants computed matrix-free, and
evaluators for the matching step sizes and convergence guarantees."""

from .bounds import (
    BoundInputs,
    bound_rhs_ig,
    bound_rhs_nonsmooth,
    bound_rhs_smooth_rr,
    step_size_ig,
    step_size_nonsmooth,
    step_size_smooth_rr,
)
from .constants import (
    ConstantsReport,
    MaskedGramOperator,
    classical_constant,
    full_gradient_L,
    gbar_estimate,
    general_hat_L,
    general_tilde_L,
    hat_constant,
    operator_norm,
    ratio_stats,
    reference_minimizer,
    sigma_star,
    tilde_constant,
    ystar_weighted_norm,
)
from .data import (
    ParseError,
    SparseDataset,
    gen_gaussian,
    load_libsvm,
    parse_libsvm,
    row_sq_norms,
    serialize_libsvm,
)
from .engine import (
    BlockLayout,
    DivergenceError,
    EpochTrace,
    RunConfig,
    RunResult,
    dual_block_update,
    primal_block_step,
    retraction_residual,
    run,
    run_general,
)
from .losses import (
    LossModel,
    RegularityDiag,
    conjugate_pair,
    objective,
    regularity,
)
from .shuffle import ConfigError, ShufflePlan, permutation_for, random_permutation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
