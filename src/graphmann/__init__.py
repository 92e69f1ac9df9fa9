"""Fixed points of order-monotone nonexpansive maps by averaged iteration,
with built-in auditors that re-verify the supporting theory along each run."""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    GraphmannError,
    InputError,
    UndefinedProductError,
    UnsupportedCombinationError,
)
from .normed_space import (
    Ball,
    Box,
    ConvexBody,
    NormSpace,
    contains,
    diameter,
    modulus_uc_estimate,
    sample_point,
)
from .order_graph import (
    AuditReport,
    ConeRelation,
    sample_cone_element,
)
from .operators import (
    Componentwise,
    FixedPointSet,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    Operator,
    known_fixed_points,
    matrix_opnorm_bound,
)
from .mann import (
    Schedule,
    Trajectory,
    full_iterates,
    read_trajectory_csv,
    run,
    verify_trajectory,
    write_trajectory_csv,
)
from .diagnostics import (
    ALL_AUDITS,
    audit_edge_propagation,
    audit_fejer,
    convergence_audit,
    exit_code_from_audits,
    gk_inequality_check,
    rate_audit,
    rate_bound,
    residual_monotone_check,
    run_audits,
    verify_fixed_point,
)
from .config import ExperimentConfig, load_config
from .experiment import run_experiment, run_sweep

__version__ = "0.1.0"
