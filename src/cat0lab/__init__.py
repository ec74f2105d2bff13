"""Monte-Carlo laboratory for random walks on explicit CAT(0) model spaces.

The package provides exact metric kernels for four model spaces (Euclidean
plane, hyperbolic plane, 4-regular tree, hyperbolic plane times a line),
their isometry groups and boundaries, seeded random-walk sampling, and the
estimators that check boundary convergence, stationary-measure uniqueness,
drift positivity, and geodesic tracking at desk scale.
"""

__version__ = "0.1.0"

from .errors import DistributionError, DomainError, UncertifiedError, UsageError
from .models import (
    BoundaryPoint,
    Isometry,
    Model,
    Point,
    boundary_points_equal,
    e2_boundary,
    e2_isometry,
    e2_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_boundary,
    h2xr_isometry,
    h2xr_point,
    identity,
    points_equal,
    t4_boundary,
    t4_isometry,
    t4_point,
)
from .geometry import (
    direction,
    distance,
    geodesic_point,
    model_basepoint,
    ray_point,
)
from .isometry import (
    IsometryClass,
    NorthSouthResult,
    apply,
    apply_boundary,
    axis_endpoints,
    classify,
    compose,
    independence_score,
    inverse,
    is_rank_one,
    north_south_constant,
    power,
)
from .boundary import (
    angle_at_infinity,
    angles_at_infinity,
    boundary_distances,
    boundary_metric,
    horofunction,
    horofunction_limit_oracle,
    sample_boundary,
    tits_ball_is_trivial,
    tits_distance,
)
from .walk import (
    AdmissibilityReport,
    StepDistribution,
    WalkTrace,
    sample_terminals,
    sample_walk,
    validate_distribution,
)
from .stats import (
    BinScheme,
    ConvergenceProfile,
    DiracReport,
    DriftReport,
    HittingHistogram,
    PiConvergence,
    RankOneAudit,
    cocycle_residual,
    cocycle_residuals,
    convergence_profile,
    default_checkpoints,
    dirac_concentration,
    drift_estimate,
    hitting_measure,
    horofunction_gap,
    hypotheses_audit,
    pi_convergence_check,
    rankone_audit,
    stationarity_defect,
    theil_sen,
    tracking_error,
)
