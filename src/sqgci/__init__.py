"""Pseudospectral convex-integration iteration for stationary weak
solutions of the surface quasi-geostrophic equation on the 2-torus.

The package builds the scalar potential f (theta = Lambda f) as a sum
of frequency-localized modulated waves whose amplitudes are chosen to
cancel the current stress field, evaluates every product exactly on
dealiased grids, and verifies the construction's identities at runtime.
"""

from .errors import (
    BandExceedsLambda,
    GridBudgetExceeded,
    GridTooSmall,
    NegativePowerOnMean,
    NonZeroMean,
    NotPositive,
    ParseError,
    SeparationViolated,
    ValidationError,
)
from .fields import (
    TorusField,
    VectorField,
    from_grid,
    inner,
    multiply,
    random_field,
    read_sqf1,
    sqrt_pointwise,
    to_grid,
    write_sqf1,
)
from .iteration import (
    DerivedScales,
    IterationParams,
    StepState,
    build_f_next,
    iterate,
    lambda_at,
    make_base,
    perfect_amplitude,
    run,
    scales_for,
    step,
)
from .multipliers import (
    DIRECTIONS,
    L1,
    L2,
    Direction,
    fat_lowpass,
    grad_perp,
    inv_div,
    lambda_s,
    lowpass,
    modulate,
    riesz,
    riesz_commutator,
    riesz_odd,
    rperp_grad_commutator,
    t_op,
)
from .norms import holder_besov, linf, sobolev, x_norm
from .verify import (
    FeasibilityReport,
    ResidualReport,
    check_algebraic,
    check_support,
    commutator_ratio,
    feasibility,
    weak_residual,
)

__version__ = "0.1.0"
