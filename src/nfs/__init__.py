"""Pseudo-spectral solver for the stationary integro-differential problem

    [lap - lap^2] u + eps * integral K(x - y) g(u(y)) dy + f(x) = 0

on a periodic box approximating R^d (5 <= d <= 7), via Banach fixed-point
iteration with certified contraction bounds.
"""

from .bounds import (
    BoundsSnapshot,
    continuity_bound,
    embedding_constant,
    epsilon_max,
    minimize_phi,
    sigma,
    sphere_measure,
)
from .fixedpoint import (
    ProblemSpec,
    SolveReport,
    apply_tg,
    continuity_experiment,
    measure_contraction,
    residual,
    sample_ball,
    sample_ball_spectrum,
    solve_fixed_point,
)
from .grid import GridSpec, RealField, read_field, write_field
from .linear import sequence_experiment, solve_linear
from .nonlinearity import (
    IntervalI,
    Nonlinearity,
    build_interval,
    c2_distance,
    c2_norm,
    compose,
)
from .pipeline import assemble_problem
from .spectral import (
    convolve,
    forward_transform,
    inverse_transform,
    norm_h4,
    norm_l1,
    norm_l2,
    norm_linf,
)

__version__ = "0.1.0"
