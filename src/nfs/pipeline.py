"""Assembly of a fully certified problem from raw fields and a nonlinearity.

The dependency order matters: the threshold formula needs ||u0||_H4, so the
linear problem is solved before any constant is evaluated. `epsilon=None`
("auto") resolves to the certified maximum. The real u0 is built only when it
is read: the constants need only its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import spectral
from .bounds import BoundsSnapshot, embedding_constant, make_snapshot
from .errors import GridMismatch, NonPositiveInput, TrivialField
from .fixedpoint import ProblemSpec
from .grid import GridSpec, RealField
from .linear import _solve_linear, solve_linear_full
from .nonlinearity import Nonlinearity, build_interval, c2_norm


@dataclass
class AssembledProblem:
    ps: ProblemSpec

    @property
    def snapshot(self) -> BoundsSnapshot:
        return self.ps.bounds

    @cached_property
    def u0(self) -> RealField:
        """The linear solution, solved on first read (2 nd-FFTs); solve computes its own."""
        return _solve_linear(self.ps.source, self.ps.project_mean)


def assemble_problem(
    grid: GridSpec,
    kernel: RealField,
    source: RealField,
    g: Nonlinearity,
    epsilon: Optional[float] = None,
    rho: float = 1.0,
    tol_fp: float = 1e-10,
    max_iter: int = 200,
    project_mean: bool = False,
    g_other: Optional[Nonlinearity] = None,
) -> AssembledProblem:
    """Solve u0^, derive all constants, and build the ProblemSpec.

    When `g_other` is given (continuity experiments), the snapshot's C2 bound
    covers both nonlinearities, so the certified range is valid for either.
    """
    if kernel.spec != grid:  # the problem's grid is its kernel's
        raise GridMismatch(f"kernel grid {kernel.spec} differs from problem grid {grid}")
    u0h = solve_linear_full(grid, spectral.forward_folded(source), project_mean)  # folded: same norms
    u0_h4 = spectral.norm_h4_spectral(grid, u0h)
    if not math.isfinite(u0_h4):
        raise NonPositiveInput(f"u0_h4 must be finite, got {u0_h4}; scale the source down")
    c_e = embedding_constant(grid.d)
    interval = build_interval(u0_h4, c_e)
    m = c2_norm(g, interval).c2_norm
    if g_other is not None:
        m = max(m, c2_norm(g_other, interval).c2_norm)
    k_l1 = spectral.norm_l1(kernel)
    if k_l1 == 0.0:  # ProblemSpec tests each field, but the snapshot would first refuse this k_l1
        raise TrivialField("kernel is identically zero")
    k_l2 = spectral.norm_l2(kernel)
    snapshot = make_snapshot(grid.d, rho, m, u0_h4, k_l1, k_l2, c_e)
    eps = snapshot.epsilon_max if epsilon is None else epsilon
    ps = ProblemSpec(kernel, source, g, eps, rho=rho, bounds=snapshot, tol_fp=tol_fp, max_iter=max_iter,
                     project_mean=project_mean)
    return AssembledProblem(ps)
