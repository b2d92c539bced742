"""Spectral solver for [-lap + lap^2] u = f and the sequence-convergence check.

The Fourier symbol |p|^2 + |p|^4 vanishes only at p = 0, so the solve divides
mode by mode away from zero. On the discrete torus the zero mode is a genuine
obstruction: by default a source with too much mean mass is refused; with
`project=True` the mean is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import spectral
from .bounds import sphere_measure
from .errors import NonDecayingSource, TrivialField
from .grid import GridSpec, RealField


ZERO_MODE_TOL = 1e-10
SEQUENCE_SLACK = 0.01


@dataclass
class SequenceReport:
    df_l1: list[float] = field(default_factory=list)
    df_l2: list[float] = field(default_factory=list)
    du_h4: list[float] = field(default_factory=list)
    majorant: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(self.ok)


def solve_linear_full(spec: GridSpec, fh: np.ndarray, project: bool = False) -> np.ndarray:
    """Divide the right-hand side's half spectrum by |p|^2 + |p|^4, zero mode dropped.

    Unless `project`, a zero mode above ZERO_MODE_TOL * ||f||_L2 is refused. An all-zero
    spectrum solves to zero (the Picard step's at eps = 0); `solve_linear` refuses a zero source.
    """
    zero = (0,) * spec.d
    if not project:
        zero_mass = abs(fh[zero])
        l2, tol = spectral.norm_l2_spectral(spec, fh), ZERO_MODE_TOL
        if zero_mass > tol * l2:
            raise NonDecayingSource(
                f"zero-mode mass {zero_mass:.3e} exceeds {tol:.1e} * "
                f"||f||_L2 = {tol * l2:.3e}; use run.mean_policy = project, or project=True"
            )
    coeffs, lattice = np.empty(spec.half_shape, complex), spectral.half_lattice(spec)
    spectral._map_blocks(spec, lambda b, rhs, out: np.divide(rhs, lattice.symbol(b), out=out), fh, coeffs)
    coeffs[zero] = 0.0
    return coeffs


def solve_linear(f: RealField, project: bool = False) -> RealField:
    if not np.any(f.values):
        raise TrivialField("right-hand side is identically zero")
    uh = solve_linear_full(f.spec, spectral.forward_folded(f), project)  # the phase is +1 at 0
    return spectral.inverse_folded(f.spec, uh)


def sequence_majorant(df_l1: float, df_l2: float, d: int) -> float:
    """Explicit convergence majorant for ||u_n - u||_H4.

    The bi-Laplacian part is bounded by ||f_n - f||_L2; the L2 part splits at
    |p| = 1 into  (1/2) ||f_n - f||_L2  plus
    (2 pi)^(-d/2) sqrt(|S^d| / (d - 4)) ||f_n - f||_L1.
    """
    low_high = 0.5 * df_l2 + (2.0 * np.pi) ** (-d / 2.0) * np.sqrt(
        sphere_measure(d) / (d - 4)
    ) * df_l1
    return float(np.sqrt(df_l2**2 + low_high**2))


def sequence_experiment(
    f: RealField, perturbations: Iterable[RealField], project: bool = False
) -> SequenceReport:
    """Solve for f and each f + perturbation; check the majorant dominates."""
    d = f.spec.d
    u = solve_linear(f, project)
    report = SequenceReport()
    for pert in perturbations:
        fn = RealField(f.spec, f.values + pert.values)
        un = solve_linear(fn, project)
        diff_f = RealField(f.spec, fn.values - f.values)
        diff_u = RealField(f.spec, un.values - u.values)
        df_l1 = spectral.norm_l1(diff_f)
        df_l2 = spectral.norm_l2(diff_f)
        du_h4 = spectral.norm_h4(diff_u)
        maj = sequence_majorant(df_l1, df_l2, d)
        report.df_l1.append(df_l1)
        report.df_l2.append(df_l2)
        report.du_h4.append(du_h4)
        report.majorant.append(maj)
        report.ok.append(du_h4 <= maj * (1.0 + SEQUENCE_SLACK))
    return report
