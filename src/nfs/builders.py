"""Kernel and source builders satisfying the nontriviality/integrability rules.

Gaussians are evaluated on the periodic distance to their center, so circular
translates have identical discrete mass; the two-hump source difference is
therefore mean-free to rounding. Builders enforce the outer-shell mass gate:
a field whose tails carry visible L1 mass signals a box that is too small.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import spectral
from .errors import MassLeakage, NonPositiveInput, TrivialField
from .grid import GridSpec, RealField

SHELL_MASS_LIMIT = 1e-6


def _gaussian_hump(grid: GridSpec, center: np.ndarray, width: float) -> np.ndarray:
    # squared periodic distance to `center`, summed axis by axis in forward order
    coords, period = grid.axis_coords(), 2.0 * grid.half_width
    w = coords - center[:, None]  # row i: x - center[i] on axis i, wrapped into [-L, L)
    w -= period * np.floor((w + grid.half_width) / period)
    sq = reduce(np.add.outer, w * w)
    return np.exp(-sq / (2.0 * width**2)).reshape(-1)


def check_gates(f: RealField, what: str) -> None:
    """Refuse a kernel or source that is identically zero or leaks mass to the outer shell."""
    if not np.any(f.values):
        raise TrivialField(f"{what} is identically zero")
    frac = spectral.outer_shell_mass_fraction(f)
    if frac >= SHELL_MASS_LIMIT:
        raise MassLeakage(
            f"{what} carries {frac:.3e} of its L1 mass in the outer {spectral.SHELL:.0%} shell "
            f"(limit {SHELL_MASS_LIMIT:.0e}); enlarge the box"
        )


def build_gaussian_kernel(
    grid: GridSpec, sigma: float, amplitude: float
) -> RealField:
    """Radial Gaussian A exp(-|x|^2 / (2 s^2)) centered at the origin."""
    if amplitude == 0.0:
        raise TrivialField("kernel amplitude is zero")
    if not 0.0 < 2.0 * sigma * sigma < np.inf:  # 2 sigma^2 underflows to 0 or overflows
        raise NonPositiveInput(f"kernel.sigma = {sigma}: 2 sigma^2 must be positive and finite")
    center = np.zeros(grid.d)
    values = amplitude * _gaussian_hump(grid, center, sigma)
    f = RealField(grid, values)
    check_gates(f, "kernel")
    return f


def build_gaussian_diff_source(
    grid: GridSpec,
    centers: tuple[float, float] = (1.0, -1.0),
    widths: tuple[float, float] = (1.0, 1.0),
    amplitude: float = 1.0,
) -> RealField:
    """Mean-free difference of two Gaussian humps offset along the first axis.

    The second hump's amplitude is renormalized to match the first hump's
    discrete mass exactly, so the result is mean-free even for unequal widths.
    """
    if amplitude == 0.0:
        raise TrivialField("source amplitude is zero")
    if not all(0.0 < 2.0 * w * w < np.inf for w in widths):
        raise NonPositiveInput(f"source.widths = {widths}: 2 w^2 must be positive and finite")
    c1 = np.zeros(grid.d)
    c1[0] = centers[0]
    c2 = np.zeros(grid.d)
    c2[0] = centers[1]
    h1 = _gaussian_hump(grid, c1, widths[0])
    h2 = _gaussian_hump(grid, c2, widths[1])
    m1, m2 = np.sum(h1), np.sum(h2)
    if m2 == 0.0:
        raise TrivialField("second source hump vanished on the grid")
    values = amplitude * (h1 - (m1 / m2) * h2)
    f = RealField(grid, values)
    check_gates(f, "source")
    return f


def field_norms(f: RealField) -> dict:
    return {
        "l1": spectral.norm_l1(f),
        "l2": spectral.norm_l2(f),
        "linf": spectral.norm_linf(f),
        "h4": spectral.norm_h4(f),
    }
