"""Closed-form theoretical constants for the contraction construction.

Everything here is an explicit formula: the surface measure of the unit
sphere, the admissible sup-norm embedding constant for the two-term H4
norm, the minimizer of phi(R) = alpha R^(d-4) + R^(-4), the admissible
range of the coupling epsilon, the contraction constant sigma, and the
bound on the solution's sensitivity to the nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .errors import BadDimension, ContractionViolated, NonPositiveInput

QUAD_POINTS = 400  # Gauss-Legendre nodes of the radial integral


@dataclass(frozen=True)
class PhiResult:
    alpha: float
    d: int
    r_star: float
    phi_min: float


@dataclass(frozen=True)
class BoundsSnapshot:
    """All constants entering the certified epsilon range for one problem."""

    d: int
    rho: float
    big_m: float
    u0_h4: float
    k_l1: float
    k_l2: float
    sphere_measure: float
    embedding_constant: float
    epsilon_max: float
    sigma: float


def sphere_measure(d: int) -> float:
    """Surface measure 2 pi^(d/2) / Gamma(d/2) of the unit sphere in R^d."""
    if d < 1:
        raise BadDimension(f"d must be >= 1, got {d}")
    return float(2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0))


def minimize_phi(alpha: float, d: int) -> PhiResult:
    """Minimize phi(R) = alpha R^(d-4) + 1/R^4 over R > 0, in closed form."""
    if d <= 4:
        raise BadDimension(f"minimizer needs d >= 5, got {d}")
    if not (alpha > 0):
        raise NonPositiveInput(f"alpha must be positive, got {alpha}")
    r_star = (4.0 / (alpha * (d - 4))) ** (1.0 / d)
    phi_min = (alpha / 4.0) ** (4.0 / d) * d / (d - 4) ** ((d - 4) / d)
    return PhiResult(alpha=alpha, d=d, r_star=r_star, phi_min=phi_min)


def radial_embedding_integral(d: int) -> float:
    """integral_0^inf r^(d-1) (1 + r^4)^(-2) dr by QUAD_POINTS-node Gauss-Legendre quadrature.

    Mapped to (0, 1) via r = t/(1-t); converges for d < 8. Closed form for
    cross-checks: (1/4) B(d/4, 2 - d/4).
    """
    if not (1 <= d <= 7):
        raise BadDimension(f"radial integral restricted to 1 <= d <= 7, got {d}")
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_POINTS)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    r = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2
    integrand = r ** (d - 1) / (1.0 + r**4) ** 2 * jac
    return float(np.sum(w * integrand))


def embedding_constant(d: int) -> float:
    """Admissible constant c_e with ||u||_inf <= c_e ||u||_H4.

    c_e = sqrt(2) (2 pi)^(-d/2) (|S^d| I_d)^(1/2) with the radial integral
    I_d above; the factor sqrt(2) comes from (1 + r^4)^2 <= 2 (1 + r^8).
    """
    if not (5 <= d <= 7):
        raise BadDimension(f"embedding constant defined for 5 <= d <= 7, got {d}")
    integral = radial_embedding_integral(d)
    return float(
        np.sqrt(2.0)
        * (2.0 * np.pi) ** (-d / 2.0)
        * np.sqrt(sphere_measure(d) * integral)
    )


def _kernel_term(d: int, u0_h4: float, **positive: float) -> tuple[float, float]:
    """s = T / 16^(4/d) with T = k_l1^2 u^(8/d-2) d |S^d|^(4/d) / ((2 pi)^4 (d-4)), and u.

    Here u = ||u0||_H4 + 1 and q = 4^(4/d). The constants read
        eps_max = rho / (2 M u^2 sqrt(s + k_l2^2/4)),
        sigma   = M u sqrt(q s + k_l2^2),
    and the continuity bound is eps/(1 - eps sigma) u^2 sqrt(s + k_l2^2/4) ||g1 - g2||_C2.
    Hence eps_max sigma = (rho/u) sqrt((q s + k_l2^2) / (4 s + k_l2^2)) < 1, because
    q < 4 for d > 4 and rho <= 1 <= u.
    """
    if d <= 4:
        raise BadDimension(f"bound formulas need d >= 5, got {d}")
    for name, value in positive.items():
        if not (0 < value < np.inf):
            raise NonPositiveInput(f"{name} must be positive and finite, got {value}")
    if u0_h4 < 0:
        raise NonPositiveInput(f"u0_h4 must be nonnegative, got {u0_h4}")
    u = u0_h4 + 1.0
    t = positive["k_l1"] ** 2 * u ** (8.0 / d - 2.0) * d / ((2.0 * np.pi) ** 4 * (d - 4))
    return t * (sphere_measure(d) / 16.0) ** (4.0 / d), u


def epsilon_max(
    rho: float, big_m: float, u0_h4: float, k_l1: float, k_l2: float, d: int
) -> float:
    """Largest certified coupling: the map contracts for 0 < eps <= eps_max."""
    s, u = _kernel_term(d, u0_h4, rho=rho, big_m=big_m, k_l1=k_l1, k_l2=k_l2)
    return float(rho / (2.0 * big_m * u**2 * np.sqrt(s + k_l2**2 / 4.0)))


def sigma(big_m: float, u0_h4: float, k_l1: float, k_l2: float, d: int) -> float:
    """Lipschitz constant of the auxiliary map per unit coupling."""
    s, u = _kernel_term(d, u0_h4, big_m=big_m, k_l1=k_l1, k_l2=k_l2)
    return float(big_m * u * np.sqrt(4.0 ** (4.0 / d) * s + k_l2**2))


def continuity_bound(
    epsilon: float, snapshot: BoundsSnapshot, g_diff_c2: float
) -> float:
    """Upper bound on ||u1 - u2||_H4 for two nonlinearities at distance g_diff_c2."""
    if g_diff_c2 < 0:
        raise NonPositiveInput(f"g_diff_c2 must be nonnegative, got {g_diff_c2}")
    es = epsilon * snapshot.sigma
    if es >= 1.0:
        raise ContractionViolated(f"epsilon * sigma = {es} >= 1")
    k_l2 = snapshot.k_l2
    s, u = _kernel_term(snapshot.d, snapshot.u0_h4, k_l1=snapshot.k_l1, k_l2=k_l2)
    return float(epsilon / (1.0 - es) * u**2 * np.sqrt(s + k_l2**2 / 4.0) * g_diff_c2)


def make_snapshot(
    d: int,
    rho: float,
    big_m: float,
    u0_h4: float,
    k_l1: float,
    k_l2: float,
    c_e: float,
) -> BoundsSnapshot:
    """Assemble the full snapshot; c_e is embedding_constant(d), evaluated once by the caller."""
    return BoundsSnapshot(
        d=d,
        rho=rho,
        big_m=big_m,
        u0_h4=u0_h4,
        k_l1=k_l1,
        k_l2=k_l2,
        sphere_measure=sphere_measure(d),
        embedding_constant=c_e,
        epsilon_max=epsilon_max(rho, big_m, u0_h4, k_l1, k_l2, d),
        sigma=sigma(big_m, u0_h4, k_l1, k_l2, d),
    )
