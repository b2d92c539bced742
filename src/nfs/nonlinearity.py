"""Nonlinearities g with two derivatives, the certified interval, and C2 norms.

The blessed representation is a polynomial g(z) = sum_{j >= 2} a_j z^j, for
which suprema over an interval are computed exactly from the critical points
(companion-matrix roots of the next derivative). Arbitrary callables with
supplied first and second derivatives are supported through dense sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntervalExceeded, NonconformingG
from .grid import RealField, check_same_grid

ORIGIN_TOL = 1e-14
INTERVAL_SLACK = 1e-9
MIN_SAMPLES_PER_UNIT = 10_000


@dataclass(frozen=True)
class IntervalI:
    """Symmetric interval [-a, a] with a = c_e (||u0||_H4 + 1)."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower != -self.upper or not (self.upper > 0):
            raise ValueError(f"interval must be symmetric about 0: {self}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class C2Report:
    sup_g: float
    sup_g1: float
    sup_g2: float
    c2_norm: float


def _horner(asc: np.ndarray, z) -> np.ndarray:
    """Evaluate the polynomial with ascending coefficients `asc` at z, in place."""
    out = np.full(np.shape(z), asc[-1])
    for c in asc[-2::-1]:
        out *= z
        out += c
    return out


def _coeff_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = np.zeros(max(a.size, b.size))
    diff[: a.size] += a
    diff[: b.size] -= b
    return diff


class Nonlinearity:
    """g with evaluators g, g1 = g', g2 = g''; vanishing value and slope at 0.

    A polynomial keeps its coefficients (`coeffs` of z^2, z^3, ...); a
    callable g has `coeffs = None`.
    """

    def __init__(
        self,
        coeffs: Optional[Sequence[float]] = None,
        funcs: Optional[tuple[Callable, Callable, Callable]] = None,
    ):
        if (coeffs is None) == (funcs is None):
            raise ValueError("provide exactly one of coeffs or funcs")
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=np.float64)
        if self.coeffs is not None:
            if self.coeffs.size == 0 or not np.any(self.coeffs):
                raise NonconformingG("polynomial must not be identically zero")
            # full ascending coefficient arrays of g, g', g'', degrees 0..J
            self._asc = np.concatenate([[0.0, 0.0], self.coeffs])
            self._asc1 = np.polynomial.polynomial.polyder(self._asc)
            self._asc2 = np.polynomial.polynomial.polyder(self._asc, 2)
            funcs = tuple(partial(_horner, asc) for asc in (self._asc, self._asc1, self._asc2))
        self.g, self.g1, self.g2 = funcs
        for name, val in (("g(0)", self.g(0.0)), ("g'(0)", self.g1(0.0))):
            if abs(val) > ORIGIN_TOL:
                raise NonconformingG(f"{name} = {val} violates the origin condition")

    def minus(self, other: "Nonlinearity") -> "Nonlinearity":
        """Difference g - other; exact for two distinct polynomials."""
        if self.coeffs is not None and other.coeffs is not None:
            return Nonlinearity(coeffs=_coeff_diff(self.coeffs, other.coeffs))
        return Nonlinearity(
            funcs=(
                lambda z: np.asarray(self.g(z)) - np.asarray(other.g(z)),
                lambda z: np.asarray(self.g1(z)) - np.asarray(other.g1(z)),
                lambda z: np.asarray(self.g2(z)) - np.asarray(other.g2(z)),
            )
        )


def build_interval(u0_h4: float, c_e: float) -> IntervalI:
    """Certified range of pointwise values u0 + v for v in the unit-rho ball."""
    upper = c_e * u0_h4 + c_e
    return IntervalI(lower=-upper, upper=upper)


def _poly_sup(asc: np.ndarray, asc_der: np.ndarray, interval: IntervalI) -> float:
    """Exact supremum of |polynomial| over the interval via critical points."""
    candidates = [interval.lower, interval.upper]
    der = np.trim_zeros(asc_der, "b")
    if der.size > 1:
        roots = np.polynomial.polynomial.polyroots(der)
        for r in roots:
            if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)) and (
                interval.lower <= r.real <= interval.upper
            ):
                candidates.append(float(r.real))
    vals = np.polynomial.polynomial.polyval(np.asarray(candidates), asc)
    return float(np.max(np.abs(vals)))


def _sampled_sup(fn, interval: IntervalI, samples: int) -> float:
    z = np.linspace(interval.lower, interval.upper, samples)
    return float(np.max(np.abs(np.asarray(fn(z)))))


def c2_norm(g: Nonlinearity, interval: IntervalI) -> C2Report:
    """Suprema of |g|, |g'|, |g''| over the interval and their sum.

    Exact for polynomials; callables are sampled densely (an odd number of
    points, at least 1001 and 10^4 per unit length).
    """
    if g.coeffs is not None:
        asc3 = np.polynomial.polynomial.polyder(g._asc2)
        sup_g = _poly_sup(g._asc, g._asc1, interval)
        sup_g1 = _poly_sup(g._asc1, g._asc2, interval)
        sup_g2 = _poly_sup(g._asc2, asc3, interval)
    else:
        samples = max(1001, int(MIN_SAMPLES_PER_UNIT * interval.width) | 1)
        sup_g = _sampled_sup(g.g, interval, samples)
        sup_g1 = _sampled_sup(g.g1, interval, samples)
        sup_g2 = _sampled_sup(g.g2, interval, samples)
    total = sup_g + sup_g1 + sup_g2
    return C2Report(sup_g=sup_g, sup_g1=sup_g1, sup_g2=sup_g2, c2_norm=total)


def compose(
    g: Nonlinearity,
    u0: RealField,
    v: RealField,
    interval: IntervalI | None = None,
) -> RealField:
    """Pointwise G(x) = g(u0(x) + v(x)), with certified-interval enforcement.

    Values outside the interval by more than a tiny slack indicate that the
    iterate left the ball or that the embedding constant is loose; this is an
    error, never a silent clamp.
    """
    check_same_grid(u0, v)
    z = u0.values + v.values
    if interval is not None:
        lo, hi = np.min(z), np.max(z)
        if lo < interval.lower - INTERVAL_SLACK or hi > interval.upper + INTERVAL_SLACK:
            raise IntervalExceeded(
                f"pointwise range [{lo}, {hi}] exceeds certified interval "
                f"[{interval.lower}, {interval.upper}]"
            )
    return RealField(u0.spec, np.asarray(g.g(z)))


def c2_distance(g1: Nonlinearity, g2: Nonlinearity, interval: IntervalI) -> float:
    """C2 norm of g1 - g2 over the interval; 0 for equal polynomials."""
    if g1.coeffs is not None and g2.coeffs is not None:
        if not np.any(_coeff_diff(g1.coeffs, g2.coeffs)):
            return 0.0
    return c2_norm(g1.minus(g2), interval).c2_norm
