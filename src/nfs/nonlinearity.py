"""Polynomial nonlinearities g, the certified interval, and C2 norms.

g(z) = sum_{j >= 2} a_j z^j, so g(0) = g'(0) = 0 holds by construction. Its
suprema over an interval are computed exactly from the critical points
(companion-matrix roots of the next derivative).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polysub

from . import spectral
from .errors import AssumptionError, IntervalExceeded, NFSError, NonconformingG
from .grid import RealField, _count, _made, check_same_grid

INTERVAL_SLACK = 1e-9


@dataclass(frozen=True)
class IntervalI:
    """Symmetric interval [-a, a] with a = c_e (||u0||_H4 + 1)."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower != -self.upper or not (self.upper > 0):
            raise AssumptionError(f"interval must be symmetric about 0: {self}")


@dataclass(frozen=True)
class C2Report:
    sup_g: float
    sup_g1: float
    sup_g2: float
    c2_norm: float


def _horner(asc: np.ndarray, z, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the polynomial with ascending coefficients `asc` at z, in place after z * a_J: in `out`, if given,
    which must not be z."""
    if len(asc) == 1:
        out = np.empty(np.shape(z)) if out is None else out
        out[...] = asc[0]
        return out
    out = np.multiply(z, asc[-1], out=out)
    for i, c in enumerate(asc[-2::-1]):
        if i:
            out *= z
        if c:  # an exact zero is skipped: only the sign of a zero result can differ
            out += c
    return out


class Nonlinearity:
    """g with evaluators g, g1 = g', g2 = g''; `coeffs` are those of z^2, z^3, ..."""

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if self.coeffs.size == 0 or not np.any(self.coeffs):
            raise NonconformingG("polynomial must not be identically zero")
        # full ascending coefficient arrays of g, g', g'', degrees 0..J
        self._asc = np.concatenate([[0.0, 0.0], self.coeffs])
        with np.errstate(over="ignore"):  # an overflow is refused below, by name
            self._asc1 = np.polynomial.polynomial.polyder(self._asc)
            self._asc2 = np.polynomial.polynomial.polyder(self._asc, 2)
        for name, asc in (("g", self._asc), ("g'", self._asc1), ("g''", self._asc2)):
            if not np.all(np.isfinite(asc)):
                raise NonconformingG(f"{name} has non-finite polynomial coefficients")
        self.g, self.g1, self.g2 = (partial(_horner, asc) for asc in (self._asc, self._asc1, self._asc2))


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


def c2_norm(g: Nonlinearity, interval: IntervalI) -> C2Report:
    """Exact suprema of |g|, |g'|, |g''| over the interval and their sum."""
    asc3 = np.polynomial.polynomial.polyder(g._asc2)
    sup_g = _poly_sup(g._asc, g._asc1, interval)
    sup_g1 = _poly_sup(g._asc1, g._asc2, interval)
    sup_g2 = _poly_sup(g._asc2, asc3, interval)
    return C2Report(sup_g=sup_g, sup_g1=sup_g1, sup_g2=sup_g2, c2_norm=sup_g + sup_g1 + sup_g2)


def compose(g: Nonlinearity, u0: RealField, v: RealField, interval: IntervalI | None = None) -> RealField:
    """Pointwise G(x) = g(u0(x) + v(x)), with certified-interval enforcement.

    Values outside the interval by more than a tiny slack indicate that the
    iterate left the ball or that the embedding constant is loose; this is an
    error, never a silent clamp. One blocked sweep forms u0 + v in a block temporary, takes
    its range, then writes g of it into a block of G, a new buffer (held in the iterate's,
    it raised the loop's peak RSS). It owns the loop's finiteness: the interval refuses a
    NaN or inf in u0 + v, and |g| <= M < inf on it; without an interval, G is tested.
    """
    check_same_grid(u0, v)
    _count("compose")

    def block(b: slice, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> tuple:
        z = np.add(x, y)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below by name
            g.g(z, out=out)
        return z.min(), z.max(), interval is not None or np.isfinite(out).all()

    G = np.empty_like(v.values)
    parts = spectral._map_blocks(u0.spec, block, u0.values, v.values, G)
    if interval is not None:
        lo, hi = np.minimum.reduce([r[0] for r in parts]), np.maximum.reduce([r[1] for r in parts])  # NaN stays
        if np.isnan(lo) or np.isnan(hi):
            raise NFSError(f"pointwise range [{lo}, {hi}] of u0 + v is not a number")
        if lo < interval.lower - INTERVAL_SLACK or hi > interval.upper + INTERVAL_SLACK:
            raise IntervalExceeded(f"pointwise range [{lo}, {hi}] exceeds certified interval "
                                   f"[{interval.lower}, {interval.upper}]")
    elif not all(r[2] for r in parts):
        raise NFSError("g(u0 + v) has non-finite values")
    return _made(u0.spec, G)


def c2_distance(g1: Nonlinearity, g2: Nonlinearity, interval: IntervalI) -> float:
    """C2 norm of g1 - g2 over the interval; 0 for equal polynomials."""
    diff = polysub(g1.coeffs, g2.coeffs)
    return c2_norm(Nonlinearity(diff), interval).c2_norm if np.any(diff) else 0.0
