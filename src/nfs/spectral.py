"""Forward / inverse transforms on the real half spectrum, convolution, norms.

The discrete transform is calibrated to the continuum unitary convention

    F(p) = (2 pi)^(-d/2) * integral f(x) exp(-i p x) dx,

realized as the rectangle-rule quadrature (dx)^d (2 pi)^(-d/2) * DFT with a
per-axis phase (-1)^k that accounts for the box starting at -L. Fields are
real, so coeff(-k) = conj(coeff(k)) and only the half spectrum of
`scipy.fft.rfftn` is stored: every k on the first d - 1 axes and
k = 0 .. n/2 on the last. Spectral quadratures carry the dual weight
(dp)^d = (pi/L)^d and the Hermitian weight w_k, which counts a stored mode
together with its conjugate partner: 1 on the self-conjugate planes k = 0
and k = n/2 of the last axis, 2 elsewhere. Parseval then reads

    ||f||_{L2}^2 = (dp)^d * sum_k w_k |coeff(k)|^2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import fft

from .grid import GridSpec, RealField, SpectralField, check_same_grid

SHELL = 0.1  # relative thickness of the outer shell of the box
BLOCK = 1 << 16  # elements per pass of _weighted_norm; a smaller spectrum takes one pass
# An nd-FFT is threaded only from this many points up. On 2 cores, two workers
# took 0.6-0.8x the time of one at 2^20 and 2^21 points in every measurement,
# but 1.25-1.9x at 2^15 and 2^16 (contraction's 32K-point fields), and
# 0.7-1.35x at 2^18. pocketfft transforms each 1-D line the same way on any
# thread, so the results do not depend on the number of workers.
THREADED_POINTS = 1 << 20
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class HalfLattice:
    """Per-grid multipliers on the half lattice, in rfftn layout."""

    symbol: np.ndarray  # |p_k|^2 + |p_k|^4, zero mode set to 1 (callers drop it)
    hermitian: np.ndarray  # w_k along the last axis, broadcastable
    h4_weight: np.ndarray  # w_k (1 + |p_k|^8)
    to_coeffs: np.ndarray  # phase * scale: rfftn output -> calibrated coefficients
    to_dft: np.ndarray  # phase / scale: calibrated coefficients -> irfftn input


def p2(spec: GridSpec) -> np.ndarray:
    """|p_k|^2 on the half lattice, built on demand: the cached lattice does not keep it."""
    pk = spec.axis_freqs()
    return reduce(np.add.outer, [pk[:m] ** 2 for m in spec.half_shape])


@lru_cache(maxsize=4)
def half_lattice(spec: GridSpec) -> HalfLattice:
    """The grid's half-lattice arrays, built once and read-only: every caller shares them."""
    q, phase = p2(spec), reduce(np.multiply.outer, [(-1.0) ** np.arange(m) for m in spec.half_shape])
    symbol = q + q**2
    symbol[(0,) * spec.d] = 1.0
    hermitian = np.full(spec.half_shape[-1], 2.0)
    hermitian[[0, -1]] = 1.0
    scale = spec.spacing**spec.d * (2.0 * np.pi) ** (-spec.d / 2.0)
    arrays = (symbol, hermitian, hermitian * (1.0 + q**4), phase * scale, phase / scale)
    for a in arrays:
        a.flags.writeable = False
    return HalfLattice(*arrays)


def _workers(spec: GridSpec) -> int:
    """Threads for an nd-FFT on this grid: every CPU the process may use on a large grid, else 1."""
    return CPUS if spec.size >= THREADED_POINTS else 1


def dft(f: RealField) -> np.ndarray:
    """Unnormalized half-spectrum DFT of f: forward_transform without phase or scale."""
    return fft.rfftn(f.reshaped(), workers=_workers(f.spec))


def forward_transform(f: RealField) -> SpectralField:
    """Quadrature approximation of the continuum unitary Fourier transform."""
    coeffs = dft(f)
    coeffs *= half_lattice(f.spec).to_coeffs
    return SpectralField(f.spec, coeffs)


def inverse_transform(F: SpectralField) -> RealField:
    """Exact inverse of forward_transform; real by construction."""
    spec = F.spec
    values = fft.irfftn(
        F.coeffs * half_lattice(spec).to_dft, s=spec.shape, overwrite_x=True, workers=_workers(spec)
    )
    return RealField(spec, values.reshape(-1))


def convolve(k: RealField, g: RealField) -> RealField:
    """Periodic quadrature of the continuum convolution integral.

    Equals (dx)^d * sum_y k(x - y) g(y) over the grid, computed spectrally
    as the inverse transform of (2 pi)^(d/2) * khat * ghat.
    """
    check_same_grid(k, g)
    kh, gh = forward_transform(k).coeffs, forward_transform(g).coeffs
    prod = (2.0 * np.pi) ** (k.spec.d / 2.0) * kh * gh
    return inverse_transform(SpectralField(k.spec, prod))


def norm_l1(f: RealField) -> float:
    return f.spec.spacing**f.spec.d * float(np.sum(np.abs(f.values)))


def norm_l2(f: RealField) -> float:
    return float(np.sqrt(f.spec.spacing**f.spec.d * np.sum(f.values**2)))


def norm_linf(f: RealField) -> float:
    return float(np.max(np.abs(f.values)))


def _weighted_norm(F: SpectralField, weight: np.ndarray) -> float:
    """sqrt((dp)^d sum w |c|^2): imag^2 and w go in per block, and |c|^2 is summed once, unblocked."""
    coeffs = F.coeffs.reshape(-1, F.coeffs.shape[-1])
    mag2, w = np.square(coeffs.real), weight.reshape(-1, coeffs.shape[1])
    step = max(1, BLOCK // coeffs.shape[1])
    for b in (slice(i, i + step) for i in range(0, len(coeffs), step)):
        mag2[b] += np.square(coeffs[b].imag)
        mag2[b] *= w if len(w) == 1 else w[b]
    return float(np.sqrt(F.spec.freq_spacing() ** F.spec.d * np.sum(mag2)))


def norm_l2_spectral(F: SpectralField) -> float:
    """L2 norm via Parseval on the dual lattice."""
    return _weighted_norm(F, half_lattice(F.spec).hermitian)


def norm_h4(f: RealField) -> float:
    """Two-term Sobolev norm (||f||_{L2}^2 + ||lap^2 f||_{L2}^2)^(1/2).

    The bi-Laplacian part is evaluated spectrally through the |p|^8 weight.
    """
    return norm_h4_spectral(forward_transform(f))


def norm_h4_spectral(F: SpectralField) -> float:
    return _weighted_norm(F, half_lattice(F.spec).h4_weight)


def outer_shell_mass_fraction(f: RealField) -> float:
    """Fraction of the L1 mass carried by points with any |x_i| >= (1 - SHELL) L."""
    coords, edge = f.spec.axis_coords(), (1.0 - SHELL) * f.spec.half_width
    inner = slice(np.searchsorted(coords, -edge, "right"), np.searchsorted(coords, edge))  # |x_i| < edge
    mag = np.abs(f.reshaped())
    total = np.sum(mag)
    if total == 0:
        return 0.0
    mag[(inner,) * f.spec.d] = 0.0  # what is left is the shell
    return float(np.sum(mag) / total)
