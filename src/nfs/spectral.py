"""Forward / inverse transforms on the real half spectrum, convolution, norms.

The discrete transform is calibrated to the continuum unitary convention

    F(p) = (2 pi)^(-d/2) * integral f(x) exp(-i p x) dx,

realized as the rectangle-rule quadrature (dx)^d (2 pi)^(-d/2) * DFT with a
per-axis phase (-1)^k that accounts for the box starting at -L. Fields are
real, so coeff(-k) = conj(coeff(k)) and only the half spectrum of
`scipy.fft.rfftn` is stored: every k on the first d - 1 axes and
k = 0 .. n/2 on the last. A spectrum is that complex array, of the grid's
`half_shape`: functions take it after its grid and return it bare. Spectral
quadratures carry the dual weight (dp)^d = (pi/L)^d and the Hermitian weight
w_k, which counts a stored mode together with its conjugate partner: 1 on the
self-conjugate planes k = 0 and k = n/2 of the last axis, 2 elsewhere.
Parseval then reads

    ||f||_{L2}^2 = (dp)^d * sum_k w_k |coeff(k)|^2.

The phase is +-1, so a spectrum can also be held folded, as phase * coeff =
scale * DFT: the phase flips signs exactly, so every |coeff|^2, and with it every
norm, is bitwise the same, and the transforms of a folded spectrum need only the
scalar scale. The Picard loop and the ball draws work on folded spectra; the
calibrated pair is the folded pair with one multiply by the phase. Every norm forms
its terms w |coeff|^2 in one kernel (`_weighted_abs2`), sums them per block and adds
the block sums in block order. The H4 weight is the one full-size float table kept
per grid: blocked passes view every array as (n^(d-1) rows, its last axis) and form
|p|^2 on a block of rows from a row part and a last-axis part, the last step of p2's
fold, so bitwise p2's value. Where nd-FFTs are threaded, so are the blocked passes
(`_map_blocks`), with each block's serial arithmetic and order.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import fft

from .grid import GridSpec, RealField, check_same_grid

SHELL = 0.1  # relative thickness of the outer shell of the box
BLOCK = 1 << 16  # modes per block of a blocked pass: a d5n8 half spectrum (20,480 modes) takes one
# An nd-FFT is threaded only from this many points up. On 2 cores, two workers
# took 0.6-0.8x the time of one at 2^20 and 2^21 points in every measurement,
# but 1.25-1.9x at 2^15 and 2^16 (contraction's 32K-point fields), and
# 0.7-1.35x at 2^18. pocketfft transforms each 1-D line the same way on any
# thread, so the results do not depend on the number of workers.
THREADED_POINTS = 1 << 20
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_nd_ffts, _nd_ffts_lock = 0, threading.Lock()
_POOL = ThreadPoolExecutor(max(1, CPUS - 1), thread_name_prefix="nfs-blocks")  # its threads start on first use


@dataclass(frozen=True)
class HalfLattice:
    """Per-grid arrays on the half lattice, in rfftn layout."""

    hermitian: np.ndarray  # w_k along the last axis, broadcastable
    h4_weight: np.ndarray  # w_k (1 + |p_k|^8)
    phase: np.ndarray  # (-1)^(k_1 + ... + k_d) as int8: an eighth of a float table
    rows_p2: np.ndarray  # |p_k|^2 over the first d - 1 axes, one value per row of the last axis
    tile: np.ndarray  # |p_k|^2 of the last axis, one row per row of a block
    scale: float  # (dx)^d (2 pi)^(-d/2): coeff = phase * scale * DFT

    def symbol(self, rows: slice) -> np.ndarray:
        """|p_k|^2 + |p_k|^4 on a block of rows of the (rows, last axis) view; zero mode 1 (callers drop it)."""
        q = self.rows_p2[rows, None] + self.tile[: len(self.rows_p2[rows])]  # the last block may be short
        q += np.square(q)
        if rows.start == 0:
            q[0, 0] = 1.0
        return q


def p2(spec: GridSpec) -> np.ndarray:
    """|p_k|^2 on the half lattice, built on demand: the cached lattice does not keep it."""
    pk = spec.axis_freqs()
    return reduce(np.add.outer, [pk[:m] ** 2 for m in spec.half_shape])


@lru_cache(maxsize=4)
def half_lattice(spec: GridSpec) -> HalfLattice:
    """The grid's half-lattice arrays, built once and read-only: every caller shares them."""
    pk, m = spec.axis_freqs(), spec.half_shape[-1]
    rows_p2 = reduce(np.add.outer, [pk[:k] ** 2 for k in spec.half_shape[:-1]], np.zeros(1)).reshape(-1)
    tile = np.tile(pk[:m] ** 2, (min(len(rows_p2), max(1, BLOCK // m)), 1))
    phase = reduce(np.multiply.outer, [np.resize(np.int8([1, -1]), k) for k in spec.half_shape])
    hermitian = np.r_[1.0, np.full(m - 2, 2.0), 1.0]
    h4_weight = rows_p2[:, None] + tile[0]  # |p|^2, then the weight in place: no full-size temporary
    h4_weight **= 4  # q**4, not (q**2)**2: that differs in the last bit
    h4_weight += 1.0
    h4_weight *= hermitian
    arrays = (hermitian, h4_weight.reshape(spec.half_shape), phase, rows_p2, tile)
    for a in arrays:
        a.flags.writeable = False
    return HalfLattice(*arrays, scale=spec.spacing**spec.d * (2.0 * np.pi) ** (-spec.d / 2.0))


def _map_blocks(spec: GridSpec, fn, *arrays: np.ndarray | None) -> list:
    """[fn(b, *each array's block b)] over blocks of rows: each array is viewed as (n^(d-1) rows, its last axis), and
    a block is BLOCK // row length rows, 2^16 values of a field or len(tile) rows of a half spectrum. With
    w = _workers(spec) > 1, thread t takes blocks t, t + w, ... (the caller's share first, in its numpy error
    state). fn calls no public nfs function, so that a profiler wrapping those sees one thread."""
    rows = spec.size // spec.n
    views = [a if a is None else a.reshape(rows, -1) for a in arrays]
    step = max(1, BLOCK // next(a.shape[1] for a in views if a is not None))
    blocks, w = [slice(i, i + step) for i in range(0, rows, step)], _workers(spec)

    def share(t: int) -> list:
        return [fn(b, *[a if a is None else a[b] for a in views]) for b in blocks[t::w]]

    if w == 1:  # inline, at no more cost than a plain loop
        return share(0)
    futures = [_POOL.submit(contextvars.copy_context().run, share, t) for t in range(1, w)]
    try:
        shares = [share(0)]
    finally:
        wait(futures)  # no block outlives the call
    shares += [f.result() for f in futures]
    return [shares[k % w][k // w] for k in range(len(blocks))]


def _workers(spec: GridSpec) -> int:
    """Threads for an nd-FFT or a blocked pass on this grid: every CPU the process may use on a large grid, else 1."""
    return CPUS if spec.size >= THREADED_POINTS else 1


def nd_fft_count() -> int:
    """nd-FFTs this process has made so far, on every thread."""
    return _nd_ffts


def _tally() -> None:
    global _nd_ffts
    with _nd_ffts_lock:  # a bare += can lose a count between two threads
        _nd_ffts += 1


# The only nd-FFTs of the package, so that the count misses none. Both go through the
# attributes of scipy.fft, so that a profiler wrapping them there sees every call.
def _r2c(x: np.ndarray, workers: int) -> np.ndarray:
    _tally()
    return fft.rfftn(x, workers=workers)


def _c2r(x: np.ndarray, shape: tuple[int, ...], workers: int) -> np.ndarray:
    _tally()
    return fft.irfftn(x, s=shape, overwrite_x=True, workers=workers)


def dft(f: RealField) -> np.ndarray:
    """Unnormalized half-spectrum DFT of f: forward_transform without phase or scale."""
    return _r2c(f.reshaped(), _workers(f.spec))


def forward_folded(f: RealField) -> np.ndarray:
    """Folded half spectrum of f, scale * dft(f): forward_transform without the phase."""
    coeffs, scale = dft(f), half_lattice(f.spec).scale
    _map_blocks(f.spec, lambda b, c: np.multiply(c, scale, out=c), coeffs)
    return coeffs


def inverse_folded(spec: GridSpec, coeffs: np.ndarray) -> RealField:
    """The field whose folded half spectrum is `coeffs`; `coeffs` itself is left as it is."""
    scaled, s = np.empty_like(coeffs), 1.0 / half_lattice(spec).scale
    _map_blocks(spec, lambda b, c, out: np.multiply(c, s, out=out), coeffs, scaled)
    return RealField(spec, _c2r(scaled, spec.shape, _workers(spec)).reshape(-1))


def forward_transform(f: RealField) -> np.ndarray:
    """Half spectrum of f: quadrature approximation of the continuum unitary Fourier transform."""
    coeffs = forward_folded(f)
    coeffs *= half_lattice(f.spec).phase
    return coeffs


def inverse_transform(spec: GridSpec, coeffs: np.ndarray) -> RealField:
    """Exact inverse of forward_transform; real by construction."""
    return inverse_folded(spec, coeffs * half_lattice(spec).phase)


def convolve(k: RealField, g: RealField) -> RealField:
    """Periodic quadrature of the continuum convolution integral.

    Equals (dx)^d * sum_y k(x - y) g(y) over the grid, computed spectrally
    as the inverse transform of (2 pi)^(d/2) * khat * ghat.
    """
    check_same_grid(k, g)
    prod = (2.0 * np.pi) ** (k.spec.d / 2.0) * forward_transform(k) * forward_transform(g)
    return inverse_transform(k.spec, prod)


def norm_l1(f: RealField) -> float:
    return f.spec.spacing**f.spec.d * float(np.sum(np.abs(f.values)))


def norm_l2(f: RealField) -> float:
    return float(np.sqrt(f.spec.spacing**f.spec.d * np.sum(f.values**2)))


def norm_linf(f: RealField) -> float:
    return float(np.max(np.abs(f.values)))


def _weighted_abs2(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w |c|^2: the terms of every spectral norm, each formed the same way."""
    out = np.square(c.real)
    out += np.square(c.imag)
    out *= w
    return out


def _weighted_norm(spec: GridSpec, coeffs: np.ndarray, weight: np.ndarray) -> float:
    """sqrt((dp)^d sum w |c|^2): each block's terms are summed, and the block sums added in block order."""
    w = np.broadcast_to(weight, coeffs.shape)  # a view: the Hermitian row is not copied to every row
    sums = _map_blocks(spec, lambda b, c, wb: np.sum(_weighted_abs2(c, wb)), coeffs, w)
    return float(np.sqrt(spec.freq_spacing() ** spec.d * sum(sums)))


def norm_l2_spectral(spec: GridSpec, coeffs: np.ndarray) -> float:
    """L2 norm via Parseval on the dual lattice."""
    return _weighted_norm(spec, coeffs, half_lattice(spec).hermitian)


def norm_h4(f: RealField) -> float:
    """Two-term Sobolev norm (||f||_{L2}^2 + ||lap^2 f||_{L2}^2)^(1/2).

    The bi-Laplacian part is evaluated spectrally through the |p|^8 weight, on the
    folded spectrum: the phase drops out of |coeff|^2.
    """
    return norm_h4_spectral(f.spec, forward_folded(f))


def norm_h4_spectral(spec: GridSpec, coeffs: np.ndarray) -> float:
    return _weighted_norm(spec, coeffs, half_lattice(spec).h4_weight)


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
