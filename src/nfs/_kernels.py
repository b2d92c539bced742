"""Hot inner loops with a numba fast path and a pure-numpy fallback.

The fallback is selected by setting the environment variable
``NFS_DISABLE_NUMBA=1`` before import; ``benchmarks/bench_kernels.py``
times both paths. Both paths evaluate the same arithmetic (Horner for
polynomials) so results agree to the last ulp per element.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("NFS_DISABLE_NUMBA", "0") != "1"

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(func=None, **kwargs):
        if func is not None:
            return func

        def wrapper(f):
            return f

        return wrapper


@njit(cache=True)
def _poly_eval_jit(coeffs, x, out):
    # coeffs in descending degree order, Horner scheme
    m = coeffs.shape[0]
    for i in range(x.shape[0]):
        acc = coeffs[0]
        for j in range(1, m):
            acc = acc * x[i] + coeffs[j]
        out[i] = acc


def _poly_eval_np(coeffs, x, out):
    out[:] = coeffs[0]
    for c in coeffs[1:]:
        out *= x
        out += c


@njit(cache=True)
def _wrapped_sq_dist_jit(d, n, dx, half_width, center, out):
    # squared periodic distance from `center` for every point of the
    # row-major grid [-L, L)^d, flattened
    total = out.shape[0]
    period = 2.0 * half_width
    # per-axis tables of wrapped squared offsets, summed in forward axis
    # order so both code paths round identically
    wsq = np.empty((d, n))
    for axis in range(d):
        for j in range(n):
            w = (-half_width + j * dx) - center[axis]
            w = w - period * np.floor((w + half_width) / period)
            wsq[axis, j] = w * w
    idx = np.zeros(d, dtype=np.int64)
    for flat in range(total):
        acc = 0.0
        for axis in range(d):
            acc += wsq[axis, idx[axis]]
        out[flat] = acc
        for axis in range(d - 1, -1, -1):  # row-major odometer
            idx[axis] += 1
            if idx[axis] < n:
                break
            idx[axis] = 0


def _wrapped_sq_dist_np(d, n, dx, half_width, center, out):
    period = 2.0 * half_width
    coords = -half_width + dx * np.arange(n)
    acc = np.zeros((n,) * d)
    for axis in range(d):
        w = coords - center[axis]
        w = w - period * np.floor((w + half_width) / period)
        shape = [1] * d
        shape[axis] = n
        acc = acc + (w * w).reshape(shape)
    out[:] = acc.reshape(-1)


def poly_eval(coeffs_desc, x):
    """Evaluate a polynomial (descending coefficients) at the points of `x`."""
    coeffs = np.ascontiguousarray(coeffs_desc, dtype=np.float64)
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    if coeffs.size == 0:
        out[:] = 0.0
    elif NUMBA_ENABLED:
        _poly_eval_jit(coeffs, flat, out)
    else:
        _poly_eval_np(coeffs, flat, out)
    return out.reshape(np.shape(x))


def wrapped_sq_dist(d, n, dx, half_width, center):
    """Squared periodic distance field |x - c|^2 on the flat row-major grid."""
    c = np.ascontiguousarray(center, dtype=np.float64)
    out = np.empty(n**d)
    if NUMBA_ENABLED:
        _wrapped_sq_dist_jit(d, n, dx, half_width, c, out)
    else:
        _wrapped_sq_dist_np(d, n, dx, half_width, c, out)
    return out
