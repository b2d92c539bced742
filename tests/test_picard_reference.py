"""The half-spectrum Picard solve pinned to a full-spectrum reference.

The reference repeats the arithmetic of a plain complex-FFT implementation
with `numpy.fft`: each step transforms g(u0 + v), convolves with the kernel
in real space, solves the linear problem through a forward and an inverse
transform, and takes the residual through full forward transforms. The
contraction sampler's draws, distances and ratios are pinned the same way, and
two tests count the nd-FFTs a solve and a contraction pair make.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfs import builders, pipeline
from nfs.fixedpoint import measure_contraction, sample_ball, solve_fixed_point
from nfs.grid import GridSpec
from nfs.nonlinearity import Nonlinearity
from nfs.spectral import norm_l2


class FullSpectrum:
    """Calibrated transform on the full lattice, as the complex-FFT code computes it."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        pk, alt = spec.axis_freqs(), (-1.0) ** np.arange(spec.n)
        self.p2, self.phase = np.zeros(spec.shape), np.ones(spec.shape)
        for axis in range(spec.d):
            shape = [1] * spec.d
            shape[axis] = spec.n
            self.p2 = self.p2 + (pk**2).reshape(shape)
            self.phase = self.phase * alt.reshape(shape)
        self.scale = spec.spacing**spec.d * (2.0 * np.pi) ** (-spec.d / 2.0)
        self.dp = spec.freq_spacing() ** spec.d
        self.zero = (0,) * spec.d

    def forward(self, values):
        c = np.fft.fftn(values.reshape(self.spec.shape))
        c *= self.phase
        c *= self.scale
        return c

    def inverse(self, c):
        return np.fft.ifftn(c * (self.phase / self.scale)).real.reshape(-1)

    def convolve(self, kh, values):
        prod = (2.0 * np.pi) ** (self.spec.d / 2.0) * kh * self.forward(values)
        return self.inverse(prod)

    def solve(self, values):
        """Mean-projected linear solve; returns the solution and its spectrum."""
        denom = self.p2 + self.p2**2
        denom[self.zero] = 1.0
        c = self.forward(values) / denom
        c[self.zero] = 0.0
        return self.inverse(c), c

    def h4(self, c):
        return float(np.sqrt(self.dp * np.sum((1.0 + self.p2**4) * np.abs(c) ** 2)))

    def residual(self, ps, kh, u):
        uh = self.forward(u)
        rhs = ps.source.values + ps.epsilon * self.convolve(kh, ps.g.g(u))
        res = self.forward(rhs) - (uh * self.p2 + uh * self.p2**2)
        res[self.zero] = 0.0
        return float(np.sqrt(self.dp * np.sum(np.abs(res) ** 2)))

    def apply_tg(self, ps, kh, u0, v):
        return self.solve(ps.epsilon * self.convolve(kh, ps.g.g(u0 + v)))


def reference_solve(ps):
    fs = FullSpectrum(ps.grid)
    kh = fs.forward(ps.kernel.values)
    u0, _ = fs.solve(ps.source.values)
    v, vh = np.zeros(ps.grid.size), np.zeros(ps.grid.shape, dtype=complex)
    iterate_h4, step_h4, residual = [], [], []
    for _ in range(ps.max_iter):
        v_next, vh_next = fs.apply_tg(ps, kh, u0, v)
        step_h4.append(fs.h4(vh_next - vh))
        iterate_h4.append(fs.h4(vh_next))
        residual.append(fs.residual(ps, kh, u0 + v_next))
        v, vh = v_next, vh_next
        if step_h4[-1] <= ps.tol_fp * max(1.0, iterate_h4[-1]):
            return u0 + v, iterate_h4, step_h4, residual
    raise AssertionError("reference did not converge")


def scenario(d):
    gs = GridSpec(d, 8, 4.0 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 1.0, 1.0)
    source = builders.build_gaussian_diff_source(gs)
    return pipeline.assemble_problem(gs, kernel, source, Nonlinearity(coeffs=[1.0])).ps


@pytest.mark.parametrize("d", [5, 7])
def test_solve_matches_full_spectrum_reference(d):
    ps = scenario(d)
    rep = solve_fixed_point(ps)
    u_ref, iterate_ref, step_ref, residual_ref = reference_solve(ps)
    tr = rep.trace
    assert len(tr.step_h4) == len(step_ref)
    np.testing.assert_allclose(tr.iterate_h4, iterate_ref, rtol=1e-12, atol=0)
    for step, want, h4 in zip(tr.step_h4, step_ref, iterate_ref):
        assert abs(step - want) <= 1e-12 * h4
    assert np.max(np.abs(rep.u.values - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    f_scale = max(1.0, norm_l2(ps.source))
    assert tr.residual[-1] <= 1e-8 * f_scale
    np.testing.assert_allclose(tr.residual, residual_ref, rtol=0, atol=1e-12 * f_scale)


@settings(max_examples=8, deadline=None)
@given(
    d=st.sampled_from([5, 6]),
    sigma=st.floats(0.8, 1.2),
    coeffs=st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=1, max_size=3),
    eps_scale=st.sampled_from([1.0, 0.5, 0.0]),
)
def test_any_problem_matches_full_spectrum_reference(d, sigma, coeffs, eps_scale):
    """Kernel width, polynomial and coupling drawn at random: eps = auto, auto / 2 and 0."""
    gs = GridSpec(d, 8, 4.0 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, sigma, 1.0)
    source = builders.build_gaussian_diff_source(gs)
    ps = pipeline.assemble_problem(gs, kernel, source, Nonlinearity(coeffs=coeffs)).ps
    ps = dataclasses.replace(ps, epsilon=eps_scale * ps.epsilon)
    rep = solve_fixed_point(ps)
    u_ref, iterate_ref, step_ref, residual_ref = reference_solve(ps)
    tr = rep.trace
    assert len(tr.step_h4) == len(step_ref)
    np.testing.assert_allclose(tr.iterate_h4, iterate_ref, rtol=1e-12, atol=0)
    for step, want, h4 in zip(tr.step_h4, step_ref, iterate_ref):
        assert abs(step - want) <= 1e-12 * h4
    assert np.max(np.abs(rep.u.values - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    f_scale = max(1.0, norm_l2(ps.source))
    np.testing.assert_allclose(tr.residual, residual_ref, rtol=0, atol=1e-12 * f_scale)


def reference_draw(fs, rho, rng):
    """A ball draw from n^d normals, Hermitian-extended on the full lattice and transformed in full.

    The normals are taken in the documented order, each damped by w = 0.5 / (1 + |p|^4): two per mode with
    0 < k_last < n/2 (sqrt(2) N w real and imaginary parts), then two per conjugate pair of the planes
    k_last = 0 and n/2 (the same, pair by pair over both planes, its partner the conjugate), then one per
    self-conjugate mode (2 N w). The field is rescaled to an H4 norm uniform in (0, rho].
    """
    n, d = fs.spec.n, fs.spec.d
    m, rows = n // 2 + 1, n ** (d - 1)
    x = rng.standard_normal(fs.spec.size)
    half = np.zeros((rows, m), dtype=complex)
    k = rows * (n - 2)
    half[:, 1:-1] = np.sqrt(2.0) * (x[0:k:2] + 1j * x[1:k:2]).reshape(rows, m - 2)
    mirror = np.ravel_multi_index(tuple((-np.indices((n,) * (d - 1)).reshape(d - 1, -1)) % n), (n,) * (d - 1))
    reps, selfs = np.flatnonzero(np.arange(rows) < mirror), np.flatnonzero(np.arange(rows) == mirror)
    pairs = np.sqrt(2.0) * (x[k : k + 4 * len(reps) : 2] + 1j * x[k + 1 : k + 4 * len(reps) : 2]).reshape(-1, 2)
    ends = 2.0 * x[k + 4 * len(reps) :].reshape(-1, 2)
    for plane, col in ((0, 0), (1, m - 1)):
        half[reps, col] = pairs[:, plane]
        half[mirror[reps], col] = np.conj(pairs[:, plane])
        half[selfs, col] = ends[:, plane]
    half = half.reshape(fs.spec.shape[:-1] + (m,)) * (0.5 / (1.0 + fs.p2[..., :m] ** 2))
    rev = half
    for axis in range(d - 1):
        rev = np.roll(np.flip(rev, axis=axis), 1, axis=axis)
    full = np.concatenate([half, np.conj(rev[..., m - 2 : 0 : -1])], axis=-1)
    f = fs.inverse(full)
    target = rho * (1.0 - rng.uniform(0.0, 1.0))
    return f * (target / fs.h4(fs.forward(f)))


def reference_pairs(ps, u0, trials, seed):
    """Lipschitz ratios and H4 distances on pairs drawn as the full-spectrum sampler draws them."""
    fs = FullSpectrum(ps.grid)
    kh = fs.forward(ps.kernel.values)
    rng = np.random.default_rng(seed)
    ratios, distances = [], []
    while len(ratios) < trials:
        v1, v2 = reference_draw(fs, ps.rho, rng), reference_draw(fs, ps.rho, rng)
        dist = fs.h4(fs.forward(v1 - v2))
        if dist < 1e-14:
            continue
        _, t1 = fs.apply_tg(ps, kh, u0, v1)
        _, t2 = fs.apply_tg(ps, kh, u0, v2)
        ratios.append(fs.h4(t1 - t2) / dist)
        distances.append(dist)
    return ratios, distances


def test_contraction_ratios_match_full_spectrum_reference(standard_scenario):
    ps, u0 = standard_scenario.ps, standard_scenario.u0
    stats = measure_contraction(ps, trials=20, seed=42, u0=u0)
    want, _ = reference_pairs(ps, u0.values, trials=20, seed=42)
    np.testing.assert_allclose(stats.ratios, want, rtol=1e-12, atol=0)


def test_contraction_distances_match_full_spectrum_reference(standard_scenario):
    ps, u0 = standard_scenario.ps, standard_scenario.u0
    stats = measure_contraction(ps, trials=20, seed=42, u0=u0)
    _, want = reference_pairs(ps, u0.values, trials=20, seed=42)
    np.testing.assert_allclose(stats.distances, want, rtol=1e-12, atol=0)


def test_sample_ball_matches_reference_draw(standard_scenario):
    """Same RNG stream, same field: several draws in a row stay aligned."""
    ps = standard_scenario.ps
    fs = FullSpectrum(ps.grid)
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(4):
        got = sample_ball(ps.grid, ps.rho, rng).values
        want = reference_draw(fs, ps.rho, rng_ref)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fft_count_per_step(structural_counts):
    """2 nd-FFTs per Picard step, 2 for the u0 solve and 1 for the last residual (conftest's COUNTS)."""
    got, want = structural_counts.per_solve("nd_fft")
    assert structural_counts.steps >= 3 and got == want


def test_fft_count_per_contraction_pair(structural_counts):
    """3 nd-FFTs per measured pair: one inverse per draw, one forward of the difference.
    The draws, made ahead on a second thread, make none."""
    got, want = structural_counts.per_pairs("nd_fft")
    assert got == want
