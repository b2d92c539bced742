"""Fixed-point iteration: trivial cases, an independent small-dimension
oracle, geometric decay, sampled Lipschitz ratios, and sensitivity to the
nonlinearity."""

import dataclasses
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import nfs
from nfs import builders, fixedpoint, linear, pipeline, spectral
from nfs.fixedpoint import (
    ProblemSpec,
    apply_tg,
    continuity_experiment,
    measure_contraction,
    residual,
    sample_ball,
    sample_ball_spectrum,
    solve_fixed_point,
)
from nfs.grid import GridSpec, RealField, zeros_like
from nfs.linear import solve_linear, solve_linear_full
from nfs.errors import (AssumptionError, ConfigError, GridMismatch, IntervalExceeded, NonPositiveInput,
                        OutsideBall, TrivialField)
from nfs.nonlinearity import IntervalI, Nonlinearity
from nfs.spectral import norm_h4, norm_l2


def small_problem(epsilon: float, g=None) -> ProblemSpec:
    """d = 2 instance, no certification snapshot: exercises raw mechanics."""
    gs = GridSpec(2, 8, 2 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 0.7, 1.0)
    source = builders.build_gaussian_diff_source(
        gs, centers=(1.0, -1.0), widths=(0.8, 0.8)
    )
    if g is None:
        g = Nonlinearity(coeffs=[1.0])
    return ProblemSpec(grid=gs, kernel=kernel, source=source, g=g, epsilon=epsilon)


def _problem_spec(**changes) -> ProblemSpec:
    ps = small_problem(0.5)
    args = dict(grid=ps.grid, kernel=ps.kernel, source=ps.source, g=ps.g, epsilon=ps.epsilon)
    return ProblemSpec(**{**args, **changes})


def _contraction(trials, seed):
    ps = small_problem(0.5)
    return measure_contraction(ps, trials, seed, solve_linear(ps.source))


def _continuity(**changes):
    ps = small_problem(0.5)
    return continuity_experiment(ps, dataclasses.replace(ps, **changes))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: _problem_spec(grid=GridSpec(2, 16, 2 * np.pi)), GridMismatch, "differs from problem grid"),
        (lambda: _problem_spec(rho=1.5), ConfigError, r"^run\.rho must lie in \(0, 1\], got 1.5$"),
        (lambda: _problem_spec(epsilon=-1.0), ConfigError, r"^run\.epsilon must be nonnegative, got -1.0$"),
        (lambda: _contraction(0, 1), ConfigError, r"^run\.trials must be >= 1, got 0$"),
        (lambda: _contraction(3, -1), ConfigError, r"^run\.seed must be nonnegative, got -1$"),
        (lambda: _problem_spec(source=zeros_like(GridSpec(2, 8, 2 * np.pi))), TrivialField, "nontrivial"),
        (lambda: IntervalI(-1.0, 2.0), AssumptionError, "symmetric about 0"),
        (lambda: _continuity(epsilon=0.25), AssumptionError, "shared epsilon"),
        (lambda: _continuity(), AssumptionError, "bounds snapshot"),
    ],
    ids=["kernel-grid", "rho", "epsilon", "no-trials", "negative-seed", "trivial-source", "asymmetric-interval",
         "unshared-epsilon", "no-snapshot"],
)
def test_bad_arguments_raise_package_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


class TestApplyTg:
    def test_zero_epsilon_maps_to_zero(self):
        ps = small_problem(0.0)
        v = sample_ball(ps.grid, ps.rho, np.random.default_rng(0))
        out = apply_tg(v, ps, zeros_like(ps.grid))
        assert not np.any(out.values)

    def test_zero_input_zero_background(self):
        # g(0) = 0, so t_g(0) with u0 = 0 must vanish for any epsilon
        ps = small_problem(0.5)
        z = zeros_like(ps.grid)
        out = apply_tg(z, ps, z)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_matches_manual_chain(self):
        ps = small_problem(0.3)
        rng = np.random.default_rng(7)
        u0 = sample_ball(ps.grid, 0.5, rng)
        v = sample_ball(ps.grid, ps.rho, rng)
        out = apply_tg(v, ps, u0)
        gu = RealField(ps.grid, ps.g.g(u0.values + v.values))
        conv = spectral.convolve(ps.kernel, gu)
        rhs = RealField(ps.grid, ps.epsilon * conv.values)
        sol = solve_linear_full(spectral.forward_transform(rhs), project=True)
        want = spectral.inverse_transform(sol)
        assert np.max(np.abs(out.values - want.values)) < 1e-13

    def test_certified_self_map(self, standard_scenario):
        ps = standard_scenario.ps
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = sample_ball(ps.grid, ps.rho, rng)
            out = apply_tg(v, ps, standard_scenario.u0)
            assert norm_h4(out) <= ps.rho


class TestSolveFixedPoint:
    def test_zero_epsilon_returns_linear_solution(self):
        ps = small_problem(0.0)
        rep = solve_fixed_point(ps)
        assert rep.trace.step_h4 == [0.0]
        assert not np.any(rep.u_p.values)
        assert np.array_equal(rep.u.values, rep.u0.values)

    def test_standard_converges_certified(self, standard_scenario):
        ps = standard_scenario.ps
        tr = solve_fixed_point(ps).trace
        assert tr.step_h4[-1] <= ps.tol_fp * max(1.0, tr.iterate_h4[-1])
        assert ps.certified

    def test_geometric_decay_within_bound(self, standard_scenario):
        ps = standard_scenario.ps
        rep = solve_fixed_point(ps)
        bound = ps.epsilon * standard_scenario.snapshot.sigma
        assert bound < 1.0
        ratios = [r for r in rep.trace.ratio if np.isfinite(r) and r > 0]
        assert ratios, "expected at least one measurable contraction step"
        assert max(ratios) <= bound * 1.05

    def test_final_residual_small(self, standard_scenario):
        ps = standard_scenario.ps
        rep = solve_fixed_point(ps)
        tol = 1e-8 * max(1.0, norm_l2(ps.source))
        assert rep.trace.residual[-1] <= tol
        assert residual(rep.u, ps) <= tol

    def test_start_independence(self, standard_scenario):
        ps = standard_scenario.ps
        r1 = solve_fixed_point(ps)
        v_start = sample_ball(ps.grid, ps.rho, np.random.default_rng(12))
        r2 = solve_fixed_point(ps, v_start=v_start)
        diff = norm_h4(RealField(ps.grid, r1.u.values - r2.u.values))
        assert diff < 1e-8

    def test_transform_and_linear_solve_counts(self, standard_scenario, monkeypatch):
        # 2 nd-FFTs per step, 2 for u0 and 1 for the last residual; 1 linear solve per step and 1 for u0
        # (inside linear.solve_linear); 1 checked composition per step and 1 for the last residual
        calls = {"fft": 0, "solve": 0, "compose": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(scipy.fft, name, counted(getattr(scipy.fft, name), "fft"))
        for module in (fixedpoint, linear):
            monkeypatch.setattr(module, "solve_linear_full", counted(solve_linear_full, "solve"))
        monkeypatch.setattr(fixedpoint, "compose", counted(fixedpoint.compose, "compose"))
        k = len(solve_fixed_point(standard_scenario.ps).trace.step_h4)
        assert (calls["fft"], calls["solve"]) == (2 * k + 3, k + 1)
        assert calls["compose"] == k + 1

    def test_last_iterate_is_ball_checked(self, standard_scenario):
        # stop after 3 steps, with rho between ||v_2||_H4 and ||v_3||_H4: only the returned v_3 leaves the ball
        tr = solve_fixed_point(standard_scenario.ps).trace
        tol_fp = float(np.sqrt(tr.step_h4[1] * tr.step_h4[2]))
        rho = 0.5 * (tr.iterate_h4[1] + tr.iterate_h4[2])
        assert tr.iterate_h4[1] < rho < tr.iterate_h4[2]
        ps = dataclasses.replace(standard_scenario.ps, tol_fp=tol_fp, rho=rho)
        with pytest.raises(OutsideBall, match=f"exceeds rho = {rho}"):
            solve_fixed_point(ps)

    def test_working_set(self, standard_scenario):
        ps = standard_scenario.ps
        solve_fixed_point(ps)  # the half lattice and the FFT plans are built outside the window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_fixed_point(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (8 * ps.grid.size) <= 7.0  # real fields alive at the peak

    def test_smaller_epsilon_smaller_correction(self, standard_scenario):
        ps = standard_scenario.ps
        big = solve_fixed_point(ps)
        small = solve_fixed_point(dataclasses.replace(ps, epsilon=ps.epsilon / 4))
        assert norm_h4(small.u_p) < norm_h4(big.u_p)
        assert norm_h4(small.u_p) == pytest.approx(norm_h4(big.u_p) / 4, rel=0.05)


class TestAssembleProblem:
    def test_three_transforms(self, standard_scenario, monkeypatch):
        # rfftn of f and of K, irfftn of u0^; ||u0||_H4 is read off u0^, not re-transformed
        ps, calls = standard_scenario.ps, []
        for name in ("rfftn", "irfftn"):
            fn = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        ap = pipeline.assemble_problem(ps.grid, ps.kernel, ps.source, ps.g)
        assert len(calls) == 3
        assert ap.snapshot.u0_h4 == pytest.approx(norm_h4(ap.u0), rel=1e-14)

    def test_overflowing_source_names_u0_h4(self, standard_scenario):
        ps = standard_scenario.ps
        huge = RealField(ps.grid, 1e300 * ps.source.values / np.max(np.abs(ps.source.values)))
        with np.errstate(over="ignore"), pytest.raises(NonPositiveInput, match="u0_h4 must be finite"):
            pipeline.assemble_problem(ps.grid, ps.kernel, huge, ps.g)


class TestResidual:
    def test_zero_field_residual_is_source_norm(self):
        ps = small_problem(0.0)
        u = zeros_like(ps.grid)
        # the source is mean-free, so projecting the zero mode changes nothing
        assert residual(u, ps) == pytest.approx(norm_l2(ps.source), rel=1e-10)

    def test_linear_solution_annihilates(self):
        ps = small_problem(0.0)
        rep = solve_fixed_point(ps)
        assert residual(rep.u, ps) < 1e-10 * norm_l2(ps.source)


class TestSampleBall:
    def test_norm_in_range(self):
        gs = GridSpec(3, 8, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = sample_ball(gs, 0.8, rng)
            h4 = norm_h4(v)
            assert 0.0 < h4 <= 0.8 * (1 + 1e-12)

    def test_seed_reproducible(self):
        gs = GridSpec(2, 16, 1.0)
        v1 = sample_ball(gs, 1.0, np.random.default_rng(42))
        v2 = sample_ball(gs, 1.0, np.random.default_rng(42))
        assert np.array_equal(v1.values, v2.values)

    def test_spectrum_is_the_drawn_field(self):
        gs = GridSpec(3, 8, 1.0)
        vh = sample_ball_spectrum(gs, 0.7, np.random.default_rng(3))
        v = sample_ball(gs, 0.7, np.random.default_rng(3))
        assert np.array_equal(spectral.inverse_transform(vh).values, v.values)
        assert 0.0 < spectral.norm_h4_spectral(vh) <= 0.7 * (1 + 1e-12)


class TestMeasureContraction:
    def test_zero_epsilon_all_zero(self):
        ps = small_problem(0.0)
        stats = measure_contraction(ps, trials=3, seed=1, u0=solve_linear(ps.source))
        assert stats.ratios == [0.0, 0.0, 0.0]
        assert stats.bound is None

    def test_certified_bound_holds(self, standard_scenario):
        ps = standard_scenario.ps
        stats = measure_contraction(ps, trials=8, seed=2, u0=standard_scenario.u0)
        assert stats.bound == pytest.approx(
            ps.epsilon * standard_scenario.snapshot.sigma, rel=1e-15
        )
        assert stats.max_ratio <= stats.bound * 1.05
        assert 0.0 < stats.mean_ratio <= stats.max_ratio

    def test_seed_reproducible(self, standard_scenario):
        ps = standard_scenario.ps
        s1 = measure_contraction(ps, trials=3, seed=9, u0=standard_scenario.u0)
        s2 = measure_contraction(ps, trials=3, seed=9, u0=standard_scenario.u0)
        assert s1.ratios == s2.ratios

    def test_interval_check_kept(self, standard_scenario):
        ps = dataclasses.replace(standard_scenario.ps, interval=IntervalI(-1e-3, 1e-3))
        with pytest.raises(IntervalExceeded):
            measure_contraction(ps, trials=2, seed=1, u0=standard_scenario.u0)

    def test_equal_compositions_give_zero_ratio(self, standard_scenario):
        g = Nonlinearity(coeffs=[1.0])
        g.g = np.zeros_like  # both compositions vanish, so the solve meets an all-zero spectrum
        ps = dataclasses.replace(standard_scenario.ps, g=g)
        stats = measure_contraction(ps, trials=3, seed=4, u0=standard_scenario.u0)
        assert stats.ratios == [0.0, 0.0, 0.0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the mmap and trim thresholds are glibc's")
    def test_pairs_reuse_the_heap(self):
        """200 pairs at d5n8 in a fresh process fault in a few hundred pages. Without the block
        measure_contraction frees first, each pair's ~1.9 MB of temporaries is mapped, faulted
        in and unmapped again: about 53,000 minor faults."""
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from nfs import builders, pipeline
            from nfs.fixedpoint import measure_contraction
            from nfs.grid import GridSpec
            from nfs.nonlinearity import Nonlinearity
            gs = GridSpec(5, 8, 4.0 * np.pi)
            kernel, source = builders.build_gaussian_kernel(gs, 1.0, 1.0), builders.build_gaussian_diff_source(gs)
            ap = pipeline.assemble_problem(gs, kernel, source, Nonlinearity(coeffs=[1.0]))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            measure_contraction(ap.ps, 200, 3, ap.u0)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(nfs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 5000


@pytest.fixture(scope="module")
def pair():
    gs = GridSpec(5, 8, 4.0 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 1.0, 1.0)
    source = builders.build_gaussian_diff_source(gs)
    g1 = Nonlinearity(coeffs=[1.0])
    g2 = Nonlinearity(coeffs=[1.0, 0.1])  # z^2 + 0.1 z^3
    ap = pipeline.assemble_problem(gs, kernel, source, g1, g_other=g2)
    ps2 = dataclasses.replace(ap.ps, g=g2)
    return ap.ps, ps2


class TestContinuity:
    def test_identical_g_trivial(self, pair):
        ps1, _ = pair
        rep = continuity_experiment(ps1, dataclasses.replace(ps1))
        assert rep.g_distance == 0.0
        assert rep.measured == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict

    def test_perturbed_g_within_bound(self, pair):
        ps1, ps2 = pair
        rep = continuity_experiment(ps1, ps2)
        assert rep.g_distance > 0.0
        assert rep.measured > 0.0
        assert rep.verdict
        assert rep.measured <= rep.bound * 1.05

    def test_bound_linear_in_g_distance(self, pair):
        ps1, ps2 = pair
        g_half = Nonlinearity(coeffs=[1.0, 0.05])
        ps_half = dataclasses.replace(ps1, g=g_half)
        full = continuity_experiment(ps1, ps2)
        half = continuity_experiment(ps1, ps_half)
        assert half.g_distance == pytest.approx(full.g_distance / 2, rel=1e-12)
        assert half.bound == pytest.approx(full.bound / 2, rel=1e-12)
        assert half.verdict
