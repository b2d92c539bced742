"""Fixed-point iteration: trivial cases, an independent small-dimension
oracle, geometric decay, sampled Lipschitz ratios, and sensitivity to the
nonlinearity."""

import dataclasses
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

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
from nfs.errors import (AssumptionError, ConfigError, DegeneratePair, GridMismatch, IntervalExceeded,
                        NonPositiveInput, OutsideBall, TrivialField)
from nfs.bounds import epsilon_max
from nfs.nonlinearity import IntervalI, Nonlinearity, build_interval, compose
from nfs.spectral import norm_h4, norm_h4_spectral, norm_l2


def small_problem(epsilon: float, g=None) -> ProblemSpec:
    """d = 2 instance, no certification snapshot: exercises raw mechanics."""
    gs = GridSpec(2, 8, 2 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 0.7, 1.0)
    source = builders.build_gaussian_diff_source(
        gs, centers=(1.0, -1.0), widths=(0.8, 0.8)
    )
    if g is None:
        g = Nonlinearity(coeffs=[1.0])
    return ProblemSpec(kernel=kernel, source=source, g=g, epsilon=epsilon)


def _mode_classes(gs: GridSpec) -> tuple[np.ndarray, ...]:
    """Masks of the half lattice: modes with 0 < k_last < n/2, modes of a conjugate pair on the planes k_last = 0
    and n/2, and self-conjugate modes (every k_i 0 or n/2)."""
    k = np.indices(gs.half_shape)
    on_plane = (k[-1] == 0) | (k[-1] == gs.n // 2)
    self_conj = on_plane & np.all((k[:-1] == 0) | (k[:-1] == gs.n // 2), axis=0)
    return ~on_plane, on_plane & ~self_conj, self_conj


def _problem_spec(**changes) -> ProblemSpec:
    ps = small_problem(0.5)
    args = dict(kernel=ps.kernel, source=ps.source, g=ps.g, epsilon=ps.epsilon)
    return ProblemSpec(**{**args, **changes})


def _with_interval(ps: ProblemSpec, upper: float) -> ProblemSpec:
    """ps with its snapshot's embedding constant set so that its interval is [-upper, upper], up to rounding."""
    b = ps.bounds
    return dataclasses.replace(ps, bounds=dataclasses.replace(b, embedding_constant=upper / (b.u0_h4 + 1.0)))


def _contraction(trials, seed):
    ps = small_problem(0.5)
    return measure_contraction(ps, trials, seed, solve_linear(ps.source))


def _continuity(**changes):
    ps = small_problem(0.5)
    return continuity_experiment(ps, dataclasses.replace(ps, **changes))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: _problem_spec(rho=1.5), ConfigError, r"^run\.rho must lie in \(0, 1\], got 1.5$"),
        (lambda: _problem_spec(epsilon=-1.0), ConfigError, r"^run\.epsilon must be finite and nonnegative, got -1.0$"),
        (lambda: _problem_spec(epsilon=np.inf), ConfigError, r"^run\.epsilon must be finite and nonnegative, got inf$"),
        (lambda: _problem_spec(tol_fp=np.nan), ConfigError, r"^run\.tol_fp must be positive, got nan$"),
        (lambda: _problem_spec(max_iter=0), ConfigError, r"^run\.max_iter must be >= 1, got 0$"),
        (lambda: _problem_spec(epsilon=None), ConfigError, r"^run\.epsilon must be a number here, .* got None$"),
        (lambda: _contraction(0, 1), ConfigError, r"^run\.trials must be >= 1, got 0$"),
        (lambda: _contraction(3, -1), ConfigError, r"^run\.seed must be nonnegative, got -1$"),
        (lambda: _problem_spec(source=zeros_like(GridSpec(2, 8, 2 * np.pi))), TrivialField, "nontrivial"),
        (lambda: IntervalI(-1.0, 2.0), AssumptionError, "symmetric about 0"),
        (lambda: _continuity(epsilon=0.25), AssumptionError, "shared epsilon"),
        (lambda: _continuity(), AssumptionError, "bounds snapshot"),
    ],
    ids=["rho", "epsilon", "epsilon-inf", "tol-nan", "no-iterations", "epsilon-auto", "no-trials",
         "negative-seed", "trivial-source", "asymmetric-interval", "unshared-epsilon", "no-snapshot"],
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
        sol = solve_linear_full(ps.grid, spectral.forward_transform(rhs), project=True)
        want = spectral.inverse_transform(ps.grid, sol)
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
        drawn = v_start.values.copy()
        r2 = solve_fixed_point(ps, v_start=v_start)
        diff = norm_h4(RealField(ps.grid, r1.u.values - r2.u.values))
        assert diff < 1e-8
        assert np.array_equal(v_start.values.view(np.int64), drawn.view(np.int64))  # read, never written

    def test_start_on_another_grid_is_refused(self, standard_scenario):
        ps = standard_scenario.ps
        v_start = sample_ball(GridSpec(5, 8, 2.0 * np.pi), 0.5 * ps.rho, np.random.default_rng(12))
        with pytest.raises(GridMismatch, match="grids differ"):
            solve_fixed_point(ps, v_start=v_start)

    def test_transform_and_linear_solve_counts(self, standard_scenario, monkeypatch):
        # 2 nd-FFTs per step, 2 for u0 and 1 for the last residual; 1 linear solve per step and 1 for u0
        # (inside linear.solve_linear); 1 checked composition per step and 1 for the last residual
        calls = {"solve": 0, "compose": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (fixedpoint, linear):
            monkeypatch.setattr(module, "solve_linear_full", counted(solve_linear_full, "solve"))
        monkeypatch.setattr(fixedpoint, "compose", counted(fixedpoint.compose, "compose"))
        ffts = spectral.nd_fft_count()
        k = len(solve_fixed_point(standard_scenario.ps).trace.step_h4)
        assert (spectral.nd_fft_count() - ffts, calls["solve"]) == (2 * k + 3, k + 1)
        assert calls["compose"] == k + 1

    def test_blocked_pass_count(self, standard_scenario, monkeypatch):
        # per step: the composition, the multiply, the divide, the step's norms and the next iterate's
        # irfftn input (the last one's after the loop); u0's solve 4, the zero start's norm 1, and the last
        # residual's composition, multiply and norms 3
        passes, blocked = [], spectral._map_blocks
        monkeypatch.setattr(spectral, "_map_blocks", lambda *a, **kw: passes.append(1) or blocked(*a, **kw))
        k = len(solve_fixed_point(standard_scenario.ps).trace.step_h4)
        assert len(passes) == 5 * k + 8

    def test_contraction_pair_pass_count(self, standard_scenario, monkeypatch):
        # per pair on this thread: the 2 irfftn inputs, the 2 compositions, the multiply, the divide and the
        # ratio's norm; on the draw thread: the 2 draws' norms, their distance and the 2 ball checks
        u0, threads, blocked = standard_scenario.u0, [], spectral._map_blocks  # u0 solved outside the count
        monkeypatch.setattr(spectral, "_map_blocks",
                            lambda *a, **kw: threads.append(threading.current_thread()) or blocked(*a, **kw))
        measure_contraction(standard_scenario.ps, trials=4, seed=3, u0=u0)
        here = sum(t is threading.current_thread() for t in threads)
        assert (here, len(threads) - here) == (7 * 4, 5 * 4)

    def test_one_full_size_any_per_solve(self, standard_scenario, monkeypatch):
        # the u0 source check in solve_linear; the loop's solves scan nothing
        ps, sizes, any_ = standard_scenario.ps, [], np.any
        monkeypatch.setattr(np, "any", lambda a, *args, **kw: sizes.append(np.size(a)) or any_(a, *args, **kw))
        solve_fixed_point(ps)
        assert sum(size >= np.prod(ps.grid.half_shape) for size in sizes) == 1

    def test_full_size_finiteness_scans(self, standard_scenario, monkeypatch):
        # one per real field built: in a solve u0, the zero start, each step's composition and next iterate
        # (the last one's after the loop), the last residual's composition and u; in a pair the 2 iterates,
        # the 2 compositions and their difference, none on the draw thread
        ps, u0, sizes, isfinite = standard_scenario.ps, standard_scenario.u0, [], np.isfinite  # u0 built uncounted
        monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: sizes.append(np.size(a)) or isfinite(a, *args, **kw))

        def full_size() -> int:
            count = sum(size >= np.prod(ps.grid.half_shape) for size in sizes)
            sizes.clear()
            return count

        k = len(solve_fixed_point(ps).trace.step_h4)
        assert (k, full_size()) == (6, 2 * k + 4)
        measure_contraction(ps, trials=4, seed=3, u0=u0)
        assert full_size() == 5 * 4

    def test_hot_paths_use_only_the_folded_pair(self, standard_scenario, monkeypatch):
        ps, u0 = standard_scenario.ps, standard_scenario.u0  # assembled before the calibrated pair is barred

        def barred(*args):
            raise AssertionError("a hot path called the calibrated pair")

        for name in ("forward_transform", "inverse_transform"):
            monkeypatch.setattr(spectral, name, barred)
        solve_fixed_point(ps)
        measure_contraction(ps, trials=3, seed=1, u0=u0)

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


class TestStepNorms:
    @pytest.mark.parametrize("d, n", [(5, 16), (5, 8)], ids=["d5n16-ten-blocks", "d5n8-one-block"])
    def test_one_pass_matches_the_norms_of_the_spectra(self, d, n):
        """The residual, step and iterate norms of one blocked pass, against the full-spectrum norms of
        the residual conv - (|p|^2 + |p|^4) vh, of vh_next - vh and of vh_next."""
        grid, rng = GridSpec(d, n, 4.0 * np.pi), np.random.default_rng(7)
        vh, vh_next, conv = (rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)
                             for _ in range(3))
        vh[(0,) * d] = conv[(0,) * d] = 0.0  # as a solve's output and _checked_conv's are
        p2 = spectral.p2(grid)
        res = conv - (p2 + p2**2) * vh
        want = (spectral.norm_l2_spectral(grid, res), spectral.norm_h4_spectral(grid, vh_next - vh),
                spectral.norm_h4_spectral(grid, vh_next))
        both = fixedpoint._step_norms(grid, vh.copy(), conv.copy(), vh_next.copy())
        res_only = fixedpoint._step_norms(grid, vh.copy(), conv.copy())
        step_only = fixedpoint._step_norms(grid, vh.copy(), None, vh_next.copy())
        assert both == pytest.approx(want, rel=1e-13, abs=0.0)
        assert res_only == pytest.approx((want[0], 0.0, 0.0), rel=1e-13, abs=0.0)
        assert step_only == pytest.approx((0.0, *want[1:]), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d, n", [(5, 16), (7, 8)], ids=["d5n16", "d7n8"])
    def test_iterate_norm_is_the_spectral_norm_bitwise(self, d, n):
        """Both sum the terms per block and add the block sums in block order."""
        grid, differ = GridSpec(d, n, 4.0 * np.pi), []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            vh, vh_next = (rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)
                           for _ in range(2))
            if norm_h4_spectral(grid, vh_next) != fixedpoint._step_norms(grid, vh, None, vh_next)[2]:
                differ.append(seed)
        assert differ == []


class TestOneOwnerPerFact:
    """The grid is the kernel's, the interval the snapshot's, and the snapshot certifies only its own rho."""

    def test_init_fields(self):
        init = [f.name for f in dataclasses.fields(ProblemSpec) if f.init]
        assert init == ["kernel", "source", "g", "epsilon", "rho", "bounds", "tol_fp", "max_iter", "project_mean"]
        assert [f.name for f in dataclasses.fields(pipeline.AssembledProblem)] == ["ps"]

    def test_derived_values(self, standard_scenario):
        ap = standard_scenario
        ps, b = ap.ps, ap.ps.bounds
        assert ap.snapshot is b and ps.grid is ps.kernel.spec
        assert ps.interval == build_interval(b.u0_h4, b.embedding_constant)
        assert ps.certified and ps.interval is not None
        assert pipeline.AssembledProblem(dataclasses.replace(ps, bounds=None)).snapshot is None  # read off its ps

    def test_interval_follows_the_snapshot(self, standard_scenario):
        ps = standard_scenario.ps
        wider = dataclasses.replace(ps.bounds, embedding_constant=2.0 * ps.bounds.embedding_constant)
        assert dataclasses.replace(ps, bounds=wider).interval == build_interval(wider.u0_h4, wider.embedding_constant)
        bare = dataclasses.replace(ps, bounds=None)
        assert bare.interval is None and not bare.certified

    def test_snapshot_for_another_rho_certifies_nothing(self, standard_scenario):
        ps, b = standard_scenario.ps, standard_scenario.ps.bounds
        assert ps.epsilon > epsilon_max(0.5, b.big_m, b.u0_h4, b.k_l1, b.k_l2, b.d)  # uncertified at rho = 0.5
        assert dataclasses.replace(ps, rho=0.5).certified is False

    def test_fields_are_not_reassigned(self, standard_scenario):
        """The multiplier and the interval are built from the fields, so a field changes only by a new spec."""
        ps = dataclasses.replace(standard_scenario.ps)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ps.epsilon = 0.0

    @pytest.mark.parametrize("name", ["grid", "interval"])
    def test_derived_values_are_not_settable(self, standard_scenario, name):
        with pytest.raises(TypeError):
            dataclasses.replace(standard_scenario.ps, **{name: getattr(standard_scenario.ps, name)})


class TestAssembleProblem:
    def test_three_transforms(self, standard_scenario):
        # rfftn of f and of K; ||u0||_H4 is read off u0^, not re-transformed, and the real u0 is solved
        # (rfftn, irfftn) on its first read only
        ps, ffts = standard_scenario.ps, spectral.nd_fft_count()
        ap = pipeline.assemble_problem(ps.grid, ps.kernel, ps.source, ps.g)
        assert spectral.nd_fft_count() - ffts == 2
        u0 = ap.u0
        assert spectral.nd_fft_count() - ffts == 4
        assert ap.u0 is u0 and spectral.nd_fft_count() - ffts == 4
        assert np.array_equal(u0.values, solve_linear(ps.source, ps.project_mean).values)
        assert ap.snapshot.u0_h4 == pytest.approx(norm_h4(ap.u0), rel=1e-14)

    def test_kernel_off_the_grid_is_refused(self, standard_scenario):
        ps = standard_scenario.ps
        with pytest.raises(GridMismatch, match="differs from problem grid"):
            pipeline.assemble_problem(GridSpec(5, 8, 2.0 * np.pi), ps.kernel, ps.source, ps.g)

    def test_zero_source_is_a_trivial_field(self, standard_scenario):
        # its spectrum solves to zero, and ProblemSpec refuses it: an AssumptionError, exit code 3
        ps = standard_scenario.ps
        with pytest.raises(TrivialField, match="nontrivial"):
            pipeline.assemble_problem(ps.grid, ps.kernel, zeros_like(ps.grid), ps.g)

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
        assert vh.shape == gs.half_shape
        assert np.array_equal(spectral.inverse_folded(gs, vh).values, v.values)
        assert 0.0 < spectral.norm_h4_spectral(gs, vh) <= 0.7 * (1 + 1e-12)

    def test_one_normal_per_degree_of_freedom(self):
        """A draw asks the generator for n^d normals, damped by a table whose |p|^2 is p2's. Its self-conjugate
        modes are real, each plane mode is exactly the conjugate of its partner -k mod n, and the spectrum is
        that of a real field."""
        gs = GridSpec(5, 8, 4.0 * np.pi)

        class Counting:
            def __init__(self, rng):
                self.rng, self.normals = rng, 0

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                self.normals += np.size(out)
                return out

        rng = Counting(np.random.default_rng(8))
        c = sample_ball_spectrum(gs, 1.0, rng)
        assert rng.normals == gs.size
        damping = np.sqrt(0.5) / (1.0 + spectral.p2(gs) ** 2) * spectral.half_lattice(gs).phase  # from p2 bitwise
        assert np.array_equal(fixedpoint._ball_tables(gs)[0].reshape(gs.half_shape), damping)
        assert np.all(c.imag[_mode_classes(gs)[2]] == 0.0)
        for plane in (c[..., 0], c[..., gs.n // 2]):
            assert np.array_equal(plane[tuple((-np.indices(plane.shape)) % gs.n)], np.conj(plane))
        back = spectral.forward_folded(spectral.inverse_folded(gs, c))
        assert np.max(np.abs(back - c)) <= 1e-14 * np.max(np.abs(c))

    def test_mode_variances_by_class(self):
        """Over 2,000 draws, the class means of Re(c)^2 / w^2 and Im(c)^2 / w^2 (w = 0.5 / (1 + |p|^4)) read
        2 : 2 on generic and plane-pair modes and 4 : 0 on self-conjugate ones, whatever the stream. Each draw
        has its own norm, so each is read relative to its generic modes, within 5 standard errors."""
        gs, draws = GridSpec(5, 8, 4.0 * np.pi), 2000
        classes, inv_w2 = _mode_classes(gs), ((1.0 + spectral.p2(gs) ** 2) / 0.5) ** 2
        rng, reads = np.random.default_rng(17), np.empty((draws, 3, 2))
        for i in range(draws):
            c = sample_ball_spectrum(gs, 1.0, rng)
            reads[i] = [[np.mean(np.square(p[mask]) * inv_w2[mask]) for p in (c.real, c.imag)] for mask in classes]
        reads /= reads[:, :1, :].sum(axis=2, keepdims=True) / 4.0  # generic Re + Im reads 4 in every draw
        mean, err = reads.mean(axis=0), reads.std(axis=0) / np.sqrt(draws)
        assert np.all(np.abs(mean - [[2.0, 2.0], [2.0, 2.0], [4.0, 0.0]]) <= 5.0 * err)
        assert np.all(reads[:, 2, 1] == 0.0)


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
        ps = _with_interval(standard_scenario.ps, 1e-3)
        assert ps.certified and ps.interval.upper == pytest.approx(1e-3, rel=1e-15)
        with pytest.raises(IntervalExceeded):
            measure_contraction(ps, trials=2, seed=1, u0=standard_scenario.u0)

    def test_equal_compositions_give_zero_ratio(self, standard_scenario):
        g = Nonlinearity(coeffs=[1.0])
        g.g = np.zeros_like  # both compositions vanish, so the solve meets an all-zero spectrum
        ps = dataclasses.replace(standard_scenario.ps, g=g)
        stats = measure_contraction(ps, trials=3, seed=4, u0=standard_scenario.u0)
        assert stats.ratios == [0.0, 0.0, 0.0]

    @staticmethod
    def _run(ps, u0, monkeypatch):
        """max|u0 + v| of each composition made by 6 pairs, and the type of the error that ended them
        (None if none). No thread outlives the call, whether it returns or raises."""
        ranges = []

        def recording(g, u0, v, interval):
            ranges.append(float(np.max(np.abs(u0.values + v.values))))
            return compose(g, u0, v, interval)

        monkeypatch.setattr(fixedpoint, "compose", recording)
        threads, error = threading.active_count(), None
        try:
            measure_contraction(ps, trials=6, seed=5, u0=u0)
        except (IntervalExceeded, DegeneratePair, OutsideBall) as e:
            error = type(e)
        assert threading.active_count() == threads
        return ranges, error

    def test_interval_failing_partway_fails_at_the_serial_pair(self, standard_scenario, monkeypatch):
        ps, u0 = standard_scenario.ps, standard_scenario.u0
        rng = np.random.default_rng(5)  # the 12 draws of a serial loop, in order
        serial = [float(np.max(np.abs(u0.values + sample_ball(ps.grid, ps.rho, rng).values))) for _ in range(12)]
        ranges, error = self._run(ps, u0, monkeypatch)
        assert error is None and ranges == serial
        # the first composition after pair 1 whose range exceeds every earlier one
        k = next(i for i in range(4, len(ranges)) if ranges[i] > max(ranges[:i]) + 1e-6)
        t = 0.5 * (max(ranges[:k]) + ranges[k])
        made, error = self._run(_with_interval(ps, t), u0, monkeypatch)
        assert (made, error) == (serial[: k + 1], IntervalExceeded)

    def test_failed_draw_fails_when_its_pair_is_taken(self, standard_scenario, monkeypatch):
        draws = []

        def failing(grid, rho, rng):
            draws.append(1)
            if len(draws) == 5:
                raise DegeneratePair("the first draw of the third pair")
            return sample_ball_spectrum(grid, rho, rng)

        monkeypatch.setattr(fixedpoint, "sample_ball_spectrum", failing)
        made, error = self._run(standard_scenario.ps, standard_scenario.u0, monkeypatch)
        assert (len(made), error) == (4, DegeneratePair)  # both earlier pairs measured

    def test_ball_check_fails_when_its_pair_is_taken(self, standard_scenario, monkeypatch):
        """The draw thread's ball check fails the third pair; the error is raised when that pair is taken."""
        draws = []

        def outside(grid, rho, rng):
            draws.append(1)
            vh = sample_ball_spectrum(grid, rho, rng)
            return vh * (2.0 * rho / norm_h4_spectral(grid, vh)) if len(draws) == 6 else vh

        monkeypatch.setattr(fixedpoint, "sample_ball_spectrum", outside)
        made, error = self._run(standard_scenario.ps, standard_scenario.u0, monkeypatch)
        assert (len(made), error, len(draws)) == (4, OutsideBall, 6)

    def test_two_draws_per_pair_taken(self, standard_scenario, monkeypatch):
        """No pair is drawn ahead and then dropped: 20 pairs take 40 draws."""
        draws = []

        def counting(grid, rho, rng):
            draws.append(1)
            return sample_ball_spectrum(grid, rho, rng)

        monkeypatch.setattr(fixedpoint, "sample_ball_spectrum", counting)
        stats = measure_contraction(standard_scenario.ps, 20, 6, standard_scenario.u0)
        assert len(stats.ratios) == 20 and len(draws) == 40

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


@pytest.fixture(scope="module", params=[(5, 16), (7, 8)], ids=["d5n16", "d7n8"])
def large_problem(request):
    """A certified problem on a grid of at least 2^20 points, where the passes run on every CPU."""
    d, n = request.param
    gs = GridSpec(d, n, 4.0 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 1.0, 1.0)
    return pipeline.assemble_problem(gs, kernel, builders.build_gaussian_diff_source(gs), Nonlinearity(coeffs=[1.0]))


def _submits(monkeypatch, cpus: int) -> list:
    """Set spectral.CPUS and record each share a blocked pass hands to the pool."""
    submitted, submit = [], spectral._POOL.submit
    monkeypatch.setattr(spectral, "CPUS", cpus)
    monkeypatch.setattr(spectral._POOL, "submit", lambda *a: submitted.append(a) or submit(*a))
    return submitted


class TestThreadedPasses:
    """The blocked passes of a large grid run on spectral.CPUS threads, bitwise as on one."""

    def test_solve_is_the_same_on_one_and_two_threads(self, large_problem, monkeypatch):
        reports = []
        for cpus in (1, 2):
            submitted = _submits(monkeypatch, cpus)
            reports.append(solve_fixed_point(large_problem.ps))
            assert bool(submitted) == (cpus == 2)
        one, two = reports
        assert np.array_equal(one.u_p.values, two.u_p.values) and np.array_equal(one.u.values, two.u.values)
        for name in ("iterate_h4", "step_h4", "ratio", "residual"):
            np.testing.assert_array_equal(getattr(one.trace, name), getattr(two.trace, name))  # NaN equals NaN

    def test_each_pass_matches_the_inline_pass(self, large_problem, monkeypatch):
        """d5n16's half spectrum ends in a short block (10 blocks), d7n8's too (21)."""
        ps, u0 = large_problem.ps, large_problem.u0
        grid, rng = ps.grid, np.random.default_rng(11)
        v = sample_ball(grid, ps.rho, rng)
        vh, vh_next = (sample_ball_spectrum(grid, ps.rho, rng) for _ in range(2))
        outputs = []
        for cpus in (1, 2):
            submitted = _submits(monkeypatch, cpus)
            conv = fixedpoint._checked_conv(ps, u0, v, norm_h4(v))
            outputs.append([spectral.forward_folded(v), spectral.inverse_folded(grid, vh).values,
                            compose(ps.g, u0, v, ps.interval).values, conv,
                            solve_linear_full(grid, conv, project=True),
                            fixedpoint._step_norms(grid, vh.copy(), conv.copy(), vh_next.copy()),
                            spectral.norm_h4_spectral(grid, vh), solve_linear(ps.source).values])
            assert len(submitted) == (14 if cpus == 2 else 0)  # one pool share per pass
        for one, two in zip(*outputs):
            assert np.array_equal(one, two)

    def test_interval_message_is_the_serial_one(self, large_problem, monkeypatch):
        ps, u0 = large_problem.ps, large_problem.u0
        v = sample_ball(ps.grid, ps.rho, np.random.default_rng(2))
        z, tight = u0.values + v.values, IntervalI(-1e-3, 1e-3)
        want = f"pointwise range [{np.min(z)}, {np.max(z)}] exceeds certified interval [-0.001, 0.001]"
        for cpus in (1, 2):
            _submits(monkeypatch, cpus)
            with pytest.raises(IntervalExceeded) as err:
                compose(ps.g, u0, v, tight)
            assert str(err.value) == want

    def test_d5n8_solve_and_contraction_start_no_thread(self, standard_scenario, monkeypatch):
        """Contraction's 2^15-point grid stays on the calling thread, whatever the CPU count."""
        submitted = _submits(monkeypatch, 2)
        threads = threading.active_count()
        solve_fixed_point(standard_scenario.ps)
        assert threading.active_count() == threads
        measure_contraction(standard_scenario.ps, trials=3, seed=1, u0=standard_scenario.u0)
        assert submitted == [] and threading.active_count() == threads
