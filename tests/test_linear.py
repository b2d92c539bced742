"""Linear solver exactness, zero-mode policy, and sequence-convergence tests."""

import numpy as np
import pytest

from nfs import spectral
from nfs.errors import NonDecayingSource, TrivialSource
from nfs.grid import GridSpec, RealField, SpectralField
from nfs.linear import (
    sequence_experiment,
    sequence_majorant,
    solve_linear,
    solve_linear_full,
)
from nfs.spectral import (
    forward_transform,
    inverse_transform,
    norm_h4,
    norm_l2,
)


def axis_wave(spec: GridSpec, freq: int, fn=np.cos) -> RealField:
    x = fn(freq * spec.axis_coords())
    vals = np.broadcast_to(
        x.reshape((spec.n,) + (1,) * (spec.d - 1)), spec.shape
    ).copy()
    return RealField(spec, vals.reshape(-1))


def mean_free_random(spec: GridSpec, seed: int) -> RealField:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=spec.size)
    v -= v.mean()
    return RealField(spec, v)


class TestSolveLinear:
    def test_cosine_symbol_two(self):
        spec = GridSpec(5, 8, np.pi)
        f = axis_wave(spec, 1)
        u = solve_linear(f)
        assert np.max(np.abs(u.values - f.values / 2.0)) < 1e-12

    def test_sin2_symbol_twenty(self):
        spec = GridSpec(5, 8, np.pi)
        f = axis_wave(spec, 2, fn=np.sin)
        u = solve_linear(f)
        assert np.max(np.abs(u.values - f.values / 20.0)) < 1e-12

    @pytest.mark.parametrize("d, n", [(5, 8), (5, 16), (7, 8)])
    @pytest.mark.parametrize("project", [False, True])
    def test_folded_solve_is_the_calibrated_one_bitwise(self, d, n, project):
        """The phase is +-1 and +1 at the zero mode: solved on the folded spectrum, u is bitwise the same."""
        spec = GridSpec(d, n, 4.0 * np.pi)
        f = mean_free_random(spec, seed=d + n)
        want = inverse_transform(solve_linear_full(forward_transform(f), project))
        assert np.array_equal(solve_linear(f, project).values, want.values)

    def test_trivial_source(self):
        spec = GridSpec(2, 8, 1.0)
        with pytest.raises(TrivialSource):
            solve_linear(RealField(spec, np.zeros(spec.size)))

    def test_reject_nonzero_mean(self):
        spec = GridSpec(2, 8, 1.0)
        with pytest.raises(NonDecayingSource):
            solve_linear(RealField(spec, np.ones(spec.size) + 0.1))

    def test_reject_hint_names_config_key_and_parameter(self):
        spec = GridSpec(2, 8, 1.0)
        fh = forward_transform(RealField(spec, np.ones(spec.size)))
        with pytest.raises(NonDecayingSource) as info:
            solve_linear_full(fh)
        assert str(info.value).endswith("use run.mean_policy = project, or project=True")

    def test_project_records_mean(self):
        spec = GridSpec(2, 8, np.pi)
        f = RealField(spec, axis_wave(spec, 1).values + 3.0)
        sol = solve_linear_full(forward_transform(f), project=True)
        ref = solve_linear(axis_wave(spec, 1))
        assert np.max(np.abs(inverse_transform(sol).values - ref.values)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_operator_round_trip(self, d):
        spec = GridSpec(d, 8, 1.5)
        f = mean_free_random(spec, seed=d)
        u = solve_linear(f)
        p2 = spectral.p2(spec)
        uh = forward_transform(u).coeffs
        back = inverse_transform(SpectralField(spec, uh * p2 + uh * p2**2))
        rel = norm_l2(RealField(spec, back.values - f.values)) / norm_l2(f)
        assert rel < 1e-10

    def test_deterministic(self):
        spec = GridSpec(3, 8, 2.0)
        f = mean_free_random(spec, seed=4)
        u1, u2 = solve_linear(f), solve_linear(f)
        assert np.array_equal(u1.values, u2.values)

    def test_homogeneous(self):
        spec = GridSpec(2, 16, 1.0)
        f = mean_free_random(spec, seed=6)
        lam = -2.5
        u = solve_linear(f)
        u_scaled = solve_linear(RealField(spec, lam * f.values))
        assert np.max(np.abs(u_scaled.values - lam * u.values)) < 1e-12 * np.max(
            np.abs(u.values)
        )

    def test_grid_refinement_self_convergence(self):
        # wide, exactly periodized Gaussians so the spectral tail beyond the
        # coarse lattice is tiny; the fine grid contains every coarse point,
        # so restriction is exact
        d, L, s = 5, 4.0 * np.pi, 3.2

        def periodized_hump(spec, center0):
            x = spec.axis_coords()
            axes = []
            for axis in range(d):
                c = center0 if axis == 0 else 0.0
                g = np.zeros(spec.n)
                for m in range(-8, 9):
                    g += np.exp(-((x - c + 2 * L * m) ** 2) / (2 * s * s))
                axes.append(g)
            vals = axes[0]
            for g in axes[1:]:
                vals = np.multiply.outer(vals, g)
            return vals.reshape(-1)

        sols = {}
        for n in (16, 32):
            spec = GridSpec(d, n, L)
            h1 = periodized_hump(spec, 1.0)
            h2 = periodized_hump(spec, -1.0)
            f = RealField(spec, h1 - (np.sum(h1) / np.sum(h2)) * h2)
            sols[n] = solve_linear(f)
        coarse = sols[16]
        fine_restricted = sols[32].reshaped()[(slice(None, None, 2),) * d]
        diff = RealField(coarse.spec, coarse.reshaped() - fine_restricted)
        rel = norm_h4(diff) / norm_h4(coarse)
        assert rel < 1e-6


class TestSequenceExperiment:
    def _source(self, spec):
        rng = np.random.default_rng(0)
        x = spec.axis_coords()
        vals = np.zeros(spec.shape)
        for _ in range(3):
            k = rng.integers(1, 3, size=spec.d)
            arg = np.zeros(spec.shape)
            for axis in range(spec.d):
                shape = [1] * spec.d
                shape[axis] = spec.n
                arg = arg + (k[axis] * np.pi / spec.half_width * x).reshape(shape)
            vals += rng.normal() * np.sin(arg)
        return RealField(spec, vals.reshape(-1))

    def test_zero_perturbations(self):
        spec = GridSpec(5, 8, np.pi)
        f = self._source(spec)
        zero = RealField(spec, np.zeros(spec.size))
        rep = sequence_experiment(f, [zero, zero])
        assert rep.verdict
        assert rep.du_h4 == [0.0, 0.0]

    def test_inverse_n_decay(self):
        spec = GridSpec(5, 8, np.pi)
        f = self._source(spec)
        h = mean_free_random(spec, seed=9)
        perts = [RealField(spec, h.values / n) for n in range(1, 9)]
        rep = sequence_experiment(f, perts)
        assert rep.verdict
        slope = np.polyfit(np.log(np.arange(1, 9)), np.log(rep.du_h4), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_near_cancelling_perturbation(self):
        spec = GridSpec(5, 8, np.pi)
        f = self._source(spec)
        bump = mean_free_random(spec, seed=11)
        pert = RealField(spec, -f.values + 1e-6 * bump.values)
        rep = sequence_experiment(f, [pert])
        u_h4 = norm_h4(solve_linear(f))
        assert rep.verdict
        assert rep.du_h4[0] == pytest.approx(u_h4, rel=1e-3)

    def test_majorant_formula(self):
        # sqrt(l2^2 + (l2/2 + (2 pi)^(-d/2) sqrt(|S^d|/(d-4)) l1)^2)
        from nfs.bounds import sphere_measure

        d, l1, l2 = 5, 0.7, 0.3
        c = (2 * np.pi) ** (-d / 2) * np.sqrt(sphere_measure(d) / (d - 4))
        want = np.sqrt(l2**2 + (0.5 * l2 + c * l1) ** 2)
        assert sequence_majorant(l1, l2, d) == pytest.approx(want, rel=1e-14)
