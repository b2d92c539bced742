"""Nonlinearity suprema, interval logic, and composition tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfs.errors import IntervalExceeded, NonconformingG
from nfs.grid import GridSpec, RealField
from nfs.nonlinearity import (
    IntervalI,
    Nonlinearity,
    build_interval,
    c2_distance,
    c2_norm,
    compose,
)

UNIT = IntervalI(-1.0, 1.0)

coeff_lists = st.lists(
    st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3), min_size=1, max_size=4
)


def dense_sampling_c2(g: Nonlinearity, interval: IntervalI, points: int = 10**6):
    z = np.linspace(interval.lower, interval.upper, points)
    return (
        np.max(np.abs(g.g(z))) + np.max(np.abs(g.g1(z))) + np.max(np.abs(g.g2(z)))
    )


class TestBuildInterval:
    def test_unit(self):
        i = build_interval(0.0, 1.0)
        assert (i.lower, i.upper) == (-1.0, 1.0)

    def test_scaled(self):
        i = build_interval(2.0, 0.5)
        assert (i.lower, i.upper) == (-1.5, 1.5)

    def test_pipeline_value(self):
        c_e = 0.0386
        u0_h4 = 2.0537
        i = build_interval(u0_h4, c_e)
        assert i.upper == pytest.approx(c_e * (u0_h4 + 1.0), rel=1e-15)


class TestC2Norm:
    def test_quadratic(self):
        rep = c2_norm(Nonlinearity(coeffs=[1.0]), UNIT)
        assert (rep.sup_g, rep.sup_g1, rep.sup_g2) == (1.0, 2.0, 2.0)
        assert rep.c2_norm == 5.0

    def test_cubic(self):
        rep = c2_norm(Nonlinearity(coeffs=[0.0, 1.0]), UNIT)
        assert rep.c2_norm == pytest.approx(10.0, abs=1e-14)

    def test_random_quintic_vs_dense_sampling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            coeffs = rng.uniform(-2, 2, size=4)  # degrees 2..5
            upper = rng.uniform(0.3, 2.0)
            interval = IntervalI(-upper, upper)
            g = Nonlinearity(coeffs=coeffs)
            exact = c2_norm(g, interval).c2_norm
            sampled = dense_sampling_c2(g, interval)
            assert exact == pytest.approx(sampled, rel=1e-9)

    def test_scaling_exact(self):
        g = Nonlinearity(coeffs=[1.5, -0.25, 0.75])
        lam = 3.0
        scaled = Nonlinearity(coeffs=[lam * c for c in (1.5, -0.25, 0.75)])
        assert c2_norm(scaled, UNIT).c2_norm == pytest.approx(
            lam * c2_norm(g, UNIT).c2_norm, rel=1e-14
        )


class TestDmMembership:
    def test_default_m_is_computed_norm(self, standard_scenario):
        rep = c2_norm(standard_scenario.ps.g, standard_scenario.ps.interval)
        assert standard_scenario.snapshot.big_m == rep.c2_norm


class TestCompose:
    def _fields(self, seed=0, scale=0.1):
        spec = GridSpec(2, 8, 1.0)
        rng = np.random.default_rng(seed)
        u0 = RealField(spec, scale * rng.normal(size=spec.size))
        v = RealField(spec, scale * rng.normal(size=spec.size))
        return spec, u0, v

    def test_square_of_u0(self):
        spec, u0, _ = self._fields()
        zero = RealField(spec, np.zeros(spec.size))
        out = compose(Nonlinearity(coeffs=[1.0]), u0, zero)
        assert np.array_equal(out.values, u0.values**2)

    def test_zero_inputs(self):
        spec = GridSpec(2, 8, 1.0)
        zero = RealField(spec, np.zeros(spec.size))
        out = compose(Nonlinearity(coeffs=[1.0]), zero, zero)
        assert np.all(out.values == 0.0)

    def test_pointwise_oracle(self):
        spec, u0, v = self._fields(seed=8)
        g = Nonlinearity(coeffs=[1.0, 0.1])
        inputs = u0.values.copy(), v.values.copy()
        out = compose(g, u0, v)
        z = u0.values + v.values
        assert np.max(np.abs(out.values - (z**2 + 0.1 * z**3))) < 1e-15
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip((u0.values, v.values), inputs))

    def test_interval_enforced(self):
        spec, u0, v = self._fields(seed=2, scale=1.0)
        tight = IntervalI(-1e-3, 1e-3)
        with pytest.raises(IntervalExceeded):
            compose(Nonlinearity(coeffs=[1.0]), u0, v, tight)

    def test_interval_enforced_when_g_overflows(self):
        """g of the out-of-range values overflows: the interval error is raised, not a numpy warning."""
        spec, u0, v = self._fields(seed=2, scale=1e200)
        with pytest.raises(IntervalExceeded):
            compose(Nonlinearity(coeffs=[1.0]), u0, v, IntervalI(-1.0, 1.0))


class TestC2Distance:
    def test_identical(self):
        g = Nonlinearity(coeffs=[1.0, 0.5])
        assert c2_distance(g, g, UNIT) == 0.0

    def test_equal_up_to_zero_padding(self):
        g1 = Nonlinearity(coeffs=[1.0, 0.5])
        g2 = Nonlinearity(coeffs=[1.0, 0.5, 0.0])
        assert c2_distance(g1, g2, UNIT) == 0.0

    def test_pure_cubic_difference(self):
        g1 = Nonlinearity(coeffs=[1.0])
        g2 = Nonlinearity(coeffs=[1.0, 0.1])
        assert c2_distance(g1, g2, UNIT) == pytest.approx(1.0, abs=1e-14)

    def test_random_pair_vs_dense_sampling(self):
        rng = np.random.default_rng(17)
        g1 = Nonlinearity(coeffs=rng.uniform(-1, 1, 3))
        g2 = Nonlinearity(coeffs=rng.uniform(-1, 1, 3))
        got = c2_distance(g1, g2, UNIT)
        want = dense_sampling_c2(Nonlinearity(g1.coeffs - g2.coeffs), UNIT)
        assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_triangle_inequality(self, c1, c2, c3):
        g1, g2, g3 = (Nonlinearity(coeffs=c) for c in (c1, c2, c3))
        d13 = c2_distance(g1, g3, UNIT)
        d12 = c2_distance(g1, g2, UNIT)
        d23 = c2_distance(g2, g3, UNIT)
        assert d13 <= d12 + d23 + 1e-10


class TestConstruction:
    @settings(max_examples=50, deadline=None)
    @given(coeff_lists)
    def test_origin_conditions_enforced(self, coeffs):
        g = Nonlinearity(coeffs=coeffs)
        assert g.g(0.0) == 0.0 and g.g1(0.0) == 0.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(NonconformingG):
            Nonlinearity(coeffs=[0.0, 0.0])

    @pytest.mark.parametrize(
        "coeffs, name", [([1e308, 1e308], "g'"), ([0.0, 4e307], "g''"), ([1.0, np.nan], "g")]
    )
    def test_non_finite_coefficients_rejected(self, coeffs, name):
        # 2e308 z + 3e308 z^2 overflows in g', 6 * 4e307 z in g'' only; polyroots would fail on either
        with pytest.raises(NonconformingG, match=f"^{name} has non-finite"):
            Nonlinearity(coeffs=coeffs)
