"""Closed-form constants checked against independent high-precision oracles."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import beta

from nfs.bounds import (
    BoundsSnapshot,
    continuity_bound,
    embedding_constant,
    epsilon_max,
    make_snapshot,
    minimize_phi,
    radial_embedding_integral,
    sigma,
    sphere_measure,
)
from nfs.errors import AssumptionError, BadDimension, ContractionViolated, NonPositiveInput

mp.mp.dps = 50


def grid_search_phi(alpha: float, d: int, points: int = 10**6):
    """Two-stage dense grid search minimizing phi(R) = alpha R^(d-4) + R^-4."""
    r = np.linspace(1e-6, 10.0, points)
    phi = alpha * r ** (d - 4) + r ** (-4.0)
    i = int(np.argmin(phi))
    lo, hi = r[max(i - 2, 0)], r[min(i + 2, points - 1)]
    r2 = np.linspace(lo, hi, points)
    phi2 = alpha * r2 ** (d - 4) + r2 ** (-4.0)
    j = int(np.argmin(phi2))
    return float(r2[j]), float(phi2[j])


class TestSphereMeasure:
    def test_circle(self):
        assert abs(sphere_measure(2) - 2 * np.pi) < 1e-14

    def test_d5_closed_form(self):
        assert abs(sphere_measure(5) - 8 * np.pi**2 / 3) < 1e-12

    def test_d6_closed_form(self):
        assert abs(sphere_measure(6) - np.pi**3) < 1e-12

    def test_gamma_recursion(self):
        for d in range(3, 11):
            lhs = sphere_measure(d)
            rhs = 2 * np.pi * sphere_measure(d - 2) / (d - 2)
            assert abs(lhs - rhs) < 1e-12 * rhs

    def test_monte_carlo_cross_check(self):
        # |S^d| = d * vol(unit ball), ball volume estimated by rejection
        rng = np.random.default_rng(0)
        for d in (5, 6):
            pts = rng.uniform(-1, 1, size=(200_000, d))
            frac = np.mean(np.sum(pts**2, axis=1) <= 1.0)
            estimate = d * frac * 2.0**d
            assert abs(estimate - sphere_measure(d)) < 0.05 * sphere_measure(d)

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            sphere_measure(0)


class TestMinimizePhi:
    def test_plug_in_alpha4_d5(self):
        res = minimize_phi(4.0, 5)
        assert res.r_star == pytest.approx(1.0, abs=1e-14)
        assert res.phi_min == pytest.approx(5.0, abs=1e-13)

    def test_alpha1_d5_against_grid_search(self):
        res = minimize_phi(1.0, 5)
        r_ref, phi_ref = grid_search_phi(1.0, 5)
        assert res.r_star == pytest.approx(4.0 ** (1 / 5), rel=1e-14)
        assert res.r_star == pytest.approx(r_ref, rel=1e-6)
        assert res.phi_min == pytest.approx(phi_ref, rel=1e-6)

    def test_alpha1_d7_against_grid_search(self):
        res = minimize_phi(1.0, 7)
        r_ref, phi_ref = grid_search_phi(1.0, 7)
        assert res.r_star == pytest.approx(r_ref, rel=1e-6)
        assert res.phi_min == pytest.approx(phi_ref, rel=1e-6)

    def test_beats_sampled_values(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(1e-3, 10.0, size=10**6)
        for alpha, d in ((0.3, 5), (2.0, 6), (7.5, 7)):
            res = minimize_phi(alpha, d)
            sampled_min = np.min(alpha * r ** (d - 4) + r ** (-4.0))
            assert res.phi_min <= sampled_min + 1e-12

    def test_rejects_low_dimension(self):
        with pytest.raises(BadDimension):
            minimize_phi(1.0, 4)


class TestEmbeddingConstant:
    def test_radial_integral_beta_closed_form_d5(self):
        closed = 0.25 * beta(5 / 4, 3 / 4)
        assert closed == pytest.approx(0.27768, abs=5e-6)
        assert radial_embedding_integral(5) == pytest.approx(closed, rel=1e-10)

    def test_radial_integral_beta_closed_form_d6_d7(self):
        for d in (6, 7):
            closed = 0.25 * beta(d / 4, 2 - d / 4)
            assert radial_embedding_integral(d) == pytest.approx(closed, rel=1e-9)

    def test_value_d5(self):
        assert embedding_constant(5) == pytest.approx(0.0386, abs=5e-5)

    def test_bad_dimension(self):
        for d in (4, 8):
            with pytest.raises(BadDimension):
                embedding_constant(d)


def epsilon_max_mp(rho, big_m, u0_h4, k_l1, k_l2, d):
    u = mp.mpf(u0_h4) + 1
    s = mp.mpf(2) * mp.pi ** mp.mpf(d / 2) / mp.gamma(mp.mpf(d) / 2)
    bracket = (
        mp.mpf(k_l1) ** 2
        * u ** (mp.mpf(8) / d - 2)
        * d
        / ((2 * mp.pi) ** 4 * (d - 4))
        * (s / 16) ** (mp.mpf(4) / d)
        + mp.mpf(k_l2) ** 2 / 4
    )
    return mp.mpf(rho) / (2 * mp.mpf(big_m) * u**2 * mp.sqrt(bracket))


def sigma_mp(big_m, u0_h4, k_l1, k_l2, d):
    u = mp.mpf(u0_h4) + 1
    s = mp.mpf(2) * mp.pi ** mp.mpf(d / 2) / mp.gamma(mp.mpf(d) / 2)
    brace = (
        mp.mpf(k_l1) ** 2
        * s ** (mp.mpf(4) / d)
        * u ** (mp.mpf(8) / d - 2)
        / ((2 * mp.pi) ** 4 * 4 ** (mp.mpf(4) / d))
        * d
        / (d - 4)
        + mp.mpf(k_l2) ** 2
    )
    return mp.mpf(big_m) * u * mp.sqrt(brace)


def continuity_bound_mp(eps, snap: BoundsSnapshot, g_diff):
    d = snap.d
    u = mp.mpf(snap.u0_h4) + 1
    s = mp.mpf(2) * mp.pi ** mp.mpf(d / 2) / mp.gamma(mp.mpf(d) / 2)
    sig = sigma_mp(snap.big_m, snap.u0_h4, snap.k_l1, snap.k_l2, d)
    bracket = (
        mp.mpf(snap.k_l1) ** 2
        * u ** (mp.mpf(8) / d - 2)
        * s ** (mp.mpf(4) / d)
        / (16 ** (mp.mpf(4) / d) * (2 * mp.pi) ** 4)
        * d
        / (d - 4)
        + mp.mpf(snap.k_l2) ** 2 / 4
    )
    return mp.mpf(eps) / (1 - mp.mpf(eps) * sig) * u**2 * mp.sqrt(bracket) * g_diff


STANDARD = dict(rho=1.0, big_m=2.0, u0_h4=1.0, k_l1=1.0, k_l2=1.0, d=5)


class TestEpsilonMax:
    def test_linear_in_rho(self):
        base = epsilon_max(**STANDARD)
        doubled = epsilon_max(**{**STANDARD, "rho": 2.0})
        assert doubled == pytest.approx(2 * base, rel=1e-14)

    def test_inverse_in_m(self):
        base = epsilon_max(**STANDARD)
        halved = epsilon_max(**{**STANDARD, "big_m": 4.0})
        assert halved == pytest.approx(base / 2, rel=1e-14)

    def test_against_extended_precision(self):
        got = epsilon_max(**STANDARD)
        want = float(epsilon_max_mp(**STANDARD))
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_decreasing(self):
        base = epsilon_max(**STANDARD)
        for key in ("big_m", "k_l1", "k_l2"):
            bumped = epsilon_max(**{**STANDARD, key: STANDARD[key] * 1.01})
            assert bumped < base

    def test_rejects_bad_inputs(self):
        with pytest.raises(BadDimension):
            epsilon_max(1.0, 1.0, 1.0, 1.0, 1.0, 4)
        with pytest.raises(NonPositiveInput):
            epsilon_max(0.0, 1.0, 1.0, 1.0, 1.0, 5)

    def test_rejects_infinite_kernel_norm(self):
        # kernel.amplitude = 1e300 squares to k_l2 = inf
        with pytest.raises(NonPositiveInput, match="k_l2 must be positive and finite, got inf"):
            epsilon_max(1.0, 1.0, 1.0, 1.0, np.inf, 5)
        with pytest.raises(NonPositiveInput, match="k_l1"):
            sigma(1.0, 1.0, np.inf, 1.0, 5)

    def test_refusals_are_assumption_errors(self):
        # so the CLI reports them as "assumption violated" with exit 3
        assert issubclass(NonPositiveInput, AssumptionError)
        assert issubclass(ContractionViolated, AssumptionError)


class TestSigma:
    def test_linear_in_m(self):
        kwargs = {k: v for k, v in STANDARD.items() if k != "rho"}
        base = sigma(**kwargs)
        assert sigma(**{**kwargs, "big_m": 4.0}) == pytest.approx(2 * base, rel=1e-14)

    def test_against_extended_precision(self):
        kwargs = {k: v for k, v in STANDARD.items() if k != "rho"}
        got = sigma(**kwargs)
        assert got == pytest.approx(float(sigma_mp(**kwargs)), rel=1e-12)

    def test_threshold_consistency_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho = rng.uniform(0.01, 1.0)
            m = rng.uniform(0.01, 50.0)
            u0 = rng.uniform(0.0, 20.0)
            k1 = rng.uniform(0.01, 100.0)
            k2 = rng.uniform(0.01, 100.0)
            d = int(rng.integers(5, 8))
            product = epsilon_max(rho, m, u0, k1, k2, d) * sigma(m, u0, k1, k2, d)
            assert product < 1.0


class TestContinuityBound:
    def _snapshot(self):
        return make_snapshot(5, 1.0, 2.0, 1.0, 1.0, 1.0, embedding_constant(5))

    def test_zero_distance(self):
        snap = self._snapshot()
        assert continuity_bound(snap.epsilon_max / 2, snap, 0.0) == 0.0

    def test_linear_in_distance(self):
        snap = self._snapshot()
        eps = snap.epsilon_max / 2
        one = continuity_bound(eps, snap, 1.0)
        assert continuity_bound(eps, snap, 2.0) == pytest.approx(2 * one, rel=1e-14)

    def test_against_extended_precision(self):
        snap = self._snapshot()
        eps = snap.epsilon_max / 2
        got = continuity_bound(eps, snap, 0.7)
        want = float(continuity_bound_mp(eps, snap, mp.mpf("0.7")))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_supercritical_epsilon(self):
        snap = self._snapshot()
        with pytest.raises(ContractionViolated):
            continuity_bound(1.0 / snap.sigma, snap, 1.0)
