"""Picard iteration for the perturbative solution and its certified checks.

The auxiliary map sends v to the solution u of

    [-lap + lap^2] u = eps * K conv g(u0 + v),

a strict contraction on the closed ball of radius rho in H4 whenever the
coupling eps stays below the certified threshold. The iterate is kept as its
half spectrum, and a step is one inverse transform (irfftn), the pointwise g,
one forward transform (rfftn) and a multiply by the fixed spectral multiplier
eps (2 pi)^(d/2) K^ / (|p|^2 + |p|^4). Every eps K conv g(u0 + v) is taken on
one path, after the ball and the interval checks: every step's, apply_tg's and
the one for the last iterate's residual, so the returned u is checked like any
other iterate. eps = 0 needs no special case: the multiplier is then 0, and the
solve of an all-zero spectrum is zero. Norms and the residual are read off
spectra already in hand. A contraction pair keeps both draws as spectra too:
2 irfftn for the compositions and 1 rfftn of their difference. The iteration
is plain (no acceleration): its geometric decay is itself one of the measured
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import spectral
from .bounds import BoundsSnapshot, continuity_bound
from .config import check_value
from .errors import (AssumptionError, DegeneratePair, Diverged, GridMismatch, NotConverged, OutsideBall,
                     TrivialField)
from .grid import GridSpec, RealField, SpectralField, check_same_grid, zeros_like
from .linear import solve_linear, solve_linear_full
from .nonlinearity import IntervalI, Nonlinearity, c2_distance, compose

BALL_SLACK = 1e-12
DEFAULT_DISCRETE_SLACK = 0.05


@dataclass
class ProblemSpec:
    """One fully assembled problem instance (diffusion constant fixed to 1)."""

    grid: GridSpec
    kernel: RealField
    source: RealField
    g: Nonlinearity
    epsilon: float
    rho: float = 1.0
    bounds: Optional[BoundsSnapshot] = None
    interval: Optional[IntervalI] = None
    tol_fp: float = 1e-10
    max_iter: int = 200
    project_mean: bool = False
    lattice: spectral.HalfLattice = field(init=False, repr=False, compare=False)
    # eps (2 pi)^(d/2) K^ times phase and scale: times dft(G), the spectrum of eps K conv G
    multiplier: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_same_grid(self.kernel, self.source)
        if self.kernel.spec != self.grid:
            raise GridMismatch(f"kernel grid {self.kernel.spec} differs from problem grid {self.grid}")
        check_value("run.rho", self.rho)
        check_value("run.epsilon", self.epsilon)
        if not np.any(self.kernel.values) or not np.any(self.source.values):
            raise TrivialField("kernel and source must be nontrivial")
        self.lattice = spectral.half_lattice(self.grid)
        kh = spectral.forward_transform(self.kernel).coeffs
        coupling = self.epsilon * (2.0 * np.pi) ** (self.grid.d / 2.0)
        self.multiplier = coupling * kh * self.lattice.to_coeffs

    @property
    def certified(self) -> bool:
        return self.bounds is not None and self.epsilon <= self.bounds.epsilon_max


@dataclass
class IterationTrace:
    iterate_h4: list[float] = field(default_factory=list)
    step_h4: list[float] = field(default_factory=list)
    ratio: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)


@dataclass
class SolveReport:
    u0: RealField
    u_p: RealField
    u: RealField
    trace: IterationTrace


@dataclass
class ContractionStats:
    ratios: list[float]
    distances: list[float]
    max_ratio: float
    mean_ratio: float
    bound: Optional[float]  # eps * sigma when a snapshot is present


@dataclass
class ContinuityReport:
    measured: float
    bound: float
    g_distance: float
    verdict: bool


def _h4(grid: GridSpec, coeffs: np.ndarray) -> float:
    return spectral.norm_h4_spectral(SpectralField(grid, coeffs))


def _check_ball(ps: ProblemSpec, v_h4: float) -> None:
    if v_h4 > ps.rho * (1.0 + BALL_SLACK):
        raise OutsideBall(f"||v||_H4 = {v_h4} exceeds rho = {ps.rho}")


def _checked_conv(ps: ProblemSpec, u0: RealField, v: RealField, v_h4: float) -> np.ndarray:
    """Half spectrum of eps K conv g(u0 + v), after the ball and the interval checks.

    It is dft(G) times the multiplier, so at eps = 0 it is all zero. G is freed on return,
    before a caller's solve allocates (one real field less at the peak).
    """
    _check_ball(ps, v_h4)
    conv = spectral.dft(compose(ps.g, u0, v, ps.interval))
    conv *= ps.multiplier
    return conv


def _solve(ps: ProblemSpec, conv: np.ndarray) -> np.ndarray:
    """Half spectrum of the mean-projected linear solve of `conv`; zero for an all-zero `conv`."""
    if not np.any(conv):
        return np.zeros_like(conv)
    return solve_linear_full(SpectralField(ps.grid, conv), project=True).coeffs


def _residual(ps: ProblemSpec, vh: np.ndarray, conv: np.ndarray) -> float:
    """L2 norm of eps (2 pi)^(d/2) K^ G^ - (|p|^2 + |p|^4) v^, zero mode dropped
    (off it, the u0 part f^ - (|p|^2 + |p|^4) u0^ is rounding, so it is left out).
    `conv` is overwritten with the residual's spectrum."""
    slabs = (a.reshape(len(a), -1) for a in (conv, ps.lattice.symbol, vh))
    for out, s, v in zip(*slabs):  # one axis-0 slab at a time
        out -= s * v
    conv[(0,) * ps.grid.d] = 0.0
    return spectral.norm_l2_spectral(SpectralField(ps.grid, conv))


def apply_tg(v: RealField, ps: ProblemSpec, u0: RealField) -> RealField:
    """One application of the auxiliary map; mean of the convolution projected."""
    out = _solve(ps, _checked_conv(ps, u0, v, spectral.norm_h4(v)))
    return spectral.inverse_transform(SpectralField(ps.grid, out))


def solve_fixed_point(ps: ProblemSpec, v_start: Optional[RealField] = None) -> SolveReport:
    """Iterate v <- t_g(v) from v = 0 until the relative H4 step converges.

    The residual of iterate k uses the g(u0 + v_k) that step k + 1 transforms
    anyway; only the last iterate needs one more forward transform for it, after
    the same ball and interval checks. The real iterate v lives only from its
    inverse transform to the composition.
    """
    grid = ps.grid
    u0 = solve_linear(ps.source, ps.project_mean)
    if v_start is None:
        v, vh = zeros_like(grid), np.zeros(grid.half_shape, dtype=complex)
    else:
        v, vh = v_start, spectral.forward_transform(v_start).coeffs
    v_h4 = _h4(grid, vh)
    trace = IterationTrace()
    grow_streak = 0
    for _ in range(ps.max_iter):
        conv = _checked_conv(ps, u0, v, v_h4)
        del v
        vh_next = _solve(ps, conv)
        if trace.step_h4:  # the previous iterate's residual, from this step's G
            trace.residual.append(_residual(ps, vh, conv))
        del conv
        prev = trace.step_h4[-1] if trace.step_h4 else None
        step = _h4(grid, vh_next - vh)
        v_h4 = _h4(grid, vh_next)
        if not np.isfinite(v_h4):  # inf <= tol_fp * inf would pass as converged
            raise Diverged(f"iterate {len(trace.step_h4)} has ||v||_H4 = {v_h4}")
        trace.iterate_h4.append(v_h4)
        trace.step_h4.append(step)
        trace.ratio.append(step / prev if prev else float("nan"))
        grow_streak = grow_streak + 1 if prev is not None and step > prev else 0
        if grow_streak >= 5:
            raise Diverged("fixed-point step grew for 5 consecutive iterations")
        vh = vh_next
        if step <= ps.tol_fp * max(1.0, v_h4):
            break
        v = spectral.inverse_transform(SpectralField(grid, vh))
    else:
        raise NotConverged(f"no convergence within {ps.max_iter} iterations")
    v = spectral.inverse_transform(SpectralField(grid, vh))
    # u is built after G^, so G and u are not alive at once
    trace.residual.append(_residual(ps, vh, _checked_conv(ps, u0, v, v_h4)))
    return SolveReport(u0=u0, u_p=v, u=RealField(grid, u0.values + v.values), trace=trace)


def residual(u: RealField, ps: ProblemSpec) -> float:
    """L2 norm of [lap - lap^2] u + eps * K conv g(u) + f, zero mode projected.

    The zero mode of the differential part vanishes identically, so the
    residual is meaningful only on the projected complement; projection here
    matches the mean handling of the solve.
    """
    uh = spectral.forward_transform(u).coeffs
    p2 = spectral.p2(ps.grid)
    conv = spectral.convolve(ps.kernel, RealField(ps.grid, ps.g.g(u.values)))
    rh = spectral.forward_transform(RealField(ps.grid, ps.source.values + ps.epsilon * conv.values))
    res = rh.coeffs - (uh * p2 + uh * p2**2)  # [lap - lap^2]u = -(|p|^2 + |p|^4) u^
    res[(0,) * ps.grid.d] = 0.0
    return spectral.norm_l2_spectral(SpectralField(ps.grid, res))


@lru_cache(maxsize=4)
def _ball_tables(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of each half-lattice mode's mirror -k mod n, and the damping 0.5 / (1 + |p|^4)."""
    axes = np.ix_(*[(-np.arange(m)) % grid.n for m in grid.half_shape])
    return np.ravel_multi_index(axes, grid.shape), 0.5 / (1.0 + spectral.p2(grid) ** 2)


def sample_ball_spectrum(
    grid: GridSpec, rho: float, rng: np.random.Generator
) -> SpectralField:
    """Half spectrum of a field with H4 norm uniform in (0, rho].

    Spectral coefficients are independent complex Gaussians damped by
    (1 + |p|^4)^(-1) and Hermitian-symmetrized, coeff(k) averaged with
    conj(coeff(-k)), then rescaled. The damping spans rough-to-smooth
    directions while staying in H4.
    """
    mirror, weight = _ball_tables(grid)
    raw = rng.standard_normal(2 * grid.size)  # real parts, then imaginary parts
    re, im = raw[: grid.size], raw[grid.size :]
    m, sym = grid.half_shape[-1], np.empty(grid.half_shape, dtype=complex)
    np.multiply(re.reshape(grid.shape)[..., :m] + re[mirror], weight, out=sym.real)
    np.multiply(im.reshape(grid.shape)[..., :m] - im[mirror], weight, out=sym.imag)
    h4 = _h4(grid, sym)
    if h4 == 0.0:
        raise DegeneratePair("sampled field vanished; retry with a new draw")
    target = rho * (1.0 - rng.uniform(0.0, 1.0))  # uniform in (0, rho]
    if target == 0.0:
        target = rho
    sym *= target / h4
    return SpectralField(grid, sym)


def sample_ball(
    grid: GridSpec, rho: float, rng: np.random.Generator
) -> RealField:
    """Draw a field with H4 norm uniform in (0, rho]; see sample_ball_spectrum."""
    return spectral.inverse_transform(sample_ball_spectrum(grid, rho, rng))


def measure_contraction(
    ps: ProblemSpec, trials: int, seed: int, u0: RealField
) -> ContractionStats:
    """Sample iterate pairs in the ball and measure the Lipschitz ratio.

    t_g(v1) - t_g(v2) is the linear solve of eps K conv [g(u0 + v1) - g(u0 + v2)]: one rfftn.
    """
    check_value("run.trials", trials)
    check_value("run.seed", seed)
    grid, rng = ps.grid, np.random.default_rng(seed)
    # Freeing 8 real fields raises glibc's dynamic mmap threshold (only blocks up to 32 MB move it), and
    # the trim threshold (twice it), above one pair's temporaries: these are then reused on the heap, not
    # mapped, faulted in and unmapped per pair (about 250 minor faults per pair at d5n8 otherwise).
    np.empty(min(8 * grid.size, 1 << 21))
    ratios: list[float] = []
    distances: list[float] = []
    while len(ratios) < trials:
        v1h, v2h = (sample_ball_spectrum(grid, ps.rho, rng).coeffs for _ in range(2))
        dist = _h4(grid, v1h - v2h)
        if dist < 1e-14:
            continue  # degenerate pair, resample
        for vh in (v1h, v2h):
            _check_ball(ps, _h4(grid, vh))
        # each v is freed once g(u0 + v) is built
        g1, g2 = (compose(ps.g, u0, spectral.inverse_transform(SpectralField(grid, vh)), ps.interval)
                  for vh in (v1h, v2h))
        diff = spectral.dft(RealField(grid, g1.values - g2.values))
        diff *= ps.multiplier
        diff = _solve(ps, diff)
        ratios.append(_h4(grid, diff) / dist)
        del g1, g2, diff  # not kept alive through the next pair's draws
        distances.append(dist)
    bound = ps.epsilon * ps.bounds.sigma if ps.bounds is not None else None
    return ContractionStats(
        ratios=ratios,
        distances=distances,
        max_ratio=max(ratios),
        mean_ratio=float(np.mean(ratios)),
        bound=bound,
    )


def continuity_experiment(
    ps1: ProblemSpec, ps2: ProblemSpec, slack: float = DEFAULT_DISCRETE_SLACK
) -> ContinuityReport:
    """Solve with two nonlinearities and compare against the sensitivity bound.

    The shared snapshot must be conservative for both nonlinearities (its
    C2 bound at least the larger of the two), so ps1.bounds is used and the
    caller is responsible for assembling it with max(M1, M2).
    """
    if ps1.epsilon != ps2.epsilon:
        raise AssumptionError("continuity experiment needs a shared epsilon")
    check_same_grid(ps1.kernel, ps2.kernel)
    snapshot = ps1.bounds
    if snapshot is None:
        raise AssumptionError("continuity experiment needs a bounds snapshot")
    u1 = solve_fixed_point(ps1).u  # the rest of the first report is freed before the second solve
    u2 = solve_fixed_point(ps2).u
    measured = spectral.norm_h4(RealField(ps1.grid, u1.values - u2.values))
    interval = ps1.interval
    g_dist = c2_distance(ps1.g, ps2.g, interval)
    bound = continuity_bound(ps1.epsilon, snapshot, g_dist)
    return ContinuityReport(
        measured=measured,
        bound=bound,
        g_distance=g_dist,
        verdict=measured <= bound * (1.0 + slack) + 1e-15,
    )
