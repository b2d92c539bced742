"""Picard iteration for the perturbative solution and its certified checks.

The auxiliary map sends v to the solution u of

    [-lap + lap^2] u = eps * K conv g(u0 + v),

a strict contraction on the closed ball of radius rho in H4 whenever the
coupling eps stays below the certified threshold. The iterate is kept as its
folded half spectrum, an array passed after its grid as every spectrum is (see
`spectral`), and a step is one irfftn, the pointwise g, one rfftn, a multiply by
the fixed eps (2 pi)^(d/2) K^, which carries the phase that folds the spectrum,
and a blocked divide by |p|^2 + |p|^4. Every
eps K conv g(u0 + v) is taken on one path, after the ball and the interval checks
(every step's, apply_tg's and the last iterate's), so the returned u is checked
like any other iterate. eps = 0 needs no special case: the multiplier is then 0,
and `solve_linear_full`, which each step calls directly, solves an all-zero spectrum
to zero. One blocked pass per step reads the residual, the step norm and the iterate
norm off spectra already in hand. On a grid with threaded nd-FFTs, every elementwise
pass of a step runs on every CPU as well, bitwise as on one (`spectral._map_blocks`).
A contraction pair keeps both draws as folded spectra: 2 irfftn for the compositions
and 1 rfftn of their difference, whose product with the multiplier is the step's
(`_folded_conv`).
The iteration is plain (no acceleration): its geometric decay is measured."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

from . import spectral
from .bounds import BoundsSnapshot, continuity_bound
from .config import RunConfig, check_value
from .errors import AssumptionError, ConfigError, DegeneratePair, Diverged, NotConverged, OutsideBall, TrivialField
from .grid import GridSpec, RealField, _made, check_same_grid, zeros_like
from .linear import _solve_linear, solve_linear_full
from .nonlinearity import IntervalI, Nonlinearity, build_interval, c2_distance, compose

BALL_SLACK = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """One fully assembled problem instance (diffusion constant fixed to 1). Its grid is the kernel's, and its
    certified interval is the snapshot's: neither is stated twice. Frozen, so neither the multiplier nor the
    interval can fall behind the fields they are built from; `dataclasses.replace` builds a changed copy."""

    kernel: RealField
    source: RealField
    g: Nonlinearity
    epsilon: float
    rho: float = 1.0
    bounds: Optional[BoundsSnapshot] = None
    tol_fp: float = 1e-10
    max_iter: int = 200
    project_mean: bool = False
    # eps (2 pi)^(d/2) K^ times scale, zero mode 0: times dft(G), the folded spectrum of eps K conv G (`_folded_conv`)
    multiplier: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_same_grid(self.kernel, self.source)
        check_value("run.rho", self.rho)
        if self.epsilon is None:  # the config's "auto"
            raise ConfigError("run.epsilon must be a number here, as only assemble_problem resolves auto; got None")
        for key in ("epsilon", "tol_fp", "max_iter"):
            check_value(f"run.{key}", getattr(self, key))
        for name in ("kernel", "source"):  # the one all-zero test of each input field, for the CLI and API alike
            if not np.any(getattr(self, name).values):
                raise TrivialField(f"{name} is identically zero: kernel and source must be nontrivial")
        kh = spectral.forward_transform(self.kernel)
        coupling = self.epsilon * (2.0 * np.pi) ** (self.grid.d / 2.0)
        # not in place: the temporaries' holes are where the loop's spectra fit later; built in place,
        # the heap grows past them and the loop's peak RSS rises
        object.__setattr__(self, "multiplier", coupling * kh * spectral.half_lattice(self.grid).scale)
        self.multiplier[(0,) * self.grid.d] = 0.0  # dropped, as the mean-projected solve and the residual drop it

    @property
    def grid(self) -> GridSpec:
        return self.kernel.spec

    @cached_property
    def interval(self) -> Optional[IntervalI]:
        """[-a, a] with a = c_e (||u0||_H4 + 1) from the snapshot; None (no check) without one."""
        b = self.bounds
        return None if b is None else build_interval(b.u0_h4, b.embedding_constant)

    @property
    def certified(self) -> bool:
        """A snapshot for this rho whose eps_max covers epsilon; every such problem checks its interval."""
        b = self.bounds
        return b is not None and b.rho == self.rho and self.epsilon <= b.epsilon_max


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


def _check_ball(ps: ProblemSpec, v_h4: float) -> None:
    if v_h4 > ps.rho * (1.0 + BALL_SLACK):
        raise OutsideBall(f"||v||_H4 = {v_h4} exceeds rho = {ps.rho}")


def _folded_conv(ps: ProblemSpec, G: RealField) -> np.ndarray:
    """Folded half spectrum of eps K conv G: dft(G) times the multiplier, in blocks; at eps = 0 all zero."""
    conv = spectral.dft(G)
    spectral._map_blocks(ps.grid, lambda b, c, m: np.multiply(c, m, out=c), conv, ps.multiplier)
    return conv


def _checked_conv(ps: ProblemSpec, u0: RealField, v: RealField, v_h4: float) -> np.ndarray:
    """Folded half spectrum of eps K conv g(u0 + v), after the ball and the interval checks. G is freed on
    return, before a caller's solve allocates (one real field less at the peak)."""
    _check_ball(ps, v_h4)
    return _folded_conv(ps, compose(ps.g, u0, v, ps.interval))


def _step_norms(grid: GridSpec, vh: np.ndarray, conv=None, vh_next=None) -> tuple[float, float, float]:
    """One blocked pass: the L2 norm of conv - (|p|^2 + |p|^4) vh, iterate vh's residual (conv and a solve's
    vh have no zero mode; off it, the u0 part f^ - (|p|^2 + |p|^4) u0^ is rounding), ||vh_next - vh||_H4 and
    ||vh_next||_H4, each 0 when not asked for. The residual is formed in conv, the difference in vh."""
    lattice = spectral.half_lattice(grid)

    def block(b: slice, v, r, nxt, h4) -> list[float]:
        parts = [0.0, 0.0, 0.0]
        if r is not None:
            symbol = lattice.symbol(b)
            np.subtract(r.real, symbol * v.real, out=r.real)  # symbol * v through real block temporaries
            np.subtract(r.imag, symbol * v.imag, out=r.imag)
            parts[0] = np.sum(spectral._weighted_abs2(r, lattice.hermitian))
        if nxt is not None:
            dv = np.subtract(nxt, v, out=v)
            parts[1:] = np.sum(spectral._weighted_abs2(dv, h4)), np.sum(spectral._weighted_abs2(nxt, h4))
        return parts

    sums = reduce(np.add, spectral._map_blocks(grid, block, vh, conv, vh_next, lattice.h4_weight), np.zeros(3))
    return tuple(map(float, np.sqrt(grid.freq_spacing() ** grid.d * sums)))


def apply_tg(v: RealField, ps: ProblemSpec, u0: RealField) -> RealField:
    """One application of the auxiliary map; mean of the convolution projected."""
    conv = _checked_conv(ps, u0, v, spectral.norm_h4(v))
    return spectral.inverse_folded(ps.grid, solve_linear_full(ps.grid, conv, project=True))


def solve_fixed_point(ps: ProblemSpec, v_start: Optional[RealField] = None) -> SolveReport:
    """Iterate v <- t_g(v) from v = 0 until the relative H4 step converges.

    The residual of iterate k uses the g(u0 + v_k) that step k + 1 transforms
    anyway; only the last iterate needs one more forward transform for it, after
    the same ball and interval checks. The real iterate v lives only from its
    inverse transform to the composition, which reads it and leaves it as it is.
    """
    grid = ps.grid
    if v_start is not None:
        check_same_grid(ps.source, v_start)
    u0 = _solve_linear(ps.source, ps.project_mean)
    if v_start is None:
        v, vh = zeros_like(grid), np.zeros(grid.half_shape, dtype=complex)
    else:
        v, vh = v_start, spectral.forward_folded(v_start)
    v_h4 = spectral.norm_h4_spectral(grid, vh)
    trace = IterationTrace()
    grow_streak = 0
    for _ in range(ps.max_iter):
        conv = _checked_conv(ps, u0, v, v_h4)
        del v
        vh_next = solve_linear_full(grid, conv, project=True)
        prev = trace.step_h4[-1] if trace.step_h4 else None
        res, step, v_h4 = _step_norms(grid, vh, conv if prev is not None else None, vh_next)
        del conv
        if prev is not None:  # the previous iterate's residual, from this step's G
            trace.residual.append(res)
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
        v = spectral.inverse_folded(grid, vh)
    else:
        raise NotConverged(f"no convergence within {ps.max_iter} iterations")
    v = spectral.inverse_folded(grid, vh)
    # v is kept for the report; u is built after G^, so G and u are not alive at once
    trace.residual.append(_step_norms(grid, vh, _checked_conv(ps, u0, v, v_h4))[0])
    return SolveReport(u0=u0, u_p=v, u=_made(grid, u0.values + v.values), trace=trace)  # compose checked u0 + v


def residual(u: RealField, ps: ProblemSpec) -> float:
    """L2 norm of [lap - lap^2] u + eps * K conv g(u) + f, zero mode projected.

    The zero mode of the differential part vanishes identically, so the
    residual is meaningful only on the projected complement; projection here
    matches the mean handling of the solve.
    """
    uh = spectral.forward_transform(u)
    p2 = spectral.p2(ps.grid)
    conv = spectral.convolve(ps.kernel, RealField(ps.grid, ps.g.g(u.values)))
    rh = spectral.forward_transform(RealField(ps.grid, ps.source.values + ps.epsilon * conv.values))
    res = rh - (uh * p2 + uh * p2**2)  # [lap - lap^2]u = -(|p|^2 + |p|^4) u^
    res[(0,) * ps.grid.d] = 0.0
    return spectral.norm_l2_spectral(ps.grid, res)


@lru_cache(maxsize=4)
def _ball_tables(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damping phase / (sqrt(2) (1 + |p|^4)) in (rows, last axis) layout, |p|^2 as the blocked passes form it; flat
    indices of one mode per conjugate pair on the planes k_last = 0 and n/2, of its partner, of the self-conjugate."""
    lattice, back, m = spectral.half_lattice(grid), (-np.arange(grid.n)) % grid.n, grid.half_shape[-1]
    damping = lattice.rows_p2[:, None] + lattice.tile[0]
    damping **= 2
    damping += 1.0
    np.divide(np.sqrt(0.5), damping, out=damping)
    damping *= lattice.phase.reshape(damping.shape)
    mirror = reduce(lambda a, _: np.add.outer(a * grid.n, back).ravel(), range(grid.d - 1), np.zeros(1, np.intp))
    rows, planes = np.arange(len(mirror)), lambda r: np.add.outer(r * m, [0, m - 1]).ravel()  # row by row
    return damping, planes(rows[rows < mirror]), planes(mirror[rows < mirror]), planes(rows[rows == mirror])


def sample_ball_spectrum(grid: GridSpec, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Folded half spectrum (see `spectral`) of a field with H4 norm uniform in (0, rho].

    One draw of n^d normals, one per degree of freedom, damped by w = 0.5 / (1 + |p|^4), then rescaled: a mode
    with 0 < k_last < n/2 takes two in a row as sqrt(2) N(0, 1) w real and imaginary parts; on the planes
    k_last = 0 and n/2, one mode of each conjugate pair takes the same and its partner their exact conjugate,
    and a self-conjugate mode takes 2 N(0, 1) w, imaginary part 0. The damping spans rough-to-smooth
    directions while staying in H4. `spectral.inverse_folded` gives the field.
    """
    damping, reps, partners, selfs = _ball_tables(grid)
    (rows, m), x, sym = damping.shape, rng.standard_normal(grid.size), np.empty(grid.half_shape, dtype=complex)
    k, flat, damp = 2 * rows * (m - 2), sym.reshape(-1), damping.reshape(-1)
    np.multiply(x[:k].view(complex).reshape(rows, m - 2), damping[:, 1:-1], out=sym.reshape(rows, m)[:, 1:-1])
    flat[reps] = x[k : k + 2 * len(reps)].view(complex) * damp[reps]
    flat[partners] = np.conj(flat[reps])
    flat[selfs] = np.sqrt(2.0) * x[k + 2 * len(reps) :] * damp[selfs]
    h4 = spectral.norm_h4_spectral(grid, sym)
    if h4 == 0.0:
        raise DegeneratePair("sampled field vanished; retry with a new draw")
    target = rho * (1.0 - rng.uniform(0.0, 1.0)) or rho  # uniform in (0, rho]; rho where the product underflows
    sym *= target / h4
    return sym


def sample_ball(grid: GridSpec, rho: float, rng: np.random.Generator) -> RealField:
    """Draw a field with H4 norm uniform in (0, rho]; see sample_ball_spectrum."""
    return spectral.inverse_folded(grid, sample_ball_spectrum(grid, rho, rng))


def measure_contraction(ps: ProblemSpec, trials: int, seed: int, u0: RealField) -> ContractionStats:
    """Sample iterate pairs in the ball and measure the Lipschitz ratio.

    t_g(v1) - t_g(v2) is the linear solve of eps K conv [g(u0 + v1) - g(u0 + v2)]: one rfftn, whose
    folded solve has the H4 norm of the unfolded one.
    One background thread draws the next pair, with its H4 distance and (unless degenerate) both ball checks,
    while this thread measures the current one; if that thread cannot start, this one draws each pair as it takes
    it. The draws take the one generator in order, so the pairs are those of a serial loop; an error there is raised
    when its pair is taken, and the thread is joined on return and raise.
    """
    check_value("run.trials", trials)
    check_value("run.seed", seed)
    grid, rng = ps.grid, np.random.default_rng(seed)
    # Freeing 8 real fields raises glibc's dynamic mmap threshold (only blocks up to 32 MB move it), and
    # the trim threshold (twice it), above one pair's temporaries: these are then reused on the heap, not
    # mapped, faulted in and unmapped per pair (about 250 minor faults per pair at d5n8 otherwise).
    np.empty(min(8 * grid.size, 1 << 21))

    def draw() -> tuple[list[np.ndarray], float]:
        vhs = [sample_ball_spectrum(grid, ps.rho, rng) for _ in range(2)]
        dist = spectral.norm_h4_spectral(grid, vhs[0] - vhs[1])
        for vh in vhs if dist >= 1e-14 else ():  # a degenerate pair is resampled unchecked
            _check_ball(ps, spectral.norm_h4_spectral(grid, vh))
        return vhs, dist

    ratios: list[float] = []
    distances: list[float] = []
    with ThreadPoolExecutor(1) as pool:  # leaving the block waits for a draw in flight
        try:
            take = pool.submit(draw).result
        except RuntimeError:  # the draw thread cannot start: this one draws each pair as it takes it. No later
            take = draw  # submit starts a thread, so the draw this submit may have queued never runs
        while len(ratios) < trials:
            vhs, dist = take()
            if take is not draw and (dist < 1e-14 or len(ratios) + 1 < trials):  # no pair is drawn and then dropped
                take = pool.submit(draw).result
            if dist < 1e-14:
                continue  # degenerate pair, resample
            # each spectrum is freed once its v is built, and each v once g(u0 + v) is
            g1, g2 = (compose(ps.g, u0, spectral.inverse_folded(grid, vhs.pop(0)), ps.interval) for _ in range(2))
            diff = _folded_conv(ps, _made(grid, g1.values - g2.values))
            del g1, g2  # freed before the solve, where the pair's work would peak
            ratios.append(spectral.norm_h4_spectral(grid, solve_linear_full(grid, diff, project=True)) / dist)
            del diff  # not kept alive through the next pair's draws
            distances.append(dist)
    bound = ps.epsilon * ps.bounds.sigma if ps.bounds is not None else None
    return ContractionStats(ratios, distances, max(ratios), float(np.mean(ratios)), bound)


def continuity_experiment(ps1: ProblemSpec, ps2: ProblemSpec, slack: float = RunConfig.slack) -> ContinuityReport:
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
    g_dist = c2_distance(ps1.g, ps2.g, ps1.interval)
    bound = continuity_bound(ps1.epsilon, snapshot, g_dist)
    return ContinuityReport(measured, bound, g_dist, verdict=measured <= bound * (1.0 + slack) + 1e-15)
