"""Command-line harness: `nfs <command> --config <path> [--out DIR] [--seed N]`.

Commands: bounds, solve-linear, solve, contraction, continuity, sequences,
selfcheck. Exit codes: 0 ok, 2 configuration, 3 assumption violation,
4 non-convergence. All artifacts are written atomically (temp + rename) and
every report echoes the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import builders, spectral
from .bounds import minimize_phi, sphere_measure
from .config import RunConfig, echo_config, parse_config, show_float
from .errors import AssumptionError, ConfigError, IterationError, NFSError
from .fixedpoint import continuity_experiment, measure_contraction, solve_fixed_point
from .grid import GridSpec, RealField, atomic_write, check_budget, memory_budget_mb, need_mb, read_field, write_field
from .linear import SEQUENCE_SLACK, sequence_experiment, solve_linear
from .nonlinearity import IntervalI, Nonlinearity, c2_norm
from .pipeline import assemble_problem

CERTIFIED_COMMANDS = ("bounds", "solve", "contraction", "continuity", "sequences")


def _violated(lhs: str, measured: float, name: str, bound: float, slack: float) -> int:
    """Print a failed inequality with its numbers as one stderr line; returns exit code 3."""
    rhs = f"{name}*(1+slack) = {show_float(bound * (1.0 + slack))} (slack {slack})"
    print(f"{lhs} {show_float(measured)} > {rhs}", file=sys.stderr)
    return 3


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(show_float(x) if isinstance(x, float) else str(x) for x in row)
        )
    atomic_write(path, "\n".join(lines) + "\n")


def _build_grid(cfg: RunConfig) -> GridSpec:
    gs = GridSpec(cfg.dimension, cfg.n, cfg.half_width)
    check_budget(gs)
    return gs


def _read_on_grid(path: str, gs: GridSpec, what: str) -> RealField:
    f = read_field(path)
    if f.spec != gs:
        raise ConfigError(f"{what} file {path} has grid {f.spec}, config has {gs}")
    builders.check_gates(f, what)
    return f


def _build_kernel(cfg: RunConfig, gs: GridSpec) -> RealField:
    if cfg.kernel.type == "file":
        return _read_on_grid(cfg.kernel.file, gs, "kernel")
    return builders.build_gaussian_kernel(gs, cfg.kernel.sigma, cfg.kernel.amplitude)


def _build_source(cfg: RunConfig, gs: GridSpec) -> RealField:
    if cfg.source.type == "file":
        return _read_on_grid(cfg.source.file, gs, "source")
    return builders.build_gaussian_diff_source(
        gs, cfg.source.centers, cfg.source.widths, cfg.source.amplitude
    )


def _assemble(cfg: RunConfig, g2: Nonlinearity | None = None):
    gs = _build_grid(cfg)
    kernel = _build_kernel(cfg, gs)
    source = _build_source(cfg, gs)
    g = Nonlinearity(coeffs=cfg.coeffs)
    return assemble_problem(gs, kernel, source, g, epsilon=cfg.epsilon, rho=cfg.rho, tol_fp=cfg.tol_fp,
                            max_iter=cfg.max_iter, project_mean=cfg.project_mean, g_other=g2)


def _report(out: str, name: str, cfg: RunConfig, lines: list[str]) -> None:
    """Write the echoed configuration and `lines` to out/name atomically; print the lines."""
    text = "\n".join(lines)
    atomic_write(os.path.join(out, name), f"# resolved configuration\n{echo_config(cfg)}\n\n{text}\n")
    print(text)


def cmd_bounds(cfg: RunConfig, out: str) -> int:
    ap = _assemble(cfg)
    lines = [f"{k} = {show_float(float(v))}" for k, v in dataclasses.asdict(ap.snapshot).items()]
    lines.append(f"interval.upper = {show_float(ap.ps.interval.upper)}")
    lines.append(f"epsilon_resolved = {show_float(ap.ps.epsilon)}")
    _report(out, "bounds.txt", cfg, lines)
    return 0


def cmd_solve_linear(cfg: RunConfig, out: str) -> int:
    gs = _build_grid(cfg)
    source = _build_source(cfg, gs)
    u0 = solve_linear(source, cfg.project_mean)
    write_field(os.path.join(out, "u0.nfs1"), u0)
    norms = builders.field_norms(u0)
    _report(out, "solve_linear.txt", cfg, [f"u0.{k} = {show_float(v)}" for k, v in norms.items()])
    return 0


def cmd_solve(cfg: RunConfig, out: str) -> int:
    ps = _assemble(cfg).ps  # the solve computes its own u0
    report = solve_fixed_point(ps)
    write_field(os.path.join(out, "u.nfs1"), report.u)
    tr = report.trace
    rows = [[i, *r] for i, r in enumerate(zip(tr.iterate_h4, tr.step_h4, tr.ratio, tr.residual))]
    _write_csv(os.path.join(out, "trace.csv"), ["iter", "u_h4", "step_h4", "ratio", "residual"], rows)
    lines = [f"{k} = {show_float(float(v))}" for k, v in dataclasses.asdict(ps.bounds).items()]
    lines += [
        f"epsilon = {show_float(ps.epsilon)}",
        f"guarantee = {'certified' if ps.certified else 'uncertified'}",
        "converged = True",  # non-convergence raises
        f"iterations = {len(tr.step_h4)}",
        f"u_p_h4 = {show_float(tr.iterate_h4[-1])}",
        f"u_h4 = {show_float(spectral.norm_h4(report.u))}",
        f"final_residual = {show_float(tr.residual[-1])}",
    ]
    _report(out, "solve.txt", cfg, lines)
    return 0


def cmd_contraction(cfg: RunConfig, out: str) -> int:
    ap = _assemble(cfg)
    stats = measure_contraction(ap.ps, cfg.trials, cfg.seed, u0=ap.u0)
    rows = [[i, d, r] for i, (d, r) in enumerate(zip(stats.distances, stats.ratios))]
    _write_csv(os.path.join(out, "contraction.csv"), ["trial", "v_dist", "ratio"], rows)
    lines = [
        f"max_ratio = {show_float(stats.max_ratio)}",
        f"mean_ratio = {show_float(stats.mean_ratio)}",
        f"eps_sigma_bound = {show_float(stats.bound)}",  # every CLI problem is assembled with a snapshot
        f"certified = {ap.ps.certified}",
    ]
    _report(out, "contraction.txt", cfg, lines)
    if ap.ps.certified and stats.max_ratio > stats.bound * (1.0 + cfg.slack):
        lhs = "contraction bound violated: max_ratio"
        return _violated(lhs, stats.max_ratio, "eps*sigma", stats.bound, cfg.slack)
    return 0


def cmd_continuity(cfg: RunConfig, out: str) -> int:
    if cfg.coeffs2 is None:
        raise ConfigError("continuity requires nonlinearity.coeffs2")
    g2 = Nonlinearity(coeffs=cfg.coeffs2)
    ps1 = _assemble(cfg, g2=g2).ps
    rep = continuity_experiment(ps1, dataclasses.replace(ps1, g=g2), slack=cfg.slack)
    lines = [
        f"measured_h4 = {show_float(rep.measured)}",
        f"bound = {show_float(rep.bound)}",
        f"g_distance_c2 = {show_float(rep.g_distance)}",
        f"verdict = {rep.verdict}",
    ]
    _report(out, "continuity.txt", cfg, lines)
    if rep.verdict:
        return 0
    lhs = "continuity bound violated: measured_h4"
    return _violated(lhs, rep.measured, "bound", rep.bound, cfg.slack)


def cmd_sequences(cfg: RunConfig, out: str) -> int:
    gs = _build_grid(cfg)
    source = _build_source(cfg, gs)
    # perturbation family (1/n) h with h a fixed mean-free two-hump bump
    centers = (0.5 * cfg.half_width / np.pi, -0.5 * cfg.half_width / np.pi)
    h = builders.build_gaussian_diff_source(gs, centers, widths=(1.0, 1.0), amplitude=0.1 * cfg.source.amplitude)
    # built one at a time, so the working set does not grow with sequence.count
    perts = (RealField(gs, h.values / k) for k in range(1, cfg.sequence_count + 1))
    rep = sequence_experiment(source, perts, cfg.project_mean)
    rows = [[k, *r] for k, r in enumerate(zip(rep.df_l1, rep.df_l2, rep.du_h4, rep.majorant, rep.ok), start=1)]
    _write_csv(os.path.join(out, "sequences.csv"), ["n", "df_l1", "df_l2", "du_h4", "majorant", "ok"], rows)
    print(f"verdict = {rep.verdict}")
    if rep.verdict:
        return 0
    k = rep.ok.index(False)  # the first n whose du_h4 exceeds its majorant
    lhs = f"sequence majorant violated at n = {k + 1}: du_h4"
    return _violated(lhs, rep.du_h4[k], "majorant", rep.majorant[k], SEQUENCE_SLACK)


def _cos_x1_halved() -> bool:
    """[-lap + lap^2] u = cos(x1) on the 2 pi box has u = cos(x1) / 2."""
    gs = GridSpec(5, 8, np.pi)
    f = RealField(gs, np.broadcast_to(np.cos(gs.axis_coords()).reshape((8,) + (1,) * 4), gs.shape).reshape(-1))
    return np.max(np.abs(solve_linear(f).values - f.values / 2.0)) < 1e-12


def _eps0_one_iteration() -> bool:
    gs = GridSpec(5, 8, 4 * np.pi)
    kernel, source = builders.build_gaussian_kernel(gs, 1.0, 1.0), builders.build_gaussian_diff_source(gs)
    rep = solve_fixed_point(assemble_problem(gs, kernel, source, Nonlinearity(coeffs=[1.0]), epsilon=0.0).ps)
    return len(rep.trace.step_h4) == 1 and spectral.norm_h4(rep.u_p) == 0.0


def _rho_gate_refuses() -> bool:
    try:
        parse_config("run.rho = 1.5")
    except ConfigError:
        return True
    return False


def cmd_selfcheck(cfg: RunConfig, out: str) -> int:
    gs, pr = GridSpec(2, 8, np.pi), minimize_phi(4.0, 5)
    F = spectral.forward_transform(RealField(gs, np.ones(gs.size)))
    checks = [  # (name, predicate), run in order
        ("grid-spectral: constant transform", lambda: abs(F[0, 0] - (2 * np.pi) ** 2 / (2 * np.pi)) < 1e-12),
        ("grid-spectral: round trip", lambda: np.max(np.abs(spectral.inverse_transform(gs, F).values - 1.0)) < 1e-12),
        ("bounds: radial minimizer plug-in", lambda: abs(pr.r_star - 1) < 1e-14 and abs(pr.phi_min - 5) < 1e-13),
        ("bounds: sphere measure d=2", lambda: abs(sphere_measure(2) - 2 * np.pi) < 1e-14),
        ("nonlinearity: z^2 C2 norm",
         lambda: abs(c2_norm(Nonlinearity(coeffs=[1.0]), IntervalI(-1.0, 1.0)).c2_norm - 5.0) < 1e-14),
        ("linear-poisson: cos(x1)/2", _cos_x1_halved),
        ("fixed-point: eps=0 one iteration", _eps0_one_iteration),
        ("cli-harness: rho gate", _rho_gate_refuses),
    ]
    passed = [bool(check()) for _, check in checks]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for (name, _), ok in zip(checks, passed)]
    print("\n".join(lines))
    atomic_write(os.path.join(out, "selfcheck.txt"), "\n".join(lines) + "\n")
    return 0 if all(passed) else 3


HANDLERS = {
    "bounds": cmd_bounds,
    "solve-linear": cmd_solve_linear,
    "solve": cmd_solve,
    "contraction": cmd_contraction,
    "continuity": cmd_continuity,
    "sequences": cmd_sequences,
    "selfcheck": cmd_selfcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfs",
        description="Pseudo-spectral non-Fredholm integro-differential solver",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", required=False, help="path to config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = parse_config("")
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        cfg.validate()
        if args.command in CERTIFIED_COMMANDS and cfg.dimension < 5:
            raise ConfigError(
                f"command {args.command!r} needs dimension >= 5, got {cfg.dimension}"
            )
        os.makedirs(cfg.output_dir, exist_ok=True)
        try:
            with np.errstate(all="ignore"):  # a non-finite number is refused by name, not warned about
                return HANDLERS[args.command](cfg, cfg.output_dir)
        except MemoryError:  # numpy's _ArrayMemoryError and pocketfft's std::bad_alloc both arrive as one
            size = cfg.n**cfg.dimension  # exit 2, as the budget is configuration
            raise ConfigError(f"out of memory on {size} grid points, where the memory model (BASE_MB + FIELDS * 8 n^d) "
                              f"estimates {need_mb(size):.0f} MB and NFS_MEMORY_BUDGET_MB is {memory_budget_mb()}; "
                              "set it to the memory this process may use") from None
    except (ConfigError, OSError) as exc:  # OSError: unreadable config or field file, unusable --out
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3
    except IterationError as exc:
        print(f"iteration failed: {exc}", file=sys.stderr)
        return 4
    except NFSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
