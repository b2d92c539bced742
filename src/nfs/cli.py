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
from .config import RunConfig, echo_config, parse_config
from .errors import AssumptionError, ConfigError, IterationError, NFSError
from .fixedpoint import continuity_experiment, measure_contraction, solve_fixed_point
from .grid import GridSpec, RealField, memory_budget_mb, read_field, write_field
from .linear import SEQUENCE_SLACK, sequence_experiment, solve_linear
from .nonlinearity import IntervalI, Nonlinearity, c2_norm
from .pipeline import assemble_problem

CERTIFIED_COMMANDS = ("bounds", "solve", "contraction", "continuity", "sequences")
BASE_MB = 64  # the interpreter with numpy and scipy loaded, before any field
# Real fields (8 n^d bytes each) alive at the peak of the heaviest command, contraction: 6.65 held (kernel, source, u0,
# the multiplier, the H4 weight, the int8 phase, |p|^2 per row, a one-block |p|^2 tile, the ball tables), at most 4.9
# on the pair's thread (its spectra, a scaled copy, an inverse transform), 5 on the draw thread (the next pair's
# spectra, their difference, two one-block norm temporaries: at d5n8 a block is the spectrum) and a pair spectrum
# (1.25) its arena keeps freed: 17.8, rounded up.
# Threaded passes (2^20 points up) keep scratch per thread, not n^d: +10 MB for contraction at d5n16, within the model.
FIELDS = 18


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _violated(lhs: str, measured: float, name: str, bound: float, slack: float) -> int:
    """Print a failed inequality with its numbers as one stderr line; returns exit code 3."""
    rhs = f"{name}*(1+slack) = {_fmt(bound * (1.0 + slack))} (slack {slack})"
    print(f"{lhs} {_fmt(measured)} > {rhs}", file=sys.stderr)
    return 3


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row)
        )
    _write_text(path, "\n".join(lines) + "\n")


def _build_grid(cfg: RunConfig) -> GridSpec:
    gs = GridSpec(cfg.dimension, cfg.n, cfg.half_width)
    need_mb, budget_mb = BASE_MB + FIELDS * gs.size * 8 / 2**20, memory_budget_mb()
    if need_mb > budget_mb:  # checked before any field is allocated
        raise ConfigError(f"a command on {gs.size} grid points needs about {need_mb:.0f} MB, over the "
                          f"memory budget of {budget_mb} MB (set NFS_MEMORY_BUDGET_MB to raise it)")
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
    return assemble_problem(
        gs,
        kernel,
        source,
        g,
        epsilon=cfg.epsilon,
        rho=cfg.rho,
        tol_fp=cfg.tol_fp,
        max_iter=cfg.max_iter,
        project_mean=cfg.project_mean,
        g_other=g2,
    )


def _report(out: str, name: str, cfg: RunConfig, lines: list[str]) -> None:
    """Write the echoed configuration and `lines` to out/name atomically; print the lines."""
    text = "\n".join(lines)
    _write_text(
        os.path.join(out, name), f"# resolved configuration\n{echo_config(cfg)}\n\n{text}\n"
    )
    print(text)


def cmd_bounds(cfg: RunConfig, out: str) -> int:
    ap = _assemble(cfg)
    lines = [f"{k} = {_fmt(float(v))}" for k, v in dataclasses.asdict(ap.snapshot).items()]
    lines.append(f"interval.upper = {_fmt(ap.interval.upper)}")
    lines.append(f"epsilon_resolved = {_fmt(ap.ps.epsilon)}")
    _report(out, "bounds.txt", cfg, lines)
    return 0


def cmd_solve_linear(cfg: RunConfig, out: str) -> int:
    gs = _build_grid(cfg)
    source = _build_source(cfg, gs)
    u0 = solve_linear(source, cfg.project_mean)
    write_field(os.path.join(out, "u0.nfs1"), u0)
    norms = builders.field_norms(u0)
    _report(out, "solve_linear.txt", cfg, [f"u0.{k} = {_fmt(v)}" for k, v in norms.items()])
    return 0


def cmd_solve(cfg: RunConfig, out: str) -> int:
    ps = _assemble(cfg).ps  # the solve computes its own u0
    report = solve_fixed_point(ps)
    write_field(os.path.join(out, "u.nfs1"), report.u)
    tr = report.trace
    rows = [[i, *r] for i, r in enumerate(zip(tr.iterate_h4, tr.step_h4, tr.ratio, tr.residual))]
    _write_csv(os.path.join(out, "trace.csv"), ["iter", "u_h4", "step_h4", "ratio", "residual"], rows)
    lines = [f"{k} = {_fmt(float(v))}" for k, v in dataclasses.asdict(ps.bounds).items()]
    lines += [
        f"epsilon = {_fmt(ps.epsilon)}",
        f"guarantee = {'certified' if ps.certified else 'uncertified'}",
        "converged = True",  # non-convergence raises
        f"iterations = {len(tr.step_h4)}",
        f"u_p_h4 = {_fmt(tr.iterate_h4[-1])}",
        f"u_h4 = {_fmt(spectral.norm_h4(report.u))}",
        f"final_residual = {_fmt(tr.residual[-1])}",
    ]
    _report(out, "solve.txt", cfg, lines)
    return 0


def cmd_contraction(cfg: RunConfig, out: str) -> int:
    ap = _assemble(cfg)
    stats = measure_contraction(ap.ps, cfg.trials, cfg.seed, u0=ap.u0)
    rows = [[i, d, r] for i, (d, r) in enumerate(zip(stats.distances, stats.ratios))]
    _write_csv(os.path.join(out, "contraction.csv"), ["trial", "v_dist", "ratio"], rows)
    lines = [
        f"max_ratio = {_fmt(stats.max_ratio)}",
        f"mean_ratio = {_fmt(stats.mean_ratio)}",
        f"eps_sigma_bound = {_fmt(stats.bound)}",  # every CLI problem is assembled with a snapshot
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
        f"measured_h4 = {_fmt(rep.measured)}",
        f"bound = {_fmt(rep.bound)}",
        f"g_distance_c2 = {_fmt(rep.g_distance)}",
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
    h = builders.build_gaussian_diff_source(
        gs,
        centers=(0.5 * cfg.half_width / np.pi, -0.5 * cfg.half_width / np.pi),
        widths=(1.0, 1.0),
        amplitude=0.1 * cfg.source.amplitude,
    )
    # built one at a time, so the working set does not grow with sequence.count
    perts = (RealField(gs, h.values / k) for k in range(1, cfg.sequence_count + 1))
    rep = sequence_experiment(source, perts, cfg.project_mean)
    rows = [
        [k + 1, rep.df_l1[k], rep.df_l2[k], rep.du_h4[k], rep.majorant[k], rep.ok[k]]
        for k in range(len(rep.ok))
    ]
    _write_csv(
        os.path.join(out, "sequences.csv"),
        ["n", "df_l1", "df_l2", "du_h4", "majorant", "ok"],
        rows,
    )
    print(f"verdict = {rep.verdict}")
    if rep.verdict:
        return 0
    k = rep.ok.index(False)  # the first n whose du_h4 exceeds its majorant
    lhs = f"sequence majorant violated at n = {k + 1}: du_h4"
    return _violated(lhs, rep.du_h4[k], "majorant", rep.majorant[k], SEQUENCE_SLACK)


def cmd_selfcheck(cfg: RunConfig, out: str) -> int:
    checks: list[tuple[str, bool]] = []

    gs = GridSpec(2, 8, np.pi)
    one = RealField(gs, np.ones(gs.size))
    F = spectral.forward_transform(one)
    expected = (2 * np.pi) ** 2 / (2 * np.pi)
    checks.append(
        ("grid-spectral: constant transform", abs(F.coeffs[0, 0] - expected) < 1e-12)
    )
    rt = spectral.inverse_transform(F)
    checks.append(
        ("grid-spectral: round trip", np.max(np.abs(rt.values - 1.0)) < 1e-12)
    )

    pr = minimize_phi(4.0, 5)
    checks.append(
        ("bounds: radial minimizer plug-in", abs(pr.r_star - 1) < 1e-14 and abs(pr.phi_min - 5) < 1e-13)
    )
    checks.append(
        ("bounds: sphere measure d=2", abs(sphere_measure(2) - 2 * np.pi) < 1e-14)
    )

    rep = c2_norm(Nonlinearity(coeffs=[1.0]), IntervalI(-1.0, 1.0))
    checks.append(("nonlinearity: z^2 C2 norm", abs(rep.c2_norm - 5.0) < 1e-14))

    gs5 = GridSpec(5, 8, np.pi)
    x1 = gs5.axis_coords()
    cosx = np.cos(x1)
    vals = np.broadcast_to(
        cosx.reshape((8,) + (1,) * 4), gs5.shape
    ).reshape(-1)
    f5 = RealField(gs5, np.array(vals))
    u5 = solve_linear(f5)
    checks.append(
        (
            "linear-poisson: cos(x1)/2",
            np.max(np.abs(u5.values - f5.values / 2.0)) < 1e-12,
        )
    )

    g = Nonlinearity(coeffs=[1.0])
    kern = builders.build_gaussian_kernel(GridSpec(5, 8, 4 * np.pi), 1.0, 1.0)
    src = builders.build_gaussian_diff_source(GridSpec(5, 8, 4 * np.pi))
    ap = assemble_problem(GridSpec(5, 8, 4 * np.pi), kern, src, g, epsilon=0.0)
    rep0 = solve_fixed_point(ap.ps)
    checks.append(
        (
            "fixed-point: eps=0 one iteration",
            len(rep0.trace.step_h4) == 1 and spectral.norm_h4(rep0.u_p) == 0.0,
        )
    )

    try:
        parse_config("run.rho = 1.5")
        checks.append(("cli-harness: rho gate", False))
    except ConfigError:
        checks.append(("cli-harness: rho gate", True))

    ok = True
    lines = []
    for name, passed in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    print("\n".join(lines))
    _write_text(os.path.join(out, "selfcheck.txt"), "\n".join(lines) + "\n")
    return 0 if ok else 3


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
        with np.errstate(all="ignore"):  # a non-finite number is refused by name, not warned about
            return HANDLERS[args.command](cfg, cfg.output_dir)
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
