"""Seeded inputs for the benchmark workloads: run configs and `.nfs1` fields.

Everything here is computed with numpy alone, never with `nfs`, so the
inputs do not depend on the code under test. The `.nfs1` writer follows the
documented format: magic `NFS1`, `u32 d`, `u32 n`, `f64 L`, then `n^d`
little-endian `f64` samples in row-major order on `[-L, L)^d`.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

HALF_WIDTH = 4.0 * math.pi
SLACK = 0.05
TOL_FP = 1e-10
TRIALS = 200
HEADER_BYTES = 20

# The builders' gates, restated: the outer 10% shell carries less than 1e-6
# of the L1 mass, and the source's zero mode is below 1e-10 * ||f||_L2.
SHELL = 0.1
SHELL_MASS_LIMIT = 1e-6
ZERO_MODE_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # nfs CLI command
    d: int
    n: int
    fields_from_files: bool


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-d5n16", "solve", 5, 16, False),
        Workload("solve-d7n8", "solve", 7, 8, True),
        Workload("contraction-d5n8", "contraction", 5, 8, False),
    )
}


@dataclass(frozen=True)
class SourceParams:
    centers: tuple[float, float]
    widths: tuple[float, float]
    amplitude: float
    run_seed: int


def source_params(seed: int) -> SourceParams:
    """Two-hump source parameters drawn from `seed`.

    The ranges are narrow on purpose: every seed must converge in the same
    number of Picard steps, or the timings would vary with the seed.
    """
    rng = np.random.default_rng(seed)
    c1, c2 = rng.uniform(0.9, 1.1), -rng.uniform(0.9, 1.1)
    w1, w2 = rng.uniform(0.95, 1.05, size=2)
    amplitude = rng.uniform(0.95, 1.05)
    run_seed = int(rng.integers(0, 2**31 - 1))
    return SourceParams((float(c1), float(c2)), (float(w1), float(w2)), float(amplitude), run_seed)


def _hump(d: int, n: int, center: np.ndarray, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / (2 w^2)) on the periodic distance, flat row-major."""
    period = 2.0 * HALF_WIDTH
    coords = -HALF_WIDTH + (period / n) * np.arange(n)
    acc = np.zeros((n,) * d)
    for axis in range(d):
        w = coords - center[axis]
        w = w - period * np.floor((w + HALF_WIDTH) / period)
        shape = [1] * d
        shape[axis] = n
        acc = acc + (w * w).reshape(shape)
    return np.exp(-acc.reshape(-1) / (2.0 * width**2))


def kernel_values(d: int, n: int) -> np.ndarray:
    """Unit Gaussian kernel (sigma 1, amplitude 1) centred at the origin."""
    return _hump(d, n, np.zeros(d), 1.0)


def source_values(d: int, n: int, p: SourceParams) -> np.ndarray:
    """Mean-free difference of two humps on the first axis, mass-matched."""
    c1, c2 = np.zeros(d), np.zeros(d)
    c1[0], c2[0] = p.centers
    h1 = _hump(d, n, c1, p.widths[0])
    h2 = _hump(d, n, c2, p.widths[1])
    return p.amplitude * (h1 - (np.sum(h1) / np.sum(h2)) * h2)


def norm_l2(values: np.ndarray, d: int, n: int) -> float:
    dx = 2.0 * HALF_WIDTH / n
    return float(np.sqrt(dx**d * np.sum(values**2)))


def check_gates(values: np.ndarray, d: int, n: int, what: str, mean_free: bool) -> None:
    """Raise ValueError unless the field passes the builders' gates."""
    if not np.any(values):
        raise ValueError(f"{what} is identically zero")
    coords = np.abs(-HALF_WIDTH + (2.0 * HALF_WIDTH / n) * np.arange(n))
    outer = coords >= (1.0 - SHELL) * HALF_WIDTH
    mask = np.zeros((n,) * d, dtype=bool)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        mask |= outer.reshape(shape)
    mag = np.abs(values.reshape((n,) * d))
    frac = float(np.sum(mag[mask]) / np.sum(mag))
    if frac >= SHELL_MASS_LIMIT:
        raise ValueError(f"{what}: outer-shell mass fraction {frac:.3e}")
    if mean_free:
        dx = 2.0 * HALF_WIDTH / n
        zero_mode = abs(float(np.sum(values))) * dx**d * (2.0 * math.pi) ** (-d / 2.0)
        if zero_mode > ZERO_MODE_TOL * norm_l2(values, d, n):
            raise ValueError(f"{what}: zero mode {zero_mode:.3e} is not negligible")


def write_nfs1(path: str, d: int, n: int, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"NFS1")
        fh.write(struct.pack("<IId", d, n, HALF_WIDTH))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def field_bytes(d: int, n: int) -> int:
    return HEADER_BYTES + 8 * n**d


@dataclass(frozen=True)
class Inputs:
    config_path: str
    source_l2: float


def make_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's config (and field files) under `workdir`."""
    p = source_params(seed)
    source = source_values(w.d, w.n, p)
    check_gates(source, w.d, w.n, "source", mean_free=True)
    lines = [
        f"grid.dimension = {w.d}",
        f"grid.n = {w.n}",
        f"grid.half_width = {HALF_WIDTH!r}",
        "run.epsilon = auto",
        f"run.tol_fp = {TOL_FP!r}",
        f"run.slack = {SLACK!r}",
        f"run.seed = {p.run_seed}",
        f"run.trials = {TRIALS}",
    ]
    if w.fields_from_files:
        kernel = kernel_values(w.d, w.n)
        check_gates(kernel, w.d, w.n, "kernel", mean_free=False)
        kpath = os.path.join(workdir, "kernel.nfs1")
        spath = os.path.join(workdir, "source.nfs1")
        write_nfs1(kpath, w.d, w.n, kernel)
        write_nfs1(spath, w.d, w.n, source)
        lines += [f"kernel.file = {kpath}", f"source.file = {spath}"]
    else:
        lines += [
            "kernel.type = gaussian",
            "kernel.sigma = 1.0",
            "kernel.amplitude = 1.0",
            "source.type = gaussian-diff",
            f"source.centers = {p.centers[0]!r}, {p.centers[1]!r}",
            f"source.widths = {p.widths[0]!r}, {p.widths[1]!r}",
            f"source.amplitude = {p.amplitude!r}",
        ]
    config_path = os.path.join(workdir, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Inputs(config_path=config_path, source_l2=norm_l2(source, w.d, w.n))
