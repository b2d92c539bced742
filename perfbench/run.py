"""Benchmark of the `nfs solve` and `nfs contraction` CLI commands.

    python3 perfbench/run.py --workload solve-d5n16 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each measurement is a fresh child process equivalent to
`PYTHONPATH=src python -m nfs.cli <command>` (see child.py), run one at a
time, closed loop. With `--trace 0` the children are untimed except for
boundary timestamps, and the last stdout line holds the end-to-end metrics.
With `--trace 1`, traced and untraced children alternate and the last line
holds the per-layer metrics and the tracing overhead. Every child's
artifacts are checked; a failed child is counted, never dropped.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from checks import check_run
from inputs import WORKLOADS, Workload, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up time is the median of at least this many children; when the run
# holds fewer full commands, probes that stop once assemble_problem returns
# make up the rest.
SETUP_SAMPLES = 5
# A median of at least two commands, even when one command takes half the run.
MIN_FULL = 2
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


class Runner:
    def __init__(self, w: Workload, seed: int, workdir: str):
        self.w = w
        self.workdir = workdir
        self.inputs = make_inputs(w, seed, workdir)
        self.env = child_env()
        self.count = 0
        self.failures: list[str] = []

    def run(self, mode: str) -> dict:
        """Run one child to completion; return its record and outcome."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.workdir, tag)
        os.makedirs(out)
        record = os.path.join(self.workdir, tag + ".json")
        argv = [sys.executable, CHILD, record, mode, self.w.command,
                "--config", self.inputs.config_path, "--out", out]
        with open(os.path.join(out, "stdout.txt"), "wb") as so, open(os.path.join(out, "stderr.txt"), "wb") as se:
            t_spawn = now()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(record, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            rec = {}
        res = {"mode": mode, "wall_s": t_exit - t_spawn, "peak_rss_mb": usage.ru_maxrss / 1024.0, "rec": rec}
        if "assembled" in rec:
            res["setup_s"] = rec["assembled"] - t_spawn
        if mode == "setup":
            fails = [] if proc.returncode == 0 and "setup_s" in res else [f"setup probe exit code {proc.returncode}"]
        else:
            w = self.w
            fails = check_run(w.command, proc.returncode, out, w.d, w.n, self.inputs.source_l2)
            if "compute_s" not in rec or "setup_s" not in res:
                fails.append("child recorded no set-up or compute timestamps")
        if fails:
            with open(os.path.join(out, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            self.failures.append(f"{tag}: " + "; ".join(fails) + (f" | stderr: {tail}" if tail else ""))
        res["ok"] = not fails
        shutil.rmtree(out)
        return res


def fits(elapsed: float, seconds: float, durations: list[float]) -> bool:
    """Start another child only if it is expected to end within the run."""
    return not durations or elapsed + statistics.median(durations) <= seconds


def measure_e2e(runner: Runner, seconds: float) -> list[dict]:
    """Full commands for the run's time (at least MIN_FULL), then set-up probes."""
    t0 = now()
    results: list[dict] = []
    while len(results) < MIN_FULL or fits(now() - t0, seconds, [r["wall_s"] for r in results]):
        results.append(runner.run("run"))
    results += [runner.run("setup") for _ in range(SETUP_SAMPLES - len(results))]
    return results


def measure_trace(runner: Runner, seconds: float) -> list[dict]:
    t0 = now()
    results = [runner.run("trace"), runner.run("run")]
    pair = [results[0]["wall_s"] + results[1]["wall_s"]]
    while fits(now() - t0, seconds, pair):
        start = now()
        results += [runner.run("trace"), runner.run("run")]
        pair.append(now() - start)
    return results


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}


def e2e_metrics(results: list[dict]) -> dict:
    ok = [r for r in results if r["ok"]]
    full = [r for r in ok if r["mode"] == "run"]
    samples = {
        "wall_s": [r["wall_s"] for r in full],
        "setup_s": [r["setup_s"] for r in ok],
        "compute_s": [r["rec"]["compute_s"] for r in full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
    }
    return {k: summarize(v) for k, v in samples.items() if v}


class BrokenTrace(Exception):
    pass


def layer_metrics(command: str, rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child.

    Compute-layer numbers (spectral, fixedpoint, nonlinearity, linear) come
    from the compute window only; set-up layers from the whole process.
    A unit is one Picard step (solve) or one measured pair (contraction).
    """
    tr = rec["trace"]
    comp, whole = tr["stats"]["compute"], tr["stats"]["all"]

    def c(name, field):  # field: 0 calls, 1 total_s, 2 self_s, 3 nd-FFTs inside
        return comp.get(name, [0, 0.0, 0.0, 0])[field]

    def a(name, field):
        return whole.get(name, [0, 0.0, 0.0, 0])[field]

    iterations, pairs = rec.get("iterations", 0), rec.get("pairs", 0)
    units = iterations or pairs
    fft_calls, fft_bytes = tr["fft"]["compute"]
    if fft_calls == 0:
        raise BrokenTrace("no nd-FFT calls counted in the compute window")
    if command == "solve" and c("linear.solve_linear_full", 0) != iterations + 1:
        raise BrokenTrace(
            f"linear.solve_linear_full.calls = {c('linear.solve_linear_full', 0)}"
            f" != iterations + 1 = {iterations + 1}"
        )
    u0_ffts, u0_s = c("linear.solve_linear", 3), c("linear.solve_linear", 1)
    drawn = c("fixedpoint.sample_ball", 0) / 2
    m = {
        "spectral.fft_per_unit": (fft_calls - u0_ffts) / units,
        "spectral.fft_u0": u0_ffts,
        "spectral.fft_mb_per_unit": fft_bytes / 1e6 / units,
        "spectral.forward_transform.self_s": c("spectral.forward_transform", 2),
        "spectral.forward_transform.calls": c("spectral.forward_transform", 0),
        "spectral.inverse_transform.self_s": c("spectral.inverse_transform", 2),
        "spectral.inverse_transform.calls": c("spectral.inverse_transform", 0),
        "spectral.convolve.self_s": c("spectral.convolve", 2),
        "spectral.norm_h4.calls": c("spectral.norm_h4", 0),
        "spectral.norm_h4_spectral.self_s": c("spectral.norm_h4_spectral", 2),
        "fixedpoint.iterations": iterations,
        "fixedpoint.pairs": pairs,
        "fixedpoint.step_s": (rec["compute_s"] - u0_s) / units,
        "fixedpoint.apply_tg.total_s": c("fixedpoint.apply_tg", 1),
        "fixedpoint.apply_tg.calls": c("fixedpoint.apply_tg", 0),
        "fixedpoint.residual.total_s": c("fixedpoint.residual", 1),
        "fixedpoint.residual.calls": c("fixedpoint.residual", 0),
        "fixedpoint.sample_ball.total_s": c("fixedpoint.sample_ball", 1),
        "fixedpoint.sample_ball.calls": c("fixedpoint.sample_ball", 0),
        "fixedpoint.pair_accept_ratio": pairs / drawn if drawn else 1.0,
        "nonlinearity.compose.self_s": c("nonlinearity.compose", 2),
        "nonlinearity.compose.calls": c("nonlinearity.compose", 0),
        "linear.solve_linear_full.self_s": c("linear.solve_linear_full", 2),
        "linear.solve_linear_full.calls": c("linear.solve_linear_full", 0),
        "pipeline.assemble_problem.total_s": a("pipeline.assemble_problem", 1),
        "bounds.embedding_constant.total_s": a("bounds.embedding_constant", 1),
        "bounds.embedding_constant.calls": a("bounds.embedding_constant", 0),
        "builders.build_gaussian_kernel.total_s": a("builders.build_gaussian_kernel", 1),
        "builders.build_gaussian_diff_source.total_s": a("builders.build_gaussian_diff_source", 1),
        "grid.read_field.total_s": a("grid.read_field", 1),
        "grid.read_field.mb": tr["io_bytes"].get("grid.read_field", 0) / 1e6,
        "grid.write_field.total_s": a("grid.write_field", 1),
        "grid.write_field.mb": tr["io_bytes"].get("grid.write_field", 0) / 1e6,
        "config.parse_config.total_s": a("config.parse_config", 1),
    }
    return m


LAYER_UNITS = {"self_s": "s", "total_s": "s", "step_s": "s", "calls": "count", "mb": "MB",
               "iterations": "count", "pairs": "count", "fft_per_unit": "count", "fft_u0": "count",
               "fft_mb_per_unit": "MB", "pair_accept_ratio": "ratio", "minor_faults": "count",
               "import_s": "s", "overhead_s": "s"}


def trace_metrics(command: str, results: list[dict]) -> dict[str, float]:
    ok = [r for r in results if r["ok"]]
    traced = [r for r in ok if r["mode"] == "trace"]
    plain = [r for r in ok if r["mode"] == "run"]
    if not traced or not plain:
        return {}
    per_child = [layer_metrics(command, r["rec"]) for r in traced]
    m = {k: statistics.median(pc[k] for pc in per_child) for k in per_child[0]}
    m["fixedpoint.minor_faults"] = statistics.median(r["rec"]["minor_faults"] for r in plain)
    m["nfs.import_s"] = statistics.median(r["rec"]["import_s"] for r in ok)
    m["trace.overhead_s"] = statistics.median(r["rec"]["compute_s"] for r in traced) - statistics.median(
        r["rec"]["compute_s"] for r in plain)
    return m


def cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes as the kernel reports them for cpu0 (read-only)."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            with open(os.path.join(path, "level")) as fl, open(os.path.join(path, "size")) as fs:
                level, size = fl.read().strip(), fs.read().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment(seed: int) -> dict:
    import scipy

    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cache": cache_sizes(),
        "commit": commit(),
        "seed": seed,
        "child_threads": {var: env[var] for var in THREAD_VARS},
        "bytes_note": "FFT bytes are computed from array sizes (in + out), not measured;"
                      " arrays are smaller than 4x L3, so no bandwidth is claimed",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], list[str]]:
    w = WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(w, seed, workdir)
        results = measure_trace(runner, seconds) if trace else measure_e2e(runner, seconds)
        return environment(seed), results, runner.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env, results, failures = run_workload(name, seed, seconds, trace)
    for f in failures:
        print(f"{name}: FAILED {f}", file=sys.stderr)
    attempted, failed = len(results), len(failures)
    print(f"{name}: env {json.dumps(env, sort_keys=True)}")
    print(f"{name}: fail_frac = {failed / attempted:.4g} ratio ({failed} of {attempted} runs failed)")
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rpartition(".")[2]]}
                   for k, v in trace_metrics(WORKLOADS[name].command, results).items()}
        for k, v in metrics.items():
            print(f"{name}: {k} = {v['value']:.6g} {v['unit']}")
    else:
        stats = e2e_metrics(results)
        metrics = {k: {"value": s["median"], "unit": E2E_UNITS[k]} for k, s in stats.items()}
        for k, s in stats.items():
            print(f"{name}: {k} median = {s['median']:.6g} {E2E_UNITS[k]}"
                  f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, max {s['max']:.6g}, n = {s['n']})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "nfs", "cli.py")):
        print(f"benchmark: no nfs sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [report(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BrokenTrace as exc:
        print(f"benchmark: broken trace: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        for n, r in zip(names, results):
            print(f"{n}: correct = {r['correct']}")
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
