"""Checks of one CLI run's artifacts. Each returns a list of failure reasons.

A run counts as failed unless its exit code is 0 and every check passes;
the benchmark counts failed runs, it never drops them.
"""

from __future__ import annotations

import math
import os
import struct

from inputs import HALF_WIDTH, SLACK, TRIALS, field_bytes

RESIDUAL_TOL = 1e-8


def read_report(path: str) -> dict[str, str]:
    """`key = value` lines of a report; comments and blank lines skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def check_field_file(path: str, d: int, n: int) -> list[str]:
    """`u.nfs1` must have the documented header and exactly n^d samples."""
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} missing"]
    size = os.path.getsize(path)
    if size != field_bytes(d, n):
        return [f"{os.path.basename(path)} has {size} bytes, expected {field_bytes(d, n)}"]
    with open(path, "rb") as fh:
        magic = fh.read(4)
        fd, fn, fl = struct.unpack("<IId", fh.read(16))
    if (magic, fd, fn, fl) != (b"NFS1", d, n, HALF_WIDTH):
        return [f"{os.path.basename(path)} header {(magic, fd, fn, fl)} is wrong"]
    return []


def _artifacts(out: str, names: tuple[str, ...]) -> list[str]:
    return [f"{name} missing" for name in names if not os.path.exists(os.path.join(out, name))]


def check_solve(out: str, d: int, n: int, source_l2: float) -> list[str]:
    missing = _artifacts(out, ("solve.txt", "trace.csv"))
    if missing:
        return missing + check_field_file(os.path.join(out, "u.nfs1"), d, n)
    rep = read_report(os.path.join(out, "solve.txt"))
    fails = []
    if rep.get("converged") != "True":
        fails.append(f"converged = {rep.get('converged')}")
    if rep.get("guarantee") != "certified":
        fails.append(f"guarantee = {rep.get('guarantee')}")
    residual = float(rep.get("final_residual", "nan"))
    limit = RESIDUAL_TOL * max(1.0, source_l2)
    if not residual <= limit:
        fails.append(f"final_residual {residual:.3e} > {limit:.3e}")
    bound = float(rep.get("epsilon", "nan")) * float(rep.get("sigma", "nan")) * (1.0 + SLACK)
    rows = read_csv(os.path.join(out, "trace.csv"))
    if len(rows) != int(rep.get("iterations", -1)):
        fails.append(f"trace.csv has {len(rows)} rows, iterations = {rep.get('iterations')}")
    for row in rows:
        ratio = float(row["ratio"])
        if math.isfinite(ratio) and not ratio <= bound:
            fails.append(f"trace ratio {ratio:.6g} at iter {row['iter']} > eps*sigma*(1+slack) = {bound:.6g}")
    return fails + check_field_file(os.path.join(out, "u.nfs1"), d, n)


def check_contraction(out: str) -> list[str]:
    missing = _artifacts(out, ("contraction.txt", "contraction.csv"))
    if missing:
        return missing
    rep = read_report(os.path.join(out, "contraction.txt"))
    fails = []
    if rep.get("certified") != "True":
        fails.append(f"certified = {rep.get('certified')}")
    max_ratio = float(rep.get("max_ratio", "nan"))
    bound = float(rep.get("eps_sigma_bound", "nan")) * (1.0 + SLACK)
    if not max_ratio <= bound:
        fails.append(f"max_ratio {max_ratio:.6g} > eps_sigma_bound*(1+slack) = {bound:.6g}")
    rows = read_csv(os.path.join(out, "contraction.csv"))
    if len(rows) != TRIALS:
        fails.append(f"contraction.csv has {len(rows)} rows, expected {TRIALS}")
    return fails


def check_run(command: str, returncode: int, out: str, d: int, n: int, source_l2: float) -> list[str]:
    fails = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        if command == "solve":
            fails += check_solve(out, d, n, source_l2)
        else:
            fails += check_contraction(out)
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        fails.append(f"unreadable artifact: {exc!r}")
    return fails
