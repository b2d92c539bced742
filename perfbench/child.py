"""One benchmark child: runs `nfs.cli.main(argv)` exactly as `python -m nfs.cli`
does, with timestamps at the set-up and compute boundaries.

Usage: python3 child.py RECORD MODE <nfs cli arguments...>

MODE is `run` (timestamps only), `setup` (exit as soon as `assemble_problem`
returns) or `trace` (also wrap every public function of the `nfs` modules and
the nd-FFT entry points of numpy.fft and scipy.fft). The child writes its
timestamps and counters as JSON to RECORD. Timestamps are CLOCK_MONOTONIC,
which the parent shares, so the parent measures set-up from spawn.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")
COMPUTE_FUNCTIONS = ("solve_fixed_point", "measure_contraction")
FILE_FUNCTIONS = ("grid.read_field", "grid.write_field")  # first argument is the path


class Tracer:
    """Spans around every public `nfs` function and counts of nd-FFT calls.

    Each span adds its duration to its parent's child time, so self time is
    duration minus children. `total_s` counts only the outermost call of a
    name. Stats are kept for the whole process (`all`) and for the compute
    window (`compute`), which the compute hook switches on.
    """

    def __init__(self):
        self.stack: list[list[float]] = []
        self.depth: dict[str, int] = {}
        self.in_compute = False
        self.stats = {"all": {}, "compute": {}}
        self.fft = {"all": [0, 0], "compute": [0, 0]}  # calls, bytes in + out
        self.io_bytes: dict[str, int] = {}

    def _scopes(self):
        return ("all", "compute") if self.in_compute else ("all",)

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            depth = self.depth.get(name, 0)
            self.depth[name] = depth + 1
            frame = [0.0]
            self.stack.append(frame)
            fft0 = self.fft["all"][0]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.depth[name] = depth
                for scope in self._scopes():
                    s = self.stats[scope].setdefault(name, [0, 0.0, 0.0, 0])
                    s[0] += 1
                    s[2] += dt - frame[0]
                    if depth == 0:
                        s[1] += dt
                        s[3] += self.fft["all"][0] - fft0
            if name in FILE_FUNCTIONS:
                self.io_bytes[name] = self.io_bytes.get(name, 0) + os.path.getsize(args[0])
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            x = args[0] if args else next(iter(kwargs.values()))
            nbytes = getattr(x, "nbytes", 0) + out.nbytes
            for scope in self._scopes():
                self.fft[scope][0] += 1
                self.fft[scope][1] += nbytes
            return out

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap each public nfs function and FFT entry point at every binding.

        A name imported with `from .x import f` is a separate binding in the
        importing module, so every module namespace is scanned and each
        reference to an original is replaced, not only the defining one.
        """
        import numpy.fft
        import scipy.fft

        nfs_modules = [m for k, m in sys.modules.items() if k == "nfs" or k.startswith("nfs.")]
        replace = {}
        for mod in nfs_modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer.startswith("_") or mod.__name__ in ("nfs", "nfs.cli"):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    replace[id(obj)] = self.span(f"{layer}.{attr}", obj)
        for fftmod in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                obj = getattr(fftmod, attr)
                replace[id(obj)] = self.counter(obj)
                setattr(fftmod, attr, replace[id(obj)])
        for mod in nfs_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = {}
    t0 = now()
    from nfs import cli

    rec["import_s"] = now() - t0
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    def write_record():
        tmp = record_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
        os.replace(tmp, record_path)

    assemble = cli.assemble_problem

    def assemble_problem(*args, **kwargs):
        out = assemble(*args, **kwargs)
        rec["assembled"] = now()
        if mode == "setup":
            write_record()
            sys.stdout.flush()
            os._exit(0)
        return out

    cli.assemble_problem = assemble_problem

    def compute_hook(fn):
        def compute(*args, **kwargs):
            if tracer is not None:
                tracer.in_compute = True
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["compute_s"] = now() - t
                rec["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
                if tracer is not None:
                    tracer.in_compute = False
            if hasattr(out, "trace"):
                rec["iterations"] = len(out.trace.step_h4)
            else:
                rec["pairs"] = len(out.ratios)
            return out

        return compute

    for name in COMPUTE_FUNCTIONS:
        setattr(cli, name, compute_hook(getattr(cli, name)))

    rc = cli.main(argv)
    if tracer is not None:
        rec["trace"] = {"stats": tracer.stats, "fft": tracer.fft, "io_bytes": tracer.io_bytes}
    write_record()
    return rc


if __name__ == "__main__":
    sys.exit(main())
