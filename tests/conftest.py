import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from nfs import builders, cli, fixedpoint, grid, pipeline
from nfs.grid import GridSpec
from nfs.nonlinearity import Nonlinearity


@pytest.fixture(scope="session")
def standard_scenario():
    """d = 5, n = 8, L = 4*pi, unit Gaussian kernel, two-hump source, g = z^2."""
    gs = GridSpec(5, 8, 4.0 * np.pi)
    kernel = builders.build_gaussian_kernel(gs, 1.0, 1.0)
    source = builders.build_gaussian_diff_source(gs)
    g = Nonlinearity(coeffs=[1.0])
    return pipeline.assemble_problem(gs, kernel, source, g)


# One row per kind of structural operation: (per solve of k steps, per contraction pair on its thread, per pair on
# the draw thread, (per `nfs solve`, per `nfs contraction`) outside its solve or its pairs). The library counts each
# kind (`grid.op_counts`) but numpy's own full-size np.any, counted here.
COUNTS = {
    # per step an irfftn and an rfftn; u0's solve 2 and the last residual 1; a pair's 2 irfftn and 1 rfftn. Set-up
    # transforms the source and the kernel; solve's report then u for u_h4, contraction solves u0
    "nd_fft": (lambda k: 2 * k + 3, 3, 0, (3, 4)),
    # per step the composition, the multiply, the divide, the step's norms and the next iterate's irfftn input; u0's
    # solve 4, the zero start's norm 1, the last residual 3. A pair: its 2 irfftn inputs, 2 compositions, the
    # multiply, the divide and the ratio's norm; its draws: 2 norms, their distance and 2 ball checks. Set-up: the
    # source's scale, û0's solve (2) and norm, the kernel's scale; then u_h4 (2) or u0's solve (4)
    "blocked_pass": (lambda k: 5 * k + 8, 7, 5, (7, 9)),
    # the builders' kernel and source: every field the library makes from them is left unscanned (`grid._made`)
    "finite_scan": (lambda k: 0, 0, 0, (2, 2)),
    "compose": (lambda k: k + 1, 2, 0, (0, 0)),  # each step's and the last residual's, all checked
    "linear_solve": (lambda k: k + 1, 1, 0, (1, 2)),  # each step's and u0's; set-up's û0, and contraction's u0
    "full_size_any": (lambda k: 0, 0, 0, (2, 2)),  # ProblemSpec's kernel and source; the loop scans nothing
}
STEPS, PAIRS = 6, 4  # the standard scenario's Picard steps, and the contraction pairs measured


@dataclass
class StructuralCounts:
    """Each count's change over a standard-scenario solve (on the calling thread and on the others), over PAIRS
    contraction pairs (on the pair's thread and on the draw thread), and over `nfs solve` and `nfs contraction` on
    the same problem outside their solve or pairs (on every thread)."""

    steps: int
    solve: Counter
    elsewhere: Counter
    pair: Counter
    draw: Counter
    commands: tuple[Counter, Counter]

    def per_solve(self, *ops) -> tuple:
        """For each op in ops, (steps, its count on this thread, on the others): as measured, and by COUNTS."""
        got = {op: (self.steps, self.solve[op], self.elsewhere[op]) for op in ops} | self._other_kinds()
        return got, {op: (STEPS, COUNTS[op][0](STEPS), 0) for op in ops}

    def per_pairs(self, *ops) -> tuple:
        """For each op in ops, its count on the pair's thread and on the draw thread: as measured, and by COUNTS."""
        got = {op: (self.pair[op], self.draw[op]) for op in ops} | self._other_kinds()
        return got, {op: (PAIRS * COUNTS[op][1], PAIRS * COUNTS[op][2]) for op in ops}

    def per_command(self, *ops) -> tuple:
        """For each op in ops, its count outside `nfs solve`'s solve and `nfs contraction`'s pairs: as measured, and
        by COUNTS."""
        got = {op: tuple(c[op] for c in self.commands) for op in ops} | self._other_kinds()
        return got, {op: COUNTS[op][3] for op in ops}

    def _other_kinds(self) -> dict:
        """The kinds counted that COUNTS has no row for, under a key of their own, if any."""
        other = sorted(set().union(self.solve, self.elsewhere, self.pair, self.draw, *self.commands) - set(COUNTS))
        return {"kinds without a row": other} if other else {}


@pytest.fixture(scope="session")
def structural_counts(standard_scenario, tmp_path_factory):
    ps, u0, main = standard_scenario.ps, standard_scenario.u0, threading.get_ident()  # u0 solved outside the counts
    full, any_, anys = np.prod(ps.grid.half_shape), np.any, Counter()  # full-size np.any calls by thread
    tmp = tmp_path_factory.mktemp("counts")
    (tmp / "run.cfg").write_text(f"run.trials = {PAIRS}\n")  # the config's defaults are the standard scenario

    def counted_any(a, *args, **kw):
        anys[threading.get_ident()] += int(np.size(a) >= full)
        return any_(a, *args, **kw)

    def counts(thread: int | None) -> Counter:
        return grid.op_counts(thread) + Counter(full_size_any=anys[thread] if thread else sum(anys.values()))

    def made(run) -> tuple:
        """run()'s result, and each count's change over it on this thread and on the others."""
        here, total = counts(main), counts(None)
        out = run()
        here, total = counts(main) - here, counts(None) - total
        return out, here, total - here

    def outside(command: str, compute: str, mp) -> Counter:
        """Each count's change over `nfs command`, on every thread, less its change within cli's `compute`."""
        run, inner = getattr(cli, compute), []

        def measured(*args, **kwargs):
            out, here, elsewhere = made(lambda: run(*args, **kwargs))
            inner.append(here + elsewhere)
            return out

        mp.setattr(cli, compute, measured)
        rc, here, elsewhere = made(lambda: cli.main([command, "--config", str(tmp / "run.cfg"), "--out", str(tmp)]))
        assert rc == 0
        return here + elsewhere - inner[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "any", counted_any)
        rep, solve, elsewhere = made(lambda: fixedpoint.solve_fixed_point(ps))
        _, pair, draw = made(lambda: fixedpoint.measure_contraction(ps, trials=PAIRS, seed=3, u0=u0))
        commands = outside("solve", "solve_fixed_point", mp), outside("contraction", "measure_contraction", mp)
    return StructuralCounts(len(rep.trace.step_h4), solve, elsewhere, pair, draw, commands)
