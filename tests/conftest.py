import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from nfs import builders, fixedpoint, grid, pipeline
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
# the draw thread). The library counts each kind (`grid.op_counts`) but numpy's own full-size np.any, counted here.
COUNTS = {
    # per step an irfftn and an rfftn; u0's solve 2 and the last residual 1; a pair's 2 irfftn and 1 rfftn
    "nd_fft": (lambda k: 2 * k + 3, 3, 0),
    # per step the composition, the multiply, the divide, the step's norms and the next iterate's irfftn input; u0's
    # solve 4, the zero start's norm 1, the last residual 3. A pair: its 2 irfftn inputs, 2 compositions, the
    # multiply, the divide and the ratio's norm; its draws: 2 norms, their distance and 2 ball checks
    "blocked_pass": (lambda k: 5 * k + 8, 7, 5),
    # one per real field built: u0, the zero start, each step's composition and next iterate, the last residual's
    # composition and u; a pair's 2 iterates, 2 compositions and their difference
    "finite_scan": (lambda k: 2 * k + 4, 5, 0),
    "compose": (lambda k: k + 1, 2, 0),  # each step's and the last residual's, all checked
    "linear_solve": (lambda k: k + 1, 1, 0),  # each step's and u0's
    "full_size_any": (lambda k: 1, 0, 0),  # u0's source check; the loop scans nothing
}
STEPS, PAIRS = 6, 4  # the standard scenario's Picard steps, and the contraction pairs measured


@dataclass
class StructuralCounts:
    """Each count's change over a standard-scenario solve (on the calling thread and on the others) and over PAIRS
    contraction pairs (on the pair's thread and on the draw thread)."""

    steps: int
    solve: Counter
    elsewhere: Counter
    pair: Counter
    draw: Counter

    def per_solve(self, *ops) -> tuple:
        """For each op in ops, (steps, its count on this thread, on the others): as measured, and by COUNTS."""
        got = {op: (self.steps, self.solve[op], self.elsewhere[op]) for op in ops} | self._other_kinds()
        return got, {op: (STEPS, COUNTS[op][0](STEPS), 0) for op in ops}

    def per_pairs(self, *ops) -> tuple:
        """For each op in ops, its count on the pair's thread and on the draw thread: as measured, and by COUNTS."""
        got = {op: (self.pair[op], self.draw[op]) for op in ops} | self._other_kinds()
        return got, {op: (PAIRS * COUNTS[op][1], PAIRS * COUNTS[op][2]) for op in ops}

    def _other_kinds(self) -> dict:
        """The kinds counted that COUNTS has no row for, under a key of their own, if any."""
        other = sorted(set().union(self.solve, self.elsewhere, self.pair, self.draw) - set(COUNTS))
        return {"kinds without a row": other} if other else {}


@pytest.fixture(scope="session")
def structural_counts(standard_scenario):
    ps, u0, main = standard_scenario.ps, standard_scenario.u0, threading.get_ident()  # u0 solved outside the counts
    full, any_, anys = np.prod(ps.grid.half_shape), np.any, Counter()  # full-size np.any calls by thread

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "any", counted_any)
        rep, solve, elsewhere = made(lambda: fixedpoint.solve_fixed_point(ps))
        _, pair, draw = made(lambda: fixedpoint.measure_contraction(ps, trials=PAIRS, seed=3, u0=u0))
    return StructuralCounts(len(rep.trace.step_h4), solve, elsewhere, pair, draw)
