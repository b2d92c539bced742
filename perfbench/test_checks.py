"""Tests of the benchmark's own output checks: bad artifacts count as failures.

Run with `python3 -m pytest -q perfbench`. A fake child stands in for the
solver and writes fabricated artifacts, so the tests exercise the same
counting path as a real run without running `nfs`.
"""

import json
import os
import struct
import sys
import textwrap

import pytest

import run
from checks import check_run
from inputs import HALF_WIDTH, Workload

D, N = 5, 4
SOLVE = Workload("tiny-solve", "solve", D, N, False)
CONTRACTION = Workload("tiny-contraction", "contraction", D, N, False)

FAKE_CHILD = textwrap.dedent(
    """
    import json, os, struct, sys, time
    record, mode, command = sys.argv[1:4]
    out = sys.argv[sys.argv.index("--out") + 1]
    case = json.loads(os.environ["FAKE_CASE"])
    for name, text in case["text"].items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    if case["field_bytes"] is not None:
        with open(os.path.join(out, "u.nfs1"), "wb") as fh:
            fh.write(b"NFS1" + struct.pack("<IId", {d}, {n}, {L!r}))
            fh.write(bytes(case["field_bytes"]))
    now = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(record, "w") as fh:
        json.dump({{"assembled": now, "compute_s": 0.01, "import_s": 0.01}}, fh)
    sys.exit(case["rc"])
    """
).format(d=D, n=N, L=HALF_WIDTH)


def solve_text(residual=1e-14, ratios=("nan", "0.01", "0.02")):
    report = textwrap.dedent(
        f"""\
        # resolved configuration
        grid.dimension = {D}
        run.epsilon = auto

        sigma = 2.0
        epsilon = 0.1
        guarantee = certified
        converged = True
        iterations = {len(ratios)}
        final_residual = {residual!r}
        """
    )
    trace = "iter,u_h4,step_h4,ratio,residual\n" + "".join(
        f"{i},0.5,0.1,{r},1e-9\n" for i, r in enumerate(ratios)
    )
    return {"solve.txt": report, "trace.csv": trace}


def contraction_text(max_ratio=0.1, rows=200):
    report = f"max_ratio = {max_ratio!r}\nmean_ratio = 0.05\neps_sigma_bound = 0.2\ncertified = True\n"
    csv = "trial,v_dist,ratio\n" + "".join(f"{i},0.5,0.05\n" for i in range(rows))
    return {"contraction.txt": report, "contraction.csv": csv}


GOOD_FIELD = 8 * N**D


@pytest.fixture
def make_runner(tmp_path, monkeypatch):
    child = tmp_path / "fake_child.py"
    child.write_text(FAKE_CHILD)
    monkeypatch.setattr(run, "CHILD", str(child))

    def make(workload, text, field_bytes=GOOD_FIELD, rc=0):
        monkeypatch.setenv("FAKE_CASE", json.dumps({"text": text, "field_bytes": field_bytes, "rc": rc}))
        workdir = tmp_path / "work"
        workdir.mkdir(exist_ok=True)
        return run.Runner(workload, seed=3, workdir=str(workdir))

    return make


def test_good_solve_artifacts_pass(make_runner):
    runner = make_runner(SOLVE, solve_text())
    assert runner.run("run")["ok"]
    assert runner.failures == []


def test_good_contraction_artifacts_pass(make_runner):
    runner = make_runner(CONTRACTION, contraction_text(), field_bytes=None)
    assert runner.run("run")["ok"]


@pytest.mark.parametrize(
    "workload, text, field_bytes, rc, reason",
    [
        (SOLVE, solve_text(residual=1e-6), GOOD_FIELD, 0, "final_residual"),
        (SOLVE, solve_text(ratios=("nan", "0.01", "0.25")), GOOD_FIELD, 0, "trace ratio"),
        (SOLVE, solve_text(), GOOD_FIELD - 8, 0, "u.nfs1 has"),
        (SOLVE, solve_text(), None, 0, "u.nfs1 missing"),
        (SOLVE, solve_text(), GOOD_FIELD, 4, "exit code 4"),
        (CONTRACTION, contraction_text(max_ratio=0.25), None, 0, "max_ratio"),
        (CONTRACTION, contraction_text(rows=199), None, 0, "rows"),
    ],
)
def test_bad_artifacts_count_as_failed(make_runner, workload, text, field_bytes, rc, reason):
    runner = make_runner(workload, text, field_bytes, rc)
    results = [runner.run("run"), runner.run("run")]
    assert [r["ok"] for r in results] == [False, False]
    assert len(runner.failures) == 2
    assert reason in runner.failures[0]


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "u.nfs1"
    path.write_bytes(b"NFS1" + struct.pack("<IId", D, N, 1.0) + bytes(GOOD_FIELD))
    fails = check_run("solve", 0, str(tmp_path), D, N, 1.0)
    assert any("header" in f for f in fails)


def test_missing_timestamps_fail(make_runner, monkeypatch):
    runner = make_runner(SOLVE, solve_text())
    monkeypatch.setattr(run, "CHILD", os.devnull)  # empty script: exit 0, writes nothing
    assert not runner.run("run")["ok"]
    assert "timestamps" in runner.failures[0]


def test_broken_trace_is_not_a_result():
    rec = {"iterations": 5, "compute_s": 1.0,
           "trace": {"stats": {"compute": {"linear.solve_linear_full": [1, 0.1, 0.1, 2]}, "all": {}},
                     "fft": {"compute": [12, 100]}, "io_bytes": {}}}
    with pytest.raises(run.BrokenTrace, match="iterations"):
        run.layer_metrics("solve", rec)
    rec["trace"]["fft"]["compute"] = [0, 0]
    with pytest.raises(run.BrokenTrace, match="FFT"):
        run.layer_metrics("solve", rec)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    stats = {"compute": {"linear.solve_linear_full": [4, 0.1, 0.1, 2], "linear.solve_linear": [1, 0.1, 0.0, 2]},
             "all": {}}
    traced = {"iterations": 3, "compute_s": 1.0, "import_s": 0.3, "minor_faults": 10,
              "trace": {"stats": stats, "fft": {"compute": [44, 100]}, "io_bytes": {}}}
    results = [{"ok": True, "mode": "trace", "rec": traced}, {"ok": True, "mode": "run", "rec": traced}]
    layers = run.trace_metrics("solve", results)
    assert {k: run.LAYER_UNITS[k.rpartition(".")[2]] for k in layers} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers["spectral.fft_per_unit"] == 14 and layers["spectral.fft_u0"] == 2
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
