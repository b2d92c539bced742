"""The test session and the benchmark's traced runs, each run as its own command line."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_failing_property_reports_its_example(tmp_path):
    """A failing hypothesis test fails alone: the session prints its example and runs on."""
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    args = ["-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(tmp_path)]
    run = subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def _workload(prefix):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    return next(n for n in names if n.startswith(prefix))


@pytest.mark.parametrize("prefix", ["solve-", "contraction-"])
def test_traced_benchmark_run_is_correct(prefix):
    """A one-workload run exits 0 even when its children fail, so read its verdict too."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", _workload(prefix), "--seconds", "1", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, run.stderr
