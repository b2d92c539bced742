"""The test session, the benchmark's own tests and its traced runs, each run as its own command line,
and a scan that keeps every nd-FFT of the package in `spectral`, where it is counted."""

import ast
import glob
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


def _workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", _workloads())
def test_traced_benchmark_run_is_correct(workload):
    """A one-workload run exits 0 even when its children fail, so read its verdict too."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, run.stderr


def test_benchmark_own_tests_pass():
    """perfbench's checks of its metrics and gates, which the session's testpaths leave out."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


ND_TRANSFORMS = {"fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn", "fft2", "ifft2", "rfft2", "irfft2",
                 "hfft2", "ihfft2", "r2c", "c2r", "c2c"}  # of scipy.fft, numpy.fft and pocketfft


def nd_transforms_named(path):
    """Line numbers where the module at `path` names an nd transform (as an attribute, a name, a
    string or an import) or imports pocketfft. 1-D helpers such as np.fft.fftfreq pass."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            words = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            pocketfft = any("pocketfft" in w for w in words)
        else:
            words = [getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)]
            pocketfft = False
        if pocketfft or {part for w in words if isinstance(w, str) for part in w.split(".")} & ND_TRANSFORMS:
            lines.append(node.lineno)
    return lines


def test_nd_transforms_only_in_spectral():
    modules = glob.glob(os.path.join(ROOT, "src", "nfs", "*.py"))
    assert nd_transforms_named(os.path.join(ROOT, "src", "nfs", "spectral.py"))  # the scan sees real calls
    named = {os.path.basename(m): nd_transforms_named(m) for m in modules if not m.endswith("spectral.py")}
    assert named and not any(named.values()), named


@pytest.mark.parametrize("source", [
    "import scipy.fft\nscipy.fft.rfftn(x)\n",
    "from numpy.fft import irfftn as inv\n",
    "from scipy.fft._pocketfft import pypocketfft\n",
    "import numpy as np\nf = getattr(np.fft, 'fftn')\n",
])
def test_scan_finds_a_direct_transform(source, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert nd_transforms_named(str(path))
