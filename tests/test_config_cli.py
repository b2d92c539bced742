"""Config parsing, field builders, polynomial evaluation, and the CLI
commands end to end."""

import contextlib
import dataclasses
import io
import os
import resource
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfs import builders, cli, spectral
from nfs.config import KEYS, KernelConfig, RunConfig, SourceConfig, echo_config, parse_config
from nfs.errors import ConfigError, MassLeakage, TrivialField
from nfs.fixedpoint import ContinuityReport, ContractionStats
from nfs.grid import FIELDS, HEADER, MAGIC, GridSpec, RealField, read_field, write_field
from nfs.linear import SequenceReport
from nfs.nonlinearity import Nonlinearity
from nfs.spectral import norm_l1


def _numbers(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _listed(values):
    return ", ".join(map(repr, values))


_POSITIVE = _numbers(min_value=0.0, exclude_min=True).map(repr)
_PATH = st.text("abcxyz019/._-", min_size=1, max_size=12).filter(lambda t: t.strip() == t)


def _type(section, builtin):
    """The built-in type, or `file` followed by the config line naming its path."""
    return st.one_of(st.just(builtin), _PATH.map(lambda p: f"file\n{section}.file = {p}"))


# valid values, as config text, for every key of the table
VALUES = {
    "grid.dimension": st.integers(1, 7).map(str),
    "grid.n": st.sampled_from(["4", "8", "16", "1024"]),
    "grid.half_width": _numbers(min_value=0.0, max_value=sys.float_info.max / 2, exclude_min=True).map(repr),
    "run.epsilon": st.one_of(st.just("auto"), _numbers(min_value=0.0).map(repr)),
    "run.rho": _numbers(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    "run.tol_fp": _POSITIVE,
    "run.max_iter": st.integers(1, 10**6).map(str),
    "run.seed": st.integers(0, 2**64).map(str),
    "run.slack": _numbers(min_value=0.0).map(repr),
    "run.output_dir": _PATH,
    "run.mean_policy": st.sampled_from(["reject", "project"]),
    "run.trials": st.integers(1, 10**4).map(str),
    "sequence.count": st.integers(1, 10**4).map(str),
    "kernel.type": _type("kernel", "gaussian"),
    "kernel.sigma": _POSITIVE,
    "kernel.amplitude": _numbers().map(repr),
    "kernel.file": _PATH,
    "source.type": _type("source", "gaussian-diff"),
    "source.centers": st.tuples(_numbers(), _numbers()).map(_listed),
    "source.widths": st.tuples(*[_numbers(min_value=0.0, exclude_min=True)] * 2).map(_listed),
    "source.amplitude": _numbers().map(repr),
    "source.file": _PATH,
    "nonlinearity.coeffs": st.lists(_numbers(), min_size=1, max_size=5).filter(any).map(_listed),
    "nonlinearity.coeffs2": st.lists(_numbers(), min_size=1, max_size=5).map(_listed),
}


# a value, as config text, that breaks the rule of each key that has one
BROKEN = {
    "run.epsilon": "-0.5",
    "run.rho": "1.5",
    "run.tol_fp": "0.0",
    "run.max_iter": "0",
    "run.seed": "-1",
    "run.slack": "-0.01",
    "run.mean_policy": "ignore",
    "run.trials": "0",
    "sequence.count": "-2",
    "kernel.type": "gausian",
    "kernel.sigma": "-1.0",
    "source.type": "gaussian_diff",
    "source.widths": "1.0, 0.0",
    "nonlinearity.coeffs": "0.0, 0.0",
}


# any value, as config text: numbers of every size, the words the table knows, and noise
ANY_VALUE = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["auto", "file", "reject", "project", "gaussian", "gaussian-diff", "1e308", "9" * 5000]),
)
ANY_LINE = st.one_of(
    st.text(),
    st.tuples(st.one_of(st.sampled_from(sorted(VALUES)), st.text(max_size=8)), ANY_VALUE).map(" = ".join),
    st.sampled_from(sorted(VALUES)).flatmap(lambda k: VALUES[k].map(lambda v: f"{k} = {v}")),
)

# well-formed small NFS1 files, to be mutated
VALID_NFS1 = [HEADER.pack(MAGIC, d, n, 1.5) + np.ones(n**d, "<f8").tobytes() for d, n in ((1, 4), (2, 4), (3, 8))]


def _mutate(data: bytes, writes: list[tuple[int, int]], length: int) -> bytes:
    out = bytearray(data)
    for i, byte in writes:
        out[i % len(out)] = byte
    return bytes(out[:length] + b"\0" * (length - len(out)))


NFS1_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        st.builds(HEADER.pack, st.sampled_from([MAGIC, b"NFS0"]), *[st.integers(0, 2**32 - 1)] * 2, st.floats()),
        st.binary(max_size=64),
    ).map(b"".join),
    st.builds(
        _mutate,
        st.sampled_from(VALID_NFS1),
        st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4),
        st.integers(0, 4200),
    ),
)

# the d5n8 grid the CLI property runs on, and well-formed field files for it, to be mutated
CLI_GRID = "grid.dimension = 5\ngrid.n = 8\ngrid.half_width = 12.566370614359172\n"
_GS = GridSpec(5, 8, 12.566370614359172)
VALID_D5N8 = {
    part: HEADER.pack(MAGIC, 5, 8, _GS.half_width) + f.values.astype("<f8").tobytes()
    for part, f in (("kernel", builders.build_gaussian_kernel(_GS, 1.0, 1.0)),
                    ("source", builders.build_gaussian_diff_source(_GS)))
}


def _field_file_for(part: str):
    valid = VALID_D5N8[part]
    writes = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=4)
    length = st.one_of(st.just(len(valid)), st.integers(0, len(valid) + 16))
    return st.tuples(st.just(part), st.one_of(NFS1_BYTES, st.builds(_mutate, st.just(valid), writes, length)))


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(
            "grid.dimension = 5\n"
            "grid.n = 8\n"
            "grid.half_width = 12.566370614359172\n"
            "# a comment\n"
            "run.epsilon = auto\n"
        )
        assert cfg.dimension == 5
        assert cfg.n == 8
        assert cfg.epsilon is None
        assert cfg.mean_policy == "reject"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("grid.sides = 4")

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("run.rho = 1.5")

    def test_explicit_epsilon(self):
        cfg = parse_config("run.epsilon = 0.001")
        assert cfg.epsilon == 0.001

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("run.rho = abc")

    def test_bad_n(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config("grid.n = 12")

    def test_coeff_list(self):
        cfg = parse_config("nonlinearity.coeffs = 1.0, 0.5, 0.25")
        assert cfg.coeffs == (1.0, 0.5, 0.25)

    def test_echo_round_trip(self):
        cfg = parse_config("run.rho = 0.75\nnonlinearity.coeffs2 = 1.0,0.1")
        again = parse_config(echo_config(cfg))
        assert again == cfg

    def test_key_table_covers_every_field_once(self):
        want = []
        for f in dataclasses.fields(RunConfig):
            sub = {"kernel": KernelConfig, "source": SourceConfig}.get(f.name)
            want += [f"{f.name}.{g.name}" for g in dataclasses.fields(sub)] if sub else [f.name]
        assert sorted(path for _, path, _, _, _ in KEYS) == sorted(want)
        assert sorted(key for key, _, _, _, _ in KEYS) == sorted(VALUES)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_echo_is_a_fixed_point(self, data):
        """Echo omits unused branches (kernel.sigma of a file kernel), so compare echoes
        and the values of the keys echoed. The types come first: a named file after them
        selects type file, while a built-in type after a named file is refused."""
        keys = data.draw(st.lists(st.sampled_from(sorted(VALUES)), unique=True))
        keys.sort(key=lambda k: not k.endswith(".type"))
        cfg = parse_config("\n".join(f"{k} = {data.draw(VALUES[k], label=k)}" for k in keys))
        echoed = echo_config(cfg)
        again = parse_config(echoed)
        assert echo_config(again) == echoed
        for key, path, _, applies, _ in KEYS:
            if applies is None or applies(cfg):
                assert attrgetter(path)(again) == attrgetter(path)(cfg), key

    def test_echo_shows_the_selected_branch_only(self):
        def echoed(text):
            return {line.split(" = ")[0] for line in echo_config(parse_config(text)).splitlines()}

        every = {key for key, _, _, _, _ in KEYS}
        gaussian = {"kernel.sigma", "kernel.amplitude", "source.centers", "source.widths", "source.amplitude"}
        assert echoed("") == every - {"kernel.file", "source.file", "nonlinearity.coeffs2"}
        assert echoed("kernel.file = k\nsource.file = f\nnonlinearity.coeffs2 = 1") == every - gaussian

    def test_naming_a_file_selects_it(self):
        cfg = parse_config("kernel.file = k.nfs1\nsource.file = f.nfs1")
        assert (cfg.kernel.type, cfg.source.type) == ("file", "file")

    @pytest.mark.parametrize("part", ["kernel", "source"])
    def test_file_type_needs_a_path(self, part):
        with pytest.raises(ConfigError, match=f"{part}.type must be 'file' exactly when {part}.file names a "
                                              f"file, got 'file' with {part}.file = ''"):
            parse_config(f"{part}.type = file")

    @pytest.mark.parametrize("part, builtin", [("kernel", "gaussian"), ("source", "gaussian-diff")])
    def test_named_file_needs_file_type(self, part, builtin):
        # the built-in type used to win, and the named file was dropped without a word
        with pytest.raises(ConfigError, match=f"{part}.type must be 'file' exactly when {part}.file names a "
                                              f"file, got '{builtin}' with {part}.file = 'k.nfs1'"):
            parse_config(f"{part}.file = k.nfs1\n{part}.type = {builtin}")

    @pytest.mark.parametrize("key, value", list(BROKEN.items()))
    def test_broken_rule_names_key_and_value(self, key, value, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = {value}")
        message = str(exc.value)
        assert message.startswith(f"{key} must ") and value in message
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        assert run_cli(["bounds", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_every_rule_is_exercised(self):
        assert sorted(key for key, _, _, _, rule in KEYS if rule is not None) == sorted(BROKEN)


class TestFuzz:
    """Any input is read or refused as a configuration error, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_LINE, max_size=6).map("\n".join))
    def test_any_config_text(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(NFS1_BYTES)
    @example(HEADER.pack(MAGIC, 10**6, 4, 1.0))  # n**d used to take seconds, then fail to print
    @example(HEADER.pack(MAGIC, 2**32 - 1, 4, 1.0))
    def test_any_field_file(self, data):
        # a small budget keeps a header's payload allocation small; the gate is the budget's
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"NFS_MEMORY_BUDGET_MB": "64"}):
            path = os.path.join(tmp, "f.nfs1")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                read_field(path)
            except ConfigError:
                pass

    @settings(max_examples=30, deadline=None)
    @given(st.lists(ANY_LINE, max_size=3), st.sampled_from(sorted(VALID_D5N8)).flatmap(_field_file_for))
    @example([], ("kernel", VALID_D5N8["kernel"]))
    def test_any_input_through_the_cli(self, lines, field_file):
        """`nfs bounds` reads every input a solve reads and runs no iteration, so exit 4 cannot occur."""
        part, data = field_file
        stderr = io.StringIO()
        # the budget refuses the grids above d6n8 that the config lines may ask for, which would be slow
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"NFS_MEMORY_BUDGET_MB": "128"}):
            path, cfg = os.path.join(tmp, "f.nfs1"), os.path.join(tmp, "run.cfg")
            with open(path, "wb") as fh:
                fh.write(data)
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(CLI_GRID + "\n".join(lines) + f"\n{part}.file = {path}\n")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = cli.main(["bounds", "--config", cfg, "--out", os.path.join(tmp, "out")])
        err = stderr.getvalue()
        assert rc in (0, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err


class TestBuilders:
    def test_zero_amplitude_kernel(self):
        gs = GridSpec(2, 8, 4.0)
        with pytest.raises(TrivialField):
            builders.build_gaussian_kernel(gs, 1.0, 0.0)

    def test_zero_amplitude_source(self):
        gs = GridSpec(2, 8, 4.0)
        with pytest.raises(TrivialField):
            builders.build_gaussian_diff_source(gs, amplitude=0.0)

    def test_kernel_l1_closed_form(self):
        # || A exp(-|x|^2/(2 s^2)) ||_L1 = A (sqrt(2 pi) s)^d
        gs = GridSpec(3, 32, 8.0)
        s, amp = 1.0, 2.0
        k = builders.build_gaussian_kernel(gs, s, amp)
        want = amp * (np.sqrt(2 * np.pi) * s) ** 3
        assert norm_l1(k) == pytest.approx(want, rel=1e-6)

    def test_source_mean_free(self):
        gs = GridSpec(3, 16, 8.0)
        f = builders.build_gaussian_diff_source(gs, widths=(1.0, 0.7))
        # renormalization cancels the discrete mass to rounding
        assert abs(np.sum(f.values)) <= 1e-13 * np.sum(np.abs(f.values))

    def test_gaussian_hump_matches_pointwise_loop(self):
        """The broadcast hump rounds exactly as a per-point sum over axes in forward order."""
        gs, center, width = GridSpec(3, 8, 2.0), np.array([0.3, -0.7, 1.1]), 0.8
        period, sq = 2.0 * gs.half_width, np.zeros(gs.size)
        for flat, idx in enumerate(np.ndindex(gs.shape)):
            for axis, j in enumerate(idx):
                w = gs.axis_coords()[j] - center[axis]
                w -= period * np.floor((w + gs.half_width) / period)
                sq[flat] += w * w
        want = np.exp(-sq / (2.0 * width**2))
        assert np.array_equal(builders._gaussian_hump(gs, center, width), want)

    @pytest.mark.parametrize(
        "sigma, k_amp, centers, widths, s_amp",
        [(1.0, 1.0, (1.0, -1.0), (1.0, 1.0), 1.0), (0.7, -2.5, (1.3, -0.4), (0.9, 1.3), 3.7e-3)],
        ids=["default", "non-default"],
    )
    def test_builders_allocate_only_their_field(self, sigma, k_amp, centers, widths, s_amp):
        """Each builder rounds as the out-of-place expressions, bit for bit, and peaks at two fields: the one it
        returns and one more (the second hump, or the shell gate's |f|)."""
        gs = GridSpec(5, 8, 4.0 * np.pi)
        # the hump's last outer sum holds its n^(d-1) operand (32 kB) and numpy's iterator buffers (about 130 kB)
        bound = 2 * 8 * gs.size + 192 * 1024

        def traced(build):
            tracemalloc.start()
            try:
                return build(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def hump(c0, width):
            center = np.zeros(gs.d)
            center[0] = c0
            w = gs.axis_coords() - center[:, None]
            w -= 2.0 * gs.half_width * np.floor((w + gs.half_width) / (2.0 * gs.half_width))
            return np.exp(-reduce(np.add.outer, w * w) / (2 * width**2)).reshape(-1)

        kernel, k_peak = traced(lambda: builders.build_gaussian_kernel(gs, sigma, k_amp))
        source, s_peak = traced(lambda: builders.build_gaussian_diff_source(gs, centers, widths, s_amp))
        h1, h2 = hump(centers[0], widths[0]), hump(centers[1], widths[1])
        m1, m2 = np.sum(h1), np.sum(h2)
        assert np.array_equal(kernel.values.view(np.int64), (k_amp * hump(0.0, sigma)).view(np.int64))
        assert np.array_equal(source.values.view(np.int64), (s_amp * (h1 - (m1 / m2) * h2)).view(np.int64))
        assert k_peak <= bound and s_peak <= bound, (k_peak, s_peak, bound)

    def test_small_box_leaks_mass(self):
        gs = GridSpec(2, 16, 1.5)
        with pytest.raises(MassLeakage):
            builders.build_gaussian_kernel(gs, 1.0, 1.0)


class TestKernelDispatchParity:
    """Polynomial g, g', g'' are one in-place Horner loop; it rounds exactly as polyval."""

    @pytest.mark.parametrize(
        "asc", [[0.0, 0.0, 1.0], [0.0, 0.0, 0.5, -1.3, 0.25], [0.0, 0.0, 0.0, 3.0e-3, 7.0, -0.125],
                [0.0, 0.0, 1.0, 0.0, -2.0]]  # Horner skips a zero coefficient: only a zero's sign can differ
    )
    def test_poly_eval_is_polyval(self, asc):
        x = np.random.default_rng(len(asc)).uniform(-3.0, 3.0, 1001)
        g = Nonlinearity(coeffs=asc[2:])
        polyval = np.polynomial.polynomial.polyval
        for got, want in ((g.g, g._asc), (g.g1, g._asc1), (g.g2, g._asc2)):
            assert np.array_equal(got(x), polyval(x, want))


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "grid.dimension = 5\n"
        "grid.n = 8\n"
        "grid.half_width = 12.566370614359172\n"
        "run.epsilon = auto\n"
        "run.trials = 4\n"
        "sequence.count = 4\n"
    )
    return str(p)


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_bounds(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli(["bounds", "--config", cfg_path, "--out", out]) == 0
        text = (tmp_path / "out" / "bounds.txt").read_text()
        assert "epsilon_max" in text
        assert "# resolved configuration" in text
        assert "epsilon_max" in capsys.readouterr().out

    def test_solve_linear(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["solve-linear", "--config", cfg_path, "--out", out]) == 0
        u0 = read_field(os.path.join(out, "u0.nfs1"))
        assert u0.spec == GridSpec(5, 8, 12.566370614359172)
        assert "u0.h4" in (tmp_path / "out" / "solve_linear.txt").read_text()

    def test_solve(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["solve", "--config", cfg_path, "--out", out]) == 0
        solve_txt = (tmp_path / "out" / "solve.txt").read_text()
        assert "guarantee = certified" in solve_txt
        assert "converged = True" in solve_txt
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,u_h4,step_h4,ratio,residual"
        assert len(trace) > 2

    @pytest.mark.parametrize("queued", [False, True], ids=["refused", "queued-then-refused"])
    def test_solve_bytes_when_no_pool_thread_starts(self, queued, cfg_path, tmp_path, monkeypatch):
        """With the blocked passes threaded on d5n8 and every submit to the pool failing, as when no thread can start
        (its share left in the pool's queue, or not), each share runs once and the artifacts are one thread's."""
        assert run_cli(["solve", "--config", cfg_path, "--out", str(tmp_path / "one")]) == 0
        refused, submit = [], spectral._POOL.submit

        def failing_submit(*args):
            refused.append(submit(*args) if queued else args)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(spectral, "CPUS", 2)
        monkeypatch.setattr(spectral, "THREADED_POINTS", 1)
        monkeypatch.setattr(spectral._POOL, "submit", failing_submit)
        threads = threading.active_count()
        assert run_cli(["solve", "--config", cfg_path, "--out", str(tmp_path / "two")]) == 0
        assert refused and (queued or threading.active_count() == threads)
        for name in ("u.nfs1", "trace.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    @pytest.mark.parametrize("refuse", ["submit", "start"])
    def test_contraction_bytes_when_the_draw_thread_cannot_start(self, refuse, cfg_path, tmp_path, monkeypatch):
        """Every submit to a pool but the blocked passes' fails, or every start of its thread (which leaves the draw
        in the pool's queue), as when no thread can start: the pairs are drawn serially, with the same bytes."""
        assert run_cli(["contraction", "--config", cfg_path, "--out", str(tmp_path / "one")]) == 0
        refused, submit, start = [], ThreadPoolExecutor.submit, threading.Thread.start

        def failing_submit(pool, *args, **kwargs):
            if pool._thread_name_prefix.startswith("nfs-blocks"):
                return submit(pool, *args, **kwargs)
            refused.append(pool)
            raise RuntimeError("can't start new thread")

        def failing_start(thread):
            if not thread.name.startswith("ThreadPoolExecutor"):
                return start(thread)
            refused.append(thread)
            raise RuntimeError("can't start new thread")

        if refuse == "submit":
            monkeypatch.setattr(ThreadPoolExecutor, "submit", failing_submit)
        else:
            monkeypatch.setattr(threading.Thread, "start", failing_start)
        threads = threading.active_count()
        assert run_cli(["contraction", "--config", cfg_path, "--out", str(tmp_path / "two")]) == 0
        assert len(refused) == 1 and threading.active_count() == threads
        one, two = ((tmp_path / out / "contraction.csv").read_bytes() for out in ("one", "two"))
        assert one == two

    def test_contraction_and_determinism(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(["contraction", "--config", cfg_path, "--out", out1]) == 0
        assert run_cli(["contraction", "--config", cfg_path, "--out", out2]) == 0
        csv1 = (tmp_path / "a" / "contraction.csv").read_bytes()
        csv2 = (tmp_path / "b" / "contraction.csv").read_bytes()
        assert csv1 == csv2

    def test_contraction_seed_changes_draws(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(["contraction", "--config", cfg_path, "--out", out1]) == 0
        assert (
            run_cli(
                ["contraction", "--config", cfg_path, "--out", out2, "--seed", "7"]
            )
            == 0
        )
        csv1 = (tmp_path / "a" / "contraction.csv").read_bytes()
        csv2 = (tmp_path / "b" / "contraction.csv").read_bytes()
        assert csv1 != csv2

    def test_continuity(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "grid.dimension = 5\n"
            "grid.n = 8\n"
            "grid.half_width = 12.566370614359172\n"
            "nonlinearity.coeffs = 1.0\n"
            "nonlinearity.coeffs2 = 1.0, 0.1\n"
        )
        out = str(tmp_path / "out")
        assert run_cli(["continuity", "--config", str(p), "--out", out]) == 0
        text = (tmp_path / "out" / "continuity.txt").read_text()
        assert "verdict = True" in text

    def test_continuity_missing_coeffs2(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["continuity", "--config", cfg_path, "--out", out]) == 2

    def test_sequences(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["sequences", "--config", cfg_path, "--out", out]) == 0
        lines = (tmp_path / "out" / "sequences.csv").read_text().splitlines()
        assert lines[0] == "n,df_l1,df_l2,du_h4,majorant,ok"
        assert len(lines) == 5  # header + sequence.count rows

    def test_selfcheck(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["selfcheck", "--out", out]) == 0
        text = (tmp_path / "out" / "selfcheck.txt").read_text()
        assert "FAIL" not in text
        assert text.count("PASS") >= 6

    def test_low_dimension_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("grid.dimension = 3\n")
        assert run_cli(["bounds", "--config", str(p)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["bounds", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_error_exit(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("run.rho = 1.5\n")
        assert run_cli(["solve", "--config", str(p)]) == 2

    def test_field_file_round_trip(self, tmp_path):
        gs = GridSpec(5, 8, 12.566370614359172)
        src = builders.build_gaussian_diff_source(gs)
        src_path = str(tmp_path / "f.nfs1")
        write_field(src_path, src)
        p = tmp_path / "run.cfg"
        p.write_text(
            "grid.dimension = 5\n"
            "grid.n = 8\n"
            "grid.half_width = 12.566370614359172\n"
            f"source.file = {src_path}\n"
        )
        out = str(tmp_path / "out")
        assert run_cli(["solve-linear", "--config", str(p), "--out", out]) == 0

    def _solve_with_kernel_file(self, tmp_path, kernel_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "grid.dimension = 5\n"
            "grid.n = 8\n"
            "grid.half_width = 12.566370614359172\n"
            f"kernel.file = {kernel_path}\n"
        )
        return run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")])

    def test_truncated_field_header(self, tmp_path, capsys):
        path = tmp_path / "k.nfs1"
        path.write_bytes(b"NFS1\x05\x00")
        assert self._solve_with_kernel_file(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "truncated" in err and err.count("\n") == 1

    def _refused_before_allocation(self, n, tmp_path, capsys, monkeypatch) -> str:
        """stderr of a solve whose kernel file is a bare header for n points, after checking that it exits 2
        with one line and allocates no payload."""
        monkeypatch.delenv("NFS_MEMORY_BUDGET_MB", raising=False)
        path = tmp_path / "k.nfs1"
        path.write_bytes(HEADER.pack(MAGIC, 1, n, 1.0))
        tracemalloc.start()
        try:
            rc = self._solve_with_kernel_file(tmp_path, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f" in {path}\n") and err.count("\n") == 1
        return err

    def test_payload_length_checked_before_allocation(self, tmp_path, capsys, monkeypatch):
        # a 20-byte file whose header promises 128 MB used to allocate it before reading 0 bytes
        err = self._refused_before_allocation(2**24, tmp_path, capsys, monkeypatch)
        assert f"payload length 0 != expected {2**27} in" in err

    def test_header_over_memory_budget(self, tmp_path, capsys, monkeypatch):
        # one field of 2,048 MB fits the default budget; a command's working set on its grid does not
        err = self._refused_before_allocation(2**28, tmp_path, capsys, monkeypatch)
        assert f"a command on {2**28} grid points needs about 36928 MB, over the memory budget of 4096 MB" in err

    @pytest.mark.parametrize(
        "d, n, half_width, named",
        [(10**6, 4, 1.0, "dimension must lie in [1, 7], got 1000000"),
         (2**32 - 1, 4, 1.0, "dimension must lie in [1, 7], got 4294967295"),
         (5, 8, np.inf, "half_width = inf: the period 2*half_width is not finite")],
        ids=["huge-d", "max-d", "infinite-half-width"],
    )
    def test_field_header_out_of_range(self, d, n, half_width, named, tmp_path, capsys):
        # n**d for such a header took seconds, then failed to format the memory message (exit 1)
        path = tmp_path / "k.nfs1"
        path.write_bytes(HEADER.pack(MAGIC, d, n, half_width))
        assert self._solve_with_kernel_file(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {named} in {path}\n"

    def test_non_finite_field_sample(self, tmp_path, capsys):
        path = tmp_path / "nan.nfs1"
        write_field(str(path), builders.build_gaussian_kernel(GridSpec(5, 8, 12.566370614359172), 1.0, 1.0))
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())  # the last sample
        assert self._solve_with_kernel_file(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == f"config error: field contains non-finite values in {path}\n"

    def test_grid_over_memory_budget(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("grid.dimension = 5\ngrid.n = 1024\n")
        assert run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "memory budget" in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_whole_run_over_memory_budget(self, tmp_path, capsys, monkeypatch):
        # one d = 7, n = 16 field (2,147 MB) fits the default budget; a solve's working set does not
        monkeypatch.delenv("NFS_MEMORY_BUDGET_MB", raising=False)
        with pytest.raises(ConfigError, match="memory budget"):
            cli._build_grid(parse_config("grid.dimension = 7\ngrid.n = 16\n"))
        p = tmp_path / "run.cfg"
        p.write_text("grid.dimension = 7\ngrid.n = 16\n")
        tracemalloc.start()
        try:
            rc = run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert "memory budget" in err and err.count("\n") == 1
        assert peak < 2**20  # refused before any field is allocated

    def test_running_out_of_memory(self, cfg_path, tmp_path, capsys, monkeypatch):
        def exhausted(ps):
            raise MemoryError  # as numpy's _ArrayMemoryError or pocketfft's std::bad_alloc arrives

        monkeypatch.setenv("NFS_MEMORY_BUDGET_MB", "300")
        monkeypatch.setattr(cli, "solve_fixed_point", exhausted)
        assert run_cli(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory") and err.count("\n") == 1 and "Traceback" not in err
        assert f"on {8**5} grid points" in err and "estimates 68 MB" in err and "NFS_MEMORY_BUDGET_MB is 300;" in err

    @pytest.mark.parametrize("limit_mb, code", [(340, 2), (500, 0)], ids=["below-pass-point", "generous"])
    def test_address_space_limit(self, limit_mb, code, tmp_path, monkeypatch):
        """`nfs solve` at d5n16 in a child whose address space is capped: one line and exit 2, or a solve.

        The child's soft RLIMIT_AS is lowered, never raised. At d5n16 it passes from about 370 MB. Below about
        320 MB pocketfft's thread start fails first, with a RuntimeError that still ends in exit 1 (ROADMAP item 16)."""
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY and soft < limit_mb << 20:
            pytest.skip(f"this process's address space is already capped at {soft >> 20} MB")
        monkeypatch.delenv("NFS_MEMORY_BUDGET_MB", raising=False)
        (tmp_path / "run.cfg").write_text("grid.dimension = 5\ngrid.n = 16\n")
        # numpy's BLAS reserves address space per thread at import, so these limits hold for a fixed thread count
        # (with 1 thread, solves passed at 290-340 MB)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), OPENBLAS_NUM_THREADS="2")
        run = subprocess.run(
            [sys.executable, "-m", "nfs.cli", "solve", "--config", "run.cfg", "--out", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, hard)),
        )
        assert run.returncode == code, run.stderr
        if code:
            assert run.stderr.startswith("config error: out of memory on 1048576 grid points")
            assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        else:
            assert run.stderr == "" and (tmp_path / "out" / "u.nfs1").stat().st_size == 8 * 16**5 + HEADER.size

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_memory_budget_not_an_integer(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NFS_MEMORY_BUDGET_MB", value)
        err = self._one_config_error(["solve", "--out", str(tmp_path / "out")], capsys)
        assert "NFS_MEMORY_BUDGET_MB" in err and repr(value) in err

    @pytest.mark.parametrize("command", ["solve", "contraction", "continuity", "sequences"])
    def test_command_peak_within_memory_model(self, command, cfg_path, tmp_path):
        with open(cfg_path, "a", encoding="utf-8") as fh:
            fh.write("nonlinearity.coeffs2 = 1.0, 0.1\n")
        tracemalloc.start()
        try:
            rc = run_cli([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= FIELDS * 8 * 8**5

    def test_field_file_grid_mismatch(self, tmp_path, capsys):
        gs = GridSpec(5, 4, 12.566370614359172)
        path = str(tmp_path / "k.nfs1")
        write_field(path, builders.build_gaussian_kernel(gs, 1.0, 1.0))
        assert self._solve_with_kernel_file(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "n=4" in err and "n=8" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "values, gate",
        [(np.eye(1, 8**5).ravel(), "outer 10% shell"), (np.zeros(8**5), "identically zero")],
        ids=["corner-mass", "zero"],
    )
    def test_field_file_gates(self, values, gate, tmp_path, capsys):
        path = str(tmp_path / "k.nfs1")
        write_field(path, RealField(GridSpec(5, 8, 12.566370614359172), values))
        assert self._solve_with_kernel_file(tmp_path, path) == 3
        err = capsys.readouterr().err
        assert gate in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, named",
        [
            ("nonlinearity.coeffs = 1e308, 1e308", "g' has non-finite polynomial coefficients"),
            ("source.amplitude = 1e300", "u0_h4 must be finite, got inf"),
            ("kernel.amplitude = 1e-320", "k_l2 must be positive and finite, got 0.0"),
            ("kernel.amplitude = 1e300", "k_l2 must be positive and finite, got inf"),
            ("kernel.sigma = 1e-300", "kernel.sigma = 1e-300: 2 sigma^2 must be positive and finite"),
            ("kernel.sigma = 1e300", "kernel.sigma = 1e+300: 2 sigma^2 must be positive and finite"),
            ("source.widths = 1e300, 1e300", "source.widths = (1e+300, 1e+300): 2 w^2 must be positive"),
            ("grid.half_width = 1e308", "config error: half_width = 1e+308: the period 2*half_width is not finite"),
        ],
        ids=["coeffs-overflow", "source-overflow", "kernel-underflow", "kernel-overflow", "sigma-underflow",
             "sigma-overflow", "widths-overflow", "half-width-overflow"],
    )
    def test_number_out_of_float_range(self, line, named, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text(f"grid.dimension = 5\ngrid.n = 8\ngrid.half_width = 12.566370614359172\n{line}\n")
        code = 2 if line.startswith("grid.") else 3  # a box that cannot be sampled is a config error
        assert run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("command, named", [("sequences", "df_l2"), ("solve-linear", "u0.l2")])
    def test_overflowing_norm_refused(self, command, named, tmp_path, capsys):
        # these norms overflow to inf, which passed the majorant's `<=` and was reported as a result
        p, out = tmp_path / "run.cfg", tmp_path / "out"
        p.write_text("grid.dimension = 5\ngrid.n = 8\nsource.amplitude = 1e300\n")
        assert run_cli([command, "--config", str(p), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"assumption violated: {named} must be finite, got inf; scale the source down\n"
        assert os.listdir(out) == []  # no field, csv or report

    @pytest.mark.parametrize(
        "epsilon, code, first",
        [("1e300", 4, "iteration failed: iterate 0 has ||v||_H4 = inf"), ("1e10", 3, "assumption violated: ||v||_H4 = ")],
        ids=["infinite-iterate", "outside-ball"],
    )
    def test_huge_epsilon_never_converges(self, epsilon, code, first, tmp_path, capsys):
        # at 1e300 the step and ||v||_H4 are both inf; inf <= tol_fp * inf must not read as converged
        p = tmp_path / "run.cfg"
        p.write_text(f"grid.dimension = 5\ngrid.n = 8\ngrid.half_width = 12.566370614359172\nrun.epsilon = {epsilon}\n")
        assert run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith(first) and err.count("\n") == 1

    def _one_config_error(self, args, capsys):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("key", ["run.slack", "run.epsilon", "kernel.amplitude"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, key, value, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        args = ["contraction", "--config", str(p), "--out", str(tmp_path / "out")]
        assert key in self._one_config_error(args, capsys)

    def test_seed_override_validated(self, cfg_path, tmp_path, capsys):
        args = ["contraction", "--config", cfg_path, "--out", str(tmp_path), "--seed", "-3"]
        assert "seed must be nonnegative" in self._one_config_error(args, capsys)

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._one_config_error(["bounds", "--config", str(tmp_path), "--out", str(tmp_path)], capsys)

    def test_out_is_a_file(self, cfg_path, capsys):
        self._one_config_error(["bounds", "--config", cfg_path, "--out", cfg_path], capsys)


class TestVerdictFailures:
    """A failed certified inequality exits 3 with one stderr line naming its numbers."""

    def _run(self, args, capsys):
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_contraction(self, cfg_path, tmp_path, capsys, monkeypatch):
        stats = ContractionStats([1.0], [0.5], max_ratio=1.0, mean_ratio=1.0, bound=0.25)
        monkeypatch.setattr(cli, "measure_contraction", lambda *a, **k: stats)
        err = self._run(["contraction", "--config", cfg_path, "--out", str(tmp_path)], capsys)
        assert "max_ratio 1 > eps*sigma*(1+slack) = 0.26250000000000001" in err

    def test_continuity(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "run.cfg"
        p.write_text(
            "grid.dimension = 5\n"
            "grid.n = 8\n"
            "grid.half_width = 12.566370614359172\n"
            "nonlinearity.coeffs2 = 1.0, 0.1\n"
        )
        rep = ContinuityReport(measured=3.0, bound=2.0, g_distance=0.1, verdict=False)
        monkeypatch.setattr(cli, "continuity_experiment", lambda *a, **k: rep)
        err = self._run(["continuity", "--config", str(p), "--out", str(tmp_path)], capsys)
        assert "measured_h4 3 > bound*(1+slack) = 2.1000000000000001" in err

    def test_sequences(self, cfg_path, tmp_path, capsys, monkeypatch):
        rep = SequenceReport(
            df_l1=[1.0, 1.0], df_l2=[1.0, 1.0], du_h4=[0.5, 2.0], majorant=[1.0, 1.0], ok=[True, False]
        )
        monkeypatch.setattr(cli, "sequence_experiment", lambda *a, **k: rep)
        err = self._run(["sequences", "--config", cfg_path, "--out", str(tmp_path)], capsys)
        assert "n = 2: du_h4 2 > majorant*(1+slack) = 1.01" in err
