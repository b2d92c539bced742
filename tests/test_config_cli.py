"""Config parsing, field builders, kernel dispatch parity, and the CLI
commands end to end."""

import os

import numpy as np
import pytest

from nfs import _kernels, builders, cli
from nfs.config import parse_config
from nfs.errors import ConfigError, MassLeakage, TrivialField
from nfs.fixedpoint import ContinuityReport, ContractionStats
from nfs.grid import GridSpec, read_field, write_field
from nfs.linear import SequenceReport
from nfs.spectral import norm_l1


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
        from nfs.config import echo_config

        cfg = parse_config("run.rho = 0.75\nnonlinearity.coeffs2 = 1.0,0.1")
        again = parse_config(echo_config(cfg))
        assert again == cfg


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

    def test_small_box_leaks_mass(self):
        gs = GridSpec(2, 16, 1.5)
        with pytest.raises(MassLeakage):
            builders.build_gaussian_kernel(gs, 1.0, 1.0)


class TestKernelDispatchParity:
    """The jit kernels and the plain-numpy fallbacks must agree exactly."""

    def test_poly_eval(self):
        coeffs = np.array([0.3, -1.2, 0.0, 2.0, 0.5])
        x = np.linspace(-3, 3, 101)
        jit, ref = np.empty_like(x), np.empty_like(x)
        _kernels._poly_eval_jit(coeffs, x, jit)
        _kernels._poly_eval_np(coeffs, x, ref)
        np.testing.assert_array_equal(jit, ref)

    def test_wrapped_sq_dist(self):
        center = np.array([0.3, -0.7, 1.1])
        args = (3, 8, 0.5, 2.0, center)
        jit, ref = np.empty(8**3), np.empty(8**3)
        _kernels._wrapped_sq_dist_jit(*args, jit)
        _kernels._wrapped_sq_dist_np(*args, ref)
        np.testing.assert_array_equal(jit, ref)

    @pytest.mark.parametrize(
        "asc", [[0.0, 0.0, 1.0], [0.0, 0.0, 0.5, -1.3, 0.25], [1.5, -2.0, 0.0, 3.0e-3, 7.0, -0.125]]
    )
    def test_poly_eval_is_polyval(self, asc):
        """The in-place Horner loop rounds exactly as numpy's polyval."""
        x = np.random.default_rng(len(asc)).uniform(-3.0, 3.0, 1001)
        got = _kernels.poly_eval(np.asarray(asc)[::-1], x)
        assert np.array_equal(got, np.polynomial.polynomial.polyval(x, asc))


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

    def test_grid_over_memory_budget(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("grid.dimension = 5\ngrid.n = 1024\n")
        assert run_cli(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "memory budget" in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_field_file_grid_mismatch(self, tmp_path, capsys):
        gs = GridSpec(5, 4, 12.566370614359172)
        path = str(tmp_path / "k.nfs1")
        write_field(path, builders.build_gaussian_kernel(gs, 1.0, 1.0))
        assert self._solve_with_kernel_file(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "n=4" in err and "n=8" in err and err.count("\n") == 1


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
