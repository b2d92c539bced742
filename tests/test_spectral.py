"""Transform, symbol, convolution, and norm tests against independent oracles."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.special import gamma

from nfs import builders, spectral
from nfs.errors import GridMismatch, MassLeakage, NFSError
from nfs.grid import GridSpec, RealField, read_field, write_field
from nfs.spectral import (
    convolve,
    forward_transform,
    inverse_transform,
    norm_h4,
    norm_l1,
    norm_l2,
    norm_l2_spectral,
    norm_linf,
)


def smooth_random_field(spec: GridSpec, seed: int) -> RealField:
    """Band-limited random field: a few low-frequency cosine modes."""
    rng = np.random.default_rng(seed)
    x = spec.axis_coords()
    scale = np.pi / spec.half_width
    vals = np.zeros(spec.shape)
    for _ in range(5):
        ks = rng.integers(-2, 3, size=spec.d)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        arg = np.zeros(spec.shape)
        for axis in range(spec.d):
            shape = [1] * spec.d
            shape[axis] = spec.n
            arg = arg + (ks[axis] * scale * x).reshape(shape)
        vals += amp * np.cos(arg + phase)
    return RealField(spec, vals.reshape(-1))


def brute_force_forward(f: RealField) -> np.ndarray:
    """O(n^(2d)) direct summation of the calibrated DFT."""
    spec = f.spec
    x = spec.axis_coords()
    p = spec.axis_freqs()
    vals = f.reshaped()
    out = np.zeros(spec.shape, dtype=complex)
    scale = spec.spacing**spec.d * (2 * np.pi) ** (-spec.d / 2)
    for kidx in np.ndindex(*spec.shape):
        acc = 0.0 + 0.0j
        for xidx in np.ndindex(*spec.shape):
            dot = sum(p[kidx[a]] * x[xidx[a]] for a in range(spec.d))
            acc += vals[xidx] * np.exp(-1j * dot)
        out[kidx] = scale * acc
    return out


def cos_axis_field(spec: GridSpec, freq: int = 1, fn=np.cos) -> RealField:
    x = fn(freq * spec.axis_coords())
    vals = np.broadcast_to(
        x.reshape((spec.n,) + (1,) * (spec.d - 1)), spec.shape
    ).copy()
    return RealField(spec, vals.reshape(-1))


class TestForwardTransform:
    def test_constant_field_single_mode(self):
        spec = GridSpec(3, 8, 2.0)
        F = forward_transform(RealField(spec, np.ones(spec.size)))
        expected = (2 * spec.half_width) ** 3 * (2 * np.pi) ** (-1.5)
        assert abs(F[0, 0, 0] - expected) < 1e-12 * expected
        rest = F.copy()
        rest[0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-12 * expected

    def test_cosine_two_modes(self):
        spec = GridSpec(2, 8, np.pi)
        F = forward_transform(cos_axis_field(spec))
        expected = (2 * np.pi) ** (spec.d / 2) / 2
        assert abs(F[1, 0] - expected) < 1e-12
        assert abs(F[-1, 0] - expected) < 1e-12
        keep = np.zeros(spec.half_shape, dtype=bool)
        keep[1, 0] = keep[-1, 0] = True
        assert np.max(np.abs(F[~keep])) < 1e-12

    def test_matches_brute_force_dft(self):
        spec = GridSpec(2, 8, 1.5)
        f = smooth_random_field(spec, seed=7)
        F = forward_transform(f)
        oracle = brute_force_forward(f)[..., : spec.half_shape[-1]]
        assert np.max(np.abs(F - oracle)) < 1e-12 * np.max(np.abs(oracle))


class TestInverseTransform:
    def test_zero_spectrum(self):
        spec = GridSpec(2, 8, 1.0)
        out = inverse_transform(spec, np.zeros(spec.half_shape, complex))
        assert np.all(out.values == 0)

    def test_cosine_round_trip(self):
        spec = GridSpec(2, 8, np.pi)
        f = cos_axis_field(spec)
        out = inverse_transform(spec, forward_transform(f))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_random_round_trip(self):
        spec = GridSpec(2, 8, 2.5)
        f = smooth_random_field(spec, seed=3)
        out = inverse_transform(spec, forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(out.values - f.values)) < 1e-12 * scale


def allowed_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestThreadedTransforms:
    """Large grids run their nd-FFTs on every allowed CPU, with results bitwise equal to one thread."""

    @pytest.mark.parametrize("d, n", [(5, 16), (7, 8)])
    def test_bitwise_equal_to_one_worker(self, d, n):
        spec = GridSpec(d, n, 4.0)
        f = RealField(spec, np.random.default_rng(d).standard_normal(spec.size))
        serial = scipy.fft.rfftn(f.reshaped(), workers=1)
        # workers=2 explicitly, so that a 1-CPU machine exercises the threaded path too
        assert np.array_equal(scipy.fft.rfftn(f.reshaped(), workers=2), serial)
        assert np.array_equal(spectral.dft(f), serial)
        F, lattice = forward_transform(f), spectral.half_lattice(spec)
        dft_in = F * lattice.phase * (1.0 / lattice.scale)
        serial = scipy.fft.irfftn(dft_in, s=spec.shape, workers=1)
        assert np.array_equal(scipy.fft.irfftn(dft_in, s=spec.shape, workers=2), serial)
        assert np.array_equal(inverse_transform(spec, F).reshaped(), serial)
        folded = spectral.forward_folded(f)
        serial = scipy.fft.irfftn(folded * (1.0 / lattice.scale), s=spec.shape, workers=1)
        assert np.array_equal(spectral.inverse_folded(spec, folded).reshaped(), serial)

    @pytest.mark.parametrize("n, expected", [(8, 1), (16, allowed_cpus())])
    def test_workers_follow_grid_size(self, monkeypatch, n, expected):
        """Contraction's d5n8 grid (2^15 points) stays serial; d5n16 (2^20 points) uses every CPU."""
        seen = []
        for name in ("rfftn", "irfftn"):
            def recording(*args, _fn=getattr(scipy.fft, name), **kwargs):
                seen.append(kwargs.get("workers"))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, recording)
        spec = GridSpec(5, n, 4.0)
        inverse_transform(spec, forward_transform(RealField(spec, np.ones(spec.size))))
        assert seen == [expected, expected]


class TestMapBlocks:
    """spectral._map_blocks: the blocks of a large grid on every CPU, results in block order."""

    def test_results_in_block_order_under_thread_switches(self, monkeypatch):
        """4 calling threads share the pool with 8 shares each (more than the cores), a switch every microsecond."""
        spec, m = GridSpec(5, 16, 1.0), 9
        x = np.arange(spec.size // 16 * m, dtype=float).reshape(-1, m)
        want = [(b.start, float(x[b].sum())) for b in (slice(i, i + 7281) for i in range(0, len(x), 7281))]
        monkeypatch.setattr(spectral, "CPUS", 8)
        got, interval = [], sys.getswitchinterval()

        def calls():
            for _ in range(20):
                got.append(spectral._map_blocks(spec, lambda b, xb: (b.start, float(xb.sum())), x))

        threads = [threading.Thread(target=calls) for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 80 and all(r == want for r in got)

    def test_a_pool_block_error_is_raised_after_every_share_ends(self, monkeypatch):
        monkeypatch.setattr(spectral, "CPUS", 2)
        spec, done = GridSpec(5, 16, 1.0), []

        def fn(b, c):
            if b.start == 7281:  # block 1: the pool's share
                raise ValueError("block 1")
            done.append(b.start)

        with pytest.raises(ValueError, match="block 1"):
            spectral._map_blocks(spec, fn, np.zeros(spec.half_shape, complex))  # the block rule reads its rows
        assert sorted(done) == [0, 2 * 7281, 4 * 7281, 6 * 7281, 8 * 7281]  # the caller's share, all of it


def test_norm_keeps_no_full_size_temporary(monkeypatch):
    """An H4 norm on a grid of ten blocks holds two float blocks of terms per thread, on 2 threads: under 3 complex
    blocks, where one full-size array of terms alone is 4.5 complex blocks."""
    monkeypatch.setattr(spectral, "CPUS", 2)
    spec = GridSpec(5, 16, 4.0 * np.pi)
    F, block = np.ones(spec.half_shape, complex), 16 * spectral.half_lattice(spec).tile.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral.norm_h4_spectral(spec, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * block


def test_transform_count_loses_none_between_threads():
    """8 threads, more than the cores, make 200 transforms each with a thread switch every microsecond."""
    f = RealField(GridSpec(2, 4, 1.0), np.ones(16))

    def transforms():
        for _ in range(200):
            inverse_transform(f.spec, forward_transform(f))

    threads = [threading.Thread(target=transforms) for _ in range(8)]
    start, interval = spectral.nd_fft_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert spectral.nd_fft_count() - start == 8 * 200 * 2


def times_symbol(spec: GridSpec, F: np.ndarray, symbol) -> np.ndarray:
    """Multiply the spectrum by a function of |p_k|^2."""
    return F * symbol(spectral.p2(spec))


class TestHalfLattice:
    @pytest.mark.parametrize("d", [1, 3])
    def test_separable_tables_match_pointwise_loop(self, d):
        """|p|^2 and the phase round exactly as a per-point sum and product over axes in forward order."""
        spec = GridSpec(d, 8, 2.0)
        pk, want_p2, want_phase = spec.axis_freqs(), np.zeros(spec.half_shape), np.ones(spec.half_shape)
        for idx in np.ndindex(spec.half_shape):
            for k in idx:
                want_p2[idx] += pk[k] ** 2
                want_phase[idx] *= (-1.0) ** k
        lattice = spectral.half_lattice(spec)
        assert np.array_equal(spectral.p2(spec), want_p2)
        assert lattice.phase.dtype == np.int8 and np.array_equal(lattice.phase, want_phase)
        assert lattice.scale == spec.spacing**d * (2.0 * np.pi) ** (-d / 2.0)

    @pytest.mark.parametrize("d, n", [(5, 8), (3, 16)])
    def test_no_full_size_float_phase_or_scale_table(self, d, n):
        """One float half-lattice table (the H4 weight), the int8 phase, the last-axis vector, one |p|^2
        per row and at most one block of |p|^2."""
        spec = GridSpec(d, n, 2.0)
        lattice = spectral.half_lattice(spec)
        arrays = [a for a in vars(lattice).values() if isinstance(a, np.ndarray)]
        half, m = int(np.prod(spec.half_shape)), spec.half_shape[-1]
        assert lattice.rows_p2.shape == (half // m,) and lattice.tile.size <= spectral.BLOCK
        assert sum(a.nbytes for a in arrays) <= 8 * half + half + 8 * m + 8 * (half // m) + 8 * spectral.BLOCK
        assert sorted(a.dtype.name for a in arrays) == ["float64"] * 4 + ["int8"]

    @pytest.mark.parametrize("d, n, blocks", [(1, 8, 1), (6, 4, 1), (5, 8, 1), (5, 16, 10), (7, 8, 21)],
                             ids=["d1n8", "d6n4", "d5n8", "d5n16", "d7n8"])
    def test_blocks_match_the_full_tables_bitwise(self, d, n, blocks):
        """The per-block symbol and the H4 weight built in place are the full-size formulas' numbers. d5n16
        and d7n8 end in a ragged block."""
        spec = GridSpec(d, n, 4.0 * np.pi)
        q, m = spectral.p2(spec), spec.half_shape[-1]
        symbol, hermitian = q + q**2, np.r_[1.0, np.full(m - 2, 2.0), 1.0]
        symbol[(0,) * d] = 1.0
        got, lattice = np.full(spec.half_shape, np.nan), spectral.half_lattice(spec)
        seen = spectral._map_blocks(spec, lambda b, out: np.copyto(out, lattice.symbol(b)), got)
        assert len(seen) == blocks and np.array_equal(got, symbol)
        assert np.array_equal(spectral.half_lattice(spec).h4_weight, hermitian * (1.0 + q**4))

    @pytest.mark.parametrize("d, n", [(5, 16), (7, 8)])
    def test_building_peaks_at_the_held_arrays_plus_two_blocks(self, d, n):
        spec = GridSpec(d, n, 1.2345)  # a grid no other test builds, so that it is not cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lattice = spectral.half_lattice(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in vars(lattice).values() if isinstance(a, np.ndarray))
        assert peak - base <= held + 2 * lattice.tile.nbytes

    @pytest.mark.parametrize("spec", [GridSpec(5, 8, 4 * np.pi), GridSpec(3, 16, 2.0)], ids=["d5n8", "d3n16"])
    def test_folded_spectrum_is_the_phase_times_the_coefficients(self, spec):
        """A sign flip is exact: the folded spectrum, its inverse and its norm match the unfolded ones bitwise."""
        f = smooth_random_field(spec, seed=4)
        F, lattice = forward_transform(f), spectral.half_lattice(spec)
        folded = spectral.forward_folded(f)
        assert np.array_equal(folded, F * lattice.phase)
        assert np.array_equal(spectral.inverse_folded(spec, folded).values, inverse_transform(spec, F).values)
        assert norm_h4(f) == spectral.norm_h4_spectral(spec, F)


class TestApplySymbol:
    def test_l_symbol_on_cosine(self):
        spec = GridSpec(2, 8, np.pi)
        F = forward_transform(cos_axis_field(spec))
        G = times_symbol(spec, F, lambda p2: p2 + p2**2)
        # |p| = 1 on the two active modes: 1 + 1 = 2
        assert np.max(np.abs(G - 2.0 * F)) < 1e-12

    def test_bilaplacian_on_sin2(self):
        spec = GridSpec(2, 8, np.pi)
        F = forward_transform(cos_axis_field(spec, freq=2, fn=np.sin))
        G = times_symbol(spec, F, lambda p2: p2**2)
        assert np.max(np.abs(G - 16.0 * F)) < 1e-11

    def test_laplacian_vs_finite_differences(self):
        spec = GridSpec(2, 64, np.pi)
        f = smooth_random_field(spec, seed=11)
        lap = inverse_transform(spec, times_symbol(spec, forward_transform(f), lambda p2: -p2))
        vals = f.reshaped()
        fd = np.zeros_like(vals)
        h = spec.spacing
        for axis in range(spec.d):
            fd += (
                np.roll(vals, -1, axis) - 2 * vals + np.roll(vals, 1, axis)
            ) / h**2
        rel = np.max(np.abs(lap.reshaped() - fd)) / np.max(np.abs(lap.values))
        assert rel < 1e-2


class TestConvolve:
    def test_delta_identity(self):
        spec = GridSpec(2, 8, np.pi)
        delta = np.zeros(spec.shape)
        delta[spec.n // 2, spec.n // 2] = 1.0 / spec.spacing**2  # spike at x = 0
        k = RealField(spec, delta.reshape(-1))
        g = smooth_random_field(spec, seed=2)
        out = convolve(k, g)
        assert np.max(np.abs(out.values - g.values)) < 1e-12 * np.max(np.abs(g.values))

    def test_constant_total_mass(self):
        spec = GridSpec(2, 8, 1.5)
        one = RealField(spec, np.ones(spec.size))
        out = convolve(one, one)
        expected = (2 * spec.half_width) ** spec.d
        assert np.max(np.abs(out.values - expected)) < 1e-12 * expected

    def test_matches_direct_double_sum(self):
        spec = GridSpec(2, 8, 1.0)
        rng = np.random.default_rng(9)
        k = RealField(spec, rng.normal(size=spec.size))
        g = RealField(spec, rng.normal(size=spec.size))
        out = convolve(k, g)
        oracle = direct_convolution(k, g)
        assert np.max(np.abs(out.values - oracle.reshape(-1))) < 1e-12 * np.max(
            np.abs(oracle)
        )

    def test_commutes(self):
        spec = GridSpec(2, 8, 2.0)
        rng = np.random.default_rng(4)
        k = RealField(spec, rng.normal(size=spec.size))
        g = RealField(spec, rng.normal(size=spec.size))
        a, b = convolve(k, g), convolve(g, k)
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * np.max(np.abs(a.values))

    def test_grid_mismatch(self):
        a = RealField(GridSpec(1, 8, 1.0), np.ones(8))
        b = RealField(GridSpec(1, 16, 1.0), np.ones(16))
        with pytest.raises(GridMismatch):
            convolve(a, b)


def direct_convolution(k: RealField, g: RealField) -> np.ndarray:
    """O(n^(2d)) quadrature (dx)^d sum_y k(x - y) g(y), periodic coordinates."""
    spec = k.spec
    n = spec.n
    kv, gv = k.reshaped(), g.reshaped()
    out = np.zeros(spec.shape)
    for xidx in np.ndindex(*spec.shape):
        acc = 0.0
        for yidx in np.ndindex(*spec.shape):
            # x - y = (xi - yi) dx, sampled at index (xi - yi + n/2) mod n
            kidx = tuple((xidx[a] - yidx[a] + n // 2) % n for a in range(spec.d))
            acc += kv[kidx] * gv[yidx]
        out[xidx] = acc * spec.spacing**spec.d
    return out


class TestNorms:
    def test_cos_d5(self):
        spec = GridSpec(5, 8, np.pi)
        f = cos_axis_field(spec)
        l2sq = (2 * np.pi) ** 5 / 2
        assert abs(norm_l2(f) ** 2 - l2sq) < 1e-9 * l2sq
        h4 = (2 * np.pi) ** 2.5
        assert abs(norm_h4(f) - h4) < 1e-10 * h4

    def test_zero_field(self):
        spec = GridSpec(2, 8, 1.0)
        z = RealField(spec, np.zeros(spec.size))
        assert norm_l1(z) == norm_l2(z) == norm_linf(z) == norm_h4(z) == 0.0

    def test_gaussian_closed_forms(self):
        d, s, amp = 3, 1.0, 0.7
        spec = GridSpec(d, 32, 8.0)
        f = RealField(
            spec, amp * builders._gaussian_hump(spec, np.zeros(d), s)
        )
        l1 = amp * (np.sqrt(2 * np.pi) * s) ** d
        l2 = amp * (np.pi * s**2) ** (d / 4)
        bilap_sq = (
            amp**2
            * s ** (2 * d)
            * (2 * np.pi ** (d / 2) / gamma(d / 2))
            * gamma((d + 8) / 2)
            / (2 * s ** (d + 8))
        )
        h4 = np.sqrt(l2**2 + bilap_sq)
        assert abs(norm_l1(f) - l1) < 1e-6 * l1
        assert abs(norm_l2(f) - l2) < 1e-6 * l2
        assert abs(norm_h4(f) - h4) < 1e-6 * h4

    def test_parseval(self):
        spec = GridSpec(2, 16, 1.3)
        rng = np.random.default_rng(12)
        f = RealField(spec, rng.normal(size=spec.size))
        F = forward_transform(f)
        assert abs(norm_l2(f) - norm_l2_spectral(spec, F)) < 1e-10 * norm_l2(f)

    def test_transform_linearity(self):
        spec = GridSpec(2, 8, 1.0)
        rng = np.random.default_rng(21)
        a = RealField(spec, rng.normal(size=spec.size))
        b = RealField(spec, rng.normal(size=spec.size))
        lam = 2.375
        combo = RealField(spec, lam * a.values + b.values)
        lhs = forward_transform(combo)
        rhs = lam * forward_transform(a) + forward_transform(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def shell_fraction_by_mask(f: RealField) -> float:
    """The shell fraction from an explicit boolean mask of the points with any |x_i| >= 0.9 L."""
    spec = f.spec
    outer = np.abs(spec.axis_coords()) >= (1.0 - spectral.SHELL) * spec.half_width
    mask = np.zeros(spec.shape, dtype=bool)
    for axis in range(spec.d):
        shape = [1] * spec.d
        shape[axis] = spec.n
        mask |= outer.reshape(shape)
    mag = np.abs(f.values)
    return float(np.sum(mag.reshape(spec.shape)[mask]) / np.sum(mag))


SHELL_GRIDS = [(2, 16), (3, 16), (4, 8), (5, 8), (6, 8), (7, 4)]


class TestOuterShellMassFraction:
    @pytest.mark.parametrize("d, n", SHELL_GRIDS)
    def test_random_field_matches_mask(self, d, n):
        spec = GridSpec(d, n, 2.5)
        f = RealField(spec, np.random.default_rng(d).normal(size=spec.size))
        want = shell_fraction_by_mask(f)
        assert spectral.outer_shell_mass_fraction(f) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("d, n", SHELL_GRIDS)
    def test_gaussian_matches_mask(self, d, n):
        spec = GridSpec(d, n, 4.0 * np.pi)
        f = RealField(spec, builders._gaussian_hump(spec, np.full(d, 0.3), 1.5))
        want = shell_fraction_by_mask(f)
        assert 0.0 < want < builders.SHELL_MASS_LIMIT
        assert spectral.outer_shell_mass_fraction(f) == pytest.approx(want, rel=1e-15)

    def test_corner_mass_above_limit(self):
        spec = GridSpec(5, 8, 4.0 * np.pi)
        values = builders._gaussian_hump(spec, np.zeros(5), 1.0)
        values[0] = 1e-3 * np.sum(values)  # the corner x = (-L, ..., -L)
        f = RealField(spec, values)
        got = spectral.outer_shell_mass_fraction(f)
        assert got == pytest.approx(shell_fraction_by_mask(f), rel=1e-15)
        assert got > builders.SHELL_MASS_LIMIT
        with pytest.raises(MassLeakage):
            builders.check_gates(f, "kernel")

    def test_zero_field(self):
        assert spectral.outer_shell_mass_fraction(RealField(GridSpec(2, 8, 1.0), np.zeros(64))) == 0.0


class TestFieldDump:
    def test_round_trip(self, tmp_path):
        spec = GridSpec(3, 4, 2.25)
        rng = np.random.default_rng(1)
        f = RealField(spec, rng.normal(size=spec.size))
        path = str(tmp_path / "field.nfs1")
        write_field(path, f)
        g = read_field(path)
        assert g.spec == spec
        assert np.array_equal(g.values, f.values)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nfs1"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(NFSError, match="magic"):
            read_field(str(path))

    def test_rejects_short_payload(self, tmp_path):
        spec = GridSpec(1, 4, 1.0)
        path = tmp_path / "f.nfs1"
        write_field(str(path), RealField(spec, np.ones(4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(NFSError, match="length"):
            read_field(str(path))
