"""Periodic-box grid, real sampled fields, the NFS1 dump format, and the count of structural operations.

The box is [-L, L)^d with n samples per axis (n a power of two); the dual
lattice carries frequencies p_k = (pi/L) k with k in [-n/2, n/2)^d. A spectrum
has no container: it is a complex array of `half_shape`, passed after its grid.
"""

from __future__ import annotations

import os
import stat
import struct
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import check_grid
from .errors import ConfigError, GridMismatch, NFSError

MAGIC = b"NFS1"
HEADER = struct.Struct("<4sIId")  # magic, d, n, half_width

DEFAULT_MEMORY_BUDGET_MB = 4096
BASE_MB = 64  # the interpreter with numpy and scipy loaded, before any field
FIELDS = 18  # real fields (8 n^d bytes each) alive at the peak of the heaviest command, contraction (see the README)
_ops: Counter = Counter()  # (thread identifier, operation) -> count, here below every module that counts one
_ops_lock = threading.Lock()


def _count(op: str) -> None:  # one more operation of kind `op` on this thread; see `op_counts`
    with _ops_lock:  # a bare += can lose a count between two threads
        _ops[threading.get_ident(), op] += 1


def op_counts(thread: int | None = None) -> Counter:
    """This process's structural operations by kind, on every thread, or on the one whose `threading.get_ident()` is
    `thread` and any ended thread that had its identifier: "nd_fft" (an rfftn or irfftn), "blocked_pass" (a
    `spectral._map_blocks` call, on its caller), "finite_scan" (a `RealField(...)` built), "compose", "linear_solve"."""
    counts: Counter = Counter()
    with _ops_lock:
        for (t, op), n in _ops.items():
            if thread in (None, t):
                counts[op] += n
    return counts


def memory_budget_mb() -> int:
    """NFS_MEMORY_BUDGET_MB, or its default; a value that is not a whole number is a config error."""
    raw = os.environ.get("NFS_MEMORY_BUDGET_MB", str(DEFAULT_MEMORY_BUDGET_MB))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"NFS_MEMORY_BUDGET_MB must be a whole number of MB, got {raw!r}") from None


def need_mb(size: int) -> float:
    """The memory model's estimate for a command on `size` grid points."""
    return BASE_MB + FIELDS * size * 8 / 2**20


def check_budget(spec: GridSpec) -> None:
    """The memory budget's one check, on the config's grid and on a field file's header, before any allocation."""
    if (need := need_mb(spec.size)) > (budget := memory_budget_mb()):
        raise ConfigError(f"a command on {spec.size} grid points needs about {need:.0f} MB, over the memory "
                          f"budget of {budget} MB (set NFS_MEMORY_BUDGET_MB to raise it)")


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box [-L, L)^d."""

    d: int
    n: int
    half_width: float

    def __post_init__(self):
        check_grid(self.d, self.n, self.half_width)  # before size computes n**d

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a real field's half spectrum: the last axis keeps k = 0 .. n/2."""
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis."""
        return -self.half_width + self.spacing * np.arange(self.n)

    def axis_freqs(self) -> np.ndarray:
        """Dual frequencies p_k = (pi/L) k in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def freq_spacing(self) -> float:
        """Dual lattice spacing pi/L (the dp of spectral quadratures)."""
        return np.pi / self.half_width


@dataclass
class RealField:
    """Real-valued samples on a grid, row-major, flat storage; `RealField(spec, values)` checks they are finite."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != self.spec.size:
            raise NFSError(
                f"field length {self.values.size} != grid size {self.spec.size}"
            )
        _count("finite_scan")
        if not np.all(np.isfinite(self.values)):
            raise NFSError("field contains non-finite values")

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.spec.shape)


def _made(spec: GridSpec, values: np.ndarray) -> RealField:
    """A field of spec.size float64 values made from checked data, or checked by the sweep that made them: no scan."""
    f = object.__new__(RealField)
    f.spec, f.values = spec, values.reshape(-1)
    return f


def check_same_grid(a, b):
    if a.spec != b.spec:
        raise GridMismatch(f"grids differ: {a.spec} vs {b.spec}")


def zeros_like(spec: GridSpec) -> RealField:
    return _made(spec, np.zeros(spec.size))


def atomic_write(path: str, *chunks) -> None:
    """Write the chunks to path through a temp file and a rename: a str as UTF-8, a bytes-like object as it is."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    os.replace(tmp, path)


def write_field(path: str, f: RealField) -> None:
    """Dump a field in the NFS1 format, atomically."""
    header = HEADER.pack(MAGIC, f.spec.d, f.spec.n, f.spec.half_width)
    atomic_write(path, header, np.ascontiguousarray(f.values, dtype="<f8"))  # a view on little-endian hosts


def read_field(path: str) -> RealField:
    """Read an NFS1 dump; a malformed file is a configuration error that names the file."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER.size)
        if len(header) != HEADER.size:
            raise ConfigError(f"truncated NFS1 header ({len(header)} bytes) in {path}")
        magic, d, n, half_width = HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigError(f"bad magic {magic!r} in {path}")
        try:
            spec = GridSpec(d, n, half_width)
            check_budget(spec)
        except ConfigError as exc:  # a grid no config could state, or one over the memory budget
            raise ConfigError(f"{exc} in {path}") from None
        info = os.fstat(fh.fileno())
        length = info.st_size - HEADER.size
        # a regular file of the wrong length is refused before its payload is allocated
        if length == spec.size * 8 or not stat.S_ISREG(info.st_mode):
            values = np.empty(spec.size, dtype="<f8")
            length = fh.readinto(values) + len(fh.read())
        if length != spec.size * 8:
            raise ConfigError(f"payload length {length} != expected {spec.size * 8} in {path}")
    try:
        return RealField(spec, values)
    except NFSError as exc:  # a NaN or inf sample
        raise ConfigError(f"{exc} in {path}") from None
