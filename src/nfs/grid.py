"""Periodic-box grid, real sampled fields, and the NFS1 dump format.

The box is [-L, L)^d with n samples per axis (n a power of two); the dual
lattice carries frequencies p_k = (pi/L) k with k in [-n/2, n/2)^d. A spectrum
has no container: it is a complex array of `half_shape`, passed after its grid.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .config import check_grid
from .errors import ConfigError, GridMismatch, NFSError

MAGIC = b"NFS1"
HEADER = struct.Struct("<4sIId")  # magic, d, n, half_width

DEFAULT_MEMORY_BUDGET_MB = 4096


def memory_budget_mb() -> int:
    """NFS_MEMORY_BUDGET_MB, or its default; a value that is not a whole number is a config error."""
    raw = os.environ.get("NFS_MEMORY_BUDGET_MB", str(DEFAULT_MEMORY_BUDGET_MB))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"NFS_MEMORY_BUDGET_MB must be a whole number of MB, got {raw!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box [-L, L)^d."""

    d: int
    n: int
    half_width: float

    def __post_init__(self):
        check_grid(self.d, self.n, self.half_width)  # before size computes n**d
        if self.size * 8 > memory_budget_mb() * 2**20:
            raise ConfigError(
                f"grid of {self.size} points exceeds the memory budget "
                f"(set NFS_MEMORY_BUDGET_MB to raise it)"
            )

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
    """Real-valued samples on a grid, row-major, flat storage."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != self.spec.size:
            raise NFSError(
                f"field length {self.values.size} != grid size {self.spec.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NFSError("field contains non-finite values")

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.spec.shape)


def check_same_grid(a, b):
    if a.spec != b.spec:
        raise GridMismatch(f"grids differ: {a.spec} vs {b.spec}")


def zeros_like(spec: GridSpec) -> RealField:
    return RealField(spec, np.zeros(spec.size))


def write_field(path: str, f: RealField) -> None:
    """Dump a field in the NFS1 format (atomic: temp file + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, f.spec.d, f.spec.n, f.spec.half_width))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))  # a view on little-endian hosts
    os.replace(tmp, path)


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
