"""Line-oriented run configuration: `section.key = value`, `#` comments.

Unknown keys are errors so typos never pass silently. Every field has a
default except the grid geometry, which should be stated explicitly in any
real run (defaults target the standard five-dimensional desk scenario).
One table, `KEYS`, drives both parsing and echoing, and numbers must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

MEAN_POLICIES = ("reject", "project")
KERNEL_TYPES = ("gaussian", "file")
SOURCE_TYPES = ("gaussian-diff", "file")


def check_grid(d: int, n: int, half_width: float) -> None:
    """Refuse a box outside the supported range, before anything is sized from it."""
    if not (1 <= d <= 7):
        raise ConfigError(f"dimension must lie in [1, 7], got {d}")
    if n < 4 or (n & (n - 1)) != 0:
        raise ConfigError(f"n must be a power of two >= 4, got {n}")
    if not (half_width > 0):
        raise ConfigError(f"half_width must be positive, got {half_width}")
    if not math.isfinite(2.0 * half_width):
        raise ConfigError(f"half_width = {half_width!r}: the period 2*half_width is not finite")


@dataclass
class KernelConfig:
    type: str = "gaussian"
    sigma: float = 1.0
    amplitude: float = 1.0
    file: str = ""


@dataclass
class SourceConfig:
    type: str = "gaussian-diff"
    centers: tuple[float, float] = (1.0, -1.0)
    widths: tuple[float, float] = (1.0, 1.0)
    amplitude: float = 1.0
    file: str = ""


@dataclass
class RunConfig:
    dimension: int = 5
    n: int = 8
    half_width: float = 4.0 * 3.141592653589793
    epsilon: float | None = None  # None == "auto"
    rho: float = 1.0
    tol_fp: float = 1e-10
    max_iter: int = 200
    seed: int = 42
    slack: float = 0.05
    output_dir: str = "out"
    mean_policy: str = "reject"
    trials: int = 50
    sequence_count: int = 8
    kernel: KernelConfig = field(default_factory=KernelConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    coeffs: tuple[float, ...] = (1.0,)
    coeffs2: tuple[float, ...] | None = None

    def validate(self) -> None:
        check_grid(self.dimension, self.n, self.half_width)
        if self.epsilon is not None and self.epsilon < 0:
            raise ConfigError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not (0.0 < self.rho <= 1.0):
            raise ConfigError(f"rho must lie in (0, 1], got {self.rho}")
        if not (self.tol_fp > 0):
            raise ConfigError(f"tol_fp must be positive, got {self.tol_fp}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.slack < 0:
            raise ConfigError(f"slack must be nonnegative, got {self.slack}")
        if self.mean_policy not in MEAN_POLICIES:
            raise ConfigError(f"mean_policy must be one of {MEAN_POLICIES}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.sequence_count < 1:
            raise ConfigError(f"sequence.count must be >= 1, got {self.sequence_count}")
        if self.kernel.type not in KERNEL_TYPES:
            raise ConfigError(f"kernel.type must be one of {KERNEL_TYPES}")
        if self.source.type not in SOURCE_TYPES:
            raise ConfigError(f"source.type must be one of {SOURCE_TYPES}")
        for name, part in (("kernel", self.kernel), ("source", self.source)):
            if part.type == "file" and not part.file:
                raise ConfigError(f"{name}.type = file needs {name}.file")
        if self.kernel.type == "gaussian" and not (self.kernel.sigma > 0):
            raise ConfigError(f"kernel.sigma must be positive, got {self.kernel.sigma}")
        if self.source.type == "gaussian-diff":
            for w in self.source.widths:
                if not (w > 0):
                    raise ConfigError(f"source widths must be positive, got {w}")
        if not self.coeffs or not any(self.coeffs):
            raise ConfigError("nonlinearity.coeffs must not be identically zero")

    @property
    def project_mean(self) -> bool:
        """Whether the linear solves drop the source's zero mode instead of refusing it."""
        return self.mean_policy == "project"


def _parse_float(key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return x


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part.strip()) for part in value.split(","))


def _parse_pair(key: str, value: str) -> tuple[float, float]:
    parts = _parse_floats(key, value)
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected exactly two values, got {len(parts)}")
    return parts


_show_float = "{:.17g}".format


def _show_floats(values: tuple[float, ...]) -> str:
    return ",".join(map(_show_float, values))


# (parse, show) for each value type
_INT = (_parse_int, str)
_FLOAT = (_parse_float, _show_float)
_TEXT = (lambda key, value: value, str)
_FLOATS = (_parse_floats, _show_floats)
_PAIR = (_parse_pair, _show_floats)
_EPSILON = (
    lambda key, value: None if value == "auto" else _parse_float(key, value),
    lambda x: "auto" if x is None else _show_float(x),
)


# Every key in echo order: (key, attribute path in RunConfig, (parse, show), shown-when).
# A key whose shown-when is None is always echoed.
KEYS = (
    ("grid.dimension", "dimension", _INT, None),
    ("grid.n", "n", _INT, None),
    ("grid.half_width", "half_width", _FLOAT, None),
    ("run.epsilon", "epsilon", _EPSILON, None),
    ("run.rho", "rho", _FLOAT, None),
    ("run.tol_fp", "tol_fp", _FLOAT, None),
    ("run.max_iter", "max_iter", _INT, None),
    ("run.seed", "seed", _INT, None),
    ("run.slack", "slack", _FLOAT, None),
    ("run.output_dir", "output_dir", _TEXT, None),
    ("run.mean_policy", "mean_policy", _TEXT, None),
    ("run.trials", "trials", _INT, None),
    ("sequence.count", "sequence_count", _INT, None),
    ("kernel.type", "kernel.type", _TEXT, None),
    ("kernel.sigma", "kernel.sigma", _FLOAT, lambda c: c.kernel.type == "gaussian"),
    ("kernel.amplitude", "kernel.amplitude", _FLOAT, lambda c: c.kernel.type == "gaussian"),
    ("kernel.file", "kernel.file", _TEXT, lambda c: c.kernel.type != "gaussian"),
    ("source.type", "source.type", _TEXT, None),
    ("source.centers", "source.centers", _PAIR, lambda c: c.source.type == "gaussian-diff"),
    ("source.widths", "source.widths", _PAIR, lambda c: c.source.type == "gaussian-diff"),
    ("source.amplitude", "source.amplitude", _FLOAT, lambda c: c.source.type == "gaussian-diff"),
    ("source.file", "source.file", _TEXT, lambda c: c.source.type != "gaussian-diff"),
    ("nonlinearity.coeffs", "coeffs", _FLOATS, None),
    ("nonlinearity.coeffs2", "coeffs2", _FLOATS, lambda c: c.coeffs2 is not None),
)
_BY_KEY = {row[0]: row[1:3] for row in KEYS}


def _owner(cfg: RunConfig, path: str) -> tuple[object, str]:
    """The object holding the attribute at `path`, and the attribute's name."""
    head, _, attr = path.rpartition(".")
    return (getattr(cfg, head) if head else cfg), attr


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; unknown keys are rejected."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key not in _BY_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        path, (parse, _) = _BY_KEY[key]
        owner, attr = _owner(cfg, path)
        setattr(owner, attr, parse(key, value))
        if attr == "file":  # naming a field file selects it as the kernel or source
            owner.type = "file"
    cfg.validate()
    return cfg


def echo_config(cfg: RunConfig) -> str:
    """Render the fully resolved configuration for report auditability."""
    lines = []
    for key, path, (_, show), shown in KEYS:
        if shown is None or shown(cfg):
            owner, attr = _owner(cfg, path)
            lines.append(f"{key} = {show(getattr(owner, attr))}")
    return "\n".join(lines)
