"""Line-oriented run configuration: `section.key = value`, `#` comments.

Unknown keys are errors so typos never pass silently. Every field has a
default except the grid geometry, which should be stated explicitly in any
real run (defaults target the standard five-dimensional desk scenario).
One table, `KEYS`, drives parsing, echoing and checking, and numbers must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

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
        for key, path, _, applies, rule in KEYS:
            if rule is not None and (applies is None or applies(self)):
                check_value(key, attrgetter(path)(self))
        for name, part in (("kernel", self.kernel), ("source", self.source)):
            if (part.type == "file") != bool(part.file):
                raise ConfigError(f"{name}.type must be 'file' exactly when {name}.file names a file, "
                                  f"got {part.type!r} with {name}.file = {part.file!r}")

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


show_float = "{:.17g}".format


def _show_floats(values: tuple[float, ...]) -> str:
    return ",".join(map(show_float, values))


# (parse, show) for each value type
_INT = (_parse_int, str)
_FLOAT = (_parse_float, show_float)
_TEXT = (lambda key, value: value, str)
_FLOATS = (_parse_floats, _show_floats)
_PAIR = (_parse_pair, _show_floats)
_EPSILON = (
    lambda key, value: None if value == "auto" else _parse_float(key, value),
    lambda x: "auto" if x is None else show_float(x),
)


# (accepts, requirement) of a key's values; a value it does not accept is refused as
# `<key> <requirement>, got <value>`
_POSITIVE = (lambda x: x > 0, "must be positive")
_NONNEGATIVE = (lambda x: x >= 0, "must be nonnegative")
_COUNT = (lambda x: x >= 1, "must be >= 1")


def _one_of(choices: tuple[str, ...]) -> tuple:
    return (lambda x: x in choices, f"must be one of {choices}")


# Every key in echo order: (key, attribute path in RunConfig, (parse, show), applies-when, rule).
# A key whose applies-when is None always applies; a key is echoed, and its rule checked, only
# where it applies. A key whose rule is None takes any value it parses to.
KEYS = (
    ("grid.dimension", "dimension", _INT, None, None),  # the grid's rules are check_grid's
    ("grid.n", "n", _INT, None, None),
    ("grid.half_width", "half_width", _FLOAT, None, None),
    ("run.epsilon", "epsilon", _EPSILON, None,
     (lambda x: x is None or 0 <= x < math.inf, "must be finite and nonnegative")),
    ("run.rho", "rho", _FLOAT, None, (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")),
    ("run.tol_fp", "tol_fp", _FLOAT, None, _POSITIVE),
    ("run.max_iter", "max_iter", _INT, None, _COUNT),
    ("run.seed", "seed", _INT, None, _NONNEGATIVE),
    ("run.slack", "slack", _FLOAT, None, _NONNEGATIVE),
    ("run.output_dir", "output_dir", _TEXT, None, None),
    ("run.mean_policy", "mean_policy", _TEXT, None, _one_of(MEAN_POLICIES)),
    ("run.trials", "trials", _INT, None, _COUNT),
    ("sequence.count", "sequence_count", _INT, None, _COUNT),
    ("kernel.type", "kernel.type", _TEXT, None, _one_of(KERNEL_TYPES)),
    ("kernel.sigma", "kernel.sigma", _FLOAT, lambda c: c.kernel.type == "gaussian", _POSITIVE),
    ("kernel.amplitude", "kernel.amplitude", _FLOAT, lambda c: c.kernel.type == "gaussian", None),
    ("kernel.file", "kernel.file", _TEXT, lambda c: c.kernel.type != "gaussian", None),
    ("source.type", "source.type", _TEXT, None, _one_of(SOURCE_TYPES)),
    ("source.centers", "source.centers", _PAIR, lambda c: c.source.type == "gaussian-diff", None),
    ("source.widths", "source.widths", _PAIR, lambda c: c.source.type == "gaussian-diff",
     (lambda ws: all(w > 0 for w in ws), "must both be positive")),
    ("source.amplitude", "source.amplitude", _FLOAT, lambda c: c.source.type == "gaussian-diff", None),
    ("source.file", "source.file", _TEXT, lambda c: c.source.type != "gaussian-diff", None),
    ("nonlinearity.coeffs", "coeffs", _FLOATS, None, (any, "must not be identically zero")),
    ("nonlinearity.coeffs2", "coeffs2", _FLOATS, lambda c: c.coeffs2 is not None, None),
)
_BY_KEY = {row[0]: row[1:3] for row in KEYS}
_RULES = {row[0]: row[4] for row in KEYS if row[4] is not None}


def check_value(key: str, value) -> None:
    """Refuse a value that breaks the rule in `key`'s row of KEYS, naming the key and the value."""
    accepts, requirement = _RULES[key]
    if not accepts(value):
        raise ConfigError(f"{key} {requirement}, got {value!r}")


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
        head, _, attr = path.rpartition(".")
        owner = getattr(cfg, head) if head else cfg  # the object holding the attribute
        setattr(owner, attr, parse(key, value))
        if attr == "file":  # naming a field file selects it as the kernel or source
            owner.type = "file"
    cfg.validate()
    return cfg


def echo_config(cfg: RunConfig) -> str:
    """Render the fully resolved configuration for report auditability."""
    lines = []
    for key, path, (_, show), applies, _ in KEYS:
        if applies is None or applies(cfg):
            lines.append(f"{key} = {show(attrgetter(path)(cfg))}")
    return "\n".join(lines)
