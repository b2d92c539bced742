"""Exception hierarchy for the nfs package.

Exit-code classes used by the CLI:
  2 -- configuration problems (ConfigError)
  3 -- violated model assumptions (AssumptionError subclasses)
  4 -- iteration failures (IterationError subclasses)
"""


class NFSError(Exception):
    """Base class for all package errors."""


class ConfigError(NFSError):
    """Bad configuration text: syntax, unknown key, or invariant violation."""


class AssumptionError(NFSError):
    """A hypothesis of the underlying theory does not hold for the inputs."""


class IterationError(NFSError):
    """The fixed-point iteration failed to produce a solution."""


class GridMismatch(NFSError):
    """Two fields do not share the same grid."""


class BadDimension(NFSError):
    """Dimension outside the valid range of a closed-form constant."""


class NonPositiveInput(AssumptionError):
    """A parameter that must be positive (or nonnegative) and finite is not."""


class ContractionViolated(AssumptionError):
    """epsilon * sigma >= 1, so the contraction guarantee does not apply."""


class NonconformingG(AssumptionError):
    """The polynomial g is identically zero or has non-finite coefficients."""


class IntervalExceeded(AssumptionError):
    """Pointwise values of u0 + v left the certified interval."""


class TrivialField(AssumptionError):
    """A kernel, source or right-hand side vanishes identically."""


class NonDecayingSource(AssumptionError):
    """Zero-mode mass of the source exceeds tolerance under the reject policy."""


class MassLeakage(AssumptionError):
    """Too much L1 mass in the outer shell of the box: the box is too small."""


class OutsideBall(AssumptionError):
    """Iterate left the closed ball of radius rho in the H4 norm."""


class DegeneratePair(NFSError):
    """Sampled pair too close to measure a contraction ratio."""


class Diverged(IterationError):
    """Fixed-point steps grew for several consecutive iterations."""


class NotConverged(IterationError):
    """Maximum iteration count reached before the step tolerance."""
