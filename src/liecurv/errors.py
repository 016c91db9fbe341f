"""Exception types shared across the package."""


class LiecurvError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LiecurvError):
    """Elements fed to an operation do not belong to the same algebra."""


class ValidationFailure(LiecurvError):
    """A spec or action failed validation; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class DegeneratePlane(LiecurvError):
    """The two elements do not span a two-dimensional plane."""


class NotIsometric(LiecurvError):
    """Operation requires a skew-adjoint action."""


class NotAdInvariant(LiecurvError):
    """Operation requires an Ad-invariant inner product (skew-adjoint ad)."""


class MidpointDivergence(LiecurvError):
    """Implicit midpoint fixed-point iteration failed to converge."""


class NonFiniteState(LiecurvError):
    """A blow-up: a state, a stage field or a torus product operand is no longer finite."""


class NotDivergenceFree(LiecurvError):
    """Operation defined only for divergence-free vector fields."""


class SamplingExhausted(LiecurvError):
    """Plane sampling exceeded the retry budget without a non-degenerate draw."""


class ConfigError(LiecurvError):
    """Command-line or configuration-file input could not be interpreted."""
