"""Exception types shared across the package.

Each error's class gives the exit code of `normplane run` and the label its
message is printed with; every error belongs to one of four categories.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 4, "error"


class InputError(GeometryError):
    """The run's input (config, JSON or expression) is malformed."""

    exit_code, label = 2, "config error"


class ValidationError(GeometryError):
    """An input builds but fails a validation check."""

    exit_code, label = 3, "validation error"


class NumericalError(GeometryError):
    """A numerical method did not converge or disagreed with itself."""

    exit_code, label = 4, "numerical error"


class PreconditionError(GeometryError):
    """An operation's precondition does not hold for its inputs."""

    exit_code, label = 5, "precondition error"


class PlaneValidationError(ValidationError):
    """A norm specification failed validation at build time."""


class ConvexityViolation(PlaneValidationError):
    """The requested unit circle is not strictly convex."""


class PositivityViolation(PlaneValidationError):
    """The radial profile is not strictly positive."""


class BadParameter(PlaneValidationError):
    """A parameter is outside its admissible range."""


class ZeroVector(PreconditionError):
    """A nonzero vector was required."""


class NotUnit(PreconditionError):
    """A unit vector was required."""


class NoConvergence(NumericalError):
    """An iterative solve failed to reach its tolerance."""


class OutOfDomain(PreconditionError):
    """Parameter value outside the curve domain."""


class SingularPoint(PreconditionError):
    """The curve is singular where regularity was required."""


class LimitsDisagree(ValidationError):
    """A curve's tangent line does not join, or its singular points are too close."""


class ResidualViolation(ValidationError):
    """A curve/normal pair fails the orthogonality residual bound."""


class DegenerateFrame(NumericalError):
    """The (normal, tangent) frame degenerated; internal tables corrupt."""


class NotAFront(PreconditionError):
    """Curvature components vanish simultaneously; the pair is not an immersion."""


class NotClosed(PreconditionError):
    """A closed curve was required."""


class MethodsDisagree(NumericalError):
    """Independent computations of the same index disagree."""


class KappaVanishes(PreconditionError):
    """The normal-rotation rate vanishes where it must not."""


class RhoDegenerate(PreconditionError):
    """The unit-circle distortion is too close to zero for this operation."""


class NotAnIsometry(PreconditionError):
    """A linear map flagged as an isometry fails the norm-preservation check."""


class PreconditionViolated(PreconditionError):
    """An operation's precondition does not hold for the given inputs."""


class ConfigError(InputError):
    """A run configuration is malformed or references unknown entities."""


class ParseError(InputError):
    """Expression syntax error, with byte offset and expected-token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class ExpressionDomainError(InputError):
    """An expression hit a domain error (log/sqrt/division) at evaluation."""


class IoError(PreconditionError):
    """Output emission was refused or failed."""

    label = "io error"
