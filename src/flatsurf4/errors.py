"""Exception types shared across the toolkit."""


class FlatSurfaceError(Exception):
    """Base class for all toolkit errors."""


class PreconditionViolated(FlatSurfaceError):
    """An operation's input contract failed; carries the offending residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonConstantAngle(FlatSurfaceError):
    """Wave solutions require a constant angle."""


class EqualSpeeds(FlatSurfaceError):
    """Exponential solutions are undefined when r^2 == s^2."""


class PathDependence(FlatSurfaceError):
    """The two integration orders of a path integral disagree."""


class GridMismatch(FlatSurfaceError):
    """Two grids expected to share geometry do not."""


class DegenerateMetric(FlatSurfaceError):
    """The induced metric is singular on the whole tested region."""


class NoLambdaFound(FlatSurfaceError):
    """Margin never cleared the acceptance threshold before lambda underflowed."""


class IntegrationFailure(FlatSurfaceError):
    """An ODE integration produced non-finite values."""


class NoSignChange(FlatSurfaceError):
    """Bisection target was never bracketed; carries the scanned values."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan or []


class ClosureFailure(FlatSurfaceError):
    """A curve or lift failed to close within the allowed multiples."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class SingularAfterRescale(FlatSurfaceError):
    """The rescaled solution still has singular points."""


class PoleOnSurface(FlatSurfaceError):
    """Stereographic pole lies on (or too close to) the surface."""


class NotOnSphere(FlatSurfaceError):
    """Stereographic export requires data on an affine 3-sphere."""
