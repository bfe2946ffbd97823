"""Exception types shared across the library."""


class GLHarmonicError(Exception):
    """Base class for all library errors."""


class StencilSupportError(GLHarmonicError):
    """Grid has too few nodes along an axis to support the requested stencil."""


class SingularMetricError(GLHarmonicError):
    """A metric is singular or too ill-conditioned at some node."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class SingularDirectionError(GLHarmonicError):
    """A direction-dependent metric was queried where its defining pairing vanishes."""

    def __init__(self, message: str, point=None, direction=None):
        super().__init__(message)
        self.point = point
        self.direction = direction


class AdmissibilityError(GLHarmonicError):
    """The map is outside the quotient functional's domain: the pairing
    of its differential with the system tensor vanishes at some nodes."""

    def __init__(self, message: str, nodes=None):
        super().__init__(message)
        self.nodes = nodes or []


class StepLimitError(GLHarmonicError):
    """An integration would take more steps than the integrator runs."""


class DivisionGuardError(GLHarmonicError):
    """A coupling constant of zero was supplied where a division is required."""


class ScenarioValidationError(GLHarmonicError):
    """A scenario file violates the schema; carries all messages at once."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))
