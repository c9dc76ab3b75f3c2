"""Exception types shared across the library."""


class HeleShawError(Exception):
    """Base class for all library errors."""


class DomainError(HeleShawError):
    """Input lies outside the mathematical domain of the operation."""


class NotExactDerivative(HeleShawError):
    """The differential polynomial is not a total x-derivative."""


class NoConvergence(HeleShawError):
    """A search has no single answer (e.g. an event level straddled by a jump)."""


class OutOfRange(HeleShawError):
    """Evaluation point lies outside the constructed solution's domain."""


class TooCloseToPole(HeleShawError):
    """Evaluation point is too close to a solution pole to be reliable."""


class StepSizeUnderflow(HeleShawError):
    """Integrator step size underflowed away from a detected pole."""


class CertificationFailed(HeleShawError):
    """A constructed solution failed its own consistency check."""


class SeedUnreliable(HeleShawError):
    """Seeding abscissa too small for the asymptotic series to be trusted."""


class ConfigError(HeleShawError):
    """Malformed configuration file or option value."""
