"""Exception types shared across the library: one per remedy a caller has."""


class HeleShawError(Exception):
    """Base class for all library errors; raised itself when a solver fails on valid input."""


class DomainError(HeleShawError):
    """An input, or a value derived from it, lies outside what the operation accepts."""


class ConfigError(HeleShawError):
    """Malformed configuration file or option value."""
