"""Exception types shared across the package."""


class EvobeamError(Exception):
    """Base class for package errors."""


class ValidationError(EvobeamError, ValueError):
    """An input value violates a documented precondition."""


class ConfigurationError(EvobeamError, ValueError):
    """A configuration is internally inconsistent or infeasible."""


class ProtocolError(EvobeamError, RuntimeError):
    """Lifecycle bookkeeping was driven out of order."""
