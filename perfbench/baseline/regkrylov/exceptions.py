"""Exception types shared across the package."""


class RegKrylovError(Exception):
    """Base class for all package errors."""


class ContractViolation(RegKrylovError, ValueError):
    """An argument violated a documented precondition."""


class NumericalError(RegKrylovError, RuntimeError):
    """An iteration failed to converge or a quantity is numerically undefined."""


class ResourceLimitError(RegKrylovError, RuntimeError):
    """A dense-path size limit would be exceeded."""


class ConfigError(RegKrylovError, ValueError):
    """An experiment configuration is invalid."""
