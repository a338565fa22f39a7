"""Shared exception types."""


class ContractError(ValueError):
    """A call violated an operation's precondition."""


class ShapeError(ContractError):
    """Operands have incompatible or malformed dimensions."""


class ConfigError(ContractError):
    """A configuration object is internally inconsistent."""
