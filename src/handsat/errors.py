"""Shared exception types, mapped to CLI exit codes in handsat.cli."""


class HandsatError(Exception):
    """Base class for all package errors."""


class ContractError(HandsatError):
    """An operation was called with arguments violating its contract
    (shape mismatch, out-of-range index, inconsistent mask)."""


class NonFiniteError(HandsatError):
    """A non-finite value reached an operation that needs finite ones (a
    score at an allowed position of masked_softmax): a numeric failure, not
    a broken contract. In training this is divergence."""


class ConfigError(HandsatError):
    """Invalid or inconsistent configuration."""


class CorpusError(HandsatError):
    """Malformed or inconsistent dialogue data."""


class CheckpointError(HandsatError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def path_reason(error: OSError | ValueError) -> str:
    """An OSError's strerror, or the ValueError of a NUL or lone surrogate."""
    return getattr(error, "strerror", None) or str(error)
