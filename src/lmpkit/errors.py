"""Exception types shared across the package."""


class LmpkitError(Exception):
    """Base class for all package errors."""


class ParseError(LmpkitError):
    """Raised on malformed expression text; carries the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(LmpkitError):
    """Raised when evaluation hits an unbound variable or leaves the reals.

    Evaluation over arrays sets ``sample`` to the index of the first bad
    sample point and keeps the bare cause in ``reason``.
    """

    def __init__(self, reason: str, sample: int | None = None):
        where = "" if sample is None else f" at sample {sample}"
        super().__init__(f"{reason}{where}")
        self.reason = reason
        self.sample = sample


class InputError(LmpkitError):
    """Invalid user-supplied data: bad parameters, schemas, certificates."""


class NumericalError(LmpkitError):
    """An internal numerical routine failed to reach its advertised accuracy."""
