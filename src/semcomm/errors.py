"""Exception types shared across the package."""

_QUOTE_MAX = 80  # characters of input an error message quotes


def clip(text: str) -> str:
    """Input text cut to a fixed length for an error message, so that the
    message stays one short line however long the input is."""
    return text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "..."


class SemcommError(Exception):
    """Base class for all package-specific errors."""


class StatementParseError(SemcommError, ValueError):
    """Malformed statement text.

    Carries the 1-based line and column of the first offending character.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ArityConflictError(SemcommError, ValueError):
    """A predicate name was used with two different arities."""

    def __init__(self, name: str, seen: int, now: int):
        super().__init__(
            f"predicate {clip(repr(name))} used with arity {now} but previously declared "
            f"with arity {seen}"
        )
        self.name = name
        self.seen = seen
        self.now = now


class InconsistentEvidenceError(SemcommError, ValueError):
    """The evidence asserts and negates the same atomic statement."""


class CapacityError(SemcommError, ValueError):
    """An enumeration or alphabet limit would be exceeded."""


class DomainMismatchError(SemcommError, ValueError):
    """Sentences or constituents from different sub-languages were mixed."""


class InfeasibleTargetError(SemcommError, ValueError):
    """The requested fidelity target exceeds what any mapping achieves."""

    def __init__(self, target: float, achievable: float):
        super().__init__(
            f"fidelity target {target:.6g} is infeasible; the maximum achievable value is {achievable:.6g}"
        )
        self.target = target
        self.achievable = achievable


class DecodeError(SemcommError, ValueError):
    """A coded container is malformed, truncated, or fails its checksum."""
