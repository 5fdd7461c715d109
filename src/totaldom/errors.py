"""Shared exception types for parsing, validation, and capability limits."""


class ParseError(ValueError):
    """Malformed graph or recipe text; the message names the offending line."""


class ValidationError(ValueError):
    """Structurally well-formed input that violates an operation precondition."""


class RecipeValidationError(ValidationError):
    """A four-step recipe was rejected.

    ``step`` is the construction step (1-4) that failed and ``witness`` is a
    small tuple pinpointing the violation, e.g. ``(w, u, v)`` for a vertex w
    left non-adjacent to both endpoints of the required edge uv.
    """

    def __init__(self, step: int, message: str, witness: tuple | None = None):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.witness = witness


class NotAntichainError(ValueError):
    """A Sperner family was given a set contained in another one.

    ``contained`` and ``superset`` are the two sets as bitmasks.
    """

    def __init__(self, message: str, contained: int, superset: int):
        super().__init__(message)
        self.contained = contained
        self.superset = superset


class DominationUndefinedError(ValueError):
    """Total domination was requested on a graph with an isolated vertex."""


class CapabilityError(RuntimeError):
    """An exact operation was asked to exceed its configured size bound."""
