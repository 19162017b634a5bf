"""Exception types shared across the package."""


class GroupError(ValueError):
    """Base class for errors raised by group-theoretic operations."""


class MalformedPermutationError(GroupError):
    """Raised when an image list is not a bijection on 0..n-1."""


class DegreeMismatchError(GroupError):
    """Raised when permutations of different degrees are combined."""


class ParseError(GroupError):
    """Raised on malformed textual input.

    Carries the 1-based line and column of the offending character when
    they are known.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}: {message}" if column is None else (
                f"line {line}, column {column}: {message}")
        super().__init__(message)
        self.line = line
        self.column = column


class NotTransitiveError(GroupError):
    """Raised when an operation requires a transitive action."""


class SectionObstructionError(GroupError):
    """Raised when one direct factor is a section of another, so the
    transitive-only reduction for semisimple products does not apply."""


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed an explicit resource budget."""
