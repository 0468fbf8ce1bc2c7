"""Exception types shared across the package."""


class KcfError(Exception):
    """Base class for all domain errors raised by this package."""


class SizeMismatchError(KcfError):
    """Two pencil structures that must share dimensions do not."""


class DuplicateNodeError(KcfError):
    """A node set that must be orbit-distinct contains a repeat."""


class MissingBlocksError(KcfError):
    """A rewrite instance consumes blocks that are not present."""


class BadParametersError(KcfError):
    """Rule parameters violate the rule's side conditions."""


class PoolTooSmallError(KcfError):
    """An eigenvalue label pool is too small for the requested enumeration."""


class PreconditionViolatedError(KcfError):
    """Input violates a stated hypothesis of an inequality checker."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"precondition ({condition}) violated: {message}")
        self.condition = condition


class NonInjectiveAssignmentError(KcfError):
    """Two distinct eigenvalue labels were assigned the same value."""


class MissingLabelError(KcfError):
    """An eigenvalue label has no assigned value."""


class InvalidSizeError(KcfError):
    """Requested pencil dimensions or pool sizes are out of range."""


class EnumerationLimitExceededError(KcfError):
    """A verification run would exceed the configured pair budget."""


class SearchBudgetExceededError(KcfError):
    """A reachability search exceeded its expansion budget."""


class NotationLimitExceededError(KcfError):
    """A well-formed integer in structure notation exceeds the guard limit."""


class InvariantViolationError(KcfError):
    """An internal invariant of the theory failed at run time.

    Raised in place of ``assert`` so the check survives ``python -O``.
    """


class NotationError(KcfError):
    """Base class for structure-notation errors."""


class ParseError(NotationError):
    """Structure text does not match the grammar.

    Carries the 0-based offset of the offending character and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class DomainError(NotationError):
    """Syntactically valid notation denoting an ill-formed block."""
