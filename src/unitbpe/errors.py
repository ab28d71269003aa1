"""Exception hierarchy shared by all unitbpe modules."""


class UnitBpeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(UnitBpeError):
    """A file could not be parsed; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(UnitBpeError):
    """Data violates a vocabulary or merge-table invariant; ``rule`` is the
    index of the merge rule at fault, if one is."""

    def __init__(self, message: str, rule: int | None = None):
        self.rule = rule
        super().__init__(message)


class ContractError(UnitBpeError):
    """An operation was called with arguments outside its contract."""
