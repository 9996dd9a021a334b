"""Exception types shared across the toolkit."""


class ScalefitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ScalefitError):
    """A record, family, or configuration violates an invariant."""


class IngestError(ValidationError):
    """A tabular input row could not be parsed or validated.

    Carries the 1-based line number (None for a row given from Python) and,
    when known, the offending field.
    """

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


class InsufficientDataError(ScalefitError):
    """Not enough records or size families to perform the requested operation."""
