"""Exception types shared across the package; ``kind`` is each one's CLI error name."""

__all__ = [
    "ADHMKitError",
    "ShapeError",
    "DomainError",
    "InvalidPointError",
    "IndeterminateError",
    "ParseError",
]


class ADHMKitError(Exception):
    """Base class for every error raised by this package."""

    kind = "internal"


class ShapeError(ADHMKitError, ValueError):
    """Input has inconsistent, non-finite, or unsupported shape/content."""

    kind = "shape"


class DomainError(ADHMKitError, ValueError):
    """A chart or overlap precondition does not hold for the given input."""

    kind = "domain"


class InvalidPointError(ADHMKitError, ValueError):
    """An operation requiring admissible data received an invalid point."""

    kind = "invalid_point"


class IndeterminateError(ADHMKitError):
    """A numerical verdict could not be certified at the given tolerances."""

    kind = "indeterminate"


class ParseError(ADHMKitError, ValueError):
    """Malformed serialized input."""

    kind = "parse"

    def __init__(self, detail, path=None):
        super().__init__(detail if path is None else f"{path}: {detail}")
        self.detail = detail
        self.path = path
