"""Exception hierarchy for the generation pipeline."""

from __future__ import annotations


class NlgenError(Exception):
    """Base class for all errors raised by this package."""


class SchemaParseError(NlgenError):
    """Schema source could not be parsed; carries the offending position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DataError(NlgenError):
    """Malformed input data or lexicon file."""


class MissingPathError(NlgenError):
    """A dotted data path did not resolve to a value."""

    def __init__(self, path: str):
        super().__init__(f"missing data path: {path}")
        self.path = path


class TypeMismatchError(NlgenError):
    """A condition compared values of incompatible types."""


class TraversalError(NlgenError):
    """Schema traversal failed (cycle budget, nesting depth, unresolved
    call, bad template or path value)."""


class ReferentialIntegrityError(NlgenError):
    """A plan references an entity that is not in its entity table."""


class SerializationError(NlgenError):
    """A serialized plan file did not match the canonical JSON form."""
