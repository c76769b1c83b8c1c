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
    """Malformed input other than schema text: a data, lexicon,
    document-plan or sentence-plans file, or a plan built by hand that
    breaks a rule the codec or the plan checks hold, such as a field
    holding a value of another type or naming an entity its table does
    not hold."""


class TraversalError(NlgenError):
    """Schema traversal failed: a data path that does not resolve, a guard
    comparing values of incompatible types, a bad template or path value,
    an unresolved call, the cycle budget or the nesting depth."""

