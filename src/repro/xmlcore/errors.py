"""Exception types for the :mod:`repro.xmlcore` package.

The XML layer is used on the hot path of every SOAP message, so its error
types carry enough position information (line / column / byte offset) for a
caller to report *where* a malformed document went wrong without re-parsing.
"""

from __future__ import annotations


class XmlError(Exception):
    """Base class for all XML errors raised by :mod:`repro.xmlcore`."""


class XmlParseError(XmlError):
    """Raised when a document is not well formed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based line and column of the offending character.
    offset:
        0-based character offset into the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 offset: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.offset = offset
        super().__init__(f"{message} (line {line}, column {column})")


class XmlWriteError(XmlError):
    """Raised when a tree cannot be serialized (bad tag name, etc.)."""
