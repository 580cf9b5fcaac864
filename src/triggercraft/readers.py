"""Readers shared by the parsers: checked JSON values (measurement logs,
config), numbers written as text (TSV files, CLI options) and headed
tab-separated files (trigger labels, probe scores)."""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import ParseError

__all__ = ["finite_number", "string", "text_integer", "text_number", "tsv_rows", "whole_number"]


def string(value, key: str) -> str:
    """A JSON string; nothing else."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def finite_number(value, key: str) -> float:
    """A JSON number (not a boolean) with a finite float value; nothing else."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def whole_number(value, key: str) -> int:
    """A JSON integer, or a float with no fractional part; nothing else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be a whole number, got {value!r}")


def text_integer(text: str, key: str, signed: bool = False) -> int:
    """An integer written in ASCII digits, after a ``-`` only if ``signed``; nothing else."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than an int may be parsed from
            pass
    raise ValueError(f"{key} must be an integer, got {text!r}")


def text_number(text: str, key: str) -> float:
    """A number as ``float`` reads it, written in ASCII without ``_``; nothing else."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"{key} must be a number, got {text!r}")


def tsv_rows(lines: Iterable[str], header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) for each line after the header.

    Blank lines are skipped.  The first other line must be exactly
    ``header``; if it is not, or there is none, the :class:`ParseError`
    names the file as a ``what`` file.
    """
    numbered = enumerate(lines, 1)
    for lineno, raw in numbered:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.split("\t") != header:
            raise ParseError(f"bad {what} header {line!r}", lineno)
        break
    else:
        raise ParseError(f"empty {what} file")
    for lineno, raw in numbered:
        line = raw.rstrip("\n")
        if line.strip():
            yield lineno, line.split("\t")
