"""Plain-text matrix and vector literals shared by configs and design files.

Scalars and the entries of vectors are finite numbers (``nan`` and ``inf``
are rejected); vectors are whitespace-separated, matrices use ';' between
rows, so a 2x2 identity reads ``1 0; 0 1``.  Values are emitted with repr,
which is the shortest decimal that round-trips the float exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "format_vector",
    "format_matrix",
    "NotA",
    "parse_number",
    "positive",
    "parse_vector",
    "parse_matrix",
    "parse_fractions",
]


def format_vector(v) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def format_matrix(m) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "; ".join(" ".join(repr(float(x)) for x in row) for row in m)


class NotA(ValueError):
    """A scalar of the wrong type; the message completes "'<text>' ..."."""


def parse_number(text: str) -> float:
    """A finite float; a non-number raises float's own ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise NotA("is not a finite number")
    return value


def positive(value: float) -> float:
    """A parsed scalar that must be positive, such as a decay rate."""
    if not value > 0:
        raise NotA("is not positive")
    return value


def parse_vector(text: str) -> np.ndarray:
    parts = text.split()
    if not parts:
        raise ValueError("empty vector literal")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"bad vector literal {text!r}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"bad vector literal {text!r}: values must be finite")
    return values


def parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";")]
    if not rows or any(not r for r in rows):
        raise ValueError(f"bad matrix literal {text!r}")
    parsed = [parse_vector(r) for r in rows]
    width = {row.size for row in parsed}
    if len(width) != 1:
        raise ValueError(f"ragged matrix literal {text!r}")
    return np.vstack(parsed)


def parse_fractions(text: str) -> list[Fraction]:
    """Exact rationals; accepts integers, decimals and p/q forms."""
    parts = text.split()
    if not parts:
        raise ValueError("empty rational vector literal")
    out = []
    for p in parts:
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {p!r}: {exc}") from None
    return out
