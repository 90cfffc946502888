"""Plain-text values shared by configs and design files.

Scalars and the entries of vectors are finite numbers (``nan`` and ``inf``
are rejected); vectors are whitespace-separated, matrices use ';' between
rows, so a 2x2 identity reads ``1 0; 0 1``.  Values are emitted with repr,
which is the shortest decimal that round-trips the float exactly.  Each
value kind has one parser in ``KINDS``, whose ValueError gives the reason.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .plant import SaturationBounds

__all__ = [
    "format_vector",
    "format_matrix",
    "KINDS",
    "parse_number",
    "parse_vector",
    "parse_matrix",
    "parse_fractions",
]


def format_vector(v) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def format_matrix(m) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "; ".join(" ".join(repr(float(x)) for x in row) for row in m)


def parse_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("not a number") from None
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _positive(text: str) -> float:
    value = parse_number(text)
    if not value > 0:
        raise ValueError("not positive")
    return value


def _integer(text: str) -> int:
    value = parse_number(text)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def parse_vector(text: str) -> np.ndarray:
    parts = text.split()
    if not parts:
        raise ValueError("empty vector")
    values = np.array([float(p) for p in parts])  # float names a bad entry
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";")]
    if any(not r for r in rows):
        raise ValueError("empty matrix row")
    parsed = [parse_vector(r) for r in rows]
    if len({row.size for row in parsed}) != 1:
        raise ValueError("rows of unequal length")
    return np.vstack(parsed)


def parse_fractions(text: str) -> list[Fraction]:
    """Exact rationals; accepts integers, decimals and p/q forms."""
    parts = text.split()
    if not parts:
        raise ValueError("empty rational vector")
    out = []
    for p in parts:
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {p!r}: {exc}") from None
    return out


# value kind -> parser
KINDS = {
    "number": parse_number,
    "positive": _positive,
    "integer": _integer,
    "vector": parse_vector,
    "matrix": parse_matrix,
    "rationals": parse_fractions,
    "bounds": lambda text: SaturationBounds(parse_vector(text)),
}
