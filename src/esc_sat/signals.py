"""Probing and demodulation dither signals.

The seeking loop injects a sinusoidal probe S(t) on top of the parameter
estimate and demodulates the measured output with M(t).  Component i of the
probe is a_i*sin(w_i t) and of the demodulator (2/a_i)*sin(w_i t), where the
frequencies are w_i = m_i * base_omega with rational multipliers m_i.

The multipliers are kept as exact ``fractions.Fraction`` values until a signal
is actually evaluated.  Averaging arguments need the exact common period of
all dither components (and of every product of two of them), which floating
point LCMs cannot deliver reliably.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DitherSpec",
    "FrequencyViolation",
    "FrequencyReport",
    "validate_frequencies",
    "common_period",
    "eval_S",
    "eval_M",
    "eval_S_dot",
    "eval_M_dot",
]

# Exact rational LCMs can outgrow machine integers for adversarial multiplier
# sets; anything beyond this is reported instead of silently degrading.
_MAX_EXACT = 2**63 - 1


def _as_fraction(value) -> Fraction:
    """Convert a multiplier to an exact rational.

    Floats are routed through their shortest decimal repr so that a config
    value written as 0.1 means 1/10, not the binary expansion of 0.1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(str(value))


def _coerce_multipliers(multipliers: Iterable) -> tuple[Fraction, ...]:
    mults = tuple(_as_fraction(m) for m in multipliers)
    if not mults:
        raise ValueError("at least one dither multiplier is required")
    for m in mults:
        if m <= 0:
            raise ValueError(f"dither multipliers must be positive, got {m}")
    return mults


# The exclusion rules, one per violation kind: (number of indices, the index
# tuples (i, j[, k]) the rule covers, the relation on (m_i, m_j[, m_k]) that
# excludes m_i, its text).  A half-sum with i == j or i == k reduces to a
# plain duplicate, which is reported as such.
_RULES = {
    "duplicate": (2, lambda i, j: i < j, lambda a, b: a == b, "m[{0}] = m[{1}]"),
    "half-sum": (
        3, lambda i, j, k: j < k and i not in (j, k),
        lambda a, b, c: a == (b + c) / 2, "m[{0}] = (m[{1}] + m[{2}])/2",
    ),
    "shifted-double": (
        3, lambda i, j, k: not i == j == k,
        lambda a, b, c: a == b + 2 * c, "m[{0}] = m[{1}] + 2*m[{2}]",
    ),
    "sum": (
        3, lambda i, j, k: j <= k and not i == j == k,
        lambda a, b, c: a == b + c, "m[{0}] = m[{1}] + m[{2}]",
    ),
    "difference": (
        3, lambda i, j, k: j != k,
        lambda a, b, c: a == b - c, "m[{0}] = m[{1}] - m[{2}]",
    ),
}


@dataclass(frozen=True)
class FrequencyViolation:
    """One admissibility exclusion hit by a multiplier set."""

    kind: str                      # a key of _RULES
    indices: tuple[int, ...]
    value: Fraction

    def describe(self) -> str:
        return f"{_RULES[self.kind][3].format(*self.indices)} = {self.value}"


@dataclass(frozen=True)
class FrequencyReport:
    valid: bool
    violations: tuple[FrequencyViolation, ...]

    def describe(self) -> str:
        if self.valid:
            return "frequency multipliers admissible"
        lines = [v.describe() for v in self.violations]
        return "inadmissible frequency multipliers: " + "; ".join(lines)


def validate_frequencies(multipliers: Iterable) -> FrequencyReport:
    """Check the probing-frequency exclusion rules on a multiplier set.

    A multiplier m_i must not equal another multiplier, the half-sum of two,
    a multiplier plus twice another, or the sum/difference of two.  Tuples in
    which every index coincides are skipped: they would make the rule
    self-contradictory (every m trivially equals itself).
    """
    mults = _coerce_multipliers(multipliers)
    hits = [
        FrequencyViolation(kind, idx, mults[idx[0]])
        for kind, (arity, covers, excludes, _) in _RULES.items()
        for idx in itertools.product(range(len(mults)), repeat=arity)
        if covers(*idx) and excludes(*(mults[i] for i in idx))
    ]
    return FrequencyReport(valid=not hits, violations=tuple(hits))


def _lcm_fractions(values: Sequence[Fraction]) -> Fraction:
    """LCM over positive rationals: LCM(p/q, r/s) = lcm(p, r)/gcd(q, s)."""
    acc = values[0]
    for idx, v in enumerate(values[1:], start=1):
        num = math.lcm(acc.numerator, v.numerator)
        den = math.gcd(acc.denominator, v.denominator)
        if num > _MAX_EXACT:
            raise OverflowError(
                "common-period LCM exceeds exact integer range while combining "
                f"multiplier {idx} (reciprocal {v}) with the running value {acc}"
            )
        acc = Fraction(num, den)
    return acc


def common_period(multipliers: Iterable, base_omega: float) -> float:
    """Common period T = 2*pi*LCM{1/w_i} of all dither components.

    The LCM is taken exactly over the rational multipliers; base_omega only
    scales the result, so T*base_omega/(2*pi) is an exact rational.
    """
    if base_omega <= 0:
        raise ValueError("base_omega must be positive")
    mults = _coerce_multipliers(multipliers)
    lcm = _lcm_fractions([1 / m for m in mults])
    return 2.0 * math.pi * float(lcm) / base_omega


@dataclass(frozen=True)
class DitherSpec:
    """Amplitudes, rational frequency multipliers and the common period.

    ``period`` is derived on construction; the stored frequencies are
    w_i = float(freq_multipliers[i]) * base_omega.
    """

    amplitudes: np.ndarray
    freq_multipliers: tuple[Fraction, ...]
    base_omega: float
    period: float = field(init=False)

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty vector")
        if np.any(amps <= 0):
            raise ValueError("dither amplitudes must be strictly positive")
        mults = _coerce_multipliers(self.freq_multipliers)
        if len(mults) != amps.size:
            raise ValueError("amplitudes and freq_multipliers disagree in length")
        if len(set(mults)) != len(mults):
            raise ValueError("frequency multipliers must be pairwise distinct")
        if self.base_omega <= 0:
            raise ValueError("base_omega must be positive")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "freq_multipliers", mults)
        object.__setattr__(
            self, "period", common_period(mults, self.base_omega)
        )

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequencies w_i in rad/s."""
        return np.array(
            [float(m) * self.base_omega for m in self.freq_multipliers]
        )


def _phase(spec: DitherSpec, t):
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D time vector")
    return t[..., None] * spec.omegas


def eval_S(spec: DitherSpec, t):
    """Probing dither S(t); component i is a_i*sin(w_i t).

    Scalar ``t`` gives shape (n,); a 1-D time array gives shape (len(t), n);
    any other ``t`` is a ``ValueError``, as in every ``eval_*``.
    """
    return spec.amplitudes * np.sin(_phase(spec, t))


def eval_M(spec: DitherSpec, t):
    """Demodulation dither M(t); component i is (2/a_i)*sin(w_i t)."""
    return (2.0 / spec.amplitudes) * np.sin(_phase(spec, t))


def eval_S_dot(spec: DitherSpec, t):
    """Analytic d/dt of the probing dither."""
    return spec.amplitudes * spec.omegas * np.cos(_phase(spec, t))


def eval_M_dot(spec: DitherSpec, t):
    """Analytic d/dt of the demodulation dither."""
    return (2.0 / spec.amplitudes) * spec.omegas * np.cos(_phase(spec, t))
