import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from esc_sat.analysis import _period_blocks
from esc_sat.signals import (
    DitherSpec,
    eval_S_M,
    eval_S_M_dot,
    validate_frequencies,
)


# ---------------------------------------------------------------------------
# frequency admissibility


def exclusion_oracle(mults):
    """Exhaustive re-enumeration of the exclusion set, independent of the
    implementation's loops: collect every forbidden value for each index."""
    mults = [Fraction(m) for m in mults]
    n = len(mults)
    for i in range(n):
        forbidden = set()
        for j in range(n):
            if j != i:
                forbidden.add(mults[j])
        for j, k in product(range(n), range(n)):
            if not (i == j == k) and i not in (j, k) and j != k:
                forbidden.add(Fraction(mults[j] + mults[k], 2))
        for j, k in product(range(n), range(n)):
            if not (i == j == k):
                forbidden.add(mults[j] + 2 * mults[k])
        for j, k in product(range(n), range(n)):
            if not (i == j == k):
                forbidden.add(mults[j] + mults[k])
            if j != k:
                forbidden.add(mults[j] - mults[k])
        if mults[i] in forbidden:
            return False
    return True


def test_example_pair_is_admissible():
    report = validate_frequencies([10, 70])
    assert report.valid
    assert report.violations == ()


def test_sum_violation_detected():
    report = validate_frequencies([20, 30, 50])
    assert not report.valid
    kinds = {(v.kind, v.indices) for v in report.violations}
    assert ("sum", (2, 0, 1)) in kinds
    assert any(v.value == 50 for v in report.violations)


def test_singleton_is_admissible():
    assert validate_frequencies([10]).valid


def test_example2_multipliers_flagged():
    # 70 = 10 + 2*30: flagged, though simulation is still allowed to proceed
    report = validate_frequencies([10, 30, 70])
    assert not report.valid
    assert any(v.kind == "shifted-double" for v in report.violations)


def test_describe_names_every_violation_kind():
    # m = (1/2, 1/2, 1, 3/2) hits all five rules; every violation, in order
    report = validate_frequencies(["1/2", "1/2", 1, "3/2"])
    assert [v.kind for v in report.violations] == (
        ["duplicate"] + ["half-sum"] * 2 + ["shifted-double"] * 4 + ["sum"] * 5
        + ["difference"] * 8
    )
    assert report.describe() == "inadmissible frequency multipliers: " + "; ".join([
        "m[0] = m[1] = 1/2",
        "m[2] = (m[0] + m[3])/2 = 1", "m[2] = (m[1] + m[3])/2 = 1",
        "m[3] = m[0] + 2*m[0] = 3/2", "m[3] = m[0] + 2*m[1] = 3/2",
        "m[3] = m[1] + 2*m[0] = 3/2", "m[3] = m[1] + 2*m[1] = 3/2",
        "m[2] = m[0] + m[0] = 1", "m[2] = m[0] + m[1] = 1", "m[2] = m[1] + m[1] = 1",
        "m[3] = m[0] + m[2] = 3/2", "m[3] = m[1] + m[2] = 3/2",
        "m[0] = m[2] - m[0] = 1/2", "m[0] = m[2] - m[1] = 1/2",
        "m[0] = m[3] - m[2] = 1/2", "m[1] = m[2] - m[0] = 1/2",
        "m[1] = m[2] - m[1] = 1/2", "m[1] = m[3] - m[2] = 1/2",
        "m[2] = m[3] - m[0] = 1", "m[2] = m[3] - m[1] = 1",
    ])


@pytest.mark.parametrize("seed", range(20))
def test_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    mults = [
        Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 4)))
        for _ in range(n)
    ]
    if len(set(mults)) != len(mults):
        mults = list(dict.fromkeys(mults))
    assert validate_frequencies(mults).valid == exclusion_oracle(mults)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    base = [10, 30, 70, 9]
    expected = validate_frequencies(base).valid
    for _ in range(10):
        perm = list(rng.permutation(base))
        assert validate_frequencies(perm).valid == expected


def test_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        validate_frequencies([])
    with pytest.raises(ValueError):
        validate_frequencies([10, -3])


# ---------------------------------------------------------------------------
# common period


def lcm_pair_oracle(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.lcm(a.numerator, b.numerator), math.gcd(a.denominator, b.denominator)
    )


def test_period_examples():
    assert DitherSpec([0.1] * 2, [10, 70], 1.0).period == pytest.approx(2 * math.pi / 10)
    assert DitherSpec([0.1], [10], 1.0).period == pytest.approx(2 * math.pi / 10)
    assert DitherSpec([0.1] * 3, [10, 30, 70], 1.0).period == pytest.approx(2 * math.pi / 10)


def test_period_scales_with_base_omega():
    assert DitherSpec([0.1] * 2, [10, 70], 2.0).period == pytest.approx(math.pi / 10)


@pytest.mark.parametrize("seed", range(10))
def test_period_against_rational_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    mults = [
        Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 6)))
        for _ in range(3)
    ]
    mults = list(dict.fromkeys(mults))
    acc = Fraction(1, 1) / mults[0]
    for m in mults[1:]:
        acc = lcm_pair_oracle(acc, 1 / m)
    period = DitherSpec([0.1] * len(mults), mults, 1.0).period
    assert period == pytest.approx(2 * math.pi * float(acc))


def test_period_overflow_reports_pair():
    with pytest.raises(OverflowError, match="multiplier 1"):
        DitherSpec([0.1] * 2, [Fraction(1, 2**40), Fraction(1, 3**30)], 1.0)


def test_period_is_a_common_period_of_products():
    # every pairwise dither product must repeat after T as well
    spec = DitherSpec([0.1, 0.1, 0.1], (10, 30, 70), 1.0)
    T = spec.period
    ts = np.linspace(0.0, 1.0, 11)
    for t in ts:
        S0, M0 = eval_S_M(spec, t)
        S1, M1 = eval_S_M(spec, t + T)
        m0 = np.outer(M0, S0)
        m1 = np.outer(M1, S1)
        assert np.allclose(m0, m1, atol=1e-8)


# ---------------------------------------------------------------------------
# dither evaluation


def test_S_and_M_at_zero_and_period():
    spec = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    S, M = eval_S_M(spec, 0.0)
    assert np.allclose(S, 0.0)
    assert np.allclose(M, 0.0)
    assert np.allclose(eval_S_M(spec, spec.period)[0], 0.0, atol=1e-9)


def test_S_example_values():
    spec = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    s, _ = eval_S_M(spec, math.pi / 20)
    assert s == pytest.approx([0.1, -0.1])


def test_M_example_value():
    spec = DitherSpec([0.1], (10,), 1.0)
    assert eval_S_M(spec, math.pi / 20)[1] == pytest.approx([20.0])


def test_M_S_componentwise_identity():
    spec = DitherSpec([0.1, 0.25], (10, 70), 1.0)
    ts = np.linspace(0.0, spec.period, 57)
    S, M = eval_S_M(spec, ts)
    assert np.allclose(M * spec.amplitudes**2 / 2.0, S, atol=1e-14)


def test_dither_derivatives_match_finite_differences():
    spec = DitherSpec([0.1, 0.2], (10, 70), 1.0)
    h = 1e-7
    for t in (0.13, 0.37, 0.55):
        (S_plus, M_plus), (S_minus, M_minus) = eval_S_M(spec, t + h), eval_S_M(spec, t - h)
        fd_s = (S_plus - S_minus) / (2 * h)
        fd_m = (M_plus - M_minus) / (2 * h)
        S_dot, M_dot = eval_S_M_dot(spec, t)
        assert np.allclose(S_dot, fd_s, atol=1e-5)
        assert np.allclose(M_dot, fd_m, atol=1e-3)


@pytest.mark.parametrize(
    "evaluate, part",
    [(eval_S_M, 0), (eval_S_M, 1), (eval_S_M_dot, 0), (eval_S_M_dot, 1)],
    ids=["eval_S", "eval_M", "eval_S_dot", "eval_M_dot"],
)
def test_dither_rejects_a_time_grid(evaluate, part):
    # a 2-D t used to be flattened into one long time vector
    spec = DitherSpec([0.1, 0.2], (10, 70), 1.0)
    with pytest.raises(ValueError, match="1-D"):
        evaluate(spec, np.zeros((2, 3)))
    assert evaluate(spec, np.zeros(3))[part].shape == (3, 2)
    assert evaluate(spec, 0.5)[part].shape == (2,)


def test_zero_mean_by_quadrature():
    # S and M have degree max h = 7 in the period's fundamental, so the
    # periodic trapezoid rule on 8 distinct points gives their means exactly
    spec = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    assert spec.harmonics == (1, 7)
    assert DitherSpec([0.1] * 3, (10, 30, 70), 1.0).harmonics == (1, 3, 7)
    assert DitherSpec([0.1] * 2, ("1/100", 100), 1.0).harmonics == (1, 10_000)
    [(wq, ts)] = _period_blocks(spec, 7 + 2)
    S, M = eval_S_M(spec, ts)
    assert np.all(np.abs(wq @ S) / spec.period <= 1e-12 * np.max(np.abs(S), axis=0))
    assert np.all(np.abs(wq @ M) / spec.period <= 1e-12 * np.max(np.abs(M), axis=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        DitherSpec([0.1, 0.1], (10, 10), 1.0)
    with pytest.raises(ValueError):
        DitherSpec([0.1, -0.1], (10, 70), 1.0)
    with pytest.raises(ValueError):
        DitherSpec([0.1, 0.1], (10, 70), 0.0)
    with pytest.raises(ValueError):
        DitherSpec([0.1], (10, 70), 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_spec_refuses_a_non_finite_field_by_name(value):
    # each built at the parent: a NaN amplitude blew up its run's first
    # step, a NaN base_omega gave period nan and an infinite one period 0
    for build, message in (
        (lambda: DitherSpec([value, 0.1], (10, 70), 1.0), "amplitudes must be finite"),
        (lambda: DitherSpec([0.1, 0.1], (10, 70), value), "base_omega must be finite"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_period_is_derived_not_given():
    # a period passed in would be silently replaced by the derived one
    with pytest.raises(TypeError):
        DitherSpec([0.1], (10,), 1.0, period=123.0)
    assert DitherSpec([0.1], (10,), 1.0).period == pytest.approx(2 * np.pi / 10)
