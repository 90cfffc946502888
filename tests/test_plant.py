import numpy as np
import pytest

from esc_sat.analysis import _period_blocks
from esc_sat.plant import (
    AwController,
    GradSatController,
    QuadraticMap,
    SaturationBounds,
    deadzone,
    loop_laws,
    perturbation_terms,
    saturate,
)
from esc_sat.signals import DitherSpec, eval_S_M, eval_S_M_dot


@pytest.fixture
def qmap():
    return QuadraticMap(
        10.0, [2.0, 4.0], [[100.0, 30.0], [30.0, 20.0]], SaturationBounds([5.0, 5.0])
    )


@pytest.fixture
def dither():
    return DitherSpec([0.1, 0.1], (10, 70), 1.0)


def test_saturate_examples():
    b = SaturationBounds([5.0, 5.0])
    assert np.array_equal(saturate([2.5, 6.0], b), [2.5, 5.0])
    assert np.array_equal(saturate([1.0, -2.0], b), [1.0, -2.0])
    assert np.array_equal(saturate([-7.0], SaturationBounds([5.0])), [-5.0])


def test_saturate_dimension_mismatch():
    with pytest.raises(ValueError):
        saturate([1.0, 2.0, 3.0], SaturationBounds([5.0, 5.0]))


def test_deadzone_examples():
    b = SaturationBounds([5.0])
    assert deadzone([6.0], b) == pytest.approx([1.0])
    assert np.array_equal(deadzone([4.0], b), [0.0])
    # boundary belongs to the linear region
    assert np.array_equal(deadzone([5.0], b), [0.0])
    assert np.array_equal(deadzone([-5.0], b), [0.0])


def test_saturate_plus_deadzone_is_identity():
    rng = np.random.default_rng(3)
    b = SaturationBounds([5.0, 2.0, 0.5])
    for _ in range(200):
        v = rng.uniform(-10, 10, 3)
        assert np.allclose(saturate(v, b) + deadzone(v, b), v, atol=0.0)


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        SaturationBounds([5.0, 0.0])


def _gradsat2():
    return GradSatController(np.eye(2), SaturationBounds([2.0, 2.0]))


def _aw2():
    return AwController(np.eye(2), np.eye(2))


def test_map_output_examples(qmap):
    assert loop_laws(qmap, _gradsat2()).output([2.0, 4.0]) == pytest.approx(10.0)
    assert loop_laws(qmap, _gradsat2()).output([3.0, 4.0]) == pytest.approx(60.0)
    # only the input-saturation loop clips the map input
    assert loop_laws(qmap, _aw2()).output([2.0, 9.0]) == pytest.approx(20.0)
    assert loop_laws(qmap, _gradsat2()).output([2.0, 9.0]) == pytest.approx(260.0)


def test_map_output_needs_bounds_for_sat(qmap):
    qm = QuadraticMap(1.0, [0.0], [[2.0]])
    ctrl = AwController(np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="needs map input bounds"):
        loop_laws(qm, ctrl)
    with pytest.raises(ValueError, match="dimension"):
        loop_laws(qm, _gradsat2())


def test_map_validation():
    with pytest.raises(ValueError):
        QuadraticMap(0.0, [0.0, 0.0], [[1.0, 0.1], [0.2, 1.0]])
    with pytest.raises(ValueError):
        # optimizer on the saturation boundary violates the interior assumption
        QuadraticMap(0.0, [5.0], [[1.0]], SaturationBounds([5.0]))


def test_gradient_estimate(qmap):
    # y = 10 at theta = [2, 4]; the offset is removed before demodulation
    def est(offset, m):
        return loop_laws(qmap, _gradsat2(), offset).estimate(np.array([2.0, 4.0]), m)

    m = np.array([20.0, -20.0])
    assert np.array_equal(est(10.0, m), [0.0, 0.0])
    assert np.array_equal(est(8.0, m), [40.0, -40.0])
    m = np.array([3.0, -1.0])
    assert np.allclose(est(7.5, m), 2.5 * est(9.0, m))
    # period average: the gradient at the map input, H (sat(theta) - theta*)
    # in the input-saturation loop and H (theta - theta*) in the other
    qm = QuadraticMap(0.0, [0.0], [[3.0]], SaturationBounds([5.0]))
    aw = AwController(np.eye(1), np.eye(1))
    gradsat = GradSatController(np.eye(1), SaturationBounds([2.0]))
    assert loop_laws(qm, aw).average_estimate(np.array([6.0])) == pytest.approx([15.0])
    assert loop_laws(qm, gradsat).average_estimate(np.array([6.0])) == pytest.approx([18.0])


def test_aw_control_examples():
    qm = QuadraticMap(0.0, [0.0], [[1.0]], SaturationBounds([5.0]))
    control = loop_laws(qm, AwController(np.eye(1), np.eye(1))).control
    assert control(np.array([1.0]), np.array([6.0])) == pytest.approx([0.0])
    assert control(np.array([1.0]), np.array([4.0])) == pytest.approx([1.0])
    assert control(np.array([0.0]), np.array([4.0])) == pytest.approx([0.0])


def test_gradsat_control_examples():
    qm = QuadraticMap(0.0, [0.0], [[1.0]])
    control = loop_laws(qm, GradSatController(np.eye(1), SaturationBounds([2.0]))).control
    assert control(np.array([0.0])) == pytest.approx([0.0])
    assert control(np.array([5.0])) == pytest.approx([2.0])
    assert control(np.array([1.5])) == pytest.approx([1.5])


@pytest.mark.parametrize("aw", [True, False])
def test_loop_laws_stack_matches_rows(qmap, aw):
    rng = np.random.default_rng(7)
    k = rng.uniform(-1.0, 1.0, (2, 2))
    bounds = SaturationBounds([5.0, 5.0])
    ctrl = AwController(k, np.eye(2)) if aw else GradSatController(k, bounds)
    laws = loop_laws(qmap, ctrl, offset=10.0)
    # rows straddle the input bounds, so clipped and free samples mix
    theta = rng.uniform(-8.0, 8.0, (5, 2))
    m = rng.uniform(-20.0, 20.0, (5, 2))
    g = laws.estimate(theta, m)
    stacked = (laws.output(theta), g, laws.average_estimate(theta), laws.control(g, theta))
    for i in range(theta.shape[0]):
        row = (
            laws.output(theta[i]),
            laws.estimate(theta[i], m[i]),
            laws.average_estimate(theta[i]),
            laws.control(g[i], theta[i]),
        )
        for whole, one in zip(stacked, row):
            assert np.allclose(whole[i], one, rtol=1e-14, atol=0.0)


def _stage_law_case(n, aw, offset_at_optimum):
    # a seeded loop of dimension n whose samples straddle its bounds: some
    # map inputs (aw) or demodulated rates (gradsat) clip, others do not
    rng = np.random.default_rng(100 + 2 * n + aw)
    a = rng.normal(size=(n, n))
    limits = rng.uniform(1.0, 3.0, n)
    bounds = SaturationBounds(limits)
    qmap = QuadraticMap(
        rng.uniform(-5.0, 5.0), 0.5 * limits * rng.uniform(-1.0, 1.0, n),
        a @ a.T + np.eye(n), bounds if aw else None,
    )
    k = rng.normal(size=(n, n))
    ctrl = AwController(k, rng.normal(size=(n, n))) if aw else GradSatController(k, bounds)
    offset = qmap.q_star if offset_at_optimum else 0.0
    laws = loop_laws(qmap, ctrl, offset)
    # half the rows inside the bounds, half drawn to twice them
    reach = np.repeat([0.9, 2.0], 32)[:, None]
    theta = reach * limits * rng.uniform(-1.0, 1.0, (64, n))
    # demodulator rows sized so that the rate m K' (y - offset) stays below
    # the limits on even rows and reaches four times them on odd rows
    size = np.tile([0.5 * limits.min() / np.sqrt(n), 4.0 * limits.max()], 32)
    m = rng.uniform(-1.0, 1.0, (64, n)) * (
        size / np.linalg.norm(k, 2) / np.abs(laws.output(theta) - offset)
    )[:, None]
    return qmap, ctrl, laws, theta, m, limits


@pytest.mark.parametrize("offset_at_optimum", [False, True])
@pytest.mark.parametrize("aw", [True, False])
@pytest.mark.parametrize("n", range(1, 9))
def test_stage_laws_match_the_reference_composition(n, aw, offset_at_optimum):
    qmap, _, laws, theta, m, limits = _stage_law_case(n, aw, offset_at_optimum)
    inside = np.all(np.abs(theta) <= limits, axis=1)
    assert 0 < inside.sum() < len(theta)
    # the dithered law against the composition it fuses, on the stack and
    # on each row alone, to rounding
    mk = laws.demod_gain(m)
    ref = laws.control(laws.estimate(theta, m), theta)
    scale = np.linalg.norm(ref, axis=1)
    assert np.all(np.linalg.norm(laws.rhs(theta, mk) - ref, axis=1) <= 1e-12 * scale)
    rows = np.array([laws.rhs(theta[i], laws.demod_gain(m[i])) for i in range(len(m))])
    assert np.all(np.linalg.norm(rows - ref, axis=1) <= 1e-12 * scale)
    if not aw:
        clipped = np.any(np.abs(ref) == limits, axis=1)
        assert 0 < clipped.sum() < len(ref)
    # the averaged law, bitwise
    tt = theta - qmap.theta_star
    ref = laws.control(laws.average_estimate(tt), tt + qmap.theta_star)
    assert np.array_equal(laws.average_rhs(tt), ref)
    for i in range(len(tt)):
        assert np.array_equal(
            laws.average_rhs(tt[i]),
            laws.control(laws.average_estimate(tt[i]), tt[i] + qmap.theta_star),
        )


@pytest.mark.parametrize("aw", [True, False])
@pytest.mark.parametrize("n", range(1, 9))
def test_bound_stack_laws_match_the_lone_reference_rows(n, aw):
    # each law bound to a (B, n) stack against the plain law on each row
    # alone: bitwise at n <= 3, where a batch member equals its lone run,
    # and to 1e-12 of each column's maximum above
    qmap, _, laws, theta, m, limits = _stage_law_case(n, aw, True)
    inside = np.all(np.abs(theta) <= limits, axis=1)
    assert 0 < inside.sum() < len(theta)
    mk = laws.demod_gain(m)
    tt = theta - qmap.theta_star
    g = laws.estimate(theta, m)
    args = {
        "output": (theta,),
        "estimate": (theta, m),
        "average_estimate": (tt,),
        "control": (g, theta),
        "rhs": (theta, mk),
        "average_rhs": (tt,),
    }
    want = {
        name: np.array([getattr(laws, name)(*(a[i] for a in inputs)) for i in range(len(theta))])
        for name, inputs in args.items()
    }
    if not aw:
        clipped = np.any(np.abs(want["rhs"]) == limits, axis=1)
        assert 0 < clipped.sum() < len(theta)

    def check(got, ref):
        if n <= 3:
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))

    bound = laws.bind(theta.shape)
    # two calls of each law into two buffers, the second on the rows
    # reversed: each result stays in its own buffer, and the inputs and the
    # first result survive the calls after them
    kept = [a.copy() for a in (theta, m, mk, tt, g)]
    results = []
    for name, inputs in args.items():
        law = getattr(bound, name)
        # NaN-filled, so that a law that leaves out unwritten fails; the
        # output is one value per row
        shape = theta.shape[:-1] if name == "output" else theta.shape
        first, second = np.full(shape, np.nan), np.full(shape, np.nan)
        assert law(*inputs, first) is first
        assert law(*(a[::-1].copy() for a in inputs), second) is second
        results.append((first, want[name]))
        results.append((second, want[name][::-1]))
    for got, ref in results:
        check(got, ref)
    for a, b in zip(kept, (theta, m, mk, tt, g)):
        assert np.array_equal(a, b)


def _matmul_laws(qmap, ctrl, offset):
    # each loop law written with the @ gufunc, as loop_laws wrote them before
    # it took its products with ndarray.dot; kept as the reference of the
    # dot forms
    q_star, th_star, H = qmap.q_star, qmap.theta_star, qmap.hessian
    kt = np.ascontiguousarray(ctrl.k.T)
    aw = isinstance(ctrl, AwController)
    hi = (qmap.input_bounds if aw else ctrl.bounds).limits

    def sat(v):
        return np.minimum(np.maximum(v, -hi), hi)

    def map_input(theta):
        return sat(theta) if aw else theta

    def demodulate(v, m):
        d = v - th_star
        if d.ndim == 1:
            return (q_star + 0.5 * (d @ H @ d) - offset) * m
        return m * (q_star + 0.5 * ((d @ H)[:, None, :] @ d[:, :, None])[:, 0] - offset)

    if aw:
        kawt = np.ascontiguousarray(ctrl.k_aw.T)

        def control(g_hat, theta):
            return g_hat @ kt - (theta - sat(theta)) @ kawt

        def rhs(theta, mk):
            v = sat(theta)
            return demodulate(v, mk) - (theta - v) @ kawt

        def average_rhs(theta_tilde):
            theta = theta_tilde + th_star
            psi = theta - sat(theta)
            return (theta_tilde - psi) @ H @ kt - psi @ kawt

    else:

        def control(g_hat, theta):
            return sat(g_hat @ kt)

        def rhs(theta, mk):
            return sat(demodulate(theta, mk))

        def average_rhs(theta_tilde):
            return sat(theta_tilde @ H @ kt)

    def output(theta):
        d = map_input(theta) - th_star
        return q_star + 0.5 * (d @ H * d).sum(-1)

    def estimate(theta, m):
        return demodulate(map_input(theta), m)

    def average_estimate(theta_tilde):
        theta = theta_tilde + th_star
        return (theta_tilde - (theta - map_input(theta))) @ H

    def demod_gain(m):
        return m @ kt

    return dict(
        output=output, estimate=estimate, average_estimate=average_estimate,
        control=control, demod_gain=demod_gain, rhs=rhs, average_rhs=average_rhs,
    )


@pytest.mark.parametrize("offset_at_optimum", [False, True])
@pytest.mark.parametrize("aw", [True, False])
@pytest.mark.parametrize("n", range(1, 9))
def test_dot_forms_match_the_matmul_forms(n, aw, offset_at_optimum):
    # ndarray.dot and @ call the same BLAS routine: bitwise at n <= 3, where
    # the batched runs rely on it, and to 1e-15 of each result's scale above
    qmap, ctrl, laws, theta, m, limits = _stage_law_case(n, aw, offset_at_optimum)
    ref = _matmul_laws(qmap, ctrl, qmap.q_star if offset_at_optimum else 0.0)
    tt = theta - qmap.theta_star
    g = ref["estimate"](theta, m)
    mk = ref["demod_gain"](m)
    calls = [
        ("output", (theta,)), ("estimate", (theta, m)), ("average_estimate", (tt,)),
        ("control", (g, theta)), ("demod_gain", (m,)), ("rhs", (theta, mk)),
        ("average_rhs", (tt,)),
    ]
    # lone rows: the first 32 rows lie inside the map's bounds, the rest out
    # to twice them, and the rate clips on odd rows only
    lone = (0, 1, 2, 3, 32, 33, 34, 35)
    cases = calls + [(name, tuple(a[i] for a in args)) for name, args in calls for i in lone]
    for name, args in cases:
        got, want = getattr(laws, name)(*args), ref[name](*args)
        assert np.shape(got) == np.shape(want), name
        if n <= 3:
            assert np.array_equal(got, want), name
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name


def test_controller_shape_validation():
    with pytest.raises(ValueError):
        AwController(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        GradSatController(np.eye(3), SaturationBounds([2.0, 2.0]))


def _with(value, i, j=None):
    # -I with value at [i] of a vector or at [i, j] and [j, i] of a matrix
    if j is None:
        return np.where(np.arange(2) == i, value, 0.0)
    out = -np.eye(2)
    out[i, j] = out[j, i] = value
    return out


# constructor field: (the object with `value` in that field, the message)
NON_FINITE_FIELDS = {
    "SaturationBounds.limits": (lambda v: SaturationBounds([v, 1.0]), "saturation limits must be finite"),
    "QuadraticMap.q_star": (lambda v: QuadraticMap(v, [0.0, 0.0], -np.eye(2)), "q_star must be finite"),
    "QuadraticMap.theta_star": (lambda v: QuadraticMap(1.0, _with(v, 0), -np.eye(2)), "theta_star must be finite"),
    # NaN and inf were refused here, but as "hessian must be exactly symmetric"
    "QuadraticMap.hessian": (lambda v: QuadraticMap(1.0, [0.0, 0.0], _with(v, 0, 1)), "hessian must be finite"),
    "AwController.k": (lambda v: AwController(_with(v, 1, 1), np.eye(2)), "controller gain k must be finite"),
    "AwController.k_aw": (lambda v: AwController(np.eye(2), _with(v, 0, 1)), "controller gain k_aw must be finite"),
    "GradSatController.k": (
        lambda v: GradSatController(_with(v, 0, 0), SaturationBounds([1.0, 1.0])),
        "controller gain k must be finite",
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_constructors_refuse_a_non_finite_field_by_name(field, value):
    build, message = NON_FINITE_FIELDS[field]
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value) == message
    build(0.5)  # the same object with a finite value builds


# ---------------------------------------------------------------------------
# dither perturbation terms


def test_delta_at_zero(dither, qmap):
    mf = perturbation_terms(dither, qmap, 0.0, np.zeros(2)).delta
    assert np.allclose(np.diag(mf), -1.0)
    lit = mf + np.eye(2)                            # the literal diagonal
    assert np.allclose(np.diag(lit), 0.0)          # 1 - cos(0) = 0
    assert np.allclose(lit - np.diag(np.diag(lit)), 0.0)


def test_mean_free_delta_matches_dither_product(dither, qmap):
    # (I + Delta(t)) must equal M(t) S(t)^T exactly; the literal diagonal
    # misses this identity by the constant offset
    for t in (0.0, 0.123, 0.31, 0.57):
        S, M = eval_S_M(dither, t)
        prod = np.outer(M, S)
        mf = perturbation_terms(dither, qmap, t, np.zeros(2)).delta
        assert np.allclose(np.eye(2) + mf, prod, atol=1e-12)


def test_perturbation_identity_and_residuals(dither, qmap):
    tt = np.array([0.3, -0.2])
    pt0 = perturbation_terms(dither, qmap, 0.0, tt)
    assert np.allclose(pt0.delta, np.diag([-1.0, -1.0]))


def test_residuals_have_zero_period_mean(dither, qmap):
    # frozen interior state: the dither path stays unsaturated, so w reduces
    # to its oscillatory part, both residuals are trigonometric polynomials of
    # degree 3 max h = 21, and the periodic trapezoid rule on 22 distinct
    # points gives their means exactly
    tt = np.array([0.3, -0.2])
    [(wq, ts)] = _period_blocks(dither, 3 * 7 + 2)
    pt = perturbation_terms(dither, qmap, ts, tt)
    for values in (pt.w, pt.varsigma):
        rel = np.abs(wq @ values) / dither.period / np.max(np.abs(values), axis=0)
        assert np.all(rel <= 1e-12)


# per-time double loops the vectorized perturbation terms replaced; kept
# here as the reference for the time-vector evaluation


def _delta_loop(spec, t, convention):
    w, a, n = spec.omegas, spec.amplitudes, spec.dim
    delta = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                delta[i, i] = -np.cos(2.0 * w[i] * t)
                if convention == "literal":
                    delta[i, i] += 1.0
            else:
                delta[i, j] = (a[j] / a[i]) * (
                    np.cos((w[i] - w[j]) * t) - np.cos((w[i] + w[j]) * t)
                )
    return delta


def _delta_dot_loop(spec, t):
    w, a, n = spec.omegas, spec.amplitudes, spec.dim
    ddot = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                ddot[i, i] = 2.0 * w[i] * np.sin(2.0 * w[i] * t)
            else:
                ddot[i, j] = (a[j] / a[i]) * (
                    -(w[i] - w[j]) * np.sin((w[i] - w[j]) * t)
                    + (w[i] + w[j]) * np.sin((w[i] + w[j]) * t)
                )
    return ddot


def _perturbation_loop(spec, qmap, t, tt, convention):
    H = qmap.hessian
    n = spec.dim
    S, M = eval_S_M(spec, t)
    S_dot, M_dot = eval_S_M_dot(spec, t)
    delta = _delta_loop(spec, t, convention)
    psi = deadzone(tt + qmap.theta_star + S, qmap.input_bounds)
    w = (
        M * qmap.q_star
        + 0.5 * np.outer(M, S) @ H @ S
        + 0.5 * M * float(tt @ H @ tt)
        - M * float(tt @ H @ psi)
        + 0.5 * M * float(psi @ H @ psi)
    )
    ddot = _delta_dot_loop(spec, t)
    delta_mf = delta if convention == "mean_free" else delta - np.eye(n)
    varsigma = (
        M_dot * qmap.q_star
        + ddot @ H @ tt
        + 0.5 * H @ S_dot
        + 0.5 * ddot @ H @ S
        + 0.5 * delta_mf @ H @ S_dot
    )
    return delta, w, varsigma


_VECTOR_CASES = {
    "n2": (
        DitherSpec([0.1, 0.1], (10, 70), 1.0),
        QuadraticMap(
            10.0, [2.0, 4.0], [[100.0, 30.0], [30.0, 20.0]], SaturationBounds([5.0, 5.0])
        ),
        np.array([0.3, -0.2]),
    ),
    # theta_tilde puts the dithered path outside the bounds, so psi != 0
    "n3": (
        DitherSpec([0.1, 0.2, 0.05], (3, 7, 11), 1.3),
        QuadraticMap(
            -1.0,
            [0.4, -0.3, 0.2],
            [[5.0, 1.0, 0.5], [1.0, 4.0, -0.7], [0.5, -0.7, 3.0]],
            SaturationBounds([2.0, 1.0, 2.0]),
        ),
        np.array([1.9, -0.8, 0.3]),
    ),
}


def _close(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) <= 1e-12 * scale


@pytest.mark.parametrize("case", sorted(_VECTOR_CASES))
@pytest.mark.parametrize("convention", ["mean_free", "literal"])
def test_time_vector_matches_per_time_loop(case, convention):
    spec, qmap, tt = _VECTOR_CASES[case]
    n = spec.dim
    # the literal diagonal is the mean-free one plus I; the residuals do not
    # depend on the convention
    shift = np.eye(n) if convention == "literal" else 0.0
    ts = np.linspace(0.0, spec.period, 257)
    pt = perturbation_terms(spec, qmap, ts, tt)
    assert pt.delta.shape == (257, n, n)
    assert pt.w.shape == pt.varsigma.shape == (257, n)
    assert np.any(pt.w != 0.0) and np.any(pt.varsigma != 0.0)
    refs = [_perturbation_loop(spec, qmap, float(t), tt, convention) for t in ts]
    got = (pt.delta + shift, pt.w, pt.varsigma)
    for k, name in enumerate(("delta", "w", "varsigma")):
        assert _close(got[k], np.array([r[k] for r in refs])), name
    # a scalar time keeps the per-instant shapes and values
    one = perturbation_terms(spec, qmap, float(ts[100]), tt)
    assert one.delta.shape == (n, n) and one.w.shape == (n,)
    got = (one.delta + shift, one.w, one.varsigma)
    for k, name in enumerate(("delta", "w", "varsigma")):
        assert _close(got[k], refs[100][k]), name


@pytest.mark.parametrize("case", sorted(_VECTOR_CASES))
def test_varsigma_is_the_time_derivative_of_the_demodulated_output(case):
    # varsigma = d/dt [M (q* + S'H theta_tilde + S'HS/2)] at frozen theta_tilde
    spec, qmap, tt = _VECTOR_CASES[case]
    H = qmap.hessian

    def demodulated(t):
        S, M = eval_S_M(spec, t)
        return M * (qmap.q_star + S @ H @ tt + 0.5 * S @ H @ S)

    h = 1e-6
    ts = spec.period * np.array([0.1, 0.37, 0.61, 0.9])
    fd = np.array([(demodulated(t + h) - demodulated(t - h)) / (2 * h) for t in ts])
    varsigma = perturbation_terms(spec, qmap, ts, tt).varsigma
    assert np.max(np.abs(fd - varsigma)) <= 1e-7 * np.max(np.abs(varsigma))


def test_perturbation_terms_reject_time_grid(dither, qmap):
    with pytest.raises(ValueError, match="1-D"):
        perturbation_terms(dither, qmap, np.zeros((2, 3)), np.zeros(2))
