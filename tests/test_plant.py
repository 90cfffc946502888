import numpy as np
import pytest

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
from esc_sat.signals import DitherSpec, eval_M, eval_M_dot, eval_S, eval_S_dot


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


def test_controller_shape_validation():
    with pytest.raises(ValueError):
        AwController(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        GradSatController(np.eye(3), SaturationBounds([2.0, 2.0]))


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
        prod = np.outer(eval_M(dither, t), eval_S(dither, t))
        mf = perturbation_terms(dither, qmap, t, np.zeros(2)).delta
        assert np.allclose(np.eye(2) + mf, prod, atol=1e-12)


def test_perturbation_identity_and_residuals(dither, qmap):
    tt = np.array([0.3, -0.2])
    pt0 = perturbation_terms(dither, qmap, 0.0, tt)
    assert np.allclose(pt0.delta, np.diag([-1.0, -1.0]))


def test_residuals_have_zero_period_mean(dither, qmap):
    # frozen interior state: the dither path stays unsaturated, so w reduces
    # to its oscillatory part and both residuals average out
    tt = np.array([0.3, -0.2])
    nodes = 8001
    ts = np.linspace(0.0, dither.period, nodes)
    h = dither.period / (nodes - 1)
    wq = np.ones(nodes)
    wq[1:-1:2], wq[2:-1:2] = 4.0, 2.0
    wq *= h / 3.0
    ws = np.empty((nodes, 2))
    vs = np.empty((nodes, 2))
    for i, t in enumerate(ts):
        pt = perturbation_terms(dither, qmap, float(t), tt)
        ws[i] = pt.w
        vs[i] = pt.varsigma
    w_rel = np.abs(wq @ ws) / dither.period / np.max(np.abs(ws), axis=0)
    v_rel = np.abs(wq @ vs) / dither.period / np.max(np.abs(vs), axis=0)
    assert np.all(w_rel <= 1e-6)
    assert np.all(v_rel <= 1e-6)


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
    S, M = eval_S(spec, t), eval_M(spec, t)
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
        eval_M_dot(spec, t) * qmap.q_star
        + ddot @ H @ tt
        + 0.5 * H @ eval_S_dot(spec, t)
        + 0.5 * ddot @ H @ S
        + 0.5 * delta_mf @ H @ eval_S_dot(spec, t)
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
        S = eval_S(spec, t)
        return eval_M(spec, t) * (qmap.q_star + S @ H @ tt + 0.5 * S @ H @ S)

    h = 1e-6
    ts = spec.period * np.array([0.1, 0.37, 0.61, 0.9])
    fd = np.array([(demodulated(t + h) - demodulated(t - h)) / (2 * h) for t in ts])
    varsigma = perturbation_terms(spec, qmap, ts, tt).varsigma
    assert np.max(np.abs(fd - varsigma)) <= 1e-7 * np.max(np.abs(varsigma))


def test_perturbation_terms_reject_time_grid(dither, qmap):
    with pytest.raises(ValueError, match="1-D"):
        perturbation_terms(dither, qmap, np.zeros((2, 3)), np.zeros(2))
