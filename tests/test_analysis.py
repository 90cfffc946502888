import dataclasses

import numpy as np
import pytest

from esc_sat.analysis import (
    average_rhs_consistency,
    check_convergence_bands,
    draw_interior_states,
    fit_decay,
    sample_deadzone_sector_global,
    sample_deadzone_sector_regional,
    sup_deviation,
    zero_mean_report,
)
from esc_sat import analysis
from esc_sat.plant import (
    AwController, GradSatController, QuadraticMap, SaturationBounds, deadzone, loop_laws,
)
from esc_sat.signals import DitherSpec, eval_S_M
from esc_sat.sim import Trajectory
from esc_sat.synthesis import GradSatDesign, design_gradsat_gain
from esc_sat.polytope import HessianPolytope
from conftest import EX1_ALPHA, EX1_H0, EX1_K, EX1_KAW, EX2_VERTICES


def synthetic_trajectory(times, norms, direction=(1.0, 0.0)):
    d = np.asarray(direction) / np.linalg.norm(direction)
    tt = np.outer(norms, d)
    zeros = np.zeros_like(tt)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        theta=tt.copy(),
        theta_tilde=tt,
        y=np.zeros(len(times)),
        u=zeros.copy(),
        g_hat=zeros.copy(),
    )


def test_fit_decay_exact_exponential():
    t = np.linspace(0.0, 4.0, 400)
    traj = synthetic_trajectory(t, 3.0 * np.exp(-2.0 * t))
    fit = fit_decay(traj)
    assert fit.eta_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.kappa_hat * 3.0 == pytest.approx(3.0, rel=1e-9)
    assert fit.residual < 1e-10
    assert not fit.truncated


def test_fit_decay_constant_signal():
    t = np.linspace(0.0, 2.0, 100)
    fit = fit_decay(synthetic_trajectory(t, np.full(100, 1.7)))
    assert fit.eta_hat == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_scaling_invariance():
    t = np.linspace(0.0, 3.0, 300)
    norms = 2.0 * np.exp(-1.3 * t) * (1.0 + 0.01 * np.sin(40 * t))
    f1 = fit_decay(synthetic_trajectory(t, norms))
    f2 = fit_decay(synthetic_trajectory(t, 50.0 * norms))
    assert f1.eta_hat == pytest.approx(f2.eta_hat, rel=1e-12)
    assert f2.amplitude == pytest.approx(50.0 * f1.amplitude, rel=1e-9)
    assert f1.kappa_hat == pytest.approx(f2.kappa_hat, rel=1e-9)


def test_fit_decay_truncates_at_zero():
    t = np.linspace(0.0, 1.0, 11)
    norms = np.concatenate([np.exp(-t[:8]), [0.0, 0.0, 0.0]])
    fit = fit_decay(synthetic_trajectory(t, norms))
    assert fit.truncated
    assert fit.window[1] <= t[7]


def test_fit_decay_window_selection():
    t = np.linspace(0.0, 10.0, 1000)
    norms = np.where(t < 5.0, np.exp(-0.1 * t), np.exp(-0.5 + 0.1 * (5.0 - t)))
    fit = fit_decay(synthetic_trajectory(t, norms), window=(6.0, 10.0))
    assert fit.eta_hat == pytest.approx(0.1, abs=1e-6)


def test_sup_deviation_basics():
    t = np.linspace(0.0, 1.0, 50)
    a = synthetic_trajectory(t, np.linspace(5.0, 1.0, 50))
    assert sup_deviation(a, a) == 0.0
    b = synthetic_trajectory(t, np.zeros(50))
    assert sup_deviation(a, b) == pytest.approx(5.0)
    assert sup_deviation(a, b) == sup_deviation(b, a)


def test_sup_deviation_resamples_and_rejects_disjoint():
    ta = np.linspace(0.0, 1.0, 50)
    tb = np.linspace(0.0, 1.0, 173)
    a = synthetic_trajectory(ta, 1.0 + ta)
    b = synthetic_trajectory(tb, 1.0 + tb)
    assert sup_deviation(a, b) <= 1e-12
    c = synthetic_trajectory(tb + 5.0, 1.0 + tb)
    with pytest.raises(ValueError):
        sup_deviation(a, c)


def test_band_report_fields(monkeypatch):
    t = np.linspace(0.0, 10.0, 200)
    qmap = QuadraticMap(0.0, [0.0], [[2.0]])
    dither = DitherSpec([0.1], (10,), 1.0)
    norms = np.full(200, 0.05)
    traj = synthetic_trajectory(t, norms, direction=(1.0,))
    monkeypatch.setattr(analysis, "C_THETA", 1.0)
    monkeypatch.setattr(analysis, "C_Y", 1.0)
    rep = check_convergence_bands(traj, qmap, dither)
    assert rep.theta_band == pytest.approx(0.1 + 0.1)
    assert rep.y_band == pytest.approx(0.01 + 0.01)
    assert rep.theta_ok and rep.y_ok
    assert rep.tail_start == pytest.approx(8.0)
    monkeypatch.setattr(analysis, "C_THETA", 0.1)
    tight = check_convergence_bands(traj, qmap, dither)
    assert not tight.theta_ok


# ---------------------------------------------------------------------------
# sector sampling


def test_sector_global_holds():
    slack = sample_deadzone_sector_global(
        SaturationBounds([5.0, 5.0]), np.array([2.0, 4.0]), trials=10_000, seed=0
    )
    assert slack <= 1e-12


def test_sector_global_zero_in_linear_region():
    bounds = SaturationBounds([5.0, 5.0])
    rng = np.random.default_rng(1)
    star = np.array([2.0, 4.0])
    for _ in range(100):
        theta = rng.uniform(-5.0, 5.0, 2)
        psi = theta - np.clip(theta, -5.0, 5.0)
        lam = rng.uniform(0.1, 10.0, 2)
        assert float(psi @ (lam * (psi - (theta - star)))) == 0.0


def test_sector_global_rejects_boundary_optimizer():
    with pytest.raises(ValueError):
        sample_deadzone_sector_global(
            SaturationBounds([5.0, 5.0]), np.array([5.0, 4.0])
        )


def test_sector_regional_holds():
    design = design_gradsat_gain(
        HessianPolytope(EX2_VERTICES), 1.0, 0.5, SaturationBounds([2.0, 2.0, 2.0])
    )
    slack = sample_deadzone_sector_regional(design, trials=10_000, seed=0)
    assert slack <= 1e-12


def test_sector_samplers_reproduce_under_seed():
    bounds = SaturationBounds([5.0, 5.0])
    star = np.array([2.0, 4.0])
    a = sample_deadzone_sector_global(bounds, star, trials=500, seed=42)
    b = sample_deadzone_sector_global(bounds, star, trials=500, seed=42)
    assert a == b


def test_sector_regional_slope_at_gain_is_global():
    design = design_gradsat_gain(
        HessianPolytope(EX2_VERTICES), 1.0, 0.5, SaturationBounds([2.0, 2.0, 2.0])
    )
    same = dataclasses.replace(design, l=design.k.copy())
    slack = sample_deadzone_sector_regional(same, trials=2000, seed=3)
    assert slack <= 1e-12


def test_sector_samplers_need_a_trial():
    # a maximum over no samples is -inf, which would pass any slack test
    design = _saturating_design(0.1)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            sample_deadzone_sector_global(
                SaturationBounds([5.0, 5.0]), np.array([2.0, 4.0]), trials=trials
            )
        with pytest.raises(ValueError, match="trials"):
            sample_deadzone_sector_regional(design, trials=trials)


def _saturating_design(eps, n=3):
    # K - L = eps I: a candidate is accepted with probability 2^-n, and for
    # small eps almost every accepted K g lies outside the bounds
    k = np.diag(np.arange(1.0, n + 1.0)) + 0.3
    eye = np.eye(n)
    return GradSatDesign(
        k=k, l=k - eps * eye, w=eye, x=eye, upsilon_tilde=eye, p=eye,
        eta=1.0, epsilon=0.5, bounds=SaturationBounds(np.full(n, 2.0)),
    )


def test_sector_samplers_flag_a_wrong_sign_deadzone(monkeypatch):
    # the samplers exist to check deadzone: with its sign flipped the form
    # is positive on every saturated sample
    monkeypatch.setattr(analysis, "deadzone", lambda x, bounds: -deadzone(x, bounds))
    slack = sample_deadzone_sector_global(
        SaturationBounds([5.0, 5.0]), np.array([2.0, 4.0]), trials=1000, seed=0
    )
    assert slack > analysis.SECTOR_SLACK_TOL
    slack = sample_deadzone_sector_regional(_saturating_design(0.1), trials=300, seed=0)
    assert slack > analysis.SECTOR_SLACK_TOL


def test_sector_samplers_are_negative_when_every_sample_saturates():
    # an unsaturated sample gives exactly 0, so at these seeds, where every
    # sample saturates somewhere, a sampler that skipped the form would fail
    bounds = SaturationBounds([1.0, 2.0, 0.5, 1.5, 3.0, 0.8, 1.2, 2.5])
    star = np.array([0.2, -0.5, 0.1, 0.3, -1.0, 0.0, 0.4, -0.2])
    design = _saturating_design(0.1)
    for seed in range(4):
        assert sample_deadzone_sector_global(bounds, star, trials=1000, seed=seed) < 0.0
        assert sample_deadzone_sector_regional(design, trials=300, seed=seed) < 0.0


def test_sector_regional_raises_on_degenerate_admissible_set():
    # K - L = I at n = 12 accepts about 2^-12 of the candidates, below the
    # 1/1000 the sampler tolerates
    design = _saturating_design(1.0, n=12)
    with pytest.raises(RuntimeError, match="99.9%"):
        sample_deadzone_sector_regional(design, trials=10, seed=0)


# ---------------------------------------------------------------------------
# period means and averaged-loop consistency


@pytest.fixture
def ex1_setup():
    H = (EX1_ALPHA[0] * 0.9 + EX1_ALPHA[1] * 1.1) * EX1_H0
    qmap = QuadraticMap(10.0, [2.0, 4.0], H, SaturationBounds([5.0, 5.0]))
    dither = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    ctrl = AwController(EX1_K, EX1_KAW)
    return qmap, dither, ctrl


def test_zero_mean_report(ex1_setup):
    qmap, dither, _ = ex1_setup
    rep = zero_mean_report(dither, qmap, np.array([0.3, -0.2]), nodes=8001)
    assert rep.max_rel(("S[", "M[", "w[", "varsigma[")) <= 1e-6
    offdiag = [f"delta_mean_free[{i},{j}]" for i in range(2) for j in range(2) if i != j]
    assert rep.max_rel(tuple(offdiag)) <= 1e-6
    # the two diagonal conventions differ by exactly the reported unit mean
    assert rep.terms["delta_literal[0,0]"].mean == pytest.approx(1.0, abs=1e-6)
    assert rep.terms["delta_mean_free[0,0]"].mean == pytest.approx(0.0, abs=1e-6)


def test_interior_state_sampler(ex1_setup):
    qmap, dither, _ = ex1_setup
    states = draw_interior_states(qmap, dither, 50, seed=2)
    theta = states + qmap.theta_star
    assert np.all(np.abs(theta) + dither.amplitudes < qmap.input_bounds.limits)


def test_average_rhs_matches_model(ex1_setup):
    qmap, dither, ctrl = ex1_setup
    states = draw_interior_states(qmap, dither, 20, seed=4)
    err = average_rhs_consistency(dither, qmap, ctrl, states)
    assert err <= 1e-6
    # the exact rule reads the input bounds; a clipped rate is no polynomial
    rate = GradSatController(ctrl.k, qmap.input_bounds)
    with pytest.raises(TypeError, match="input-saturation"):
        average_rhs_consistency(dither, qmap, rate, states)


def test_average_rhs_offset_is_immaterial(ex1_setup):
    # the optimum-value term is zero-mean, so raw demodulation averages to
    # the same loop
    qmap, dither, ctrl = ex1_setup
    states = draw_interior_states(qmap, dither, 5, seed=5)
    raw = average_rhs_consistency(dither, qmap, ctrl, states, demod_remove_offset=False)
    assert raw <= 1e-6


def test_average_rhs_literal_convention_fails(ex1_setup):
    # sanity check that the consistency test has teeth: adding the unit
    # diagonal back (the literal convention) would double the gradient term
    qmap, dither, ctrl = ex1_setup
    states = draw_interior_states(qmap, dither, 5, seed=6)
    err = average_rhs_consistency(dither, qmap, ctrl, states)
    H = qmap.hessian
    for tt in states:
        model = ctrl.k @ H @ tt
        doubled = ctrl.k @ (2.0 * H) @ tt
        rel = np.linalg.norm(doubled - model) / np.linalg.norm(model)
        assert rel > 1e-3
    assert err <= 1e-6


def test_period_grid_is_exact_below_its_degree():
    # a trigonometric polynomial of degree below the count of distinct nodes
    # (nodes - 1) has its constant term as the rule's mean; at degree equal
    # to that count, cos(N w t) is 1 on every node and aliases into the mean
    dither = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    rng = np.random.default_rng(11)
    for nodes in (2, 3, 9, 23, 64):
        degree = nodes - 2
        a, b = rng.normal(size=(2, degree + 2))
        wq, _, _, ts = analysis._period_grid(dither, nodes)
        k = np.arange(degree + 2)
        phase = np.outer(ts, k) * (2.0 * np.pi / dither.period)
        below = np.cos(phase[:, :-1]) @ a[:-1] + np.sin(phase[:, :-1]) @ b[:-1]
        mean = wq @ below / dither.period
        assert abs(mean - a[0]) <= 1e-14 * np.abs(np.r_[a, b]).sum()
        aliased = wq @ (below + a[-1] * np.cos(phase[:, -1])) / dither.period
        assert aliased - a[0] == pytest.approx(a[-1], rel=1e-12)


def test_period_grid_scales_one_sine_into_both_dithers():
    for dither in (
        DitherSpec([0.1, 0.1], (10, 70), 1.0),
        DitherSpec([0.1, 0.3, 0.05], (3, 7, 11), 1.3),
    ):
        _, S, M, ts = analysis._period_grid(dither, 23)
        S_ref, M_ref = eval_S_M(dither, ts)
        assert np.array_equal(S, S_ref)
        assert np.array_equal(M, M_ref)


def _simpson_consistency(dither, qmap, ctrl, states, nodes=20001):
    # the per-state composite-Simpson loop the periodic trapezoid rule
    # replaced; kept here as the reference for the one-stack evaluation
    ts = np.linspace(0.0, dither.period, nodes)
    wq = np.ones(nodes)
    wq[1:-1:2], wq[2:-1:2] = 4.0, 2.0
    wq *= dither.period / (nodes - 1) / 3.0
    S, M = eval_S_M(dither, ts)
    laws = loop_laws(qmap, ctrl, qmap.q_star)
    worst = 0.0
    for tt in np.atleast_2d(states):
        theta = tt + qmap.theta_star + S
        avg = wq @ laws.control(laws.estimate(theta, M), theta) / dither.period
        model = laws.control(laws.average_estimate(tt), tt + qmap.theta_star)
        denom = max(float(np.linalg.norm(model)), 1e-12)
        worst = max(worst, float(np.linalg.norm(avg - model)) / denom)
    return worst


def _fine_trapezoid_consistency(dither, qmap, ctrl, tt, nodes=2_000_001, chunk=100_000):
    # the trapezoid rule on a fine grid, summed in chunks to bound memory
    laws = loop_laws(qmap, ctrl, qmap.q_star)
    h = dither.period / (nodes - 1)
    total = np.zeros(qmap.dim)
    for start in range(0, nodes, chunk):
        j = np.arange(start, min(start + chunk, nodes))
        w = np.where((j == 0) | (j == nodes - 1), 0.5 * h, h)
        S, M = eval_S_M(dither, j * h)
        theta = tt + qmap.theta_star + S
        total += w @ laws.control(laws.estimate(theta, M), theta)
    model = laws.control(laws.average_estimate(tt), tt + qmap.theta_star)
    return float(np.linalg.norm(total / dither.period - model) / np.linalg.norm(model))


def test_average_rhs_matches_the_simpson_loop_on_interior_states(ex1_setup):
    qmap, dither, ctrl = ex1_setup
    states = draw_interior_states(qmap, dither, 100, seed=0)
    fast = average_rhs_consistency(dither, qmap, ctrl, states)
    assert fast == pytest.approx(_simpson_consistency(dither, qmap, ctrl, states), abs=1e-12)
    assert fast <= 1e-12


def test_average_rhs_aliases_below_the_degree_bound(ex1_setup, monkeypatch):
    # harmonics (1, 7) make the interior integrand a trigonometric polynomial
    # of degree 21 whose cosines reach degree 14: 14 distinct nodes alias
    qmap, dither, ctrl = ex1_setup
    states = draw_interior_states(qmap, dither, 100, seed=0)
    assert average_rhs_consistency(dither, qmap, ctrl, states) <= 1e-12
    grid = analysis._period_grid
    monkeypatch.setattr(analysis, "_period_grid", lambda d, nodes: grid(d, 14 + 1))
    assert average_rhs_consistency(dither, qmap, ctrl, states) > 1.0


@pytest.mark.parametrize("tt", [(2.95, 0.97), (3.1, -9.0)])
def test_average_rhs_on_saturating_states(ex1_setup, tt):
    # the dead-zone kink leaves the integrand only Lipschitz: such a state is
    # averaged on the fine grid, as the Simpson loop did
    qmap, dither, ctrl = ex1_setup
    tt = np.array(tt)
    assert np.any(np.abs(tt + qmap.theta_star) + dither.amplitudes >= qmap.input_bounds.limits)
    reference = _fine_trapezoid_consistency(dither, qmap, ctrl, tt)
    assert average_rhs_consistency(dither, qmap, ctrl, tt) == pytest.approx(reference, abs=1e-7)
    assert _simpson_consistency(dither, qmap, ctrl, tt) == pytest.approx(reference, abs=1e-7)
