import dataclasses
import re
import tracemalloc
import warnings

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
from esc_sat import analysis, config
from esc_sat.plant import (
    AwController, GradSatController, QuadraticMap, SaturationBounds, deadzone, loop_laws,
    perturbation_terms,
)
from esc_sat.signals import DitherSpec, eval_S_M
from esc_sat.sim import Trajectory, simulate
from esc_sat.synthesis import GradSatDesign, design_gradsat_gain
from esc_sat.polytope import HessianPolytope
from conftest import (
    EX1_ALPHA, EX1_H0, EX1_K, EX1_KAW, EX2_VERTICES, fixture_path, row_major_terms,
)


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


def _fit_decay_reference(traj, signal="theta_tilde", window=None):
    # fit_decay with its window always copied and the logarithm taken
    # twice: the reference for the one-logarithm, no-copy form
    norms = np.linalg.norm(getattr(traj, signal), axis=1)
    t = traj.times
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    tw = t[mask]
    nw = norms[mask]
    truncated = False
    zero = np.flatnonzero(nw <= 0.0)
    if zero.size:
        tw = tw[: zero[0]]
        nw = nw[: zero[0]]
        truncated = True
    slope, intercept = np.polyfit(tw, np.log(nw), 1)
    pred = intercept + slope * tw
    residual = float(np.sqrt(np.mean((np.log(nw) - pred) ** 2)))
    amplitude = float(np.exp(intercept))
    return analysis.DecayFit(
        eta_hat=float(-slope),
        kappa_hat=amplitude / float(nw[0]) * float(np.exp(slope * tw[0])),
        amplitude=amplitude,
        window=(float(tw[0]), float(tw[-1])),
        residual=residual,
        truncated=truncated,
    )


@pytest.fixture(scope="module")
def averaged_runs():
    # each fixture's averaged loop over the benchmark's oracle horizon
    runs = {}
    for name, t_end in (("example1", 1.5), ("example2", 3.0)):
        run = config.load_config(fixture_path(f"{name}.cfg")).built("run")
        average = "average-aw" if run.scenario == "input-saturation" else "average-gradsat"
        runs[name] = simulate(dataclasses.replace(run, scenario=average, t_end=t_end, dt=None))
    return runs


def test_fit_decay_has_the_reference_bits(averaged_runs):
    t = np.linspace(0.0, 10.0, 1000)
    decay = synthetic_trajectory(t, 3.0 * np.exp(-0.4 * t) * (1.0 + 0.1 * np.sin(7.0 * t)))
    truncating = synthetic_trajectory(t, np.where(t < 7.0, np.exp(-t), 0.0))
    cases = [(decay, "theta_tilde", w) for w in (None, (0.0, 10.0), (-1.0, 11.0), (6.0, 10.0))]
    cases += [(truncating, "theta_tilde", None), (truncating, "theta_tilde", (2.0, 9.0))]
    for run in averaged_runs.values():
        for signal in analysis._SIGNALS:
            cases += [(run, signal, None), (run, signal, (0.2, 1.0))]
    for traj, signal, window in cases:
        got = fit_decay(traj, signal, window)
        # repr gives each float's shortest round trip, so equal reprs are
        # equal bits, the sign of a zero included
        assert repr(got) == repr(_fit_decay_reference(traj, signal, window)), (signal, window)
    assert fit_decay(truncating).truncated


def test_fit_decay_copies_no_window_over_the_whole_run(averaged_runs):
    # example 2's averaged g_hat, 4776 samples: the norms, one logarithm and
    # the fit, with no copy of the run's times or norms; 380 KiB with both
    # copies and the logarithm taken twice
    run = averaged_runs["example2"]
    fit_decay(run, "g_hat")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_decay(run, "g_hat")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 340 * 1024, peak


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


def _one_shot_sup_deviation(a, b, signal):
    # sup_deviation resampling every sample at once: the reference for the
    # block form
    lo = max(a.times[0], b.times[0])
    hi = min(a.times[-1], b.times[-1])
    mask = (a.times >= lo) & (a.times <= hi)
    ta = a.times[mask]
    sa = getattr(a, signal)[mask]
    sb_full = getattr(b, signal)
    sb = np.vstack(
        [np.interp(ta, b.times, sb_full[:, j]) for j in range(sb_full.shape[1])]
    ).T
    return float(np.max(np.linalg.norm(sa - sb, axis=1)))


def _random_trajectory(rng, times, dim):
    signals = {f: rng.normal(size=(len(times), dim)) for f in ("theta", "theta_tilde", "u", "g_hat")}
    return Trajectory(times=np.asarray(times, dtype=float), y=rng.normal(size=len(times)), **signals)


@pytest.mark.parametrize("dim", [1, 3, 9])
def test_sup_deviation_blocks_match_one_resampling(dim):
    # a's samples span several blocks, the last of one sample, and the
    # spans overlap in part, so some blocks keep no sample
    rng = np.random.default_rng(dim)
    a = _random_trajectory(rng, np.linspace(0.0, 4.0, 2 * analysis._BLOCK + 1), dim)
    for tb in (np.linspace(0.0, 4.0, 777), np.linspace(1.3, 2.1, 3001), np.linspace(-1.0, 3.0, 50)):
        b = _random_trajectory(rng, tb, dim)
        for signal in analysis._SIGNALS:
            for x, y in ((a, b), (b, a)):
                got = sup_deviation(x, y, signal)
                assert np.float64(got).tobytes() == np.float64(
                    _one_shot_sup_deviation(x, y, signal)).tobytes()


@pytest.mark.parametrize("signal", ["y", "times", "nope"])
def test_sup_deviation_refuses_an_unknown_signal(signal):
    t = np.linspace(0.0, 1.0, 50)
    a = synthetic_trajectory(t, 1.0 + t)
    with pytest.raises(ValueError, match=f"unknown signal selector '{signal}'"):
        sup_deviation(a, a, signal)


def test_sup_deviation_refuses_trajectories_of_different_dimension():
    t = np.linspace(0.0, 1.0, 50)
    a = synthetic_trajectory(t, 1.0 + t)
    b = synthetic_trajectory(t, 1.0 + t, direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="differ in dimension: 2 and 3"):
        sup_deviation(a, b)


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
        k=k, l=k - eps * eye, w=eye, x=eye, upsilon_tilde=eye,
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


@pytest.fixture
def ex2_setup():
    cfg = config.load_config(fixture_path("example2.cfg"))
    return cfg.built("map"), cfg.built("dither")


def _one_shot_report(dither, qmap, tt, nodes):
    # zero_mean_report as one tensordot over every node: the reference for
    # the block sums
    wq, ts = _one_shot_grid(dither, nodes)
    S, M = eval_S_M(dither, ts)
    pt = perturbation_terms(dither, qmap, ts, tt)
    series = {
        "S[{0}]": S,
        "M[{0}]": M,
        "delta_mean_free[{0},{1}]": pt.delta,
        "delta_literal[{0},{0}]": np.diagonal(pt.delta, axis1=1, axis2=2) + 1.0,
        "w[{0}]": pt.w,
        "varsigma[{0}]": pt.varsigma,
    }
    terms = {}
    for pattern, values in series.items():
        means = np.tensordot(wq, values, axes=(0, 0)) / dither.period
        linf = np.max(np.abs(values), axis=0)
        for idx in np.ndindex(means.shape):
            terms[pattern.format(*idx)] = (float(means[idx]), float(linf[idx]))
    return terms


def _row_major_report(dither, qmap, tt, nodes):
    # zero_mean_report block by block on the row-major terms, each peak
    # reduced over the node axis: the reference for the channel-major terms
    # and the peaks read along rows
    sums, peaks = {}, {}
    for wq, ts in analysis._period_blocks(dither, nodes):
        pt = row_major_terms(dither, qmap, ts, tt)
        series = {
            "S[{0}]": pt["S"],
            "M[{0}]": pt["M"],
            "delta_mean_free[{0},{1}]": pt["delta"],
            "delta_literal[{0},{0}]": np.diagonal(pt["delta"], axis1=1, axis2=2) + 1.0,
            "w[{0}]": pt["w"],
            "varsigma[{0}]": pt["varsigma"],
        }
        for pattern, values in series.items():
            sums[pattern] = sums.get(pattern, 0.0) + np.tensordot(wq, values, axes=(0, 0))
            peaks[pattern] = np.maximum(peaks.get(pattern, 0.0), np.max(np.abs(values), axis=0))
    terms = {}
    for pattern, total in sums.items():
        means, linf = total / dither.period, peaks[pattern]
        for idx in np.ndindex(means.shape):
            terms[pattern.format(*idx)] = (float(means[idx]), float(linf[idx]))
    return terms


@pytest.mark.parametrize("nodes", [2, 1023, 1024, 1025, 5001, 20001])
@pytest.mark.parametrize("example", ["example1", "example1-saturating", "example2"])
def test_zero_mean_block_sums_match_one_tensordot(ex1_setup, ex2_setup, example, nodes):
    # a grid of one block is the same sum; over more blocks the sums are
    # added in another order, within 1e-14 of each term's largest magnitude.
    # Every mean and peak also has the bits of the report on the row-major
    # terms, on one block, on a last block of one node (1025) and beyond.
    qmap, dither = ex2_setup if example == "example2" else ex1_setup[:2]
    tt = np.linspace(0.3, -0.2, qmap.dim)
    if example == "example1-saturating":
        tt = np.array([2.95, 0.97])
    got = zero_mean_report(dither, qmap, tt, nodes=nodes).terms
    ref = _one_shot_report(dither, qmap, tt, nodes)
    assert list(got) == list(ref)
    for name, (mean, linf) in ref.items():
        assert np.float64(got[name].linf).tobytes() == np.float64(linf).tobytes(), name
        if nodes <= analysis._BLOCK:
            assert np.float64(got[name].mean).tobytes() == np.float64(mean).tobytes(), name
        else:
            assert abs(got[name].mean - mean) <= 1e-14 * linf, name
    row_major = _row_major_report(dither, qmap, tt, nodes)
    assert list(got) == list(row_major)
    for name, (mean, linf) in row_major.items():
        assert np.float64(got[name].mean).tobytes() == np.float64(mean).tobytes(), name
        assert np.float64(got[name].linf).tobytes() == np.float64(linf).tobytes(), name


def test_zero_mean_report_holds_one_block_of_nodes(ex2_setup):
    # the peak is one block's arrays at any node count: Delta, its outer
    # product and their magnitudes take 3 n^2 doubles per node, and the
    # dithers, their derivatives, the forms and the residuals about 20 n;
    # the whole-period arrays took 7.75 MB here
    qmap, dither = ex2_setup
    n = qmap.dim
    budget = 8 * analysis._BLOCK * (4 * n * n + 24 * n)
    tt = np.array([0.3, -0.2, 0.1])
    zero_mean_report(dither, qmap, tt, nodes=20001)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        zero_mean_report(dither, qmap, tt, nodes=20001)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= budget, peak


@pytest.mark.parametrize("nodes", [0, 1, -4])
def test_zero_mean_report_refuses_fewer_than_two_nodes(ex1_setup, nodes):
    qmap, dither, _ = ex1_setup
    with pytest.raises(ValueError, match=f"nodes must be at least 2, got {nodes}"):
        zero_mean_report(dither, qmap, np.array([0.3, -0.2]), nodes=nodes)


@pytest.mark.parametrize("nodes", [101.0, True, "101", None], ids=["float", "bool", "str", "none"])
def test_zero_mean_report_refuses_nodes_that_are_not_an_integer(ex1_setup, nodes):
    qmap, dither, _ = ex1_setup
    tt = np.array([0.3, -0.2])
    with pytest.raises(ValueError, match=re.escape(f"nodes must be an integer, got {nodes!r}")):
        zero_mean_report(dither, qmap, tt, nodes=nodes)
    # a numpy integer is an integer
    assert zero_mean_report(dither, qmap, tt, nodes=np.int64(101)) == zero_mean_report(
        dither, qmap, tt, nodes=101
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_zero_mean_report_refuses_a_non_finite_state(ex1_setup, bad):
    # refused by name before any arithmetic, so numpy warns of nothing
    qmap, dither, _ = ex1_setup
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^theta_tilde must be finite$"):
            zero_mean_report(dither, qmap, np.array([bad, 0.1]), nodes=101)
        with pytest.raises(ValueError, match="^theta_tilde must be finite$"):
            perturbation_terms(dither, qmap, 0.1, [bad, 0.1])


@pytest.mark.parametrize("tt", [[0.3], [0.3, -0.2, 0.1]], ids=["1", "3"])
def test_zero_mean_report_refuses_a_state_of_another_dimension(ex1_setup, tt):
    qmap, dither, _ = ex1_setup
    with pytest.raises(ValueError, match=r"theta_tilde must have shape \(2,\)"):
        zero_mean_report(dither, qmap, tt, nodes=101)
    # the terms themselves refuse it, where numpy would broadcast it
    with pytest.raises(ValueError, match=r"theta_tilde must have shape \(2,\)"):
        perturbation_terms(dither, qmap, 0.1, tt)


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


def _one_shot_interior_consistency(dither, qmap, ctrl, states):
    # average_rhs_consistency on interior states over the whole exact grid at
    # once: the reference for the block form
    laws = loop_laws(qmap, ctrl, qmap.q_star)
    wq, ts = _one_shot_grid(dither, 3 * max(dither.harmonics) + 2)
    S, M = eval_S_M(dither, ts)
    theta = states + qmap.theta_star
    path = (S[:, None] + theta).reshape(-1, qmap.dim)
    rhs = laws.rhs(path, np.repeat(laws.demod_gain(M), len(theta), axis=0))
    means = np.tensordot(wq, rhs.reshape(len(S), *theta.shape), axes=(0, 0)) / dither.period
    model = laws.average_rhs(states)
    denom = np.maximum(np.linalg.norm(model, axis=1), 1e-12)
    return float(np.max(np.linalg.norm(means - model, axis=1) / denom))


def test_average_rhs_on_interior_states_is_one_block(ex1_setup):
    qmap, dither, ctrl = ex1_setup
    for seed in range(8):
        states = draw_interior_states(qmap, dither, 100, seed=seed)
        got = average_rhs_consistency(dither, qmap, ctrl, states)
        ref = _one_shot_interior_consistency(dither, qmap, ctrl, states)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes(), seed


@pytest.mark.parametrize(
    "states, message",
    [
        (np.zeros((0, 2)), "theta_tilde_states must hold at least one state"),
        (np.zeros((1, 1)), r"theta_tilde_states must have shape \(count, 2\), got \(1, 1\)"),
        (np.zeros((1, 3)), r"theta_tilde_states must have shape \(count, 2\), got \(1, 3\)"),
        (np.zeros((2, 1, 2)), r"theta_tilde_states must have shape \(count, 2\), got \(2, 1, 2\)"),
        (np.array([[0.1, np.nan]]), "theta_tilde_states must be finite"),
    ],
    ids=["none", "dim-1", "dim-3", "3-d", "nan"],
)
def test_average_rhs_refuses_bad_states(ex1_setup, states, message):
    qmap, dither, ctrl = ex1_setup
    with pytest.raises(ValueError, match=message):
        average_rhs_consistency(dither, qmap, ctrl, states)


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


def _one_shot_grid(dither, nodes):
    # the whole-period weights and nodes that the block helper replaced
    wq = np.full(nodes, dither.period / (nodes - 1))
    wq[[0, -1]] *= 0.5
    return wq, np.linspace(0.0, dither.period, nodes)


def _concatenated_blocks(dither, nodes):
    blocks = list(analysis._period_blocks(dither, nodes))
    assert all(len(wq) == len(ts) <= analysis._BLOCK for wq, ts in blocks)
    return np.concatenate([wq for wq, _ in blocks]), np.concatenate([ts for _, ts in blocks])


def test_period_grid_is_exact_below_its_degree():
    # a trigonometric polynomial of degree below the count of distinct nodes
    # (nodes - 1) has its constant term as the rule's mean; at degree equal
    # to that count, cos(N w t) is 1 on every node and aliases into the mean
    dither = DitherSpec([0.1, 0.1], (10, 70), 1.0)
    rng = np.random.default_rng(11)
    for nodes in (2, 3, 9, 23, 64):
        degree = nodes - 2
        a, b = rng.normal(size=(2, degree + 2))
        wq, ts = _concatenated_blocks(dither, nodes)
        k = np.arange(degree + 2)
        phase = np.outer(ts, k) * (2.0 * np.pi / dither.period)
        below = np.cos(phase[:, :-1]) @ a[:-1] + np.sin(phase[:, :-1]) @ b[:-1]
        mean = wq @ below / dither.period
        assert abs(mean - a[0]) <= 1e-14 * np.abs(np.r_[a, b]).sum()
        aliased = wq @ (below + a[-1] * np.cos(phase[:, -1])) / dither.period
        assert aliased - a[0] == pytest.approx(a[-1], rel=1e-12)


@pytest.mark.parametrize("nodes", [2, 23, 1023, 1024, 1025, 2049, 5001, 20001])
def test_period_blocks_concatenate_to_the_one_shot_grid(nodes):
    dither = DitherSpec([0.1, 0.3, 0.05], (3, 7, 11), 1.3)
    wq, ts = _concatenated_blocks(dither, nodes)
    ref_wq, ref_ts = _one_shot_grid(dither, nodes)
    assert wq.tobytes() == ref_wq.tobytes()
    assert ts.tobytes() == ref_ts.tobytes()


def test_period_grid_scales_one_sine_into_both_dithers():
    # the terms on each block carry the S and M they were formed from: the
    # dithers at the block's nodes
    for dither, nodes in (
        (DitherSpec([0.1, 0.1], (10, 70), 1.0), 23),
        (DitherSpec([0.1, 0.3, 0.05], (3, 7, 11), 1.3), 2049),
    ):
        qmap = QuadraticMap(1.0, np.zeros(dither.dim), -np.eye(dither.dim))
        tt = np.full(dither.dim, 0.1)
        terms = [
            perturbation_terms(dither, qmap, ts, tt)
            for _, ts in analysis._period_blocks(dither, nodes)
        ]
        S_ref, M_ref = eval_S_M(dither, _one_shot_grid(dither, nodes)[1])
        assert np.concatenate([pt.S for pt in terms]).tobytes() == S_ref.tobytes()
        assert np.concatenate([pt.M for pt in terms]).tobytes() == M_ref.tobytes()


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
    blocks = analysis._period_blocks
    monkeypatch.setattr(analysis, "_period_blocks", lambda d, nodes: blocks(d, 14 + 1))
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
