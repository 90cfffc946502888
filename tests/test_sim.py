import dataclasses
import logging
from fractions import Fraction

import numpy as np
import pytest

from esc_sat import config, sim
from esc_sat.plant import (
    AwController,
    GradSatController,
    QuadraticMap,
    SaturationBounds,
    loop_laws,
)
from esc_sat.signals import DitherSpec, eval_S_M
from esc_sat.sim import (
    SCENARIOS,
    SimConfig,
    SimulationBlowUp,
    export_csv,
    simulate,
    simulate_batch,
)
from conftest import (
    EX1_ALPHA,
    EX1_H0,
    EX1_K,
    EX1_KAW,
    EX2_K,
    EX2_VERTICES,
    fixture_path,
    lyapunov,
)


def ex1_qmap():
    H = (EX1_ALPHA[0] * 0.9 + EX1_ALPHA[1] * 1.1) * EX1_H0
    return QuadraticMap(10.0, [2.0, 4.0], H, SaturationBounds([5.0, 5.0]))


def ex1_controller():
    return AwController(EX1_K, EX1_KAW)


def ex1_config(**over):
    base = dict(
        scenario="input-saturation",
        qmap=ex1_qmap(),
        dither=DitherSpec([0.1, 0.1], (10, 70), 1.0),
        controller=ex1_controller(),
        theta0=np.array([2.5, 6.0]),
        t_end=5.0,
    )
    base.update(over)
    return SimConfig(**base)


def ex2_qmap():
    H = sum(EX2_VERTICES) / 4.0
    return QuadraticMap(5.0, [-1.0, -2.0, -3.0], 0.5 * (H + H.T))


def ex2_config(**over):
    base = dict(
        scenario="gradient-saturation",
        qmap=ex2_qmap(),
        dither=DitherSpec([0.1, 0.1, 0.1], (10, 30, 70), 1.0),
        controller=GradSatController(EX2_K, SaturationBounds([2.0, 2.0, 2.0])),
        theta0=np.array([2.5, 5.0, 6.0]),
        t_end=3.0,
    )
    base.update(over)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ex1_config(scenario="nonsense")
    with pytest.raises(TypeError):
        ex1_config(controller=GradSatController(np.eye(2), SaturationBounds([1, 1])))
    with pytest.raises(ValueError):
        ex1_config(dt=1.0)  # coarser than period/200
    with pytest.raises(ValueError):
        ex1_config(theta0=np.array([1.0]))
    # a non-finite input is refused by its field's name
    for kwargs, field in (
        ({"t_end": np.inf}, "t_end"),
        ({"t_end": np.nan}, "t_end"),
        ({"dt": np.nan}, "dt"),
        ({"theta0": np.array([np.nan, 4.0])}, "theta0"),
        ({"theta0": np.array([2.0, -np.inf])}, "theta0"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ex1_config(**kwargs)
    # the messages the front end can reach, verbatim
    for kwargs, message in (
        ({"t_end": 0.0}, "t_end must be positive"),
        ({"t_end": -np.inf}, "t_end must be positive"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": 1.0}, "dt = 1.0 is coarser than period/200"),
        ({"dt": np.inf}, "dt = inf is coarser than period/200"),
        ({"t_end": 1e-6}, "t_end = 1e-06 rounds to no step of dt = 0.000628319"),
    ):
        with pytest.raises(ValueError) as exc:
            ex1_config(**kwargs)
        assert str(exc.value) == message


def test_step_reads_the_fastest_dither_cycle():
    # multipliers 0.01 and 100 share a 200 pi s period in which the 100 rad/s
    # probe makes 10000 cycles: period/1000 would be 0.1 steps per cycle,
    # sampling the probe at its zeros, so its gradient estimate would stay at
    # rounding level
    dither = DitherSpec([0.1, 0.1], (Fraction(1, 100), 100), 1.0)
    cfg = ex1_config(dither=dither, t_end=0.5)
    assert cfg.dt == dither.period / (100 * 10_000)
    assert cfg.dt == pytest.approx(2.0 * np.pi / 100.0 / 100, rel=1e-15)
    assert np.max(np.abs(simulate(cfg).g_hat[:, 1])) > 1.0
    ex1_config(dither=dither, t_end=0.5, dt=dither.period / (20 * 10_000))
    with pytest.raises(ValueError, match="coarser than period/200000"):
        ex1_config(dither=dither, t_end=0.5, dt=dither.period / (19 * 10_000))
    # the fixture dither makes 7 cycles per period: the period counts bind
    fixture = ex1_config()
    assert fixture.dt == fixture.dither.period / 1000


@pytest.mark.parametrize("mults, h", [((2, 3), 3), ((1, 10), 10), ((1, 11), 11)])
def test_step_counts_follow_one_rule(mults, h):
    # 100 steps, and at the coarsest 20, per cycle of the fastest dither
    # component, which counts as making at least 10 cycles per period
    dither = DitherSpec([0.1, 0.1], mults, 1.0)
    assert max(dither.harmonics) == h
    cycles = max(10, h)
    assert ex1_config(dither=dither).dt == dither.period / (100 * cycles)
    ex1_config(dither=dither, dt=dither.period / (20 * cycles))
    with pytest.raises(ValueError, match=f"coarser than period/{20 * cycles}$"):
        ex1_config(dither=dither, dt=dither.period / (19 * cycles))


def test_equilibrium_with_vanishing_dither():
    cfg = ex1_config(
        dither=DitherSpec([1e-6, 1e-6], (10, 70), 1.0),
        theta0=np.array([2.0, 4.0]),
        t_end=1.0,
    )
    traj = simulate(cfg)
    assert np.max(np.linalg.norm(traj.theta - [2.0, 4.0], axis=1)) <= 1e-5
    assert np.max(np.abs(traj.y - 10.0)) <= 1e-9


def test_trajectory_bookkeeping():
    cfg = ex1_config(t_end=1.0)
    traj = simulate(cfg)
    # theta = theta_hat + S and theta_tilde = theta_hat - theta* sample-wise
    S, _ = eval_S_M(cfg.dither, traj.times)
    theta_hat = traj.theta - S
    assert np.allclose(theta_hat - [2.0, 4.0], traj.theta_tilde, atol=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times.size == int(round(cfg.t_end / cfg.dt)) + 1


def test_determinism():
    cfg = ex1_config(t_end=0.5)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.u, b.u)


def test_gradient_sat_respects_rate_limits():
    traj = simulate(ex2_config())
    assert np.max(np.abs(traj.u)) <= 2.0 + 0.0


def test_gradient_sat_zero_estimate_freezes():
    cfg = ex2_config(
        dither=DitherSpec([1e-7, 1e-7, 1e-7], (10, 30, 70), 1.0),
        theta0=np.array([-1.0, -2.0, -3.0]),
        t_end=1.0,
    )
    traj = simulate(cfg)
    assert np.max(np.linalg.norm(traj.theta - [-1.0, -2.0, -3.0], axis=1)) <= 1e-6


def test_average_aw_equilibrium_at_origin():
    cfg = ex1_config(scenario="average-aw", theta0=np.array([2.0, 4.0]), t_end=1.0)
    traj = simulate(cfg)
    assert np.max(np.abs(traj.theta_tilde)) == 0.0
    assert np.allclose(traj.y, 10.0)


def test_average_gradsat_origin_fixed():
    cfg = ex2_config(
        scenario="average-gradsat",
        theta0=np.array([-1.0, -2.0, -3.0]),
        t_end=1.0,
    )
    traj = simulate(cfg)
    assert np.max(np.abs(traj.g_hat)) == 0.0
    assert np.max(np.abs(traj.u)) == 0.0


def test_average_gradsat_region_precondition():
    # start the gradient state g0 inside the unit sublevel set of P = I
    qmap = ex2_qmap()
    g0 = np.array([0.5, 0.0, 0.0])
    small = ex2_config(
        scenario="average-gradsat",
        theta0=qmap.theta_star + np.linalg.solve(qmap.hessian, g0),
        t_end=1.0,
    )
    v = lyapunov(simulate(small), np.eye(3), "gradsat")
    assert v[0] <= 1.0
    # sublevel sets are invariant along the decay
    assert np.all(np.diff(v) <= 1e-12)


def test_average_gradsat_records_the_gradient_of_theta_tilde():
    # the averaged gradient g = H theta_tilde is recorded, not integrated
    cfg = ex2_config(scenario="average-gradsat", t_end=1.0)
    traj = simulate(cfg)
    assert np.array_equal(traj.g_hat, traj.theta_tilde @ cfg.qmap.hessian)


def test_step_halving_fourth_order_on_smooth_average():
    # stay inside the linear region so the right-hand side is smooth
    cfg0 = ex1_config(
        scenario="average-aw",
        theta0=np.array([2.3, 4.2]),
        t_end=1.0,
        dt=2e-3,
    )
    cfg1 = dataclasses.replace(cfg0, dt=1e-3)
    cfg2 = dataclasses.replace(cfg0, dt=5e-4)
    x0 = simulate(cfg0).theta_tilde[-1]
    x1 = simulate(cfg1).theta_tilde[-1]
    x2 = simulate(cfg2).theta_tilde[-1]
    e0 = np.linalg.norm(x0 - x2)
    e1 = np.linalg.norm(x1 - x2)
    # Richardson ratio for a 4th-order one-step method is ~16 (here ~17 with
    # the nested reference); accept a generous bracket
    assert e0 / max(e1, 1e-300) > 8.0


def test_step_halving_first_order_on_true_loop():
    cfg0 = ex1_config(t_end=1.0, dt=5e-4)
    cfg1 = dataclasses.replace(cfg0, dt=2.5e-4)
    cfg2 = dataclasses.replace(cfg0, dt=1.25e-4)
    x0 = simulate(cfg0).theta_tilde[-1]
    x1 = simulate(cfg1).theta_tilde[-1]
    x2 = simulate(cfg2).theta_tilde[-1]
    e0 = np.linalg.norm(x0 - x2)
    e1 = np.linalg.norm(x1 - x2)
    assert e0 / max(e1, 1e-300) > 1.5


def _lone_rk4_run(rhs, x0, nstep, dt):
    # the integrator's batch of one, whose member runs as a lone 1-D row;
    # each stage writes rhs(k, x) into its out
    def stage(k, x, out):
        out[...] = rhs(k, x)

    (xs,) = sim._rk4_run(lambda rows, window: stage, x0[None], [nstep], [dt])
    return xs


def _composed_run(cfg):
    # theta_tilde from the per-stage composition the fused stage laws
    # replaced, on the same integrator; kept as their reference
    laws = loop_laws(cfg.qmap, cfg.controller, cfg.qmap.q_star)
    nstep = int(round(cfg.t_end / cfg.dt))
    th_star = cfg.qmap.theta_star
    if cfg.scenario == SCENARIOS[cfg.scenario][1]:
        def rhs(k, tt):
            return laws.control(laws.average_estimate(tt), tt + th_star)

        return _lone_rk4_run(rhs, cfg.theta0 - th_star, nstep, cfg.dt)
    half_times = np.arange(2 * nstep + 1) * (0.5 * cfg.dt)
    S, M = eval_S_M(cfg.dither, half_times)

    def rhs(k, th_hat):
        theta = th_hat + S[k]
        return laws.control(laws.estimate(theta, M[k]), theta)

    return _lone_rk4_run(rhs, cfg.theta0, nstep, cfg.dt) - th_star


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stage_laws_reproduce_the_composed_run(scenario):
    # the averaged loops bitwise, the dithered loops to rounding
    make = ex1_config if SCENARIOS[scenario][0] == "aw" else ex2_config
    cfg = make(scenario=scenario, t_end=1.0)
    got = simulate(cfg).theta_tilde
    want = _composed_run(cfg)
    if scenario == SCENARIOS[scenario][1]:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_blowup_detected_with_time():
    # anti-windup gain with the wrong sign feeds the dead-zone back
    # positively: the estimate runs away once saturated
    ctrl = AwController(EX1_K, -np.eye(2))
    cfg = ex1_config(controller=ctrl, t_end=60.0)
    with pytest.raises(SimulationBlowUp) as exc:
        simulate(cfg)
    assert 0.0 < exc.value.time <= 60.0


TRAJECTORY_FIELDS = ("times", "theta", "theta_tilde", "y", "u", "g_hat")


def _fixture_config(name, **over):
    cfg = config.load_config(fixture_path(f"{name}.cfg"))
    qmap = config.build_qmap(cfg, config.resolve_hessian(cfg, config.build_polytope(cfg)))
    sim_cfg = config.build_sim_config(
        cfg, qmap, config.build_dither(cfg), config.build_controller(cfg, qmap)
    )
    return dataclasses.replace(sim_cfg, **over)


def _members(cfg, omega_scales, amplitudes):
    # a sweep's members: each omega scale runs at its own automatic step,
    # so their step counts differ; each amplitude keeps the config's step
    d = cfg.dither
    return [
        dataclasses.replace(
            cfg, dither=dataclasses.replace(d, base_omega=d.base_omega * s), dt=None
        )
        for s in omega_scales
    ] + [
        dataclasses.replace(cfg, dither=dataclasses.replace(d, amplitudes=np.full(d.dim, a)))
        for a in amplitudes
    ]


@pytest.mark.parametrize("name", ["example1", "example1_no_aw", "example2"])
def test_batch_members_equal_their_lone_runs(name):
    # unequal step counts in input order 1.2, 0.8, 1: the stack shrinks
    # twice and its last member runs on alone; the amplitude members finish
    # together
    members = _members(_fixture_config(name, t_end=1.0), (1.2, 0.8, 1.0), (0.05, 0.2))
    assert len({round(m.t_end / m.dt) for m in members}) == 3
    for got, member in zip(simulate_batch(members), members):
        want = simulate(member)
        for field in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("scenario", ["input-saturation", "gradient-saturation"])
@pytest.mark.parametrize("n", range(4, 9))
def test_batch_members_match_lone_runs_at_higher_dimension(n, scenario):
    # a stack's d @ H may round apart from a lone row's at n >= 4; each true
    # member still agrees with its lone run to rounding
    rng = np.random.default_rng([7, n])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    bounds = SaturationBounds(np.full(n, 2.0))
    theta0 = rng.uniform(-3.0, 3.0, n)
    if scenario == "input-saturation":
        H = (q * np.linspace(3.0, 6.0, n)) @ q.T
        qmap = QuadraticMap(5.0, rng.uniform(-1.0, 1.0, n), 0.5 * (H + H.T), bounds)
        ctrl = AwController(-0.05 * np.eye(n), 2.0 * np.eye(n))
    else:
        H = (q * np.linspace(-6.0, -3.0, n)) @ q.T
        qmap = QuadraticMap(5.0, rng.uniform(-1.0, 1.0, n), 0.5 * (H + H.T))
        ctrl = GradSatController(0.5 * np.eye(n), bounds)
    mults = tuple(range(3, 3 + 2 * n, 2))
    cfg = SimConfig(
        scenario, qmap, DitherSpec(np.full(n, 0.1), mults, 1.0), ctrl, theta0, t_end=0.5
    )
    members = _members(cfg, (1.1, 0.9), (0.05,))
    for got, member in zip(simulate_batch(members), members):
        want = simulate(member)
        for field in TRAJECTORY_FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(b), axis=0)), field


def test_batch_blowup_stays_in_its_slot():
    # the member at amplitude 0.05 blows up at t = 9.734 s in the middle of
    # the stack; the shorter member after it finishes, and the first one runs
    # on alone to its end
    ctrl = AwController(EX1_K, -np.eye(2))
    members = [
        ex1_config(controller=ctrl, t_end=t_end, dt=0.002, dither=DitherSpec([a, a], (10, 70), 1.0))
        for a, t_end in ((0.1, 12.0), (0.05, 12.0), (0.2, 11.0))
    ]
    got = simulate_batch(members)
    with pytest.raises(SimulationBlowUp) as exc:
        simulate(members[1])
    assert isinstance(got[1], SimulationBlowUp)
    assert (got[1].time, str(got[1])) == (exc.value.time, str(exc.value))
    for b in (0, 2):
        want = simulate(members[b])
        for field in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(got[b], field), getattr(want, field)), field


def test_batch_lone_tail_blowup_keeps_its_lone_time():
    # the shorter member finishes in the stack, which hands the longer one to
    # the lone row; it blows up there at t = 9.734 s, as it does alone
    ctrl = AwController(EX1_K, -np.eye(2))
    members = [
        ex1_config(controller=ctrl, t_end=t_end, dt=0.002, dither=DitherSpec([a, a], (10, 70), 1.0))
        for a, t_end in ((0.05, 12.0), (0.1, 1.0))
    ]
    got = simulate_batch(members)
    with pytest.raises(SimulationBlowUp) as exc:
        simulate(members[0])
    assert isinstance(got[0], SimulationBlowUp)
    assert (got[0].time, str(got[0])) == (exc.value.time, str(exc.value))
    assert got[0].time == pytest.approx(9.734, abs=1e-12)
    want = simulate(members[1])
    for field in TRAJECTORY_FIELDS:
        assert np.array_equal(getattr(got[1], field), getattr(want, field)), field


@pytest.mark.parametrize("make", [ex1_config, ex2_config], ids=["n2", "n3"])
def test_batch_members_leaving_out_of_order_equal_their_lone_runs(make):
    # horizons long, short, long: the short member leaves first, so the
    # second phase steps rows [0, 2] from a gathered window of the tables,
    # and the first member runs on alone
    n = make().qmap.dim
    members = [
        make(t_end=t_end, dither=DitherSpec(np.full(n, a), make().dither.freq_multipliers, 1.0))
        for a, t_end in ((0.1, 1.0), (0.05, 0.4), (0.2, 0.8))
    ]
    for got, member in zip(simulate_batch(members), members):
        want = simulate(member)
        for field in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


def _phase_records(caplog):
    # (rows, steps, seconds, us/step) of each phase the esc_sat.sim logger told
    return [r.args for r in caplog.records if r.name == "esc_sat.sim"]


def test_batch_blowup_inside_a_gathered_phase(caplog):
    # the short middle member finishes first, so rows [0, 2] step on as a
    # gathered phase, written to its own record; member 0 blows up there at
    # t = 9.734 s, and member 2 runs on alone to its end
    ctrl = AwController(EX1_K, -np.eye(2))
    members = [
        ex1_config(controller=ctrl, t_end=t_end, dt=0.002, dither=DitherSpec([a, a], (10, 70), 1.0))
        for a, t_end in ((0.05, 12.0), (0.1, 5.0), (0.2, 11.0))
    ]
    with caplog.at_level(logging.DEBUG, logger="esc_sat.sim"):
        got = simulate_batch(members)
    assert [(rows, steps) for rows, steps, *_ in _phase_records(caplog)] == [
        (3, 2500), (2, 2367), (1, 633),
    ]
    with pytest.raises(SimulationBlowUp) as exc:
        simulate(members[0])
    assert isinstance(got[0], SimulationBlowUp)
    assert (got[0].time, str(got[0])) == (exc.value.time, str(exc.value))
    assert got[0].time == pytest.approx(9.734, abs=1e-12)
    for b in (1, 2):
        want = simulate(members[b])
        for field in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(got[b], field), getattr(want, field)), field


def test_each_phase_logs_one_debug_record(caplog):
    # step counts 5, 2, 4: three phases of 3, 2 and 1 rows
    members = [ex1_config(t_end=t_end, dt=0.002) for t_end in (0.01, 0.004, 0.008)]
    with caplog.at_level(logging.DEBUG, logger="esc_sat.sim"):
        simulate_batch(members)
    records = [r for r in caplog.records if r.name == "esc_sat.sim"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    assert [(rows, steps) for rows, steps, *_ in _phase_records(caplog)] == [
        (3, 2), (2, 2), (1, 1),
    ]
    for rows, steps, seconds, us_per_step in _phase_records(caplog):
        assert seconds > 0.0 and us_per_step == 1e6 * seconds / steps
    assert records[0].getMessage().startswith("phase: 3 rows, 2 steps, ")
    # nothing at logging's default level, WARNING
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        simulate_batch(members)
    assert _phase_records(caplog) == []


def test_each_phase_reads_only_its_window_of_half_steps():
    # nsteps 5, 2, 4: all rows to step 2, rows [0, 2] to step 4, row 0 alone
    # to step 5; k counts half-steps from each window's start
    phases = []

    def stage_for(rows, window):
        ks = []
        phases.append((rows, window, ks))

        def stage(k, x, out):
            ks.append(k)
            assert out.shape == x.shape and not np.shares_memory(out, x)
            out.fill(0.0)

        return stage

    x0 = np.ones((3, 2))
    states = sim._rk4_run(stage_for, x0, [5, 2, 4], [0.1, 0.2, 0.3])
    assert [len(x) for x in states] == [6, 3, 5]
    want = [(slice(None), slice(0, 5)), ([0, 2], slice(4, 9)), (0, slice(8, 11))]
    for (rows, window, ks), (want_rows, want_window) in zip(phases, want):
        assert np.array_equal(rows, want_rows) and window == want_window
        assert min(ks) == 0 and max(ks) == window.stop - window.start - 1
    assert len(phases) == 3


def test_batch_needs_one_loop():
    cfg = ex1_config(t_end=0.1)
    assert simulate_batch([]) == []
    same = dataclasses.replace(cfg, qmap=ex1_qmap(), controller=ex1_controller())
    assert len(simulate_batch([cfg, same])) == 2
    for other in (
        dataclasses.replace(cfg, scenario="average-aw"),
        dataclasses.replace(cfg, demod_remove_offset=False),
        dataclasses.replace(cfg, controller=AwController(EX1_K, -np.eye(2))),
        dataclasses.replace(cfg, qmap=dataclasses.replace(cfg.qmap, q_star=11.0)),
    ):
        with pytest.raises(ValueError, match="one loop"):
            simulate_batch([cfg, other])


def test_uncountable_horizon_is_a_named_error():
    # t_end / dt overflows a float, so no step count can be formed
    with pytest.raises(ValueError) as exc:
        ex1_config(t_end=1e300, dt=1e-10)
    assert str(exc.value) == "t_end = 1e+300 at dt = 1e-10 takes too many steps to count"


# Only horizons that no machine can allocate: 1e12 s at this step asks for
# tens of PiB, and 1e300 s for more elements than numpy can index.
@pytest.mark.parametrize("scenario", ["input-saturation", "average-aw"])
@pytest.mark.parametrize("t_end, steps", [(1e12, "1.592e+15"), (1e300, "1.592e+303")])
def test_unallocatable_run_is_a_named_error(scenario, t_end, steps):
    message = f"t_end = {t_end:g} at dt = 0.000628319 takes {steps} steps, too many to allocate"
    huge = ex1_config(scenario=scenario, t_end=t_end)
    with pytest.raises(ValueError) as exc:
        simulate(huge)
    assert str(exc.value) == message
    # a batch is refused as a whole, naming its longest member
    with pytest.raises(ValueError) as exc:
        simulate_batch([ex1_config(scenario=scenario, t_end=0.1), huge])
    assert str(exc.value) == message


def test_csv_export(tmp_path):
    cfg = ex1_config(t_end=0.1)
    traj = simulate(cfg)
    path = tmp_path / "traj.csv"
    export_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,theta_1,theta_2,y,u_1,u_2,ghat_1,ghat_2"
    assert len(lines) == traj.times.size + 1
    # repr round-trip: parsing back reproduces the floats exactly
    row = lines[2].split(",")
    assert float(row[0]) == traj.times[1]
    assert float(row[1]) == traj.theta[1, 0]
    export_csv(traj, str(path), stride=10)
    strided = path.read_text().splitlines()
    assert len(strided) == 1 + len(range(0, traj.times.size, 10))
    with pytest.raises(ValueError):
        export_csv(traj, str(path), stride=0)


def per_element_csv(traj, path, stride):
    """The replaced writer, one repr(float(...)) per element: the byte reference."""
    n = traj.dim
    with open(path, "w") as fh:
        fh.write(
            ",".join(
                ["t", *(f"theta_{i + 1}" for i in range(n)), "y"]
                + [f"u_{i + 1}" for i in range(n)]
                + [f"ghat_{i + 1}" for i in range(n)]
            )
            + "\n"
        )
        for idx in range(0, traj.times.size, stride):
            row = (
                [repr(float(traj.times[idx]))]
                + [repr(float(x)) for x in traj.theta[idx]]
                + [repr(float(traj.y[idx]))]
                + [repr(float(x)) for x in traj.u[idx]]
                + [repr(float(x)) for x in traj.g_hat[idx]]
            )
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("make", [ex1_config, ex2_config], ids=["example1", "example2"])
def test_csv_export_matches_per_element_writer(tmp_path, make, stride):
    traj = simulate(make(t_end=0.5))
    export_csv(traj, str(tmp_path / "rows.csv"), stride=stride)
    per_element_csv(traj, str(tmp_path / "elements.csv"), stride)
    data = (tmp_path / "rows.csv").read_bytes()
    assert data == (tmp_path / "elements.csv").read_bytes()
    assert data.count(b"\n") == 1 + len(range(0, traj.times.size, stride))


# Samples of 0.5 s runs recorded from the four per-scenario integrators that
# the shared integrator replaced: final theta_tilde, then y, u and g_hat at
# GOLDEN_INDEX.
GOLDEN_INDEX = [1, 100, 400, -1]
GOLDEN = {
    "input-saturation": (
        ex1_config,
        [-0.02476219201589691, 0.7351312958316285],
        [46.202820046501074, 37.557189808099025, 15.392690606924198, 12.896604901626244],
        [[0.9438987881394257, -6.826294417587965], [-27.66926051753906, 92.97831099892895],
         [-5.476413446413726, 16.484938903587587], [0.5851263053158237, 1.246066061927931]],
        [[4.549350606227796, 31.835397504898612], [323.95419527650114, -524.1688987554993],
         [63.39488017852381, -102.57507084157852], [-55.52917824766573, -25.32303344518424]],
    ),
    "gradient-saturation": (
        ex2_config,
        [3.243855478977346, 6.85485841940412, 8.932351038192685],
        [-354.31654934381885, -346.0357557287545, -343.1248843035242, -340.0455629546161],
        [[-2.0, -2.0, -2.0], [-2.0, -2.0, 2.0], [-2.0, -2.0, 2.0], [2.0, -2.0, 2.0]],
        [[-45.152752174701604, -135.45112638110913, -315.9694511023194],
         [-4126.6728048940995, -6677.096858768515, 6677.096858768515],
         [-4092.4534589927007, -6621.728794027264, 6621.728794027264],
         [6614.673805915323, -4465.275770457384, 3016.49711560821]],
    ),
    "average-aw": (
        ex1_config,
        [0.1926298812194595, 0.8573095445794346],
        [46.08771459481135, 41.96313251204174, 33.253072156574554, 23.643444165089527],
        [[-0.9451093121929747, -3.791654923247923], [-0.8405504081031215, -3.294397500707432],
         [-0.5909031286693783, -2.1520390028373035], [-0.3728261832386254, -1.3193365249351183]],
        [[77.02754698181218, 33.707424094543654], [71.6825399361699, 32.10392198085098],
         [58.82051836287906, 28.24531550886372], [43.34312037803105, 22.089697145933876]],
    ),
    "average-gradsat": (
        ex2_config,
        [2.499716899097143, 5.999716899096789, 7.999716899096789],
        [-354.0298312689599, -341.61551533622185, -305.4848162074898, -261.2195105334885],
        [[-2.0, -2.0, -2.0]] * 4,
        [[-18.961310271803807, -42.216987782047454, -39.5891989203956],
         [-18.302739680380487, -41.48070320474503, -39.02479203956074],
         [-16.30707122152194, -39.24953781898012, -37.31446815824296],
         [-13.672788855828038, -36.30439950977044, -35.056840634903494]],
    ),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_matches_recorded_per_scenario_path(scenario):
    make, tt_final, y, u, g_hat = GOLDEN[scenario]
    traj = simulate(make(scenario=scenario, t_end=0.5))
    assert traj.times.size == 797
    for got, want in (
        (traj.theta_tilde[-1], tt_final),
        (traj.y[GOLDEN_INDEX], y),
        (traj.u[GOLDEN_INDEX], u),
        (traj.g_hat[GOLDEN_INDEX], g_hat),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
