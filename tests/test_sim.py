import dataclasses

import numpy as np
import pytest

from esc_sat.plant import (
    AwController,
    GradSatController,
    QuadraticMap,
    SaturationBounds,
)
from esc_sat.signals import DitherSpec, eval_S
from esc_sat.sim import (
    SimConfig,
    SimulationBlowUp,
    export_csv,
    simulate,
)
from conftest import (
    EX1_ALPHA,
    EX1_H0,
    EX1_K,
    EX1_KAW,
    EX2_K,
    EX2_VERTICES,
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
    S = eval_S(cfg.dither, traj.times)
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


def test_blowup_detected_with_time():
    # anti-windup gain with the wrong sign feeds the dead-zone back
    # positively: the estimate runs away once saturated
    ctrl = AwController(EX1_K, -np.eye(2))
    cfg = ex1_config(controller=ctrl, t_end=60.0)
    with pytest.raises(SimulationBlowUp) as exc:
        simulate(cfg)
    assert 0.0 < exc.value.time <= 60.0


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
