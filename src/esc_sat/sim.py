"""Fixed-step simulation of the true seeking loops and their averages.

The four scenarios share one integrator, the classical 4th-order Runge-Kutta
rule at a fixed step, and take their physics from ``plant.loop_laws``.  The
dead-zone kink makes the right-hand sides merely Lipschitz, so no step
adaptation is attempted and identical configurations reproduce
bitwise-identical trajectories.  Only the states are stored during a run.
The true loops integrate the stage law ``rhs``, which reads S and M K'
precomputed at the 2N+1 half-step times from one sine evaluation; the
averaged loops integrate ``average_rhs``.  The recorded output, input and
gradient estimate are derived from the stored states in one pass afterwards
by the reference laws.

The demodulated gradient estimate is M(t) times the measured output.  By
default the constant optimum value of the map is removed before demodulation
(``demod_remove_offset``): that term is zero-mean and vanishes from every
averaged quantity, but at moderate dither frequencies its integrated ripple
dominates the loop and buries the seeking behaviour the averaged model
predicts.  Setting the flag False gives the raw textbook loop.

Both averaged loops integrate theta_tilde alone and record the averaged
gradient ``average_estimate(theta_tilde)`` (g = H theta_tilde for rate
saturation) as ``g_hat``.  A caller forms a design's Lyapunov value from its
P and ``theta_tilde`` (anti-windup) or ``g_hat`` (rate saturation).
Average dynamics are integrated in the same clock in which the decay
certificates are stated; the 1/omega factor of the rescaled form is dropped,
equivalent to simulating in the fast time variable and relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .plant import AwController, GradSatController, QuadraticMap, loop_laws
from .signals import DitherSpec, _eval_S_M, _harmonics

__all__ = [
    "SimConfig",
    "Trajectory",
    "SimulationBlowUp",
    "simulate",
    "export_csv",
]

# scenario -> (loop kind, the averaged scenario of that loop).  The loop kind
# is the design kind that closes it: "aw" runs an AwController and "gradsat"
# a GradSatController.
SCENARIOS = {
    "input-saturation": ("aw", "average-aw"),
    "gradient-saturation": ("gradsat", "average-gradsat"),
    "average-aw": ("aw", "average-aw"),
    "average-gradsat": ("gradsat", "average-gradsat"),
}
_CONTROLLERS = {"aw": AwController, "gradsat": GradSatController}

BLOWUP_FACTOR = 1e6
# The automatic and the coarsest allowed step divide the common period by
# the larger of a count per period and a count per cycle of the fastest
# dither component.  The cycle counts bind only when that component makes
# more than 10 cycles per period; on the bundled fixtures it makes 7.
DEFAULT_STEPS_PER_PERIOD = 1000
MIN_STEPS_PER_PERIOD = 200
DEFAULT_STEPS_PER_CYCLE = 100
MIN_STEPS_PER_CYCLE = 20


class SimulationBlowUp(RuntimeError):
    """State left the admissible region; carries the time of blow-up."""

    def __init__(self, time: float):
        super().__init__(f"simulation state blew up at t = {time:.6g} s")
        self.time = time


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs: scenario, plant, dither, gains and grid."""

    scenario: str
    qmap: QuadraticMap
    dither: DitherSpec
    controller: object
    theta0: np.ndarray
    t_end: float
    dt: Optional[float] = None
    demod_remove_offset: bool = True

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if theta0.size != self.qmap.dim:
            raise ValueError("theta0 dimension mismatch")
        if self.dither.dim != self.qmap.dim:
            raise ValueError("dither dimension mismatch")
        want = _CONTROLLERS[SCENARIOS[self.scenario][0]]
        if not isinstance(self.controller, want):
            raise TypeError(
                f"scenario {self.scenario} needs controller type {want.__name__}"
            )
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        cycles = max(_harmonics(self.dither.freq_multipliers))
        dt = self.dt
        if dt is None:
            steps = max(DEFAULT_STEPS_PER_PERIOD, DEFAULT_STEPS_PER_CYCLE * cycles)
            dt = self.dither.period / steps
        if dt <= 0:
            raise ValueError("dt must be positive")
        steps = max(MIN_STEPS_PER_PERIOD, MIN_STEPS_PER_CYCLE * cycles)
        if dt > self.dither.period / steps:
            raise ValueError(f"dt = {dt} is coarser than period/{steps}")
        if round(self.t_end / dt) < 1:
            raise ValueError(
                f"t_end = {self.t_end:g} rounds to no step of dt = {dt:.6g}"
            )
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "dt", float(dt))


@dataclass
class Trajectory:
    """Time-indexed record of one run; rows share the time base."""

    times: np.ndarray
    theta: np.ndarray          # map input theta(t) (or its average counterpart)
    theta_tilde: np.ndarray    # estimation error
    y: np.ndarray
    u: np.ndarray
    g_hat: np.ndarray

    @property
    def dim(self) -> int:
        return self.theta.shape[1]


def _rk4_run(rhs, x0: np.ndarray, nstep: int, dt: float) -> np.ndarray:
    """States at the nstep + 1 grid times, one per row.

    rhs(k, x) receives the half-step index k, that is the time k * dt / 2.
    """
    xs = np.empty((nstep + 1, x0.size))
    xs[0] = x0
    # compared as a squared norm, which a NaN or inf also fails
    limit_sq = (BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(x0)))) ** 2
    x = x0
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(nstep):
        k = 2 * i
        k1 = rhs(k, x)
        k2 = rhs(k + 1, x + half * k1)
        k3 = rhs(k + 1, x + half * k2)
        k4 = rhs(k + 2, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not x @ x <= limit_sq:
            raise SimulationBlowUp((i + 1) * dt)
        xs[i + 1] = x
    return xs


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the scenario named in the config."""
    qmap, ctrl, dt = cfg.qmap, cfg.controller, cfg.dt
    offset = qmap.q_star if cfg.demod_remove_offset else 0.0
    laws = loop_laws(qmap, ctrl, offset)
    nstep = int(round(cfg.t_end / dt))
    th_star = qmap.theta_star
    if cfg.scenario != SCENARIOS[cfg.scenario][1]:  # a dithered loop
        S, M = _eval_S_M(cfg.dither, np.arange(2 * nstep + 1) * (0.5 * dt))
        MK = laws.demod_gain(M)
        M = M[::2].copy()  # read again only for g_hat at the grid times
        rhs = laws.rhs

        def stage(k, th_hat):
            return rhs(th_hat + S[k], MK[k])

        th_hat = _rk4_run(stage, cfg.theta0, nstep, dt)
        theta = th_hat + S[::2]
        theta_tilde = th_hat - th_star
        g_hat = laws.estimate(theta, M)
    else:  # an averaged loop, on theta_tilde alone
        average_rhs = laws.average_rhs
        theta_tilde = _rk4_run(
            lambda k, tt: average_rhs(tt), cfg.theta0 - th_star, nstep, dt
        )
        theta = theta_tilde + th_star
        g_hat = laws.average_estimate(theta_tilde)
    return Trajectory(
        np.arange(nstep + 1) * dt,
        theta,
        theta_tilde,
        laws.output(theta),
        laws.control(g_hat, theta),
        g_hat,
    )


def export_csv(traj: Trajectory, path: str, stride: int = 1) -> None:
    """Write t, theta, y, u and ghat columns as decimal text."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    theta, u, ghat = (
        [f"{col}_{i + 1}" for i in range(traj.dim)] for col in ("theta", "u", "ghat")
    )
    rows = np.column_stack([traj.times, traj.theta, traj.y, traj.u, traj.g_hat])
    with open(path, "w") as fh:
        fh.write(",".join(["t", *theta, "y", *u, *ghat]) + "\n")
        # one row at a time: a whole-array tolist() would hold every row's floats
        for row in rows[::stride]:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
