"""Fixed-step simulation of the true seeking loops and their averages.

The four scenarios share one integrator, the classical 4th-order Runge-Kutta
rule at a fixed step, and take their physics from ``plant.loop_laws``.  The
dead-zone kink makes the right-hand sides merely Lipschitz, so no step
adaptation is attempted and identical configurations reproduce
bitwise-identical trajectories.  A run allocates the trajectory it returns
before the first step and steps its states straight into the rows of
``theta_tilde``: an averaged loop's states are its theta_tilde, and a
dithered loop's estimate theta_hat is converted there in place once it has
run.  Every loop steps one stage form, ``stage(k, x, out)`` at half-step k:
the true loops integrate the stage law ``rhs``, which reads S and M K' at
the half-step times from one sine evaluation, and the averaged loops
integrate ``average_rhs``, which ignores k.  A run steps ``BLOCK_STEPS``
steps at a time into one block of its own: each block evaluates the dither
tables over its own half-steps only, its states are tested for blow-up
together once it ends, and the kept steps are copied into each member's
rows.  The recorded map input, output, control and gradient estimate are
derived from the states afterwards by the same laws, a block at a time, and
the first sample at which one of them is not finite ends its member as a
blow-up.  So a run's working memory is the trajectory it returns and one
block, at any horizon.

``simulate_batch`` runs configs that share one loop (scenario, map,
controller, ``demod_remove_offset``) as one (B, n) stack, so B runs pay
Python's per-call cost once per stage.  Members step in input order; each
leaves the stack when it finishes or blows up, and the last one left runs
on as a lone row.  ``simulate`` is the batch of one.  Each member gets its
own ``Trajectory`` or ``SimulationBlowUp``.  Each phase of a run, the steps
between two changes of its rows, binds the loop's laws to its state's shape
(``loop_laws(...).bind``) and broadcasts its step constants to that shape
once, so every elementwise operation of a step takes operands of one shape
and writes into a buffer of the phase; numpy's per-call cost is lowest
there.  Elementwise operations, row-wise dot products and the clip act on
each row as on a lone row; only matrix products such as ``(B, n)`` times H
may round a row apart from the lone ``(n,)`` times H.  On numpy 2.4 with
OpenBLAS they agree at n <= 3, where a member equals its lone run bitwise;
at n = 4 ... 8 a member agrees with it to about 1e-15 of each column's
maximum.  Products are taken with ``ndarray.dot``, which calls the same
BLAS routine as ``@`` and gives the same bits at half the per-call cost on
these small states.  A stack's row-wise dot products, its quadratic form in
``plant.loop_laws`` and its norm test here, stay a row-wise matmul.

The ``esc_sat.sim`` logger records one DEBUG line per phase: its rows,
steps, seconds and microseconds per step.

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

import functools
import logging
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .plant import AwController, GradSatController, QuadraticMap, loop_laws
from .signals import DitherSpec, eval_S_M

__all__ = [
    "SCENARIOS",
    "SimConfig",
    "Trajectory",
    "SimulationBlowUp",
    "simulate",
    "simulate_batch",
    "export_csv",
]

log = logging.getLogger(__name__)

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
# A run steps, tests for blow-up, derives its signals and writes its CSV rows
# this many steps at a time, so that a whole-horizon array it does not
# return never exists.
BLOCK_STEPS = 1024
# The automatic and the coarsest allowed step divide each cycle of the
# fastest dither component into a count of steps, where that component is
# counted as making at least MIN_CYCLES_PER_PERIOD cycles per common period.
# On the bundled fixtures it makes 7, so they step at period/1000.
MIN_CYCLES_PER_PERIOD = 10
DEFAULT_STEPS_PER_CYCLE = 100
MIN_STEPS_PER_CYCLE = 20


class SimulationBlowUp(RuntimeError):
    """State left the admissible region, or the recorded ``signal`` (a
    ``Trajectory`` field) is not finite; carries the time of blow-up."""

    def __init__(self, time: float, signal: Optional[str] = None):
        what = "state blew up" if signal is None else f"signal {signal} is not finite"
        super().__init__(f"simulation {what} at t = {time:.6g} s")
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
        if not np.all(np.isfinite(theta0)):
            raise ValueError("theta0 must be finite")
        if self.dither.dim != self.qmap.dim:
            raise ValueError("dither dimension mismatch")
        want = _CONTROLLERS[SCENARIOS[self.scenario][0]]
        if not isinstance(self.controller, want):
            raise TypeError(
                f"scenario {self.scenario} needs controller type {want.__name__}"
            )
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        cycles = max(MIN_CYCLES_PER_PERIOD, *self.dither.harmonics)
        dt = self.dt
        if dt is None:
            dt = self.dither.period / (DEFAULT_STEPS_PER_CYCLE * cycles)
        if dt <= 0:
            raise ValueError("dt must be positive")
        steps = MIN_STEPS_PER_CYCLE * cycles
        if dt > self.dither.period / steps:
            raise ValueError(f"dt = {dt} is coarser than period/{steps}")
        if np.isnan(dt):
            raise ValueError("dt must be finite")
        if not np.isfinite(self.t_end / dt):
            raise ValueError(
                f"t_end = {self.t_end:g} at dt = {dt:.6g} takes too many steps to count"
            )
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


def _rk4_run(stage_for, records: list, dts: list) -> list:
    """Steps each member into its record; returns each member's
    ``SimulationBlowUp``, or None for a member that ran to its end.

    ``records[b]`` holds member b's states at its ``len(records[b])`` grid
    times, one per row: row 0 starts the member and the steps are written
    into the rows after it.  The members step together, in input order, as
    one stack, each row taking a lone run's operations.  Each phase runs
    until its shortest member finishes or a row blows up, and the member
    left alone runs on as a lone 1-D row.  A phase allocates its stages,
    its temporaries, its step constants and one block of steps once, all of
    its state's shape, and steps the state in place.

    A phase steps in blocks of at most ``BLOCK_STEPS`` steps.  For each
    block, ``stage_for(rows, window)`` gives the stage law of the members at
    ``rows``, an index array of the members, or one int for a lone row, over
    the block's ``window``, the slice of half-step indices it steps through.
    A stage is ``stage(k, x, out)``, where k counts half-steps from the
    window's start, that is the time (window.start + k) * dt / 2; it writes
    its value at x into ``out``, which it may not alias with x.  After each
    block, every state it stepped is tested at once, and a blow-up ends the
    phase at its first offending step; the block's later steps are
    discarded, and the kept ones are copied into each member's record.
    Overflow is silenced while a block steps, since only those discarded
    steps can overflow: a kept state lies within the limit, far inside the
    float range unless the initial state is itself near 1e148.
    """
    nsteps = [len(record) - 1 for record in records]
    # compared as a squared norm, which a NaN or inf also fails; a float64
    # limit, whose square overflows to inf where a float's would raise
    with np.errstate(over="ignore"):
        limit_sq = np.array([(BLOWUP_FACTOR * (1.0 + np.linalg.norm(r[0]))) ** 2 for r in records])
    out = [None] * len(records)
    rows, x, done = np.arange(len(records)), np.array([r[0] for r in records]), 0
    while rows.size:
        lone = rows.size == 1
        sel = int(rows[0]) if lone else rows  # one int for a lone row
        x = np.array(x[0] if lone else x)  # this phase's state, stepped in place
        stop = min(nsteps[b] for b in rows)
        col = np.asarray(dts)[sel][..., None]
        dt, half, sixth, two = (
            np.broadcast_to(c, x.shape).copy() for c in (col, 0.5 * col, col / 6.0, 2.0)
        )
        k1, k2, k3, k4, y = (np.empty(x.shape) for _ in range(5))
        limit = limit_sq[sel]
        buf = np.empty((min(BLOCK_STEPS, stop - done), *x.shape))
        ok, first = True, done
        start = time.perf_counter()
        while done < stop:
            m = min(BLOCK_STEPS, stop - done)
            stage = stage_for(sel, slice(2 * done, 2 * (done + m) + 1))
            block = buf[:m]
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(m):
                    k = 2 * j
                    stage(k, x, k1)
                    stage(k + 1, np.add(x, np.multiply(half, k1, out=y), out=y), k2)
                    stage(k + 1, np.add(x, np.multiply(half, k2, out=y), out=y), k3)
                    stage(k + 2, np.add(x, np.multiply(dt, k3, out=y), out=y), k4)
                    # x + dt / 6 * (k1 + 2 * (k2 + k3) + k4), in that order
                    np.multiply(two, np.add(k2, k3, out=y), out=y)
                    np.add(np.add(k1, y, out=y), k4, out=y)
                    np.add(x, np.multiply(sixth, y, out=y), out=x)
                    block[j] = x
                # each stepped state's x @ x, row-wise, bitwise the lone
                # row's x.dot(x)
                sq = np.matmul(block[..., None, :], block[..., :, None])[..., 0, 0]
                fits = np.less_equal(sq, limit)
            if not fits.all():
                # the phase ends at the first step where a row left the limit
                m = int(np.argmin(fits.reshape(m, -1).all(axis=1))) + 1
                ok, x, stop = fits[m - 1], block[m - 1], done + m
            kept = block[:m].reshape(m, rows.size, -1)
            for i, b in enumerate(rows):
                records[b][done + 1:done + m + 1] = kept[:, i]
            done += m
        steps = done - first
        seconds = time.perf_counter() - start
        log.debug(
            "phase: %d rows, %d steps, %.6f s, %.2f us/step",
            rows.size, steps, seconds, 1e6 * seconds / steps,
        )
        # a lone row's verdict and 1-D state take the stack's shapes again
        ok, x = np.broadcast_to(ok, rows.size), np.reshape(x, (rows.size, -1))
        for b in rows[~ok]:
            out[b] = SimulationBlowUp(done * dts[b])
        keep = ok & (done < np.array(nsteps)[rows])
        rows, x = rows[keep], x[keep]
    return out


def _same(a, b) -> bool:
    """Equal field by field, arrays by value."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return bool(np.array_equal(a, b))


def _run(cfgs: list) -> list:
    """The run of each config, in input order: its ``Trajectory`` or its
    ``SimulationBlowUp``.  The configs share one loop and step as one batch,
    each member straight into the ``theta_tilde`` rows of its trajectory."""
    if not cfgs:
        return []
    first = cfgs[0]
    for cfg in cfgs[1:]:
        if not (
            (cfg.scenario, cfg.demod_remove_offset)
            == (first.scenario, first.demod_remove_offset)
            and _same(cfg.qmap, first.qmap)
            and _same(cfg.controller, first.controller)
        ):
            raise ValueError(
                "a batch shares one loop: scenario, map, controller and "
                "demod_remove_offset"
            )
    qmap = first.qmap
    offset = qmap.q_star if first.demod_remove_offset else 0.0
    laws = loop_laws(qmap, first.controller, offset)
    th_star = qmap.theta_star
    nsteps = [int(round(cfg.t_end / cfg.dt)) for cfg in cfgs]
    dts = [cfg.dt for cfg in cfgs]
    dithered = first.scenario != SCENARIOS[first.scenario][1]
    n = qmap.dim
    try:
        # every output before the first step, in field order: times, theta,
        # theta_tilde, y, u, g_hat
        trajs = [
            Trajectory(*(np.empty((N + 1, *shape)) for shape in ((), (n,), (n,), (), (n,), (n,))))
            for N in nsteps
        ]
    except (MemoryError, ValueError) as exc:
        N = max(nsteps)
        cfg = cfgs[nsteps.index(N)]
        raise ValueError(
            f"t_end = {cfg.t_end:g} at dt = {cfg.dt:.6g} takes {N:.4g} steps, "
            "too many to allocate"
        ) from exc
    # the laws bound once per phase, to its state's shape: a phase has fewer
    # rows than the one before it, so its shape names it
    bind = functools.cache(laws.bind)

    if dithered:

        def stage_for(rows, window):
            # S and M K' of the members at rows over the block's half-steps,
            # time-major so that one index gives the phase's rows
            half_steps = np.arange(window.start, window.stop)

            def tables(b):
                S_b, M_b = eval_S_M(cfgs[b].dither, half_steps * (0.5 * dts[b]))
                return S_b, laws.demod_gain(M_b)

            if isinstance(rows, int):
                S, MK = tables(rows)
            else:
                S, MK = (np.stack(t, axis=1) for t in zip(*map(tables, rows)))
            rhs = bind(S.shape[1:]).rhs
            theta = np.empty(S.shape[1:])

            def stage(k, th_hat, out):
                return rhs(np.add(th_hat, S[k], out=theta), MK[k], out)

            return stage

    else:  # an averaged loop, on theta_tilde alone

        def stage_for(rows, window):
            average_rhs = bind((*np.shape(rows), n)).average_rhs
            return lambda k, x, out: average_rhs(x, out)

    # a dithered loop steps theta_hat in theta_tilde's rows, converted below
    for cfg, traj in zip(cfgs, trajs):
        traj.theta_tilde[0] = cfg.theta0 if dithered else cfg.theta0 - th_star
    blowups = _rk4_run(stage_for, [traj.theta_tilde for traj in trajs], dts)
    for b, traj in enumerate(trajs):
        if blowups[b]:
            continue
        # the signals block by block, from the same laws as the steps.  A
        # finite state can still give a signal that overflows, so overflow
        # is silenced and the first sample at which a recorded signal is not
        # finite ends the member as a blow-up at its time
        for lo in range(0, nsteps[b] + 1, BLOCK_STEPS):
            i = slice(lo, lo + BLOCK_STEPS)
            times, theta, theta_tilde, y, u, g_hat = (
                getattr(traj, f.name)[i] for f in fields(traj)
            )
            np.multiply(np.arange(lo, lo + times.size), dts[b], out=times)
            with np.errstate(over="ignore", invalid="ignore"):
                if dithered:
                    S_b, M_b = eval_S_M(cfgs[b].dither, times)
                    np.add(theta_tilde, S_b, out=theta)
                    np.subtract(theta_tilde, th_star, out=theta_tilde)
                    g_hat[...] = laws.estimate(theta, M_b)
                else:
                    np.add(theta_tilde, th_star, out=theta)
                    g_hat[...] = laws.average_estimate(theta_tilde)
                y[...] = laws.output(theta)
                u[...] = laws.control(g_hat, theta)
            # finite[s, j]: recorded signal s is finite at the block's sample j
            signals = {"theta": theta, "y": y, "u": u, "g_hat": g_hat}
            finite = np.stack(
                [np.isfinite(a).reshape(times.size, -1).all(axis=1) for a in signals.values()]
            )
            if not finite.all():
                j = int(np.argmin(finite.all(axis=0)))
                signal = list(signals)[int(np.argmin(finite[:, j]))]
                blowups[b] = SimulationBlowUp(float(times[j]), signal)
                break
    # a blow-up is its member's result
    return [blowup or traj for blowup, traj in zip(blowups, trajs)]


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the scenario named in the config."""
    (result,) = _run([cfg])
    if isinstance(result, SimulationBlowUp):
        raise result
    return result


def simulate_batch(cfgs) -> list:
    """Run configs that share one loop (scenario, map, controller and
    ``demod_remove_offset``) as one batch; their dithers, steps, horizons
    and initial states may differ.

    Returns, in input order, each member's ``Trajectory`` or its own
    ``SimulationBlowUp``; one member's blow-up leaves the others running.
    Configs of different loops are a ``ValueError``.
    """
    return _run(list(cfgs))


def export_csv(traj: Trajectory, path: str, stride: int = 1) -> None:
    """Write t, theta, y, u and ghat columns as decimal text."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    theta, u, ghat = (
        [f"{col}_{i + 1}" for i in range(traj.dim)] for col in ("theta", "u", "ghat")
    )
    with open(path, "w") as fh:
        fh.write(",".join(["t", *theta, "y", *u, *ghat]) + "\n")
        # a block of rows at a time, so that no whole-trajectory table exists
        for lo in range(0, traj.times.size, BLOCK_STEPS * stride):
            i = slice(lo, lo + BLOCK_STEPS * stride, stride)
            rows = np.column_stack(
                [traj.times[i], traj.theta[i], traj.y[i], traj.u[i], traj.g_hat[i]]
            )
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
