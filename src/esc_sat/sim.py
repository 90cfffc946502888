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
by the same laws, each over the whole record.

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

import logging
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .plant import AwController, GradSatController, QuadraticMap, loop_laws
from .signals import DitherSpec, eval_S_M

__all__ = [
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
# The automatic and the coarsest allowed step divide each cycle of the
# fastest dither component into a count of steps, where that component is
# counted as making at least MIN_CYCLES_PER_PERIOD cycles per common period.
# On the bundled fixtures it makes 7, so they step at period/1000.
MIN_CYCLES_PER_PERIOD = 10
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


def _rk4_run(stage_for, x0: np.ndarray, nsteps: list, dts: list) -> list:
    """Each member's states at its nsteps[b] + 1 grid times, one per row, or
    its ``SimulationBlowUp``.

    Row b of the (B, n) array x0 starts member b.  The members step
    together, in input order, as one stack, each row taking a lone run's
    operations.  Each phase runs until its shortest member finishes or a row
    blows up, and the member left alone runs on as a lone 1-D row.  A phase
    allocates its stages, its temporaries and its step constants once, all
    of its state's shape, and steps the state in place.
    ``stage_for(rows, window)`` gives the stage law ``stage(k, x, out)`` of
    the members at ``rows``, a slice or an index array of x0's rows, or one
    int for a lone row, over the phase's ``window``, the slice of half-step
    indices it steps through; k counts half-steps from the window's start,
    that is the time (window.start + k) * dt / 2.  A stage writes its
    value into ``out``, which it may not alias with x.
    """
    xs = np.empty((max(nsteps) + 1, *x0.shape))  # time-major, as the stack steps
    xs[0] = x0
    # compared as a squared norm, which a NaN or inf also fails
    limit_sq = np.array([(BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(x)))) ** 2 for x in x0])
    out = [xs[:nstep + 1, b] for b, nstep in enumerate(nsteps)]
    rows, x, done = np.arange(len(nsteps)), x0, 0
    while rows.size:
        lone = rows.size == 1
        # one int for a lone row, a slice for all rows, else an index array,
        # so that the stage reads views of its tables where it can
        sel = int(rows[0]) if lone else slice(None) if rows.size == len(nsteps) else rows
        x = np.array(x[0] if lone else x)  # this phase's state, stepped in place
        stop = min(nsteps[b] for b in rows)
        stage = stage_for(sel, slice(2 * done, 2 * stop + 1))
        col = np.asarray(dts)[sel][..., None]
        dt, half, sixth, two = (
            np.broadcast_to(c, x.shape).copy() for c in (col, 0.5 * col, col / 6.0, 2.0)
        )
        k1, k2, k3, k4, y = (np.empty(x.shape) for _ in range(5))
        limit = limit_sq[sel]
        if not lone:
            # each row's x @ x, bitwise the lone row's x.dot(x)
            sq = np.empty((rows.size, 1, 1))
            x_rows, x_cols, x_sq = x[:, None, :], x[:, :, None], sq[:, 0, 0]
            ok = np.empty(rows.size, dtype=bool)
        # the phase's steps go straight into xs where it has a view of them;
        # an index array's rows are gathered into a contiguous record instead
        gathered = isinstance(sel, np.ndarray)
        record = np.empty((stop - done, *x.shape)) if gathered else xs[done + 1:stop + 1, sel]
        start = time.perf_counter()
        for j in range(stop - done):
            k = 2 * j
            stage(k, x, k1)
            stage(k + 1, np.add(x, np.multiply(half, k1, out=y), out=y), k2)
            stage(k + 1, np.add(x, np.multiply(half, k2, out=y), out=y), k3)
            stage(k + 2, np.add(x, np.multiply(dt, k3, out=y), out=y), k4)
            # x + dt / 6 * (k1 + 2 * (k2 + k3) + k4), in that order
            np.multiply(two, np.add(k2, k3, out=y), out=y)
            np.add(np.add(k1, y, out=y), k4, out=y)
            np.add(x, np.multiply(sixth, y, out=y), out=x)
            record[j] = x
            if lone:
                # an np.bool_ is tested as it is, since its .all() costs 2 us
                ok = x.dot(x) <= limit
                if not ok:
                    break
            else:
                np.matmul(x_rows, x_cols, out=sq)
                np.less_equal(x_sq, limit, out=ok)
                # Python's all() over the list costs a fraction of ok.all()
                if not all(ok.tolist()):
                    break
        steps = j + 1
        seconds = time.perf_counter() - start
        if gathered:  # cut at a blow-up
            xs[done + 1:done + 1 + steps, sel] = record[:steps]
        log.debug(
            "phase: %d rows, %d steps, %.6f s, %.2f us/step",
            rows.size, steps, seconds, 1e6 * seconds / steps,
        )
        done += steps
        # a lone row's np.bool_ and 1-D state take the stack's shapes again
        ok, x = np.reshape(ok, rows.size), np.reshape(x, (rows.size, -1))
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
    ``SimulationBlowUp``.  The configs share one loop and step as one batch."""
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
    n_max = max(nsteps)
    try:
        if dithered:
            # S and M K' at each member's 2N+1 half-step times, time-major so
            # that one index gives the stack's rows; zero past a member's end
            shape = (2 * n_max + 1, len(cfgs), qmap.dim)
            S, MK = np.zeros(shape), np.zeros(shape)
        else:
            # the tables are twice the state record that _rk4_run fills, so
            # they fail first; an averaged loop has none, so the record itself
            # is tried here, untouched
            np.empty((n_max + 1, len(cfgs), qmap.dim))
    except (MemoryError, ValueError) as exc:
        cfg = cfgs[nsteps.index(n_max)]
        raise ValueError(
            f"t_end = {cfg.t_end:g} at dt = {cfg.dt:.6g} takes {n_max:.4g} steps, "
            "too many to allocate"
        ) from exc
    if dithered:
        for b, cfg in enumerate(cfgs):
            S_b, M_b = eval_S_M(cfg.dither, np.arange(2 * nsteps[b] + 1) * (0.5 * cfg.dt))
            S[:len(S_b), b], MK[:len(M_b), b] = S_b, laws.demod_gain(M_b)

        def stage_for(rows, window):
            # views for a slice or an int; an index array gathers the window
            S_r, MK_r = S[window, rows], MK[window, rows]
            rhs = laws.bind(S_r.shape[1:]).rhs
            theta = np.empty(S_r.shape[1:])

            def stage(k, th_hat, out):
                return rhs(np.add(th_hat, S_r[k], out=theta), MK_r[k], out)

            return stage

        x0 = np.array([cfg.theta0 for cfg in cfgs])
    else:  # an averaged loop, on theta_tilde alone

        def stage_for(rows, window):
            average_rhs = laws.bind(x0[rows].shape).average_rhs
            return lambda k, tt, out: average_rhs(tt, out)

        x0 = np.array([cfg.theta0 - th_star for cfg in cfgs])
    states = _rk4_run(stage_for, x0, nsteps, dts)
    if dithered:
        del S, MK  # dropped before the records are built
    results = list(states)  # a blow-up is its member's result
    for b, x in enumerate(states):
        if isinstance(x, SimulationBlowUp):
            continue
        times = np.arange(nsteps[b] + 1) * dts[b]
        if dithered:
            # the tables' even rows bitwise: i * dt is (2 * i) * (0.5 * dt)
            S_b, M_b = eval_S_M(cfgs[b].dither, times)
            theta = x + S_b
            theta_tilde = x - th_star
            g_hat = laws.estimate(theta, M_b)
        else:
            theta_tilde = np.ascontiguousarray(x)  # one member's rows of the record
            theta = theta_tilde + th_star
            g_hat = laws.average_estimate(theta_tilde)
        y, u = laws.output(theta), laws.control(g_hat, theta)
        results[b] = Trajectory(times, theta, theta_tilde, y, u, g_hat)
    return results


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
    rows = np.column_stack([traj.times, traj.theta, traj.y, traj.u, traj.g_hat])
    with open(path, "w") as fh:
        fh.write(",".join(["t", *theta, "y", *u, *ghat]) + "\n")
        # one row at a time: a whole-array tolist() would hold every row's floats
        for row in rows[::stride]:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
