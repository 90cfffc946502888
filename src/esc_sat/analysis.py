"""Post-hoc certification of simulated runs.

Everything here is an oracle over immutable trajectories or closed-form
signal definitions: exponential-decay fits, true-versus-average deviation,
residual-band checks, randomized sector-condition sampling, and period-mean
quadrature for the zero-mean terms the averaging step discards.

The two sector samplers, property tests of ``plant.deadzone``, evaluate one
form on plain blocks of uniform draws; the two period-mean oracles share
one periodic trapezoid rule over the dither period, summed one block of
nodes at a time, and ``sup_deviation`` resamples one block of samples at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .plant import (
    AwController,
    QuadraticMap,
    SaturationBounds,
    deadzone,
    loop_laws,
    perturbation_terms,
)
from .signals import DitherSpec, eval_S_M
from .sim import Trajectory
from .synthesis import GradSatDesign

__all__ = [
    "DecayFit",
    "BandReport",
    "ZeroMeanReport",
    "fit_decay",
    "sup_deviation",
    "check_convergence_bands",
    "sample_deadzone_sector_global",
    "sample_deadzone_sector_regional",
    "zero_mean_report",
    "average_rhs_consistency",
    "draw_interior_states",
]

SECTOR_SLACK_TOL = 1e-12
# Calibration of check_convergence_bands: the asymptotic band statements hide
# their constants, so fixed factors make them checkable, the same for every
# run of a parameter sweep.
C_THETA = 10.0
C_Y = 100.0
TAIL_FRACTION = 0.2
# distance draw_interior_states keeps between the dithered input path and the
# input bounds
INTERIOR_MARGIN = 0.05
# per-state nodes along a path that leaves the bounds, where none is exact
SATURATING_NODES = 20001


# ---------------------------------------------------------------------------
# quadrature

# Rows per block of the sector samplers' draws and of the period-mean
# quadrature nodes: the memory of each is bounded by this, not by the trial
# or node count.
_BLOCK = 1024


def _period_blocks(dither: DitherSpec, nodes: int):
    """Consecutive blocks of at most _BLOCK nodes of the periodic trapezoid
    rule over [0, T] on nodes - 1 points, exact on trigonometric polynomials
    of degree below nodes - 1 (Trefethen & Weideman, 2014): each block's
    weights and its slice of np.linspace(0, T, nodes), bit for bit."""
    step = dither.period / (nodes - 1)
    for start in range(0, nodes, _BLOCK):
        stop = min(start + _BLOCK, nodes)
        ts = np.arange(start, stop, dtype=float) * step
        wq = np.full(stop - start, step)
        if start == 0:
            wq[0] *= 0.5
        if stop == nodes:
            ts[-1] = dither.period
            wq[-1] *= 0.5
        yield wq, ts


# ---------------------------------------------------------------------------
# decay fitting

@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a signal norm."""

    eta_hat: float
    kappa_hat: float
    amplitude: float
    window: tuple[float, float]
    residual: float
    truncated: bool = False


_SIGNALS = ("theta_tilde", "g_hat", "u", "theta")


def fit_decay(
    traj: Trajectory,
    signal: str = "theta_tilde",
    window: Optional[tuple[float, float]] = None,
) -> DecayFit:
    """Fit norm(signal) ~ amplitude * exp(-eta_hat * t) on a time window.

    The fit runs on the logarithm, so the signal must stay positive there;
    trailing samples at exact zero are dropped and flagged as a truncation.
    """
    if signal not in _SIGNALS:
        raise ValueError(f"unknown signal selector {signal!r}")
    norms = np.linalg.norm(getattr(traj, signal), axis=1)
    t = traj.times
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    tw = t[mask]
    nw = norms[mask]
    if tw.size < 2:
        raise ValueError("window selects fewer than two samples")
    truncated = False
    zero = np.flatnonzero(nw <= 0.0)
    if zero.size:
        if zero[0] < 2:
            raise ValueError("signal is zero at the start of the window")
        tw = tw[: zero[0]]
        nw = nw[: zero[0]]
        truncated = True
    slope, intercept = np.polyfit(tw, np.log(nw), 1)
    pred = intercept + slope * tw
    residual = float(np.sqrt(np.mean((np.log(nw) - pred) ** 2)))
    amplitude = float(np.exp(intercept))
    return DecayFit(
        eta_hat=float(-slope),
        kappa_hat=amplitude / float(nw[0]) * float(np.exp(slope * tw[0])),
        amplitude=amplitude,
        window=(float(tw[0]), float(tw[-1])),
        residual=residual,
        truncated=truncated,
    )


def sup_deviation(a: Trajectory, b: Trajectory, signal: str = "theta_tilde") -> float:
    """max over a's samples of the norm of the signal difference.

    b is resampled onto a's time base by linear interpolation, one block of
    a's samples at a time; the time spans must overlap.
    """
    if signal not in _SIGNALS:
        raise ValueError(f"unknown signal selector {signal!r}")
    sa_full, sb_full = getattr(a, signal), getattr(b, signal)
    if sa_full.shape[1] != sb_full.shape[1]:
        raise ValueError(
            f"trajectories differ in dimension: {sa_full.shape[1]} and {sb_full.shape[1]}"
        )
    lo = max(a.times[0], b.times[0])
    hi = min(a.times[-1], b.times[-1])
    if lo >= hi:
        raise ValueError("trajectories cover disjoint time spans")
    # np.interp copies a strided column on every call, so b's columns are
    # made contiguous once
    columns = sb_full.T.copy()
    worst = -np.inf
    for start in range(0, len(a.times), _BLOCK):
        t = a.times[start : start + _BLOCK]
        mask = (t >= lo) & (t <= hi)
        ta = t[mask]
        sa = sa_full[start : start + _BLOCK][mask]
        sb = np.vstack([np.interp(ta, b.times, column) for column in columns]).T
        worst = np.max(np.linalg.norm(sa - sb, axis=1), initial=worst)
    if worst == -np.inf:
        raise ValueError("no sample of a lies where the time spans overlap")
    return float(worst)


# ---------------------------------------------------------------------------
# residual bands

@dataclass(frozen=True)
class BandReport:
    r_theta: float
    theta_band: float
    theta_ok: bool
    r_y: float
    y_band: float
    y_ok: bool
    tail_start: float


def check_convergence_bands(
    traj: Trajectory, qmap: QuadraticMap, dither: DitherSpec
) -> BandReport:
    """Tail residuals of theta and y against O(a + 1/w) and O(a^2 + 1/w^2).

    The bands are C_THETA (a + 1/w) and C_Y (a^2 + 1/w^2) over the last
    TAIL_FRACTION of the run.
    """
    t = traj.times
    tail_start = t[0] + (1.0 - TAIL_FRACTION) * (t[-1] - t[0])
    tail = t >= tail_start
    r_theta = float(
        np.max(np.linalg.norm(traj.theta[tail] - qmap.theta_star, axis=1))
    )
    r_y = float(np.max(np.abs(traj.y[tail] - qmap.q_star)))
    a = float(np.sqrt(np.sum(dither.amplitudes**2)))
    omega = 2.0 * np.pi / dither.period
    theta_band = C_THETA * (a + 1.0 / omega)
    y_band = C_Y * (a**2 + 1.0 / omega**2)
    return BandReport(
        r_theta=r_theta,
        theta_band=theta_band,
        theta_ok=r_theta <= theta_band,
        r_y=r_y,
        y_band=y_band,
        y_ok=r_y <= y_band,
        tail_start=float(tail_start),
    )


# ---------------------------------------------------------------------------
# sector-condition sampling

def _check_trials(trials: int) -> None:
    # a maximum over no samples is -inf, which would pass any slack test
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _sector_max(psi: np.ndarray, lam: np.ndarray, v: np.ndarray) -> float:
    """max over rows of psi' diag(lam) (psi - v)."""
    return float(np.max((psi * (lam * (psi - v))).sum(1)))


def sample_deadzone_sector_global(
    bounds: SaturationBounds,
    theta_star: np.ndarray,
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Max slack of psi(th)' L (psi(th) - tt) over random states and weights.

    tt = th - theta_star, so the pair satisfies the interior-optimizer
    relation the sector argument rests on.  Any positive diagonal weight must
    keep the form nonpositive; the returned maximum should not exceed
    roundoff.  Each block of trials draws th / limits from U(-3, 3)^n, then
    the weight diagonals from U(0.1, 10)^n.
    """
    _check_trials(trials)
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if np.any(np.abs(theta_star) >= bounds.limits):
        raise ValueError("theta_star must lie strictly inside the bounds")
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for start in range(0, trials, _BLOCK):
        shape = (min(_BLOCK, trials - start), bounds.dim)
        theta_av = rng.uniform(-3.0, 3.0, size=shape) * bounds.limits
        lam = rng.uniform(0.1, 10.0, size=shape)
        psi = deadzone(theta_av, bounds)
        worst = max(worst, _sector_max(psi, lam, theta_av - theta_star))
    return worst


def sample_deadzone_sector_regional(
    design: GradSatDesign,
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Max slack of psi(Kg)' U (psi(Kg) - Lg) over the admissible set.

    Candidates g are drawn in blocks from a box sized so that a useful
    fraction satisfies |(K - L)_l g| <= ubar_l; the admissible ones are kept,
    up to the trials still needed, and get one block of weight diagonals
    from U(0.1, 10)^n.  Once 1000 candidates per trial have been drawn
    without enough admissible ones (a rejection rate above 99.9%), the
    admissible set is degenerate for sampling and RuntimeError is raised.
    """
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    limits = design.bounds.limits
    diff = design.k - design.l
    box = 2.0 * float(np.min(limits / np.maximum(np.abs(diff).sum(1), 1e-12)))
    worst = -np.inf
    accepted = drawn = 0
    while accepted < trials:
        if drawn >= 1000 * trials:
            raise RuntimeError("admissible set rejected more than 99.9% of samples")
        cand = rng.uniform(-box, box, size=(_BLOCK, design.dim))
        drawn += _BLOCK
        g = cand[np.all(np.abs(cand @ diff.T) <= limits, axis=1)]
        g = g[: trials - accepted]
        if not len(g):
            continue
        accepted += len(g)
        ups = rng.uniform(0.1, 10.0, size=g.shape)
        psi = deadzone(g @ design.k.T, design.bounds)
        worst = max(worst, _sector_max(psi, ups, g @ design.l.T))
    return worst


# ---------------------------------------------------------------------------
# period means

@dataclass(frozen=True)
class TermMean:
    mean: float
    linf: float

    @property
    def rel(self) -> float:
        return abs(self.mean) / max(self.linf, 1e-300)


@dataclass(frozen=True)
class ZeroMeanReport:
    terms: dict[str, TermMean] = field(default_factory=dict)

    def max_rel(self, prefixes: Sequence[str]) -> float:
        vals = [
            tm.rel
            for name, tm in self.terms.items()
            if any(name.startswith(p) for p in prefixes)
        ]
        if not vals:
            raise ValueError(f"no terms match prefixes {prefixes}")
        return max(vals)


def zero_mean_report(
    dither: DitherSpec,
    qmap: QuadraticMap,
    theta_tilde: np.ndarray,
    nodes: int = 20001,
) -> ZeroMeanReport:
    """Period means of every term the averaging step discards.

    Both diagonal conventions of the multiplicative perturbation are
    measured: the mean-free form averages to zero, the literal form to one.
    Every term is evaluated one block of quadrature nodes at a time, and
    each term's weighted sum and largest magnitude are carried from block
    to block.  The consistency check in ``average_rhs_consistency`` pins
    the mean-free convention as the one reproducing the averaged loop.
    """
    if nodes < 2:
        raise ValueError(f"nodes must be at least 2, got {nodes}")
    sums, peaks = {}, {}
    for wq, ts in _period_blocks(dither, nodes):
        pt = perturbation_terms(dither, qmap, ts, theta_tilde)
        # term name pattern (indexed by the entry's position) -> values per node
        series = {
            "S[{0}]": pt.S,
            "M[{0}]": pt.M,
            "delta_mean_free[{0},{1}]": pt.delta,
            "delta_literal[{0},{0}]": np.diagonal(pt.delta, axis1=1, axis2=2) + 1.0,
            "w[{0}]": pt.w,
            "varsigma[{0}]": pt.varsigma,
        }
        for pattern, values in series.items():
            sums[pattern] = sums.get(pattern, 0.0) + np.tensordot(wq, values, axes=(0, 0))
            peaks[pattern] = np.maximum(peaks.get(pattern, 0.0), np.max(np.abs(values), axis=0))
    terms: dict[str, TermMean] = {}
    for pattern, total in sums.items():
        means, linf = total / dither.period, peaks[pattern]
        for idx in np.ndindex(means.shape):
            terms[pattern.format(*idx)] = TermMean(float(means[idx]), float(linf[idx]))
    return ZeroMeanReport(terms=terms)


def draw_interior_states(
    qmap: QuadraticMap,
    dither: DitherSpec,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Estimation errors whose dithered input path stays strictly unsaturated."""
    if qmap.input_bounds is None:
        raise ValueError("map has no input bounds")
    rng = np.random.default_rng(seed)
    room = qmap.input_bounds.limits - dither.amplitudes - INTERIOR_MARGIN
    if np.any(room <= 0):
        raise ValueError("dither amplitudes leave no unsaturated interior")
    lo = -room - qmap.theta_star
    hi = room - qmap.theta_star
    return rng.uniform(lo, hi, size=(count, qmap.dim))


def average_rhs_consistency(
    dither: DitherSpec,
    qmap: QuadraticMap,
    ctrl: AwController,
    theta_tilde_states: np.ndarray,
    demod_remove_offset: bool = True,
) -> float:
    """Max relative gap between the period-averaged loop and its model.

    For each frozen estimation error the true right-hand side (demodulated
    gradient times K minus the anti-windup term, the simulator's stage law
    ``rhs``) is averaged over one period and compared with its model
    ``average_rhs``, K H tt - (K H + K_aw) psi(tt + theta_star), psi being
    the dead-zone on the map's input bounds; on unsaturated states, K H tt.
    This binding check fixes the mean-free perturbation convention.  With
    whole harmonics h_i, a path strictly inside the bounds has an integrand
    of degree 3 max h_i, averaged exactly, all such states as one stack;
    each other state is averaged on SATURATING_NODES nodes.  Both rules run
    one block of nodes at a time.
    """
    if not isinstance(ctrl, AwController):
        raise TypeError("the consistency check closes the input-saturation loop")
    states = np.atleast_2d(np.asarray(theta_tilde_states, dtype=float))
    if states.ndim != 2 or states.shape[1] != qmap.dim:
        raise ValueError(
            f"theta_tilde_states must have shape (count, {qmap.dim}), got {states.shape}"
        )
    if not len(states):
        # a maximum over no states is 0, which would pass any tolerance
        raise ValueError("theta_tilde_states must hold at least one state")
    if not np.all(np.isfinite(states)):
        raise ValueError("theta_tilde_states must be finite")
    laws = loop_laws(qmap, ctrl, qmap.q_star if demod_remove_offset else 0.0)
    theta = states + qmap.theta_star

    def mean_rhs(nodes, stacks):
        # the period mean of rhs along each stack of states, from one S and M
        # per block of nodes
        sums = [0.0] * len(stacks)
        for wq, ts in _period_blocks(dither, nodes):
            S, M = eval_S_M(dither, ts)
            mk = laws.demod_gain(M)
            for k, rows in enumerate(stacks):
                path = (S[:, None] + rows).reshape(-1, qmap.dim)
                rhs = laws.rhs(path, np.repeat(mk, len(rows), axis=0))
                sums[k] = sums[k] + np.tensordot(wq, rhs.reshape(len(S), *rows.shape), (0, 0))
        return np.vstack(sums) / dither.period

    inside = np.all(np.abs(theta) + dither.amplitudes < qmap.input_bounds.limits, 1)
    means = np.empty_like(theta)
    means[inside] = mean_rhs(3 * max(dither.harmonics) + 2, [theta[inside]])
    saturating = np.flatnonzero(~inside)
    if saturating.size:
        means[saturating] = mean_rhs(SATURATING_NODES, [theta[i : i + 1] for i in saturating])
    model = laws.average_rhs(states)
    denom = np.maximum(np.linalg.norm(model, axis=1), 1e-12)
    return float(np.max(np.linalg.norm(means - model, axis=1) / denom))
