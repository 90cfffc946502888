"""Quadratic map, saturation primitives, loop laws and perturbation terms.

Two loop variants are covered.  In the input-saturation loop the map sees
sat(theta) and the controller adds an anti-windup correction driven by the
dead-zone of theta.  In the gradient-saturation loop the map input is not
clipped but the parameter update rate sat(K*ghat) is.  ``loop_laws`` is the
one definition of each loop's map output, gradient estimate, control law and
right-hand sides, true and averaged, that the simulator and the analysis
oracles share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .signals import DitherSpec, eval_S_M, eval_S_M_dot

__all__ = [
    "QuadraticMap",
    "SaturationBounds",
    "AwController",
    "GradSatController",
    "PerturbationTerms",
    "saturate",
    "deadzone",
    "loop_laws",
    "perturbation_terms",
]


@dataclass(frozen=True)
class SaturationBounds:
    """Element-wise symmetric saturation limits."""

    limits: np.ndarray

    def __post_init__(self):
        lim = np.atleast_1d(np.asarray(self.limits, dtype=float))
        if np.any(lim <= 0):
            raise ValueError("saturation limits must be strictly positive")
        if not np.all(np.isfinite(lim)):
            raise ValueError("saturation limits must be finite")
        object.__setattr__(self, "limits", lim)

    @property
    def dim(self) -> int:
        return self.limits.size


def saturate(v: np.ndarray, bounds: SaturationBounds) -> np.ndarray:
    """Clamp each component of v to [-limit, +limit]."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != bounds.dim:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs {bounds.dim}")
    # np.clip's values at a fraction of its per-call cost
    return np.minimum(np.maximum(v, -bounds.limits), bounds.limits)


def deadzone(v: np.ndarray, bounds: SaturationBounds) -> np.ndarray:
    """Dead-zone psi(v) = v - sat(v); zero on the linear region including its
    boundary, growing linearly outside."""
    v = np.asarray(v, dtype=float)
    return v - saturate(v, bounds)


@dataclass(frozen=True)
class QuadraticMap:
    """Static quadratic performance map with unknown optimum.

    q_star and theta_star are the extremum value and point, hessian the
    curvature.  input_bounds, when present, are the actuator limits the map
    input passes through; the optimizer must then sit strictly inside them.
    """

    q_star: float
    theta_star: np.ndarray
    hessian: np.ndarray
    input_bounds: Optional[SaturationBounds] = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_star, dtype=float))
        hess = np.asarray(self.hessian, dtype=float)
        if hess.shape != (theta.size, theta.size):
            raise ValueError("hessian shape does not match theta_star")
        for name, value in (("q_star", self.q_star), ("theta_star", theta), ("hessian", hess)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if np.max(np.abs(hess - hess.T)) != 0.0:
            raise ValueError("hessian must be exactly symmetric")
        if self.input_bounds is not None:
            if self.input_bounds.dim != theta.size:
                raise ValueError("input_bounds dimension mismatch")
            if np.any(np.abs(theta) >= self.input_bounds.limits):
                raise ValueError(
                    "theta_star must lie strictly inside the input bounds"
                )
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "hessian", hess)

    @property
    def dim(self) -> int:
        return self.theta_star.size


@dataclass(frozen=True)
class AwController:
    """Feedback and anti-windup gains; psi is the dead-zone of the map's input bounds."""

    k: np.ndarray
    k_aw: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        k_aw = np.asarray(self.k_aw, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k_aw.shape != k.shape:
            raise ValueError("controller gains must be square and of one shape")
        for name, value in (("k", k), ("k_aw", k_aw)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"controller gain {name} must be finite")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k_aw", k_aw)

    @property
    def dim(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class GradSatController:
    """Feedback gain whose output rate is clipped component-wise."""

    k: np.ndarray
    bounds: SaturationBounds

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        n = self.bounds.dim
        if k.shape != (n, n):
            raise ValueError("controller gain must be square of the loop dimension")
        if not np.all(np.isfinite(k)):
            raise ValueError("controller gain k must be finite")
        object.__setattr__(self, "k", k)

    @property
    def dim(self) -> int:
        return self.bounds.dim


class _LoopLaws(NamedTuple):
    output: Callable
    estimate: Callable
    average_estimate: Callable
    control: Callable
    rhs: Callable
    average_rhs: Callable
    demod_gain: Callable
    bind: Callable


def loop_laws(
    qmap: QuadraticMap,
    ctrl: Union[AwController, GradSatController],
    offset: float = 0.0,
) -> _LoopLaws:
    """The per-sample laws of one seeking loop, checked here once.

    An ``AwController`` closes the input-saturation loop: the map sees
    v = sat(theta) and psi is the dead-zone of theta, both on the map's
    ``input_bounds``, which this loop requires.  A ``GradSatController``
    closes the rate-saturation loop: v = theta and psi = 0.  The laws:

    - ``output(theta)``: y = q* + (v - theta*)' H (v - theta*) / 2;
    - ``estimate(theta, m)``: the demodulated gradient estimate
      ghat = m (y(theta) - offset);
    - ``average_estimate(theta_tilde)``: its period-averaged model
      H (theta_tilde - psi(theta_tilde + theta*));
    - ``control(g_hat, theta)``: u = K ghat - K_aw psi(theta), or
      u = sat(K ghat), which ignores theta and may go without it;
    - ``rhs(theta, mk)``: the dithered loop's right-hand side, with
      mk = ``demod_gain(m)`` = m K' precomputed, so
      ``control(estimate(theta, m), theta)`` up to rounding;
    - ``average_rhs(theta_tilde)``: the averaged loop's right-hand side,
      bitwise ``control(average_estimate(theta_tilde), theta_tilde +
      theta*)``.

    ``bind(shape)`` is their one implementation, for states of one shape,
    ``(n,)`` or ``(B, n)``: each bound law takes one more argument,
    ``out`` (one value per row for ``output``), writes it and returns it.
    A binding broadcasts its constants to its shape and allocates its
    temporaries once, so that every elementwise operation takes operands of
    one shape, numpy's cheapest per-call path; its laws share those
    temporaries, so one call must end before the next begins.  The plain
    laws are the same laws at their first argument's shape, one sample
    (numpy vectors of the loop dimension) or a stack of samples (one per
    row), whose operations broadcast the constants rather than copy them;
    they return a new array, or a scalar for a lone ``output``, and check
    nothing.

    Products are taken with ``ndarray.dot``, not ``@``: on float arrays of
    these shapes both call the same BLAS routine and give the same bits,
    but ``dot`` skips the matmul gufunc's dispatch, which costs about as
    much again on a state of two or three elements.  Only a stack's
    quadratic form stays a row-wise matmul, the one form that gives each
    row a lone dot product's bits on every supported numpy.
    """
    if not isinstance(ctrl, (AwController, GradSatController)):
        raise TypeError("controller must be an AwController or a GradSatController")
    if ctrl.dim != qmap.dim:
        raise ValueError("controller dimension does not match the map")
    q_star, th_star, H = qmap.q_star, qmap.theta_star, qmap.hessian
    offset = float(offset)
    aw = isinstance(ctrl, AwController)
    if aw and qmap.input_bounds is None:
        raise ValueError("the input-saturation loop needs map input bounds")
    kt = np.ascontiguousarray(ctrl.k.T)
    kawt = np.ascontiguousarray(ctrl.k_aw.T) if aw else None
    hi = (qmap.input_bounds if aw else ctrl.bounds).limits

    def demod_gain(m):
        return m.dot(kt)

    # H is exactly symmetric, so a row times H is H times that row
    def laws_at(shape, fill):
        # fill(c, shape) gives the constant c: a copy at the states' shape
        # for a binding that steps a run, on numpy's cheapest per-call path,
        # or c itself for a plain law, called once, whose operations then
        # broadcast c rather than copy it to the argument's size
        lo_s, hi_s, ts = (fill(c, shape) for c in (-hi, hi, th_star))
        d, dh = np.empty(shape), np.empty(shape)

        # (y(v) - offset) m.  One row takes its form as a dot product and
        # scales m by a scalar, at a fraction of a stack's per-call cost.  A
        # stack takes each row's form as a row-wise matmul, whose rows give
        # the lone dot product's bits, so each row gives the lone row's bits
        # wherever its d.dot(H) does.
        if len(shape) == 1:

            def demodulate(v, m, out):
                np.subtract(v, ts, out=d)
                # in Python floats, which give a numpy scalar's bits at a
                # fraction of its cost
                y = q_star + 0.5 * float(d.dot(H, out=dh).dot(d)) - offset
                return np.multiply(y, m, out=out)

        else:
            # the scalars as (B, 1) columns and the row-wise matmul through
            # views taken here once
            form = np.empty((shape[0], 1, 1))
            y = form[:, 0]
            dh_rows, d_cols = dh[:, None, :], d[:, :, None]
            half, q, off = (fill(c, (shape[0], 1)) for c in (0.5, q_star, offset))

            def demodulate(v, m, out):
                np.subtract(v, ts, out=d)
                d.dot(H, out=dh)
                np.matmul(dh_rows, d_cols, out=form)
                # y = (q* + 0.5 form) - offset, in the lone row's order
                np.subtract(np.add(q, np.multiply(half, y, out=y), out=y), off, out=y)
                return np.multiply(m, y, out=out)

        # The loops differ in these pieces alone: the input-saturation loop
        # clips the map input and feeds its dead-zone back, the
        # rate-saturation loop clips the rate K ghat.
        if aw:
            v, psi = np.empty(shape), np.empty(shape)

            def map_input(theta):
                # v = sat(theta), leaving psi = theta - v for the feedback
                np.minimum(np.maximum(theta, lo_s, out=v), hi_s, out=v)
                np.subtract(theta, v, out=psi)
                return v

            def feedback(gk, out):
                # gk - psi K_aw', with the psi of the last map input
                return np.subtract(gk, psi.dot(kawt, out=dh), out=out)

        else:

            def feedback(gk, out):
                # sat(gk)
                return np.minimum(np.maximum(gk, lo_s, out=out), hi_s, out=out)

        def output(theta, out):
            np.subtract(map_input(theta) if aw else theta, ts, out=d)
            np.multiply(d.dot(H, out=dh), d, out=dh).sum(-1, out=out)
            return np.add(q_star, np.multiply(0.5, out, out=out), out=out)

        def estimate(theta, m, out):
            return demodulate(map_input(theta) if aw else theta, m, out)

        def average_estimate(theta_tilde, out):
            # in rate saturation psi = theta - theta is exactly zero on a
            # finite state
            if aw:
                map_input(np.add(theta_tilde, ts, out=d))
                theta_tilde = np.subtract(theta_tilde, psi, out=d)
            return theta_tilde.dot(H, out=out)

        def control(g_hat, theta=None, out=None):
            if aw:
                map_input(theta)
            return feedback(g_hat.dot(kt, out=out), out)

        def rhs(theta, mk, out):
            return feedback(demodulate(map_input(theta) if aw else theta, mk, out), out)

        def average_rhs(theta_tilde, out):
            return feedback(average_estimate(theta_tilde, dh).dot(kt, out=out), out)

        laws = (output, estimate, average_estimate, control, rhs, average_rhs)
        return _LoopLaws(*laws, demod_gain, bind)

    def bind(shape):
        return laws_at(shape, lambda c, shape: np.full(shape, c))

    def plain(name):
        def law(x, *args):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape[:-1] if name == "output" else x.shape)
            got = getattr(laws_at(x.shape, lambda c, shape: c), name)(x, *args, out=out)
            return got if got.ndim else got[()]

        return law

    return _LoopLaws(*map(plain, _LoopLaws._fields[:6]), demod_gain, bind)


def _delta(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    # M S' - I at one time, or at each of N times for (N, n) stacks
    return M[..., :, None] * S[..., None, :] - np.eye(M.shape[-1])


@dataclass(frozen=True)
class PerturbationTerms:
    """Dither-induced terms entering the error dynamics.

    ``delta`` is Delta(t) = M(t) S(t)^T - I, whose diagonal 2 sin^2(w_i t) - 1
    = -cos(2 w_i t) is the mean-free form, zero-mean over a period; the
    literal diagonal 1 - cos(2 w_i t), of period mean one, is this plus I
    (analysis.zero_mean_report measures both).

    At a scalar time the fields have shapes (n, n) and (n,); at a time vector
    of length N each gains a leading axis N.  ``S`` and ``M`` are the dithers
    the terms were formed from, so a caller reads them without evaluating
    the dither again.
    """

    delta: np.ndarray       # Delta(t)
    w: np.ndarray           # additive residual of the input-saturation loop
    varsigma: np.ndarray    # additive residual of the gradient-estimate dynamics
    S: np.ndarray           # probing dither S(t)
    M: np.ndarray           # demodulation dither M(t)


def perturbation_terms(
    spec: DitherSpec,
    qmap: QuadraticMap,
    t,
    theta_tilde: np.ndarray,
) -> PerturbationTerms:
    """Evaluate Delta(t) and the residuals w(t), varsigma(t).

    theta_tilde is the (frozen) estimation error; the dead-zone inside w is
    evaluated along theta(t) = theta_tilde + theta_star + S(t), so w reduces
    to its dither-only part whenever that path stays in the linear region.
    With e = theta_tilde - psi, substituting M S' = I + Delta and
    Delta_dot = M_dot S' + M S_dot' into the error dynamics leaves

        w = M (q* + e'He/2 + S'HS/2),
        varsigma = d/dt [M (q* + S'H theta_tilde + S'HS/2)]
                 = M_dot (q* + S'H theta_tilde + S'HS/2) + M S_dot'H (theta_tilde + S).

    ``t`` is a scalar or a 1-D time vector (see ``PerturbationTerms``); a
    ``theta_tilde`` of any shape but (n,) is a ValueError.
    """
    theta_tilde = np.atleast_1d(np.asarray(theta_tilde, dtype=float))
    if theta_tilde.shape != (qmap.dim,):
        raise ValueError(f"theta_tilde must have shape ({qmap.dim},), got {theta_tilde.shape}")
    H = qmap.hessian
    S, M = eval_S_M(spec, t)

    theta = theta_tilde + qmap.theta_star + S
    if qmap.input_bounds is not None:
        e = theta_tilde - deadzone(theta, qmap.input_bounds)
    else:
        e = theta_tilde

    # H is exactly symmetric, so x' H y is (x @ H) . y for rows x, y; the
    # kept axis lets the form scale M at one time or at each of N times
    def form(x, y):
        return (x @ H * y).sum(-1, keepdims=True)

    half_shs = 0.5 * form(S, S)
    w = M * (qmap.q_star + 0.5 * form(e, e) + half_shs)
    S_dot, M_dot = eval_S_M_dot(spec, t)
    varsigma = (
        M_dot * (qmap.q_star + form(S, theta_tilde) + half_shs)
        + M * form(S_dot, theta_tilde + S)
    )
    return PerturbationTerms(delta=_delta(M, S), w=w, varsigma=varsigma, S=S, M=M)
