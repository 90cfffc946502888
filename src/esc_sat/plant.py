"""Quadratic map, saturation primitives, loop laws and perturbation terms.

Two loop variants are covered.  In the input-saturation loop the map sees
sat(theta) and the controller adds an anti-windup correction driven by the
dead-zone of theta.  In the gradient-saturation loop the map input is not
clipped but the parameter update rate sat(K*ghat) is.  ``loop_laws`` is the
one definition of each loop's map output, gradient estimate and control law,
and of the stage laws fused from them, that the simulator and the analysis
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
        object.__setattr__(self, "limits", lim)

    @property
    def dim(self) -> int:
        return self.limits.size


def _sat(v, lo, hi):
    # np.clip's values at a fraction of its per-call cost
    return np.minimum(np.maximum(v, lo), hi)


def saturate(v: np.ndarray, bounds: SaturationBounds) -> np.ndarray:
    """Clamp each component of v to [-limit, +limit]."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != bounds.dim:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs {bounds.dim}")
    return _sat(v, -bounds.limits, bounds.limits)


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
        object.__setattr__(self, "k", k)

    @property
    def dim(self) -> int:
        return self.bounds.dim


class _StageLaws(NamedTuple):
    rhs: Callable
    average_rhs: Callable


class _LoopLaws(NamedTuple):
    output: Callable
    estimate: Callable
    average_estimate: Callable
    control: Callable
    demod_gain: Callable
    rhs: Callable
    average_rhs: Callable
    bind: Callable


def loop_laws(
    qmap: QuadraticMap,
    ctrl: Union[AwController, GradSatController],
    offset: float = 0.0,
) -> _LoopLaws:
    """The per-sample laws of one seeking loop, checked here once.

    An ``AwController`` closes the input-saturation loop: the map sees
    v = sat(theta) and psi is the dead-zone of theta, both on the map's
    ``input_bounds``, which this loop requires.  A
    ``GradSatController`` closes the rate-saturation loop: v = theta and
    psi = 0.  The returned callables take one sample (numpy vectors of the
    loop dimension) or a stack of samples (one per row) and check nothing
    themselves:

    - ``output(theta)``: y = q* + (v - theta*)' H (v - theta*) / 2;
    - ``estimate(theta, m)``: the demodulated gradient estimate
      ghat = m (y(theta) - offset);
    - ``average_estimate(theta_tilde)``: its period-averaged model
      H (theta_tilde - psi(theta_tilde + theta*));
    - ``control(g_hat, theta)``: u = K ghat - K_aw psi(theta) for an
      ``AwController``; u = sat(K ghat) for a ``GradSatController``, which
      ignores theta.

    These four are the reference forms, which record a run.  The
    integrators evaluate two stage laws fused from them, each taking its
    clip once:

    - ``rhs(theta, mk)``: the dithered loop's right-hand side
      (y(v) - offset) mk - psi(theta) K_aw' with v = sat(theta), or
      sat((y(theta) - offset) mk), where mk = ``demod_gain(m)`` = m K' is
      precomputed; ``control(estimate(theta, m), theta)`` up to rounding;
    - ``average_rhs(theta_tilde)``: the averaged loop's right-hand side,
      bitwise ``control(average_estimate(theta_tilde), theta_tilde +
      theta*)``.

    ``bind(shape)`` gives the same two stage laws for states of one shape,
    ``(n,)`` or ``(B, n)``, as ``rhs(theta, mk, out)`` and
    ``average_rhs(theta_tilde, out)``: each writes its value into ``out``
    and returns it.  Their constants are broadcast to that shape and their
    temporaries allocated once, in ``bind``, so that every elementwise
    operation takes operands of one shape, numpy's cheapest per-call path.
    The two plain forms above are a binding to their argument's shape.  A
    binding's laws share its temporaries, so one call must end before the
    next begins.

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
    lo = -hi

    # H is exactly symmetric, so a row times H is H times that row
    def demodulate(v, m):
        # (y(v) - offset) m.  One row takes its form as a dot product and
        # scales m by a scalar, at a fraction of a stack's per-call cost.  A
        # stack takes each row's form as a row-wise matmul, whose rows give
        # the lone dot product's bits, so each row gives the lone row's bits
        # wherever its d.dot(H) does.
        d = v - th_star
        if d.ndim == 1:
            return (q_star + 0.5 * d.dot(H).dot(d) - offset) * m
        return m * (q_star + 0.5 * (d.dot(H)[:, None, :] @ d[:, :, None])[:, 0] - offset)

    def demod_gain(m):
        return m.dot(kt)

    def bind(shape):
        lo_s, hi_s, ts = (np.broadcast_to(c, shape).copy() for c in (lo, hi, th_star))
        v, d, dh, psi = (np.empty(shape) for _ in range(4))

        def sat(x, out):
            return np.minimum(np.maximum(x, lo_s, out=out), hi_s, out=out)

        if len(shape) == 1:

            def demodulate_into(v, m, out):
                # demodulate's lone form
                np.subtract(v, ts, out=d)
                return np.multiply(
                    q_star + 0.5 * d.dot(H, out=dh).dot(d) - offset, m, out=out
                )

        else:
            # demodulate's stack form, its scalars as (B, 1) columns and the
            # row-wise matmul through views taken here once
            form = np.empty((shape[0], 1, 1))
            y = form[:, 0]
            dh_rows, d_cols = dh[:, None, :], d[:, :, None]
            half, q, off = (np.full((shape[0], 1), c) for c in (0.5, q_star, offset))

            def demodulate_into(v, m, out):
                np.subtract(v, ts, out=d)
                d.dot(H, out=dh)
                np.matmul(dh_rows, d_cols, out=form)
                # y = (q* + 0.5 form) - offset, in demodulate's order
                np.subtract(np.add(q, np.multiply(half, y, out=y), out=y), off, out=y)
                return np.multiply(m, y, out=out)

        if aw:

            def rhs(theta, mk, out):
                sat(theta, v)
                np.subtract(theta, v, out=psi)
                demodulate_into(v, mk, out)
                return np.subtract(out, psi.dot(kawt, out=dh), out=out)

            def average_rhs(theta_tilde, out):
                sat(np.add(theta_tilde, ts, out=d), v)
                np.subtract(d, v, out=psi)
                np.subtract(theta_tilde, psi, out=d).dot(H, out=dh).dot(kt, out=out)
                return np.subtract(out, psi.dot(kawt, out=dh), out=out)

        else:

            def rhs(theta, mk, out):
                return sat(demodulate_into(theta, mk, out), out)

            def average_rhs(theta_tilde, out):
                # psi = theta - theta is exactly zero on a finite state
                return sat(theta_tilde.dot(H, out=dh).dot(kt, out=out), out)

        return _StageLaws(rhs, average_rhs)

    if aw:

        def map_input(theta):
            return _sat(theta, lo, hi)

        def control(g_hat, theta):
            return g_hat.dot(kt) - (theta - _sat(theta, lo, hi)).dot(kawt)

    else:

        def map_input(theta):
            return theta

        def control(g_hat, theta=None):
            return _sat(g_hat.dot(kt), lo, hi)

    def rhs(theta, mk):
        return bind(theta.shape).rhs(theta, mk, np.empty(theta.shape))

    def average_rhs(theta_tilde):
        return bind(theta_tilde.shape).average_rhs(theta_tilde, np.empty(theta_tilde.shape))

    def output(theta):
        d = map_input(theta) - th_star
        return q_star + 0.5 * (d.dot(H) * d).sum(-1)

    def estimate(theta, m):
        return demodulate(map_input(theta), m)

    def average_estimate(theta_tilde):
        theta = theta_tilde + th_star
        return (theta_tilde - (theta - map_input(theta))).dot(H)

    return _LoopLaws(
        output, estimate, average_estimate, control, demod_gain, rhs, average_rhs, bind
    )


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
    of length N each gains a leading axis N.
    """

    delta: np.ndarray       # Delta(t)
    w: np.ndarray           # additive residual of the input-saturation loop
    varsigma: np.ndarray    # additive residual of the gradient-estimate dynamics


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

    ``t`` is a scalar or a 1-D time vector (see ``PerturbationTerms``).
    """
    theta_tilde = np.atleast_1d(np.asarray(theta_tilde, dtype=float))
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
    return PerturbationTerms(delta=_delta(M, S), w=w, varsigma=varsigma)
