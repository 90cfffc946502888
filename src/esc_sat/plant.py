"""Quadratic map, saturation primitives, loop laws and perturbation terms.

Two loop variants are covered.  In the input-saturation loop the map sees
sat(theta) and the controller adds an anti-windup correction driven by the
dead-zone of theta.  In the gradient-saturation loop the map input is not
clipped but the parameter update rate sat(K*ghat) is.  ``loop_laws`` is the
one definition of each loop's map output, gradient estimate and control law
that the simulator and the analysis oracles share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .signals import DitherSpec, eval_M, eval_M_dot, eval_S, eval_S_dot

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


class _LoopLaws(NamedTuple):
    output: Callable
    estimate: Callable
    average_estimate: Callable
    control: Callable


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
    psi = 0.  The returned callables take one sample (vectors of the loop
    dimension) or a stack of samples (one per row) and check nothing
    themselves:

    - ``output(theta)``: y = q* + (v - theta*)' H (v - theta*) / 2;
    - ``estimate(theta, m)``: the demodulated gradient estimate
      ghat = m (y(theta) - offset);
    - ``average_estimate(theta_tilde)``: its period-averaged model
      H (theta_tilde - psi(theta_tilde + theta*));
    - ``control(g_hat, theta)``: u = K ghat - K_aw psi(theta) for an
      ``AwController``; u = sat(K ghat) for a ``GradSatController``, which
      ignores theta.
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
    hi = (qmap.input_bounds if aw else ctrl.bounds).limits
    lo = -hi

    if aw:
        kawt = np.ascontiguousarray(ctrl.k_aw.T)

        def map_input(theta):
            return _sat(theta, lo, hi)

        def control(g_hat, theta):
            return g_hat @ kt - (theta - _sat(theta, lo, hi)) @ kawt

    else:

        def map_input(theta):
            return theta

        def control(g_hat, theta=None):
            return _sat(g_hat @ kt, lo, hi)

    # H is exactly symmetric, so a row times H is H times that row
    def output(theta):
        d = map_input(theta) - th_star
        return q_star + 0.5 * (d @ H * d).sum(-1)

    def estimate(theta, m):
        # the transposes scale one row, or each row of a stack, by its output
        return (m.T * (output(theta) - offset)).T

    def average_estimate(theta_tilde):
        theta = theta_tilde + th_star
        return (theta_tilde - (theta - map_input(theta))) @ H

    return _LoopLaws(output, estimate, average_estimate, control)


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
    S = eval_S(spec, t)
    M = eval_M(spec, t)

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
    varsigma = (
        eval_M_dot(spec, t) * (qmap.q_star + form(S, theta_tilde) + half_shs)
        + M * form(eval_S_dot(spec, t), theta_tilde + S)
    )
    return PerturbationTerms(delta=_delta(M, S), w=w, varsigma=varsigma)
