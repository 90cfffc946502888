"""Vertex descriptions of the uncertain curvature matrix.

The synthesis conditions only need the vertices of a convex polytope known to
contain the true Hessian.  Three standard constructions are provided: an
eigenvalue interval, a scaled nominal matrix, and a general affine family
with interval-bounded coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HessianPolytope",
    "from_eigen_interval",
    "from_scaled_nominal",
    "from_affine",
    "evaluate",
]

_SUM_TOL = 1e-12
_NEG_TOL = 1e-15
_MAX_AFFINE_PARAMS = 20


def _check_symmetric(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} must be finite")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class HessianPolytope:
    """Convex hull co{H_1, ..., H_N} of symmetric vertex matrices."""

    vertices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        verts = tuple(
            _check_symmetric(v, f"vertex {i}") for i, v in enumerate(self.vertices)
        )
        dims = {v.shape[0] for v in verts}
        if len(dims) != 1:
            raise ValueError("all vertices must share one dimension")
        object.__setattr__(self, "vertices", verts)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return self.vertices[0].shape[0]


def evaluate(poly: HessianPolytope, alpha: Sequence[float]) -> np.ndarray:
    """Convex combination H(alpha) = sum_i alpha_i H_i."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size != poly.num_vertices:
        raise ValueError(
            f"alpha has {alpha.size} weights for {poly.num_vertices} vertices"
        )
    s = float(np.sum(alpha))
    if abs(s - 1.0) > _SUM_TOL:
        raise ValueError(f"alpha weights sum to {s!r}, not 1")
    if np.any(alpha < -_NEG_TOL):
        idx = int(np.argmin(alpha))
        raise ValueError(f"alpha[{idx}] = {alpha[idx]!r} is negative")
    out = np.zeros((poly.dim, poly.dim))
    for w, v in zip(alpha, poly.vertices):
        out += w * v
    return 0.5 * (out + out.T)


def from_eigen_interval(lambda1: float, lambda2: float, n: int) -> HessianPolytope:
    """Two-vertex polytope {lambda1*I, lambda2*I} for lambda1 <= H <= lambda2."""
    if lambda1 > lambda2:
        raise ValueError("lambda1 must not exceed lambda2")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    eye = np.eye(n)
    return HessianPolytope((lambda1 * eye, lambda2 * eye))


def from_scaled_nominal(h0: np.ndarray, delta_bar: float) -> HessianPolytope:
    """Two-vertex polytope {(1-d)H0, (1+d)H0} for H = (1+delta)H0, |delta|<=d."""
    h0 = _check_symmetric(h0, "nominal hessian")
    if delta_bar < 0:
        raise ValueError("delta_bar must be nonnegative")
    return HessianPolytope(((1.0 - delta_bar) * h0, (1.0 + delta_bar) * h0))


def from_affine(
    gamma0: np.ndarray,
    gammas: Sequence[np.ndarray],
    delta_bars: Sequence[float],
) -> HessianPolytope:
    """2^p vertices of Gamma0 + sum_i delta_i*Gamma_i with |delta_i| <= bar_i.

    Vertex ordering is binary counting over the sign pattern, least
    significant bit driving delta_1, so feasibility reports are reproducible.
    """
    gamma0 = _check_symmetric(gamma0, "gamma0")
    gammas = [_check_symmetric(g, f"gamma{i + 1}") for i, g in enumerate(gammas)]
    delta_bars = [float(d) for d in delta_bars]
    if len(gammas) != len(delta_bars):
        raise ValueError("gammas and delta_bars disagree in length")
    if any(d <= 0 for d in delta_bars):
        raise ValueError("delta bounds must be strictly positive")
    for g in gammas:
        if g.shape != gamma0.shape:
            raise ValueError("all basis matrices must share gamma0's shape")
    p = len(gammas)
    if p > _MAX_AFFINE_PARAMS:
        raise ValueError(
            f"{p} uncertain parameters would give 2^{p} vertices; refusing"
        )
    verts = []
    for code in range(2**p):
        v = gamma0.copy()
        for i in range(p):
            sign = 1.0 if (code >> i) & 1 else -1.0
            v = v + sign * delta_bars[i] * gammas[i]
        verts.append(v)
    return HessianPolytope(tuple(verts))
