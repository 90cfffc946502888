"""Gain synthesis for both saturation scenarios via vertex LMI feasibility.

Anti-windup design searches for P (symmetric), Lambda (diagonal) and the
auxiliary gains Z = P*K, Z_aw = P*K_aw making

    [ Z H_i + H_i Z' + 2 eta P        *    ]
    [ Lambda - Z_aw' - H_i Z'     -2 Lambda ]  < 0

hold at every polytope vertex H_i; K and K_aw are recovered by solving
against P.  The certified decay of the averaged loop is then eta, with
conditioning prefactor kappa = sqrt(lmax(P)/lmin(P)), derived from P.

Rate-saturation design searches for W (symmetric), a diagonal multiplier,
and X, Y, Z with K = Z*X^-1, L = Y*X^-1, under one 3n-by-3n strict block per
vertex plus, for every row, the coupling block

    [ W              Z_l' - Y_l' ]
    [ *              ubar_l^2    ]  >= 0

which places the unit sublevel set of V = g' P g (P = X^-T W X^-1) inside
the region where the dead-zone sector bound with slope L is valid.

Both systems are homogeneous (fully for anti-windup, partially for rate
saturation), so small shaping blocks P >= eps*I etc. pin the scale away from
zero.  Each design kind lists its blocks once, in one conditions function
mapping matrix variables to ``(name, kind, matrix)`` entries.  The solver's
problem evaluates it on the unit vectors of the decision vector; ``certify``,
which every returned design passes, evaluates it on the recovered gains and
checks the blocks by eigendecomposition, independent of the solver's state.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import matio
from .plant import SaturationBounds
from .polytope import HessianPolytope
from .sdp import LmiBlock, LmiProblem, solve_feasibility

__all__ = [
    "AwDesign",
    "GradSatDesign",
    "InfeasibleDesignError",
    "SynthesisNumericalError",
    "Check",
    "CertificateReport",
    "certify",
    "design_aw_gains",
    "design_gradsat_gain",
    "find_aw_certificate",
    "verify_aw_design",
    "verify_gradsat_design",
    "verify_ellipsoid_inclusion",
    "save_design",
    "load_design",
]

log = logging.getLogger(__name__)

SHAPING_EPS = 1e-4
STRICT_MARGIN_SCALE = 1e-7
PSD_MARGIN = 1e-9
COND_WARN = 1e10
# relative Frobenius mismatch allowed between a stored P and X^-T W X^-1
CONGRUENCE_RTOL = 1e-6


class InfeasibleDesignError(Exception):
    """The vertex inequalities admit no solution at the requested decay."""

    def __init__(self, message: str, worst_block: str = "", slack: float = np.nan):
        super().__init__(message)
        self.worst_block = worst_block
        self.slack = slack


class SynthesisNumericalError(Exception):
    """The solver or the gain recovery broke down numerically."""


# ---------------------------------------------------------------------------
# variable packing


class _VarLayout:
    """Maps named n-by-n matrix variables onto a flat decision vector.

    ``kinds`` maps each name, in packing order, to "sym", "diag" or "full".
    """

    def __init__(self, n: int, kinds: dict[str, str]):
        self.n = n
        self._slices: dict[str, tuple[str, slice]] = {}
        self.size = 0
        for name, kind in kinds.items():
            length = {"sym": n * (n + 1) // 2, "diag": n, "full": n * n}[kind]
            self._slices[name] = (kind, slice(self.size, self.size + length))
            self.size += length

    def unpack(self, x: np.ndarray, name: str) -> np.ndarray:
        """Matrix variable ``name`` of x, or of each row of a stack of x."""
        kind, sl = self._slices[name]
        v = np.asarray(x)[..., sl]
        n = self.n
        if kind == "full":
            return v.reshape(v.shape[:-1] + (n, n))
        out = np.zeros(v.shape[:-1] + (n, n))
        if kind == "diag":
            out[..., range(n), range(n)] = v
            return out
        rows, cols = np.triu_indices(n)
        out[..., rows, cols] = v
        out[..., cols, rows] = v
        return out


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _block(name: str, kind: str, values: np.ndarray) -> LmiBlock:
    """LmiBlock of a linear matrix expression evaluated on ``_assemble``'s stack.

    ``values[0]`` is the expression at the origin and ``values[1 + j]`` at
    unit vector j, which splits it into base and coefficient stack.  ``kind``
    is "strict" (negative definite, by a margin scaled to the block's data),
    "psd" (positive semidefinite) or "floor" (at least SHAPING_EPS * I).
    """
    base = values[0]
    coeffs = values[1:] - base
    if kind == "strict":
        scale = max(
            1.0,
            float(np.linalg.norm(base)),
            float(np.max(np.linalg.norm(coeffs, axis=(1, 2)))),
        )
        return LmiBlock(base, coeffs, "strict", STRICT_MARGIN_SCALE * scale, name)
    if kind == "floor":
        base = base - SHAPING_EPS * np.eye(base.shape[0])
    return LmiBlock(base, coeffs, "psd", PSD_MARGIN, name)


def _assemble(n: int, kinds: dict, conditions) -> tuple[LmiProblem, _VarLayout]:
    """LmiProblem of the entries ``conditions`` maps the variables ``kinds`` to.

    ``conditions`` is called once, with every matrix variable unpacked from
    the stack of the origin followed by every unit vector, and returns
    ``(name, kind, values)`` entries; each becomes one ``_block``.
    """
    layout = _VarLayout(n, kinds)
    x = np.vstack([np.zeros(layout.size), np.eye(layout.size)])
    v = {name: layout.unpack(x, name) for name in kinds}
    blocks = tuple(_block(*entry) for entry in conditions(v))
    return LmiProblem(num_vars=layout.size, blocks=blocks), layout


class _Design:
    """What both design kinds share; ``kind`` names one in design files."""

    kind: ClassVar[str]

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    @property
    def kappa(self) -> float:
        """Decay prefactor sqrt(lambda_max(P)/lambda_min(P)) of the certificate."""
        return _kappa_of(self.p)

    @property
    def ill_conditioned(self) -> bool:
        """cond(P) above COND_WARN: the recovered gains may be inaccurate."""
        return bool(np.linalg.cond(self.p) > COND_WARN)


def _check_request(
    poly: HessianPolytope, eta: float, bounds: SaturationBounds, **gains: np.ndarray
) -> None:
    """ValueError unless 0 < eta < inf and the bounds and gains fit the polytope."""
    n = poly.dim
    if not 0 < eta < np.inf:
        raise ValueError("decay rate eta must be positive and finite")
    if bounds.dim != n:
        raise ValueError(f"{bounds.dim} bounds for a polytope of dimension {n}")
    for name, gain in gains.items():
        if gain.shape != (n, n):
            raise ValueError(f"gain {name} has shape {gain.shape}, expected ({n}, {n})")


def _solve(what: str, assembled, recover, poly: HessianPolytope):
    """Solve an assembled (problem, layout) pair; return its certified design.

    ``recover`` builds the design from a lookup of the solved matrix
    variables by name.  Solver failure, infeasibility and a recovered design
    that ``certify`` rejects each raise; an ill-conditioned P warns.
    """
    problem, layout = assembled
    sol = solve_feasibility(problem)
    if sol.status == "numerical-failure":
        raise SynthesisNumericalError(
            f"{what}: solver failed after {sol.iterations} iterations: {sol.message}"
        )
    if sol.status == "infeasible":
        vertex_checks = [c for c in sol.blocks if c.name.startswith("vertex")]
        worst = max(vertex_checks or sol.blocks, key=lambda c: c.slack)
        raise InfeasibleDesignError(
            f"{what}: infeasible (slack {sol.slack:.3e}, most violated "
            f"block {worst.name!r})",
            worst_block=worst.name,
            slack=sol.slack,
        )
    design = recover(functools.partial(layout.unpack, sol.x))
    cond = float(np.linalg.cond(design.p))
    log.debug("%s: cond(P) = %.3e", what, cond)
    if design.ill_conditioned:
        warnings.warn(
            f"recovered P is ill-conditioned (cond {cond:.2e}); gains may be "
            "inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    failures = certify(design, poly).failures()
    if failures:
        raise SynthesisNumericalError(
            f"{what}: recovered gains fail re-verification: " + "; ".join(failures)
        )
    return design


def _kappa_of(P: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(P)
    return float(np.sqrt(eigs[-1] / eigs[0]))


def _over_x(m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """m X^-1, solved as X' R' = m'."""
    return np.linalg.solve(X.T, m.T).T


# ---------------------------------------------------------------------------
# anti-windup scenario


@dataclass(frozen=True)
class AwDesign(_Design):
    """Anti-windup gain pair with its Lyapunov certificate."""

    kind: ClassVar[str] = "aw"
    k: np.ndarray
    k_aw: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    eta: float
    bounds: SaturationBounds

    def _conditions(self, poly: HessianPolytope) -> list:
        """This design's entries of ``_aw_conditions``: Z = P K, Z_aw = P K_aw."""
        v = {"p": self.p, "lam": self.lam}
        v.update(z=self.p @ self.k, z_aw=self.p @ self.k_aw)
        return _aw_conditions(v, poly, self.eta)


def _aw_conditions(v: dict, poly: HessianPolytope, eta: float) -> list:
    """(name, kind, matrix) entries of the anti-windup design over ``poly``.

    ``v`` holds P ("p"), Lambda ("lam"), Z = P K ("z") and Z_aw = P K_aw
    ("z_aw"), as matrices or as equal-length stacks of them.
    """
    P, Lam, Z, Zaw = v["p"], v["lam"], v["z"], v["z_aw"]
    entries = []
    for i, Hi in enumerate(poly.vertices):
        b11 = Z @ Hi + Hi @ _t(Z) + 2.0 * eta * P
        b21 = Lam - _t(Zaw) - Hi @ _t(Z)
        b22 = -2.0 * Lam
        M = np.block([[b11, _t(b21)], [b21, b22]])
        entries.append((f"vertex[{i}]", "strict", 0.5 * (M + _t(M))))
    return entries + [("p_floor", "floor", P), ("lam_floor", "floor", Lam)]


def _assemble_aw_problem(
    poly: HessianPolytope, eta: float, gains: Optional[tuple] = None
) -> tuple[LmiProblem, _VarLayout]:
    """Vertex and shaping blocks of the anti-windup design.

    With ``gains = (K, K_aw)`` fixed, Z = P K and Z_aw = P K_aw and the
    inequalities are affine in (P, Lambda) alone (certificate search).
    """
    kinds = {"p": "sym", "lam": "diag"}
    if gains is None:
        kinds.update(z="full", z_aw="full")

    def conditions(v):
        if gains is not None:
            v.update(z=v["p"] @ gains[0], z_aw=v["p"] @ gains[1])
        return _aw_conditions(v, poly, eta)

    return _assemble(poly.dim, kinds, conditions)


def _aw_design(var, eta: float, bounds: SaturationBounds, gains) -> AwDesign:
    """AwDesign from the solved variables; K, K_aw solved from Z = P K."""
    P = var("p")
    k, k_aw = gains or (np.linalg.solve(P, var("z")), np.linalg.solve(P, var("z_aw")))
    return AwDesign(k=k, k_aw=k_aw, p=P, lam=var("lam"), eta=eta, bounds=bounds)


def design_aw_gains(
    poly: HessianPolytope, eta: float, bounds: SaturationBounds
) -> AwDesign:
    """Synthesize (K, K_aw) certifying decay eta over the whole polytope."""
    _check_request(poly, eta, bounds)
    return _solve(
        "anti-windup design", _assemble_aw_problem(poly, eta),
        lambda var: _aw_design(var, eta, bounds, None), poly,
    )


def verify_aw_design(design: AwDesign, poly: HessianPolytope) -> float:
    """Largest eigenvalue of the vertex inequalities rebuilt from (P, K).

    Negative return means the vertex checks of ``certify`` pass.
    """
    return float(np.max(certify(design, poly).values("vertex")))


def find_aw_certificate(
    k: np.ndarray,
    k_aw: np.ndarray,
    poly: HessianPolytope,
    eta: float,
    bounds: SaturationBounds,
) -> AwDesign:
    """Search a Lyapunov certificate (P, Lambda) for externally given gains.

    Used to validate gain matrices quoted from elsewhere: with K and K_aw
    fixed the vertex inequalities are affine in (P, Lambda) alone.
    """
    k = np.asarray(k, dtype=float)
    k_aw = np.asarray(k_aw, dtype=float)
    _check_request(poly, eta, bounds, k=k, k_aw=k_aw)
    return _solve(
        "certificate search", _assemble_aw_problem(poly, eta, gains=(k, k_aw)),
        lambda var: _aw_design(var, eta, bounds, (k, k_aw)), poly,
    )


# ---------------------------------------------------------------------------
# rate-saturation scenario


@dataclass(frozen=True)
class GradSatDesign(_Design):
    """Rate-limited gain with congruence variables and Lyapunov certificate.

    The solver's Y = L X is not stored: every check rebuilds it from L and X.
    """

    kind: ClassVar[str] = "gradsat"
    k: np.ndarray
    l: np.ndarray
    w: np.ndarray
    x: np.ndarray
    upsilon_tilde: np.ndarray
    p: np.ndarray
    eta: float
    epsilon: float
    bounds: SaturationBounds

    def _conditions(self, poly: HessianPolytope) -> list:
        """This design's entries of ``_gradsat_conditions``: Y = L X, Z = K X."""
        v = {
            "w": self.w, "ut": self.upsilon_tilde, "x": self.x,
            "y": self.l @ self.x, "z": self.k @ self.x,
        }
        return _gradsat_conditions(v, poly, self.eta, self.epsilon, self.bounds.limits)


def _gradsat_conditions(
    v: dict, poly: HessianPolytope, eta: float, epsilon: float, limits: np.ndarray
) -> list:
    """(name, kind, matrix) entries of the rate-saturation design over ``poly``.

    ``v`` holds W ("w"), the multiplier ("ut"), X ("x"), Y = L X ("y") and
    Z = K X ("z"), as matrices or as equal-length stacks of them; ``limits``
    are the rate bounds ubar.
    """
    W, Ut, X, Y, Z = v["w"], v["ut"], v["x"], v["y"], v["z"]
    entries = []
    for i, Hi in enumerate(poly.vertices):
        b11 = Hi @ Z + _t(Z) @ Hi + 2.0 * eta * W
        b21 = W - _t(X) + epsilon * Hi @ Z
        b22 = -epsilon * (_t(X) + X)
        b31 = Y - Ut @ Hi
        b32 = -epsilon * Ut @ Hi
        b33 = -2.0 * Ut
        M = np.block(
            [
                [b11, _t(b21), _t(b31)],
                [b21, b22, _t(b32)],
                [b31, b32, b33],
            ]
        )
        entries.append((f"vertex[{i}]", "strict", 0.5 * (M + _t(M))))
    n = W.shape[-1]
    for ell, ubar in enumerate(limits):
        M = np.zeros(W.shape[:-2] + (n + 1, n + 1))
        M[..., :n, :n] = W
        M[..., :n, n] = Z[..., ell, :] - Y[..., ell, :]
        M[..., n, :n] = M[..., :n, n]
        M[..., n, n] = ubar**2
        entries.append((f"row[{ell}]", "psd", M))
    return entries + [
        ("w_floor", "floor", W),
        ("ut_floor", "floor", Ut),
        ("x_sym_floor", "floor", X + _t(X)),
    ]


def _assemble_gradsat_problem(
    poly: HessianPolytope, eta: float, epsilon: float, bounds: SaturationBounds
) -> tuple[LmiProblem, _VarLayout]:
    kinds = {"w": "sym", "ut": "diag", "x": "full", "y": "full", "z": "full"}
    return _assemble(
        poly.dim, kinds,
        lambda v: _gradsat_conditions(v, poly, eta, epsilon, bounds.limits),
    )


def _gradsat_design(
    var, eta: float, epsilon: float, bounds: SaturationBounds
) -> GradSatDesign:
    """GradSatDesign from the solved variables: K = Z X^-1, L = Y X^-1."""
    W, X = var("w"), var("x")
    cond_x = float(np.linalg.cond(X))
    log.debug("rate-saturation design: cond(X) = %.3e", cond_x)
    if cond_x > 1e12:
        raise SynthesisNumericalError(
            f"recovered X is numerically singular (cond {cond_x:.2e})"
        )
    # P = X^-T W X^-1 = (X^-T W) X^-1
    P = _over_x(np.linalg.solve(X.T, W), X)
    P = 0.5 * (P + P.T)
    return GradSatDesign(
        k=_over_x(var("z"), X), l=_over_x(var("y"), X), w=W, x=X,
        upsilon_tilde=var("ut"), p=P, eta=eta, epsilon=epsilon, bounds=bounds,
    )


def design_gradsat_gain(
    poly: HessianPolytope, eta: float, epsilon: float, bounds: SaturationBounds
) -> GradSatDesign:
    """Synthesize a rate-limited gain with a regional decay certificate."""
    _check_request(poly, eta, bounds)
    if not 0 < epsilon < np.inf:
        raise ValueError("the congruence scalar epsilon must be positive and finite")
    return _solve(
        "rate-saturation design", _assemble_gradsat_problem(poly, eta, epsilon, bounds),
        lambda var: _gradsat_design(var, eta, epsilon, bounds), poly,
    )


def verify_gradsat_design(
    design: GradSatDesign, poly: HessianPolytope
) -> tuple[float, float]:
    """(max vertex eigenvalue, min row-coupling eigenvalue) from ``certify``.

    The vertex and row checks pass when the first is negative and the second
    at least -PSD_MARGIN.
    """
    report = certify(design, poly)
    return float(np.max(report.values("vertex"))), float(np.min(report.values("row")))


def verify_ellipsoid_inclusion(design: GradSatDesign) -> np.ndarray:
    """Per-row residual lmin(P - (K_l - L_l)'(K_l - L_l)/ubar_l^2).

    All residuals nonnegative (up to the psd margin) certify that the unit
    sublevel set of V = g'Pg lies inside the sector-validity region, i.e. the
    certificate is valid on the whole claimed domain of attraction.
    """
    out = np.empty(design.dim)
    for ell in range(design.dim):
        diff = design.k[ell, :] - design.l[ell, :]
        M = design.p - np.outer(diff, diff) / design.bounds.limits[ell] ** 2
        out[ell] = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    return out


def _positive_diagonal(m: np.ndarray) -> bool:
    return bool(np.all(m == np.diag(np.diag(m))) and np.all(np.diag(m) > 0.0))


# ---------------------------------------------------------------------------
# certificate checks


class Check(NamedTuple):
    """One condition of a certificate, with the margin it holds by."""

    name: str
    value: float
    ok: bool
    failure: str  # the line reported when the condition fails


@dataclass(frozen=True)
class CertificateReport:
    """Every check of one design over one polytope, in reporting order."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def values(self, prefix: str) -> np.ndarray:
        """Values of the checks whose name starts with ``prefix``."""
        return np.array([c.value for c in self.checks if c.name.startswith(prefix)])

    def failures(self) -> list[str]:
        """Failure line of every failed check, each line once, in order."""
        return list(dict.fromkeys(c.failure for c in self.checks if not c.ok))


def certify(design, poly: HessianPolytope) -> CertificateReport:
    """Check every condition the certificate of ``design`` rests on over ``poly``.

    In reporting order: ``p``, lambda_min(P) > 0 (the vertex blocks are
    homogeneous, so a negated P with matching gains passes them); ``lambda``
    (``upsilon_tilde``), a positive diagonal; ``congruence``, P = X^-T W X^-1
    to CONGRUENCE_RTOL; ``vertex[i]``, lambda_max < 0 of each vertex block
    rebuilt from the stored gains (convex in H, so the vertices cover the
    polytope); ``row[l]`` and ``inclusion[l]``, lambda_min of each
    row-coupling block and each ellipsoid-inclusion residual at least
    -PSD_MARGIN.  ``congruence``, ``row`` and ``inclusion`` exist for rate
    saturation only.  kappa is derived from P, so it needs no check.
    """
    checks = []

    def check(name, value, ok, failure):
        checks.append(Check(name, float(value), bool(ok), failure))

    aw = isinstance(design, AwDesign)
    p_min = np.linalg.eigvalsh(0.5 * (design.p + design.p.T))[0]
    check("p", p_min, p_min > 0.0, "P not positive definite")
    name, label, mult = (
        ("lambda", "Lambda", design.lam) if aw
        else ("upsilon_tilde", "upsilon_tilde", design.upsilon_tilde)
    )
    check(
        name, np.min(np.diag(mult)), _positive_diagonal(mult),
        f"{label} not a positive diagonal",
    )
    if not aw:
        try:
            rebuilt = _over_x(np.linalg.solve(design.x.T, design.w), design.x)
            mismatch = np.linalg.norm(rebuilt - design.p)
        except np.linalg.LinAlgError:
            check("congruence", np.inf, False, "X is singular")
        else:
            scale = np.linalg.norm(design.p)
            check(
                "congruence", mismatch / scale, mismatch <= CONGRUENCE_RTOL * scale,
                "P differs from X^-T W X^-1",
            )
    for name, kind, M in design._conditions(poly):
        if kind == "strict":
            lmax = np.linalg.eigvalsh(M)[-1]
            check(name, lmax, lmax < 0.0, "vertex inequalities not negative definite")
        elif kind == "psd":
            lmin = np.linalg.eigvalsh(M)[0]
            check(
                name, lmin, lmin >= -PSD_MARGIN,
                "row-coupling blocks not positive semidefinite",
            )
    if not aw:
        for ell, r in enumerate(verify_ellipsoid_inclusion(design)):
            check(
                f"inclusion[{ell}]", r, r >= -PSD_MARGIN,
                "certified region leaves the sector-validity set",
            )
    return CertificateReport(tuple(checks))


# ---------------------------------------------------------------------------
# design files

# One line per field, in file order after the kind line: (file key,
# attribute, value kind).  Keys a table does not list are ignored on load,
# so older files that carry ``y`` or a derived ``kappa``/``kappa_g`` load.
_FILE_FIELDS = {
    AwDesign: (
        ("eta", "eta", "float"),
        ("bounds", "bounds", "bounds"),
        ("k", "k", "matrix"),
        ("k_aw", "k_aw", "matrix"),
        ("p", "p", "matrix"),
        ("lambda", "lam", "matrix"),
    ),
    GradSatDesign: (
        ("eta", "eta", "float"),
        ("epsilon", "epsilon", "float"),
        ("bounds", "bounds", "bounds"),
        ("k", "k", "matrix"),
        ("l", "l", "matrix"),
        ("w", "w", "matrix"),
        ("x", "x", "matrix"),
        ("upsilon_tilde", "upsilon_tilde", "matrix"),
        ("p", "p", "matrix"),
    ),
}

# value kind -> (format, parse)
_VALUE_KINDS = {
    "float": (repr, matio.parse_number),
    "bounds": (
        lambda b: matio.format_vector(b.limits),
        lambda text: SaturationBounds(matio.parse_vector(text)),
    ),
    "matrix": (matio.format_matrix, matio.parse_matrix),
}


def save_design(design, path: str) -> None:
    """Write a design to a line-oriented text file (row-major matrices)."""
    if type(design) not in _FILE_FIELDS:
        raise TypeError(f"not a design: {type(design).__name__}")
    lines = [f"kind = {design.kind}"]
    for key, attr, vkind in _FILE_FIELDS[type(design)]:
        lines.append(f"{key} = {_VALUE_KINDS[vkind][0](getattr(design, attr))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_design(path: str):
    """Read back a design file written by save_design; ``#`` starts a comment.

    A repeated field, a malformed value, or a matrix or bound list whose
    size does not match the n-by-n gain k fails as ``path:line: field: reason``.
    """
    entries: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in entries:
                reason = f"duplicate field (first on line {entries[key][1]})"
                raise ValueError(f"{path}:{lineno}: {key}: {reason}")
            entries[key] = (value, lineno)
    kind = entries.pop("kind", (None, 0))[0]
    cls = next((c for c in _FILE_FIELDS if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"design file {path} has unknown kind {kind!r}")

    def fail(key: str, reason) -> None:
        raise ValueError(f"{path}:{entries[key][1]}: {key}: {reason}") from None

    values = {}
    for key, attr, vkind in _FILE_FIELDS[cls]:
        if key not in entries:
            raise ValueError(f"design file {path} is missing field {key!r}")
        try:
            values[attr] = _VALUE_KINDS[vkind][1](entries[key][0])
        except matio.NotA as exc:
            fail(key, f"{entries[key][0]!r} {exc}")
        except ValueError as exc:
            fail(key, exc)
    n = values["k"].shape[0]
    # k first, since every other size is checked against its row count
    for key, attr, vkind in sorted(_FILE_FIELDS[cls], key=lambda f: f[0] != "k"):
        shape = np.shape(values[attr].limits if vkind == "bounds" else values[attr])
        want = {"matrix": (n, n), "bounds": (n,)}.get(vkind, shape)
        if shape != want:
            fail(key, f"shape {shape}, expected {want} from the {n}-row k")
    return cls(**values)
