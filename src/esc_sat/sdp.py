"""Dense feasibility solver for small linear matrix inequality systems.

A problem is a set of affine symmetric-matrix maps F^k(x) = F0^k + sum_j x_j
F_j^k, each required strictly negative definite or positive semidefinite up
to a per-block margin.  Feasibility is decided through the phase-I program

    minimize t  s.t.  F^k(x) <= t*I  (strict blocks),  -F^k(x) <= t*I  (psd),

solved with a log-det barrier and damped Newton steps.  The systems arising
here are small (up to a few hundred scalar unknowns, blocks of order <= 24),
so a dense second-order method is both the simplest and the most reliable
choice.

Each Newton system is built in Schur-complement form (Vandenberghe & Boyd,
"Semidefinite Programming", SIAM Review 1996): every block is factored once
as S = L L', its coefficient stack is scaled to A_j = L^-1 C_j L^-T in one
batched product, and the barrier Hessian <A_i, A_j> is one matrix product
over the flattened stack.

The solver never trusts its own barrier state: a candidate is accepted only
once an eigendecomposition of every assembled block meets the margins.  That
one pass per accepted point is ``check_solution``, the same oracle callers
use independently of the solve path, and the returned block checks and
slack are taken from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LmiBlock",
    "LmiProblem",
    "BlockCheck",
    "SdpSolution",
    "solve_feasibility",
    "check_solution",
]

_SYM_TOL = 1e-9
# barrier-gap tolerance below which an unmet problem is declared infeasible,
# Newton iteration budget, and the box |x_j| <= BOX_BOUND on every variable
TOL = 1e-8
MAX_ITER = 500
BOX_BOUND = 1e6


def _symmetrize(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square")
    skew = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    scale = max(1.0, float(np.max(np.abs(mat)))) if mat.size else 1.0
    if skew > _SYM_TOL * scale:
        raise ValueError(f"{what} is not symmetric (skew {skew:.3e})")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class LmiBlock:
    """One affine block F(x) = base + sum_j x_j coeffs[j] with a sense.

    sense "strict" demands lambda_max(F(x)) <= -margin, sense "psd" demands
    lambda_min(F(x)) >= -margin.
    """

    base: np.ndarray
    coeffs: np.ndarray          # shape (num_vars, d, d)
    sense: str = "strict"
    margin: float = 0.0
    name: str = ""

    def __post_init__(self):
        base = _symmetrize(self.base, f"block {self.name!r} base")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != base.shape:
            raise ValueError(f"block {self.name!r} coefficient stack has bad shape")
        skew = np.max(np.abs(coeffs - coeffs.swapaxes(1, 2)), axis=(1, 2), initial=0.0)
        scale = np.max(np.abs(coeffs), axis=(1, 2), initial=1.0)
        bad = np.flatnonzero(skew > _SYM_TOL * scale)
        if bad.size:
            j = bad[0]
            raise ValueError(
                f"block {self.name!r} coeff {j} is not symmetric (skew {skew[j]:.3e})"
            )
        coeffs = 0.5 * (coeffs + coeffs.swapaxes(1, 2))
        if self.sense not in ("strict", "psd"):
            raise ValueError(f"unknown block sense {self.sense!r}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.base.shape[0]


@dataclass(frozen=True)
class LmiProblem:
    num_vars: int
    blocks: tuple[LmiBlock, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("problem needs at least one variable")
        if not self.blocks:
            raise ValueError("problem needs at least one block")
        for b in self.blocks:
            if b.coeffs.shape[0] != self.num_vars:
                raise ValueError(
                    f"block {b.name!r} has {b.coeffs.shape[0]} coefficient "
                    f"matrices for {self.num_vars} variables"
                )
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def assemble(self, block: LmiBlock, x: np.ndarray) -> np.ndarray:
        """F(x) for one block, symmetrized against accumulated roundoff."""
        F = block.base + np.tensordot(x, block.coeffs, axes=(0, 0))
        return 0.5 * (F + F.T)


@dataclass(frozen=True)
class BlockCheck:
    name: str
    sense: str
    extreme_eig: float          # lambda_max for strict blocks, lambda_min for psd
    margin: float
    ok: bool


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    slack: float                # max over blocks of the phase-I eigenvalue slack
    status: str                 # feasible | infeasible | numerical-failure
    iterations: int
    blocks: tuple[BlockCheck, ...] = field(default_factory=tuple)
    message: str = ""


def check_solution(problem: LmiProblem, x: np.ndarray) -> tuple[BlockCheck, ...]:
    """Extreme eigenvalue of every assembled block at x, by eigendecomposition.

    Deliberately independent of the solver: this is the acceptance oracle for
    any claimed feasible point.
    """
    x = np.asarray(x, dtype=float)
    if x.size != problem.num_vars:
        raise ValueError("x has the wrong number of variables")
    out = []
    for b in problem.blocks:
        eigs = np.linalg.eigvalsh(problem.assemble(b, x))
        if b.sense == "strict":
            ext = float(eigs[-1])
            ok = ext <= -b.margin
        else:
            ext = float(eigs[0])
            ok = ext >= -b.margin
        out.append(BlockCheck(b.name, b.sense, ext, b.margin, ok))
    return tuple(out)


def _phase1_slack(checks: tuple[BlockCheck, ...]) -> float:
    """max_k lambda_max of the sign-unified blocks (the phase-I objective)."""
    return max(c.extreme_eig if c.sense == "strict" else -c.extreme_eig for c in checks)


def _unified_stacks(problem: LmiProblem) -> tuple[list, list]:
    """Phase-I data of every block: G^k(x) = bases[k] - sum_j x_j C^k_j.

    With z = (x, t) the barrier argument is S_k(z) = t*I - G^k(x)
    = sum_j z_j C^k_j - bases[k]; the last coefficient C^k_m is the identity.
    """
    m = problem.num_vars
    bases, stacks = [], []
    for b in problem.blocks:
        sign = 1.0 if b.sense == "strict" else -1.0
        C = np.empty((m + 1, b.dim, b.dim))
        C[:m] = -sign * b.coeffs
        C[m] = np.eye(b.dim)
        bases.append(sign * b.base)
        stacks.append(C)
    return bases, stacks


def _barrier_terms(L: np.ndarray, C: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """log det S, grad and Hessian of -log det S(z), from the factor S = L L'.

    With the scaled stack A_j = L^-1 C_j L^-T the gradient is -tr(A_j) and
    the Hessian is the Gram matrix <A_j, A_k> = tr(S^-1 C_j S^-1 C_k): one
    GEMM over the flattened stack (the Schur-complement form of the Newton
    system).
    """
    Linv = np.linalg.inv(L)
    A = Linv @ C @ Linv.T
    flat = A.reshape(A.shape[0], -1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return logdet, -np.trace(A, axis1=1, axis2=2), flat @ flat.T


def solve_feasibility(problem: LmiProblem) -> SdpSolution:
    """Decide feasibility of an LMI system and return a certified point.

    Newton with Cholesky step solves and Armijo backtracking (factor 0.5,
    slope 0.01) minimizes t/mu - sum_k log det(t*I - G^k(x)) over a shrinking
    barrier parameter mu, starting from x = 0 and t0 = max_k lambda_max + 1.
    Variables are confined to |x_j| <= BOX_BOUND, which keeps the phase-I
    objective bounded for homogeneous systems.

    Each Newton iteration factors every block once, S_k = L_k L_k'.  The
    barrier Hessian is the Schur-complement matrix H_ij = sum_k
    <L_k^-1 C_i L_k^-T, L_k^-1 C_j L_k^-T>, one GEMM per block over the
    scaled coefficient stack, and the same factors give the barrier value
    at which the line search starts.

    Every accepted point gets one eigendecomposition pass over the assembled
    blocks (``check_solution``); the returned per-block checks and slack come
    from that pass, and the first point passing all contracts is returned as
    feasible.  If the barrier gap closes below TOL first, the problem is
    declared infeasible with the residual slack.  Newton breakdowns and
    iteration exhaustion give numerical-failure.
    """
    m = problem.num_vars
    bases, stacks = _unified_stacks(problem)

    def s_of(k: int, z: np.ndarray) -> np.ndarray:
        G = bases[k] - np.tensordot(z[:m], stacks[k][:m], axes=(0, 0))
        return z[m] * np.eye(G.shape[0]) - 0.5 * (G + G.T)

    def chol_or_none(S: np.ndarray):
        try:
            return np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return None

    def box_value(x: np.ndarray) -> float:
        if np.any(np.abs(x) >= BOX_BOUND):
            return np.inf
        return -float(np.sum(np.log(BOX_BOUND - x) + np.log(BOX_BOUND + x)))

    def barrier_value(z: np.ndarray, mu: float) -> float:
        val = z[m] / mu
        for k in range(len(stacks)):
            L = chol_or_none(s_of(k, z))
            if L is None:
                return np.inf
            val -= 2.0 * float(np.sum(np.log(np.diag(L))))
        return val + box_value(z[:m])

    checks = check_solution(problem, np.zeros(m))
    t0 = _phase1_slack(checks) + 1.0
    z = np.concatenate([np.zeros(m), [t0]])
    nu = sum(b.dim for b in problem.blocks) + 2 * m
    mu = 1.0 + abs(t0)
    shrink = 0.2
    iterations = 0

    def finish(status: str, message: str = "") -> SdpSolution:
        # ``checks`` always belongs to the current z
        return SdpSolution(
            x=z[:m].copy(),
            slack=_phase1_slack(checks),
            status=status,
            iterations=iterations,
            blocks=checks,
            message=message,
        )

    if all(c.ok for c in checks):
        return finish("feasible", "origin already satisfies all contracts")

    while True:
        # center at the current mu
        for _ in range(200):
            if iterations >= MAX_ITER:
                return finish(
                    "numerical-failure", f"iteration budget {MAX_ITER} exhausted"
                )
            x = z[:m]
            grad = np.zeros(m + 1)
            hess = np.zeros((m + 1, m + 1))
            grad[m] = 1.0 / mu
            f0 = z[m] / mu + box_value(x)
            for k, C in enumerate(stacks):
                L = chol_or_none(s_of(k, z))
                if L is None:
                    return finish(
                        "numerical-failure", "iterate left the barrier domain"
                    )
                logdet, g, h = _barrier_terms(L, C)
                f0 -= logdet
                grad += g
                hess += h
            lo, hi = 1.0 / (BOX_BOUND - x), 1.0 / (BOX_BOUND + x)
            grad[:m] += lo - hi
            hess[np.diag_indices(m)] += lo**2 + hi**2
            try:
                Lh = np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                hess += 1e-12 * np.trace(hess) / (m + 1) * np.eye(m + 1)
                try:
                    Lh = np.linalg.cholesky(hess)
                except np.linalg.LinAlgError:
                    return finish(
                        "numerical-failure", "barrier Hessian lost definiteness"
                    )
            dz = -np.linalg.solve(Lh.T, np.linalg.solve(Lh, grad))
            decrement2 = float(-grad @ dz)
            if decrement2 / 2.0 <= 1e-10:
                break
            slope = float(grad @ dz)
            alpha = 1.0
            stepped = False
            while alpha > 1e-14:
                zn = z + alpha * dz
                if barrier_value(zn, mu) <= f0 + 0.01 * alpha * slope:
                    stepped = True
                    break
                alpha *= 0.5
            if not stepped:
                break
            z = z + alpha * dz
            iterations += 1
            checks = check_solution(problem, z[:m])
            if all(c.ok for c in checks):
                return finish("feasible")
        # the contracts at this z were tested when it was accepted, and failed
        if nu * mu <= TOL:
            worst = max(
                (c for c in checks if not c.ok),
                key=lambda c: abs(c.extreme_eig),
                default=None,
            )
            msg = (
                f"barrier gap {nu * mu:.2e} below tol with contracts unmet"
                + (f"; worst block {worst.name!r}" if worst is not None else "")
            )
            return finish("infeasible", msg)
        mu *= shrink
