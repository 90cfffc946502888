"""Dense feasibility solver for small linear matrix inequality systems.

A problem is a set of affine symmetric-matrix maps F^k(x) = F0^k + sum_j x_j
F_j^k, each required strictly negative definite or positive semidefinite up
to a per-block margin.  Feasibility is decided through the phase-I program

    minimize t  s.t.  F^k(x) <= t*I  (strict blocks),  -F^k(x) <= t*I  (psd),

solved with a log-det barrier and damped Newton steps.  The systems arising
here are small (up to a few hundred scalar unknowns, blocks of order <= 24),
so a dense second-order method is both the simplest and the most reliable
choice.

Every point z = (x, t) the solver visits is factored once, block by block:
S_k(z) = t*I - sign_k F^k(x) = L_k L_k', with sign_k = +1 for strict blocks
and -1 for psd ones.  The factors give the point's barrier value, on which
the line search accepts or rejects it, and, once it is accepted, its Newton
system in Schur-complement form (Vandenberghe & Boyd, "Semidefinite
Programming", SIAM Review 1996): each block's coefficient matrices are
scaled to A_j = L^-1 C_j L^-T, a bounded chunk at a time, into a buffer of
the block's size, and the barrier Hessian <A_i, A_j> is one matrix product
over that buffer, flattened, added into the Newton system in place.

A block stores only the matrices of the variables it involves (its
support), as SDPA's Schur-complement formulas exploit (Fujisawa, Kojima &
Nakata, Math. Programming 79, 1997); assembly and scaling read the support
only, while the Hessian product keeps a zero row for every other variable,
which leaves its bits those of the dense product.  The solver keeps no copy
of the problem's data, so a solve's working memory is its problem plus a
few copies of its largest block.

The solver never trusts its own barrier state: a candidate is accepted only
once an eigendecomposition of every assembled block meets the margins.  That
one pass per accepted point is ``check_solution``, the same oracle callers
use independently of the solve path, and the returned block checks and
slack are taken from it.
"""

from __future__ import annotations

import logging
import time
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

log = logging.getLogger(__name__)

_SYM_TOL = 1e-9
# barrier-gap tolerance below which an unmet problem is declared infeasible,
# Newton iteration budget, and the box |x_j| <= BOX_BOUND on every variable
TOL = 1e-8
MAX_ITER = 500
BOX_BOUND = 1e6
# doubles of scaled coefficient matrices ``_barrier_terms`` forms at once
_CHUNK = 1 << 14


def _symmetric_part(block: str, what: str, stack: np.ndarray) -> np.ndarray:
    """(S + S')/2 of every matrix S of a (k, d, d) stack, in one new array.

    Matrix j, if not finite or not symmetric to _SYM_TOL of its largest
    entry, is refused with a ValueError naming ``block`` and
    ``what.format(j)``.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        j = np.argmin(finite)
        raise ValueError(f"block {block!r} {what.format(j)} is not finite")
    # ``work`` holds |S - S'|, then |S|, then the symmetric part
    stack_t = stack.swapaxes(1, 2)
    work = np.subtract(stack, stack_t)
    skew = np.max(np.abs(work, out=work), axis=(1, 2), initial=0.0)
    scale = np.max(np.abs(stack, out=work), axis=(1, 2), initial=1.0)
    bad = np.flatnonzero(skew > _SYM_TOL * scale)
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"block {block!r} {what.format(j)} is not symmetric (skew {skew[j]:.3e})"
        )
    np.add(stack, stack_t, out=work)
    work *= 0.5
    return work


@dataclass(frozen=True)
class LmiBlock:
    """One affine block F(x) = base + sum_j x_j C_j with a sense.

    sense "strict" demands lambda_max(F(x)) <= -margin, sense "psd" demands
    lambda_min(F(x)) >= -margin.

    The block is given the full stack (C_0, ..., C_{m-1}), one matrix per
    variable of its problem, and keeps the symmetric part of each.  Most
    blocks of a design involve few of the variables, so it stores only the
    matrices that are not exactly zero: ``num_vars`` is m, ``support`` the
    sorted indices of the kept matrices, and ``coeffs[k]`` is C_{support[k]}.
    """

    base: np.ndarray
    coeffs: np.ndarray          # shape (support.size, d, d); given as (num_vars, d, d)
    sense: str = "strict"
    margin: float = 0.0
    name: str = ""
    support: np.ndarray = field(init=False, repr=False)
    num_vars: int = field(init=False)

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError(f"block {self.name!r} base must be square")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != base.shape:
            raise ValueError(f"block {self.name!r} coefficient stack has bad shape")
        base = _symmetric_part(self.name, "base", base[None])[0]
        sym = _symmetric_part(self.name, "coeff {}", coeffs)
        if self.sense not in ("strict", "psd"):
            raise ValueError(f"unknown block sense {self.sense!r}")
        if not 0 <= self.margin < np.inf:
            raise ValueError(
                f"block {self.name!r} margin {self.margin!r} must be finite and "
                "nonnegative"
            )
        support = np.flatnonzero(sym.any(axis=(1, 2)))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "num_vars", len(sym))
        object.__setattr__(self, "support", support)
        # a full support keeps ``sym`` as it is, uncopied
        object.__setattr__(self, "coeffs", sym[support] if support.size < len(sym) else sym)

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
            if b.num_vars != self.num_vars:
                raise ValueError(
                    f"block {b.name!r} has {b.num_vars} coefficient "
                    f"matrices for {self.num_vars} variables"
                )
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def assemble(self, block: LmiBlock, x: np.ndarray) -> np.ndarray:
        """F(x) for one block, symmetrized against accumulated roundoff."""
        F = block.base + np.tensordot(x[block.support], block.coeffs, axes=(0, 0))
        return 0.5 * (F + F.T)


@dataclass(frozen=True)
class BlockCheck:
    name: str
    sense: str
    extreme_eig: float          # lambda_max for strict blocks, lambda_min for psd
    margin: float
    ok: bool

    @property
    def slack(self) -> float:
        """Phase-I slack of the block: lambda_max if strict, -lambda_min if
        psd.  The block's contract is slack <= -margin."""
        return self.extreme_eig if self.sense == "strict" else -self.extreme_eig


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    slack: float                # max over blocks of BlockCheck.slack
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


def _sign(block: LmiBlock) -> float:
    """+1 for strict blocks, -1 for psd: phase I bounds sign * F(x) by t*I."""
    return 1.0 if block.sense == "strict" else -1.0


def _factors(problem: LmiProblem, z: np.ndarray) -> list[np.ndarray] | None:
    """Cholesky factors of every S_k(z) = t*I - sign_k F^k(x), z = (x, t).

    None when some S_k is not positive definite, i.e. z lies outside the
    barrier domain.
    """
    x, t = z[:-1], z[-1]
    try:
        return [
            np.linalg.cholesky(t * np.eye(b.dim) - _sign(b) * problem.assemble(b, x))
            for b in problem.blocks
        ]
    except np.linalg.LinAlgError:
        return None


def _barrier_value(z: np.ndarray, factors: list[np.ndarray], mu: float) -> float:
    """t/mu - sum_k log det S_k(z) - sum_j log(BOX_BOUND^2 - x_j^2).

    ``factors`` are those of ``_factors`` at z; outside the box the value is
    infinite.
    """
    x = z[:-1]
    if np.any(np.abs(x) >= BOX_BOUND):
        return np.inf
    val = z[-1] / mu
    for L in factors:
        val -= 2.0 * float(np.sum(np.log(np.diag(L))))
    return val - float(np.sum(np.log(BOX_BOUND - x) + np.log(BOX_BOUND + x)))


def _barrier_terms(
    L: np.ndarray, block: LmiBlock, grad: np.ndarray, hess: np.ndarray
) -> None:
    """Add the gradient and Hessian in z = (x, t) of -log det S(z), S(z) =
    t*I - sign F(x) for one block, to ``grad`` and ``hess``, from the factor
    S = L L'.

    S's coefficient matrices are -sign C_j for x_j and I for t.  Scaled to
    A_j = L^-1 C_j L^-T they fill one (m+1, d, d) buffer: the rows of
    ``block.support`` straight from ``block.coeffs``, one run of consecutive
    variables of at most _CHUNK doubles at a time (negated in place for
    strict blocks, which is exact), every other row of x exact zeros, and
    row m L^-1 L^-T.  The gradient is -tr(A_j) and the Hessian the Gram
    matrix <A_j, A_k> = tr(S^-1 C_j S^-1 C_k): one product over the
    flattened buffer (the Schur-complement form of the Newton system).

    The Gram keeps the zero rows: a product over the support rows alone
    tiles the same sums differently and changes their last bits, while zero
    rows add exact zeros.  Row m multiplies a copy of L^-1 by L^-T: numpy
    sends an operand times its own transpose to SYRK, which rounds
    differently from the GEMM that gives every other row, so the copy keeps
    all rows on one kernel.
    """
    Linv = np.linalg.inv(L)
    m = block.num_vars
    A = np.zeros((m + 1,) + L.shape)
    support = block.support
    step = max(1, _CHUNK // L.size)
    work = np.empty((min(support.size, step),) + L.shape)
    # each run of consecutive variables, in chunks of ``step`` matrices, is
    # scaled through ``work`` straight into its own rows of A
    ends = np.flatnonzero(np.diff(support) != 1) + 1
    for start, end in zip([0, *ends], [*ends, support.size]):
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            rows = A[support[lo]:support[lo] + hi - lo]
            np.matmul(Linv, block.coeffs[lo:hi], out=work[:hi - lo])
            np.matmul(work[:hi - lo], Linv.T, out=rows)
            if block.sense == "strict":
                np.negative(rows, out=rows)
    np.matmul(Linv.copy(), Linv.T, out=A[m])
    flat = A.reshape(m + 1, -1)
    grad -= np.trace(A, axis1=1, axis2=2)
    hess += flat @ flat.T


def solve_feasibility(problem: LmiProblem) -> SdpSolution:
    """Decide feasibility of an LMI system and return a certified point.

    Newton with Cholesky step solves and Armijo backtracking (factor 0.5,
    slope 0.01) minimizes t/mu - sum_k log det(t*I - sign_k F^k(x)) over a
    shrinking barrier parameter mu, starting from x = 0 and t0 = max_k slack
    + 1.  Variables are confined to |x_j| <= BOX_BOUND, which keeps the
    phase-I objective bounded for homogeneous systems.

    Every point is factored once, S_k = L_k L_k' (``_factors``): a trial
    point of the line search is accepted or rejected on the barrier value
    of its factors, and an accepted point's factors give the next Newton
    system, H_ij = sum_k <L_k^-1 C_i L_k^-T, L_k^-1 C_j L_k^-T> with one
    product per block over its scaled coefficients (``_barrier_terms``,
    which reads each block's support in place and adds its terms into the
    one gradient and Hessian), and the barrier value at which its line
    search starts.

    Every accepted point gets one eigendecomposition pass over the assembled
    blocks (``check_solution``); the returned per-block checks and slack come
    from that pass, and the first point passing all contracts is returned as
    feasible.  If the barrier gap closes below TOL first, the problem is
    declared infeasible with the residual slack.  Newton breakdowns and
    iteration exhaustion give numerical-failure.  Each solve logs one DEBUG
    record under ``esc_sat.sdp`` with its outcome, time and problem size,
    each block's support size, and the step length and barrier value of
    each accepted iteration.
    """
    start = time.perf_counter()
    m = problem.num_vars
    checks = check_solution(problem, np.zeros(m))
    t0 = max(c.slack for c in checks) + 1.0
    z = np.concatenate([np.zeros(m), [t0]])
    nu = sum(b.dim for b in problem.blocks) + 2 * m
    mu = 1.0 + abs(t0)
    iterations = 0
    steps, values = [], []  # step length and barrier value of each accepted point

    def finish(status: str, message: str = "") -> SdpSolution:
        # ``checks`` always belongs to the current z
        slack = max(c.slack for c in checks)
        log.debug(
            "solve: %s, %d iterations, slack %.3e, %.6f s; %d variables, "
            "blocks of order %s, %d coefficient bytes, supports of size %s; "
            "step lengths %s, barrier values %s",
            status, iterations, slack, time.perf_counter() - start, m,
            [b.dim for b in problem.blocks],
            sum(b.coeffs.nbytes for b in problem.blocks),
            [b.support.size for b in problem.blocks], steps, values,
        )
        return SdpSolution(
            x=z[:m].copy(),
            slack=slack,
            status=status,
            iterations=iterations,
            blocks=checks,
            message=message,
        )

    if all(c.ok for c in checks):
        return finish("feasible", "origin already satisfies all contracts")
    # S_k(z0) >= I by the choice of t0, so only non-finite data fail here
    # (a non-finite t0 would leave mu non-finite and the barrier gap open)
    factors = _factors(problem, z)
    if factors is None or not np.isfinite(_barrier_value(z, factors, mu)):
        return finish("numerical-failure", "barrier is not finite at the initial point")

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
            for L, b in zip(factors, problem.blocks):
                _barrier_terms(L, b, grad, hess)
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
            del Lh  # before the next Newton system is formed
            slope = float(grad @ dz)
            if -slope / 2.0 <= 1e-10:  # half the squared Newton decrement
                break
            f0 = _barrier_value(z, factors, mu)
            alpha = 1.0
            while alpha > 1e-14:
                zn = z + alpha * dz
                trial = _factors(problem, zn)
                if trial is not None:
                    value = _barrier_value(zn, trial, mu)
                    if value <= f0 + 0.01 * alpha * slope:
                        break
                alpha *= 0.5
            else:
                break
            z, factors = zn, trial
            iterations += 1
            steps.append(alpha)
            values.append(float(value))
            checks = check_solution(problem, z[:m])
            if all(c.ok for c in checks):
                return finish("feasible")
        # the contracts at this z were tested when it was accepted, and failed
        if nu * mu <= TOL:
            worst = max((c for c in checks if not c.ok), key=lambda c: c.slack)
            return finish(
                "infeasible",
                f"barrier gap {nu * mu:.2e} below tol with contracts unmet; "
                f"worst block {worst.name!r}",
            )
        mu *= 0.2
