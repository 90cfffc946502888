"""Dense feasibility solver for small linear matrix inequality systems.

A problem is a set of affine symmetric-matrix maps F^k(x) = F0^k + sum_j x_j
F_j^k, each required strictly negative definite or positive semidefinite up
to a per-block margin.  Feasibility is decided through the phase-I program

    minimize t  s.t.  F^k(x) <= t*I  (strict blocks),  -F^k(x) <= t*I  (psd),

solved with a log-det barrier and damped Newton steps.  The systems arising
here are small (up to a few hundred scalar unknowns, blocks of order <= 24),
so a dense second-order method is both the simplest and the most reliable
choice.

Every point z = (x, t) the solver visits is assembled and factored once,
block by block (the origin once more, to choose its t): S_k(z) = t*I -
sign_k F^k(x) = L_k L_k', with sign_k = +1 for strict blocks and -1 for
psd ones.  The factors give the point's barrier value, on which the line
search accepts or rejects it, and, once it is accepted, its Newton system
in Schur-complement form (Vandenberghe & Boyd, "Semidefinite Programming",
SIAM Review 1996): each block's coefficient matrices are scaled to
A_j = L^-1 C_j L^-T, a bounded chunk at a time, into a buffer of the
block's size, and the barrier Hessian <A_i, A_j> is one matrix product over
that buffer, flattened, added into the Newton system in place.

A block stores the matrices of the variables it involves (its support)
sparse, as the flat position and value of each nonzero entry, and every
reader writes them back densely, one bounded chunk at a time, before doing
its arithmetic dense, as SDPA does (Fujisawa, Kojima & Nakata, Math.
Programming 79, 1997).  The densified matrices are the symmetrized input's
bits, so assembly and scaling read the same numbers a dense stack would
give them; the Hessian product keeps a zero row for every variable outside
the support, which leaves its bits those of the dense product.  The solver
keeps no copy of the problem's data, so a solve's working memory is its
stored problem plus a few dense copies of its largest block.

The solver never trusts its own barrier state: a candidate is accepted only
once an eigendecomposition of every assembled block meets the margins.  That
one pass per accepted point reads the blocks its factors were formed from,
and is the pass ``check_solution`` makes, the same oracle callers use
independently of the solve path; the returned block checks and slack are
taken from it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import InitVar, dataclass, field

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
# doubles of dense coefficient matrices a block symmetrizes, and
# ``_barrier_terms`` densifies and scales, at once
_CHUNK = 1 << 14


def _symmetric_part(
    block: str, what: str, stack: np.ndarray, first: int = 0
) -> np.ndarray:
    """(S + S')/2 of every matrix S of a (k, d, d) stack, in one new array.

    Matrix j, if not finite or not symmetric to _SYM_TOL of its largest
    entry, is refused with a ValueError naming ``block`` and
    ``what.format(first + j)``.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        j = np.argmin(finite)
        raise ValueError(f"block {block!r} {what.format(first + j)} is not finite")
    # ``work`` holds |S - S'|, then |S|, then the symmetric part
    stack_t = stack.swapaxes(1, 2)
    work = np.subtract(stack, stack_t)
    skew = np.max(np.abs(work, out=work), axis=(1, 2), initial=0.0)
    scale = np.max(np.abs(stack, out=work), axis=(1, 2), initial=1.0)
    bad = np.flatnonzero(skew > _SYM_TOL * scale)
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"block {block!r} {what.format(first + j)} is not symmetric "
            f"(skew {skew[j]:.3e})"
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
    variable of its problem, and keeps the symmetric part of each, checked
    and symmetrized _CHUNK doubles of matrices at a time (the first matrix
    refused is the first of the first chunk holding one).  Its matrices
    come from unit-vector evaluations and are mostly exact zeros, so it
    stores only their nonzero entries: ``num_vars`` is m, ``support`` the
    sorted indices of the matrices that are not exactly zero, and the k-th
    of them, C_{support[k]}, has its nonzero entries at the flat positions
    ``index[offsets[k]:offsets[k + 1]]`` of the (support.size, d, d) stack
    of support matrices, with values ``values[offsets[k]:offsets[k + 1]]``.
    A -0.0 entry is a zero, so it is stored as absent and densifies as
    +0.0.  ``densify`` writes support matrices back densely into zeros, and
    every reader of the coefficients goes through it.
    """

    base: np.ndarray
    coeffs: InitVar[np.ndarray]     # shape (num_vars, d, d); not kept
    sense: str = "strict"
    margin: float = 0.0
    name: str = ""
    support: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    index: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    num_vars: int = field(init=False)

    def __post_init__(self, coeffs):
        base = np.asarray(self.base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError(f"block {self.name!r} base must be square")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != base.shape:
            raise ValueError(f"block {self.name!r} coefficient stack has bad shape")
        base = _symmetric_part(self.name, "base", base[None])[0]
        d2 = base.size
        step = max(1, _CHUNK // d2)
        # per chunk: its support, and the flat position and value of each
        # stored entry
        parts = []
        kept = 0
        # one chunk at least, so that an empty stack stores empty arrays
        for lo in range(0, max(len(coeffs), 1), step):
            sym = _symmetric_part(self.name, "coeff {}", coeffs[lo:lo + step], lo)
            sym = sym.reshape(len(sym), d2)
            nonzero = sym != 0.0  # false at -0.0
            keep = np.flatnonzero(nonzero.any(axis=1))
            nonzero = nonzero[keep]
            flat = np.flatnonzero(nonzero)
            parts.append((lo + keep, kept * d2 + flat, sym[keep].ravel()[flat]))
            kept += keep.size
        if self.sense not in ("strict", "psd"):
            raise ValueError(f"unknown block sense {self.sense!r}")
        if not 0 <= self.margin < np.inf:
            raise ValueError(
                f"block {self.name!r} margin {self.margin!r} must be finite and "
                "nonnegative"
            )
        support, index, values = (np.concatenate(p) for p in zip(*parts))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "num_vars", len(coeffs))
        object.__setattr__(self, "support", support)
        # index is sorted, and support matrix k's flat positions start at k * d2
        object.__setattr__(self, "offsets", np.searchsorted(index, d2 * np.arange(kept + 1)))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes the block stores: its base and its sparse coefficients."""
        return sum(
            a.nbytes for a in (self.base, self.support, self.offsets, self.index, self.values)
        )

    def densify(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Support matrices lo:hi, C_{support[lo]} to C_{support[hi - 1]},
        written densely into ``out[:hi - lo]``, which must hold zeros and is
        returned."""
        dense = out[:hi - lo]
        first, last = self.offsets[lo], self.offsets[hi]
        index = self.index[first:last]
        dense.put(index - lo * self.base.size if lo else index, self.values[first:last])
        return dense


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
        k = block.support.size
        coeffs = block.densify(0, k, np.zeros((k,) + block.base.shape))
        F = block.base + np.tensordot(x[block.support], coeffs, axes=(0, 0))
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
    return _checks(problem, (problem.assemble(b, x) for b in problem.blocks))


def _checks(problem: LmiProblem, assembled) -> tuple[BlockCheck, ...]:
    """``check_solution`` of the blocks assembled at one point, in block order."""
    out = []
    for b, F in zip(problem.blocks, assembled):
        eigs = np.linalg.eigvalsh(F)
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


def _factors(
    problem: LmiProblem, z: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
    """Cholesky factors of every S_k(z) = t*I - sign_k F^k(x), z = (x, t),
    and the assembled blocks F^k(x) they were formed from.

    None when some S_k is not positive definite, i.e. z lies outside the
    barrier domain.
    """
    x, t = z[:-1], z[-1]
    factors, blocks = [], []
    try:
        for b in problem.blocks:
            blocks.append(problem.assemble(b, x))
            factors.append(np.linalg.cholesky(t * np.eye(b.dim) - _sign(b) * blocks[-1]))
    except np.linalg.LinAlgError:
        return None
    return factors, blocks


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
    ``block.support``, one run of consecutive variables of at most _CHUNK
    doubles at a time, are densified from the block's stored entries
    straight into their own rows, which the scaled matrices then overwrite
    through one small buffer (negated in place for strict blocks, which is
    exact); every other row of x stays exact zeros, and row m is
    L^-1 L^-T.  The gradient is -tr(A_j) and the Hessian the Gram matrix
    <A_j, A_k> = tr(S^-1 C_j S^-1 C_k): one product over the flattened
    buffer (the Schur-complement form of the Newton system).

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
    # densified into its own rows of A and scaled through ``work`` in place
    ends = np.flatnonzero(np.diff(support) != 1) + 1
    for start, end in zip([0, *ends], [*ends, support.size]):
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            rows = block.densify(lo, hi, A[support[lo]:support[lo] + hi - lo])
            np.matmul(Linv, rows, out=work[:hi - lo])
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

    Every point is assembled and factored once, S_k = L_k L_k'
    (``_factors``): a trial point of the line search is accepted or
    rejected on the barrier value of its factors, and an accepted point's
    factors give the next Newton system, H_ij = sum_k <L_k^-1 C_i L_k^-T,
    L_k^-1 C_j L_k^-T> with one product per block over its scaled
    coefficients (``_barrier_terms``, which densifies each block's support a
    chunk at a time and adds its terms into the one gradient and Hessian),
    and the barrier value at which its line search starts.

    Every accepted point gets one eigendecomposition pass over the blocks
    its factors were formed from (``check_solution``'s pass); the returned
    per-block checks and slack come from that pass, and the first point
    passing all contracts is returned as feasible.  If the barrier gap
    closes below TOL first, the problem is declared infeasible with the
    residual slack.  Newton breakdowns and iteration exhaustion give
    numerical-failure.  Each solve logs one DEBUG record under
    ``esc_sat.sdp`` with its outcome, time and problem size, the stored
    nonzeros and bytes of its blocks, each block's support size, and the
    step length and barrier value of each accepted iteration.
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
            "blocks of order %s, %d stored nonzeros, %d stored bytes, supports "
            "of size %s; step lengths %s, barrier values %s",
            status, iterations, slack, time.perf_counter() - start, m,
            [b.dim for b in problem.blocks],
            sum(b.values.size for b in problem.blocks),
            sum(b.nbytes for b in problem.blocks),
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
    point = _factors(problem, z)
    f0 = np.nan if point is None else _barrier_value(z, point[0], mu)
    if not np.isfinite(f0):
        return finish("numerical-failure", "barrier is not finite at the initial point")
    factors = point[0]

    while True:
        # center at the current mu; f0 is the barrier value at z under it
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
            alpha = 1.0
            while alpha > 1e-14:
                zn = z + alpha * dz
                trial = _factors(problem, zn)
                if trial is not None:
                    value = _barrier_value(zn, trial[0], mu)
                    if value <= f0 + 0.01 * alpha * slope:
                        break
                alpha *= 0.5
            else:
                break
            (factors, assembled), z, f0 = trial, zn, value
            iterations += 1
            steps.append(alpha)
            values.append(float(value))
            checks = _checks(problem, assembled)
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
        f0 = _barrier_value(z, factors, mu)
