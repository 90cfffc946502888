import numpy as np
import pytest

from esc_sat import sdp
from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope
from esc_sat.sdp import (
    LmiBlock,
    LmiProblem,
    _barrier_terms,
    _unified_stacks,
    check_solution,
    solve_feasibility,
)
from esc_sat.synthesis import _assemble_aw_problem, _assemble_gradsat_problem


def block(base, coeffs, sense="strict", margin=0.0, name=""):
    return LmiBlock(
        base=np.atleast_2d(np.asarray(base, dtype=float)),
        coeffs=np.array([np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]),
        sense=sense,
        margin=margin,
        name=name,
    )


def scalar_lyapunov_problem(a: float) -> LmiProblem:
    """Find p with 2*a*p strictly negative and p >= 1."""
    return LmiProblem(
        num_vars=1,
        blocks=(
            block([[0.0]], [[[2.0 * a]]], "strict", 1e-7, "lyap"),
            block([[-1.0]], [[[1.0]]], "psd", 1e-9, "p_floor"),
        ),
    )


def test_stable_scalar_is_feasible():
    sol = solve_feasibility(scalar_lyapunov_problem(-1.0))
    assert sol.status == "feasible"
    p = sol.x[0]
    assert p >= 1.0 - 1e-9
    assert 2.0 * (-1.0) * p <= -1e-7
    assert all(c.ok for c in check_solution(scalar_lyapunov_problem(-1.0), sol.x))


def test_unstable_scalar_is_infeasible():
    sol = solve_feasibility(scalar_lyapunov_problem(+1.0))
    assert sol.status == "infeasible"
    assert sol.slack > 0


def test_interval_intersection():
    # diag(x - 1, 2 - x) >= 0 pins x into [1, 2]
    prob = LmiProblem(
        num_vars=1,
        blocks=(
            block(np.diag([-1.0, 2.0]), [np.diag([1.0, -1.0])], "psd", 1e-9, "box"),
        ),
    )
    sol = solve_feasibility(prob)
    assert sol.status == "feasible"
    assert 1.0 - 1e-6 <= sol.x[0] <= 2.0 + 1e-6
    assert all(c.ok for c in check_solution(prob, sol.x))


def test_check_solution_zero_problem():
    prob = LmiProblem(
        num_vars=2,
        blocks=(block(np.zeros((2, 2)), [np.zeros((2, 2))] * 2, "psd", 0.0, "zero"),),
    )
    for x in ([0.0, 0.0], [3.0, -1.0]):
        checks = check_solution(prob, x)
        assert checks[0].extreme_eig == 0.0


def test_check_solution_hand_block():
    prob = LmiProblem(
        num_vars=1,
        blocks=(block(-np.eye(2), [np.eye(2)], "strict", 0.0, "shift"),),
    )
    checks = check_solution(prob, [0.0])
    assert checks[0].extreme_eig == pytest.approx(-1.0)
    assert checks[0].ok


def random_polytope(family: str, n: int, seed: int, spread: float) -> HessianPolytope:
    """Seeded polytopes shaped like the benchmark's random families.

    gradsat: three vertices around a negative definite nominal with spectrum
    -[3, 6], perturbed by ``spread`` in spectral norm; aw: (1 -/+ spread)
    times a positive definite nominal with spectrum [10, 100].
    """
    rng = np.random.default_rng([seed, n])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if family == "gradsat":
        h0 = -(q * np.linspace(3.0, 6.0, n)) @ q.T
        verts = []
        for _ in range(3):
            e = rng.standard_normal((n, n))
            e = e + e.T
            verts.append(h0 + spread * e / np.linalg.norm(e, 2))
    else:
        h0 = (q * np.geomspace(10.0, 100.0, n)) @ q.T
        verts = [(1.0 - spread) * h0, (1.0 + spread) * h0]
    return HessianPolytope(tuple(0.5 * (v + v.T) for v in verts))


def design_problem(family: str, n: int, seed: int, spread: float) -> LmiProblem:
    poly = random_polytope(family, n, seed, spread)
    if family == "gradsat":
        return _assemble_gradsat_problem(poly, 1.0, 0.5, SaturationBounds([2.0] * n))[0]
    return _assemble_aw_problem(poly, 1.0)[0]


def test_determinism():
    for prob in (scalar_lyapunov_problem(-1.0), design_problem("gradsat", 3, 1, 2.0)):
        a = solve_feasibility(prob)
        b = solve_feasibility(prob)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)


def einsum_barrier_terms(S, C):
    """Gradient and Hessian of -log det S(z) by the replaced path: an explicit
    S^-1 and unblocked contractions over the coefficient stack."""
    Si = np.linalg.solve(S, np.eye(S.shape[0]))
    U = np.einsum("ab,jbc->jac", Si, C)
    return -np.einsum("jaa->j", U), np.einsum("jab,kba->jk", U, U)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["aw", "gradsat"])
def test_schur_terms_match_einsum_reference(family, n):
    problem = design_problem(family, n, seed=7, spread=0.5)
    bases, stacks = _unified_stacks(problem)
    rng = np.random.default_rng([11, n])
    for _ in range(3):
        x = rng.standard_normal(problem.num_vars)
        G = [b - np.tensordot(x, C[:-1], axes=(0, 0)) for b, C in zip(bases, stacks)]
        t = max(np.linalg.eigvalsh(g)[-1] for g in G) + 1.0
        for g, C in zip(G, stacks):
            S = t * np.eye(g.shape[0]) - g
            logdet, grad, hess = _barrier_terms(np.linalg.cholesky(S), C)
            grad_ref, hess_ref = einsum_barrier_terms(S, C)
            assert logdet == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12)
            assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
            assert np.max(np.abs(hess - hess_ref)) <= 1e-12 * np.max(np.abs(hess_ref))


# (family, n, seed, spread) -> (status, Newton iterations), recorded with the
# replaced einsum Newton system.  Infeasible runs pin the status only: deep in
# the barrier their step acceptance is decided at roundoff level, and merely
# reordering the replaced path's own Hessian sum moves their count by 1-2.
PINNED_OUTCOMES = {
    ("gradsat", 2, 1, 2.0): ("feasible", 32),
    ("gradsat", 3, 1, 2.0): ("feasible", 35),
    ("gradsat", 4, 1, 0.5): ("feasible", 3),
    ("gradsat", 4, 2, 2.0): ("feasible", 33),
    ("aw", 2, 1, 0.9): ("feasible", 7),
    ("aw", 3, 2, 0.9): ("feasible", 8),
    ("aw", 4, 1, 0.5): ("feasible", 4),
    ("gradsat", 3, 2, 3.5): ("infeasible", None),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTCOMES), ids=str)
def test_pinned_outcomes_of_random_polytopes(case):
    status, iterations = PINNED_OUTCOMES[case]
    problem = design_problem(*case)
    sol = solve_feasibility(problem)
    assert sol.status == status
    if iterations is not None:
        assert sol.iterations == iterations
    assert sol.blocks == check_solution(problem, sol.x)


def test_scaling_preserves_verdict():
    for a, expected in ((-1.0, "feasible"), (+1.0, "infeasible")):
        base = scalar_lyapunov_problem(a)
        scaled = LmiProblem(
            num_vars=1,
            blocks=tuple(
                LmiBlock(
                    base=1e3 * b.base,
                    coeffs=1e3 * b.coeffs,
                    sense=b.sense,
                    margin=b.margin,
                    name=b.name,
                )
                for b in base.blocks
            ),
        )
        assert solve_feasibility(scaled).status == expected


def test_iteration_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITER", 1)
    sol = solve_feasibility(scalar_lyapunov_problem(-1.0))
    assert sol.status in ("feasible", "numerical-failure")
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    sol = solve_feasibility(scalar_lyapunov_problem(+1.0))
    assert sol.status == "numerical-failure"
    assert sol.message == "iteration budget 2 exhausted"


def test_block_validation():
    with pytest.raises(ValueError):
        block(np.array([[0.0, 1.0], [0.0, 0.0]]), [np.eye(2)])
    with pytest.raises(ValueError, match="coeff 1"):
        block(np.zeros((2, 2)), [np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError):
        LmiBlock(np.zeros((1, 1)), np.zeros((1, 1, 1)), sense="weird")
    with pytest.raises(ValueError):
        LmiProblem(num_vars=2, blocks=(block([[0.0]], [[[1.0]]]),))
