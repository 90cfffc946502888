import numpy as np
import pytest

from esc_sat import sdp
from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope
from esc_sat.sdp import (
    BlockCheck,
    LmiBlock,
    LmiProblem,
    _barrier_terms,
    _barrier_value,
    _factors,
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
    signs = [1.0 if b.sense == "strict" else -1.0 for b in problem.blocks]
    # S_k(z) = sum_j z_j C_j - sign_k F0^k with z = (x, t): C_m is the identity
    stacks = [
        np.concatenate([-s * b.coeffs, np.eye(b.dim)[None]])
        for s, b in zip(signs, problem.blocks)
    ]
    rng = np.random.default_rng([11, n])
    mu = 0.3
    for _ in range(3):
        x = rng.standard_normal(problem.num_vars)
        G = [s * problem.assemble(b, x) for s, b in zip(signs, problem.blocks)]
        t = max(np.linalg.eigvalsh(g)[-1] for g in G) + 1.0
        z = np.append(x, t)
        factors = _factors(problem, z)
        logdet = 0.0
        for s, b, g, C, L in zip(signs, problem.blocks, G, stacks, factors):
            S = t * np.eye(g.shape[0]) - g
            assert np.max(np.abs(L @ L.T - S)) <= 1e-12 * np.max(np.abs(S))
            S_of_stack = np.tensordot(z, C, axes=(0, 0)) - s * b.base
            assert np.max(np.abs(S_of_stack - S)) <= 1e-12 * np.max(np.abs(S))
            grad, hess = _barrier_terms(L, C)
            grad_ref, hess_ref = einsum_barrier_terms(S, C)
            assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
            assert np.max(np.abs(hess - hess_ref)) <= 1e-12 * np.max(np.abs(hess_ref))
            logdet += np.linalg.slogdet(S)[1]
        box = np.sum(np.log(sdp.BOX_BOUND - x) + np.log(sdp.BOX_BOUND + x))
        assert _barrier_value(z, factors, mu) == pytest.approx(
            t / mu - logdet - box, rel=1e-12
        )


def test_barrier_value_outside_the_box_is_infinite():
    problem = scalar_lyapunov_problem(-1.0)
    z = np.array([sdp.BOX_BOUND, 1.0])
    factors = _factors(problem, np.array([0.0, 2.0]))
    assert _barrier_value(z, factors, 1.0) == np.inf


def test_block_slack_is_lambda_max_strict_and_minus_lambda_min_psd():
    # both miss their margins; |lambda| would rank "strict" first
    strict = BlockCheck("strict", "strict", -0.5, 1.0, False)
    psd = BlockCheck("psd", "psd", -0.2, 0.1, False)
    assert (strict.slack, psd.slack) == (-0.5, 0.2)
    assert max((strict, psd), key=lambda c: c.slack) is psd


def test_infeasible_message_names_the_most_violated_block():
    # both blocks miss margin 1 at every x; "near" (lambda_max = -0.1) misses
    # it by more than "far" (-0.5), which has the larger |lambda_max|
    prob = LmiProblem(
        num_vars=1,
        blocks=(
            block([[-0.5]], [[[0.0]]], "strict", 1.0, "far"),
            block([[-0.1]], [[[0.0]]], "strict", 1.0, "near"),
        ),
    )
    sol = solve_feasibility(prob)
    assert sol.status == "infeasible"
    assert sol.slack == -0.1
    assert sol.message.endswith("worst block 'near'")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["base", "coeff"])
def test_non_finite_data_fail_at_the_initial_point(bad, where):
    base, coeff = [[-1.0]], [[1.0]]
    if where == "base":
        base = [[bad]]
    else:
        coeff = [[bad]]
    prob = LmiProblem(
        num_vars=1,
        blocks=(block(base, [coeff], "strict", 0.0, "a"), block([[1.0]], [[[1.0]]], "psd")),
    )
    sol = solve_feasibility(prob)
    assert (sol.status, sol.iterations) == ("numerical-failure", 0)
    assert sol.message == "barrier is not finite at the initial point"


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
