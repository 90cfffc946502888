import logging
import tracemalloc

import numpy as np
import pytest

from esc_sat import sdp, synthesis
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
from esc_sat.synthesis import (
    _assemble_aw_problem,
    _assemble_gradsat_problem,
    design_gradsat_gain,
)
from conftest import full_coeffs, support_coeffs


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


def block_terms(L, block):
    """Gradient and Hessian terms of one block: what ``_barrier_terms`` adds
    to zeros."""
    grad, hess = np.zeros(block.num_vars + 1), np.zeros((block.num_vars + 1,) * 2)
    _barrier_terms(L, block, grad, hess)
    return grad, hess


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
        np.concatenate([-s * full_coeffs(b), np.eye(b.dim)[None]])
        for s, b in zip(signs, problem.blocks)
    ]
    rng = np.random.default_rng([11, n])
    mu = 0.3
    for _ in range(3):
        x = rng.standard_normal(problem.num_vars)
        G = [s * problem.assemble(b, x) for s, b in zip(signs, problem.blocks)]
        t = max(np.linalg.eigvalsh(g)[-1] for g in G) + 1.0
        z = np.append(x, t)
        factors = _factors(problem, z)[0]
        logdet = 0.0
        for s, b, g, C, L in zip(signs, problem.blocks, G, stacks, factors):
            S = t * np.eye(g.shape[0]) - g
            assert np.max(np.abs(L @ L.T - S)) <= 1e-12 * np.max(np.abs(S))
            S_of_stack = np.tensordot(z, C, axes=(0, 0)) - s * b.base
            assert np.max(np.abs(S_of_stack - S)) <= 1e-12 * np.max(np.abs(S))
            grad, hess = block_terms(L, b)
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
    factors = _factors(problem, np.array([0.0, 2.0]))[0]
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
    # the solver's own guard: LmiBlock refuses non-finite data when it is
    # built (test_block_validation), so the value is written into a built
    # block: its base, or the stored value of its one nonzero coefficient
    a = block([[-1.0]], [[[1.0]]], "strict", 0.0, "a")
    (a.base[0] if where == "base" else a.values)[0] = bad
    prob = LmiProblem(num_vars=1, blocks=(a, block([[1.0]], [[[1.0]]], "psd")))
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
                    coeffs=1e3 * full_coeffs(b),
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
    for margin in (np.nan, np.inf, -np.inf, -1e-9):
        with pytest.raises(ValueError, match=r"block 'lyap' margin .* finite and nonnegative"):
            block([[-1.0]], [[[0.0]]], "strict", margin, "lyap")
    # non-finite data are refused before the skew check, where an infinite
    # coefficient would pass (inf - inf is NaN, and NaN > tol is false)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^block 'f' base is not finite$"):
            block(np.diag([-1.0, bad]), [np.eye(2)], name="f")
        with pytest.raises(ValueError, match=r"^block 'f' coeff 1 is not finite$"):
            block(-np.eye(2), [np.eye(2), np.full((2, 2), bad), np.eye(2)], name="f")


def test_support_keeps_the_matrices_that_are_not_exactly_zero():
    # coeff 1 is skew (to within the symmetry tolerance of its scale 1)
    # and symmetrizes to exact zeros; coeff 2 is zero with negative zeros
    skew = np.array([[0.0, 1e-10], [-1e-10, 0.0]])
    b = block(-np.eye(2), [np.eye(2), skew, -0.0 * np.eye(2), np.diag([0.0, 1.0])])
    assert b.num_vars == 4
    assert b.support.tolist() == [0, 3]
    assert np.array_equal(support_coeffs(b), [np.eye(2), np.diag([0.0, 1.0])])
    # three nonzero entries: C_0's at flat positions 0 and 3, and C_3's at
    # position 3 of the second support matrix, 4 + 3
    assert b.offsets.tolist() == [0, 2, 3]
    assert b.index.tolist() == [0, 3, 7]
    assert b.values.tolist() == [1.0, 1.0, 1.0]
    assert b.nbytes == b.base.nbytes + (2 + 3 + 3) * 8 + 3 * 8


def test_constant_block_and_unused_variable_solve():
    # "c" involves no variable (empty support) and no block involves x_1
    prob = LmiProblem(
        num_vars=3,
        blocks=(
            block([[-1.0]], [[[0.0]]] * 3, "strict", 1e-7, "c"),
            block(np.diag([-1.0, 2.0]), [np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                         np.diag([1.0, 0.0])], "psd", 1e-9, "box"),
        ),
    )
    assert [b.support.tolist() for b in prob.blocks] == [[], [0, 2]]
    assert support_coeffs(prob.blocks[0]).shape == (0, 1, 1)
    assert prob.blocks[0].offsets.tolist() == [0]
    assert prob.blocks[0].index.size == prob.blocks[0].values.size == 0
    sol = solve_feasibility(prob)
    assert sol.status == "feasible"
    assert all(c.ok for c in check_solution(prob, sol.x))
    # x_1 has only its box terms, which vanish at 0, so it never moves
    assert sol.x[1] == 0.0
    # the constant block adds to t's terms alone, and no block to x_1's
    c, box = (
        block_terms(L, b) for b, L in zip(prob.blocks, _factors(prob, np.append(sol.x, 1.0))[0])
    )
    assert not c[0][:3].any() and not c[1][:3].any() and c[1][3, 3] > 0
    assert not box[0][1] and not box[1][1].any() and not box[1][:, 1].any()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["aw", "gradsat"])
def test_assemble_equals_the_full_tensordot_bitwise(family, n):
    problem = design_problem(family, n, seed=3, spread=0.5)
    rng = np.random.default_rng([17, n])
    partial = 0
    for b in problem.blocks:
        partial += b.support.size < problem.num_vars
        for _ in range(3):
            x = rng.standard_normal(problem.num_vars)
            F = b.base + np.tensordot(x, full_coeffs(b), axes=(0, 0))
            want = 0.5 * (F + F.T)
            assert problem.assemble(b, x).tobytes() == want.tobytes(), b.name
    # every floor involves only its own variable, and every rate-saturation
    # row block only W and one row of Y and Z
    assert partial == (2 if family == "aw" else n + 3)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["aw", "gradsat"])
def test_densified_coefficients_are_the_symmetric_part_bitwise(family, n, monkeypatch):
    # every block of a design densifies to the symmetric part of the stack
    # its conditions gave, at the support, bit for bit (these stacks hold no
    # -0.0 there; one would densify as +0.0, see the test below), and that
    # part is exact zeros off the support
    given = {}

    def recording_block(base, coeffs, *args):
        given[args[-1]] = sdp._symmetric_part(args[-1], "coeff {}", coeffs)
        return LmiBlock(base, coeffs, *args)

    monkeypatch.setattr(synthesis, "LmiBlock", recording_block)
    problem = design_problem(family, n, seed=3, spread=0.5)
    assert list(given) == [b.name for b in problem.blocks]
    for b in problem.blocks:
        sym = given[b.name]
        assert support_coeffs(b).tobytes() == sym[b.support].tobytes(), b.name
        assert not np.delete(sym, b.support, axis=0).any(), b.name


def test_chunk_edges_inside_a_run_change_no_stored_or_scaled_bits(monkeypatch):
    # chunks of 5 vertex matrices put chunk edges inside the vertex blocks'
    # one run of consecutive variables, both when a block is stored and
    # when its support is densified and scaled
    problem = design_problem("gradsat", 3, seed=3, spread=0.5)
    x = np.random.default_rng(19).standard_normal(problem.num_vars)
    t = max(np.linalg.eigvalsh(sdp._sign(b) * problem.assemble(b, x))[-1]
            for b in problem.blocks) + 1.0
    factors = _factors(problem, np.append(x, t))[0]
    want = [block_terms(L, b) for L, b in zip(factors, problem.blocks)]
    vertex = problem.blocks[0]
    assert vertex.dim == 9 and vertex.support.tolist() == list(range(problem.num_vars))
    monkeypatch.setattr(sdp, "_CHUNK", 5 * 81)
    for b, L, (grad, hess) in zip(problem.blocks, factors, want):
        rebuilt = LmiBlock(b.base, full_coeffs(b), b.sense, b.margin, b.name)
        for field in ("support", "offsets", "index", "values"):
            assert getattr(rebuilt, field).tobytes() == getattr(b, field).tobytes()
        got = block_terms(L, b)
        assert got[0].tobytes() == grad.tobytes() and got[1].tobytes() == hess.tobytes()
    # densified in two pieces split inside the run, as in one
    k = vertex.support.size
    pieces = [vertex.densify(lo, hi, np.zeros((hi - lo, 9, 9))) for lo, hi in ((0, 7), (7, k))]
    assert np.concatenate(pieces).tobytes() == support_coeffs(vertex).tobytes()


def test_negative_zero_is_stored_as_absent_and_densifies_as_positive_zero():
    # -0.0 is a zero: the block stores no entry for it, so it densifies as
    # +0.0, where the symmetric part of the given stack keeps -0.0; a matrix
    # of zeros and negative zeros leaves the support, and a block of only
    # such matrices has an empty support
    c = np.array([[1.0, -0.0], [-0.0, 2.0]])
    assert np.signbit(sdp._symmetric_part("b", "coeff {}", c[None])[0, 0, 1])
    b = block(np.zeros((2, 2)), [-0.0 * np.eye(2), c])
    assert b.support.tolist() == [1]
    assert b.offsets.tolist() == [0, 2]
    assert (b.index.tolist(), b.values.tolist()) == ([0, 3], [1.0, 2.0])
    dense = support_coeffs(b)
    assert np.array_equal(dense, [c]) and not np.signbit(dense).any()
    empty = block(np.eye(2), [-0.0 * np.eye(2), np.zeros((2, 2))])
    assert empty.support.size == empty.values.size == 0
    assert support_coeffs(empty).shape == (0, 2, 2)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["aw", "gradsat"])
def test_solve_checks_are_check_solution_of_its_point(family, n):
    # the solve's eigen pass reads the blocks its factors were formed from;
    # six seeded problems per family and dimension, as the benchmark's pool
    for seed in range(6):
        problem = design_problem(family, n, seed, 0.5)
        sol = solve_feasibility(problem)
        assert sol.blocks == check_solution(problem, sol.x)


def stacked_barrier_terms(L, block):
    """The replaced per-block terms: a copy of the block's coefficient stack,
    negated for strict blocks, with the identity of t appended, scaled by
    L^-1 on both sides in one batched product."""
    sign = 1.0 if block.sense == "strict" else -1.0
    C = np.concatenate([-sign * full_coeffs(block), np.eye(block.dim)[None]])
    Linv = np.linalg.inv(L)
    A = Linv @ C @ Linv.T
    flat = A.reshape(A.shape[0], -1)
    return -np.trace(A, axis1=1, axis2=2), flat @ flat.T


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["aw", "gradsat"])
def test_barrier_terms_equal_the_stacked_form_bitwise(family, n):
    # every row, the t row included: a row of L^-1 L^-T taken by SYRK in
    # place of GEMM would differ in its last bits
    problem = design_problem(family, n, seed=5, spread=0.5)
    signs = [1.0 if b.sense == "strict" else -1.0 for b in problem.blocks]
    rng = np.random.default_rng([13, n])
    for _ in range(2):
        x = rng.standard_normal(problem.num_vars)
        t = max(np.linalg.eigvalsh(s * problem.assemble(b, x))[-1]
                for s, b in zip(signs, problem.blocks)) + 1.0
        factors = _factors(problem, np.append(x, t))[0]
        for b, L in zip(problem.blocks, factors):
            got, want = block_terms(L, b), stacked_barrier_terms(L, b)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w), b.name


# Infeasible rate-saturation runs at n >= 6 take 150-390 Newton iterations
# and 1-5 s each, so the infeasible cases stop at n = 5 for that family.
CROSS_CHECK_CASES = [
    (family, n, spread)
    for family in ("aw", "gradsat")
    for n in range(2, 9)
    for spread in (0.5, 3.5)
    if not (family == "gradsat" and spread == 3.5 and n > 5)
]


@pytest.mark.parametrize("case", CROSS_CHECK_CASES, ids=str)
def test_solve_equals_the_stacked_form_bitwise(case, monkeypatch):
    family, n, spread = case
    problem = design_problem(family, n, seed=1, spread=spread)
    want = solve_feasibility(problem)

    def add_stacked_barrier_terms(L, block, grad, hess):
        g, h = stacked_barrier_terms(L, block)
        grad += g
        hess += h

    monkeypatch.setattr(sdp, "_barrier_terms", add_stacked_barrier_terms)
    got = solve_feasibility(problem)
    assert want.status == ("feasible" if spread == 0.5 else "infeasible")
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.array_equal(got.x, want.x)
    assert got.slack == want.slack


def assemble_gradsat_n6(vertices: int) -> LmiProblem:
    # n = 6 rate-saturation vertices, three per seed
    poly = random_polytope("gradsat", 6, 1, 0.5)
    if vertices == 6:
        poly = HessianPolytope(poly.vertices + random_polytope("gradsat", 6, 2, 0.5).vertices)
    return _assemble_gradsat_problem(poly, 1.0, 0.5, SaturationBounds([2.0] * 6))[0]


@pytest.mark.parametrize("vertices", [3, 6])
def test_working_memory_is_the_problem_and_a_block_budget(vertices, monkeypatch):
    # the largest block's (m + 1, d, d) doubles, three times over, bound what
    # assembly and a solve hold beyond the problem at any number of blocks;
    # an untraced first round makes the imports and caches of a first call
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    solve_feasibility(assemble_gradsat_n6(vertices))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = assemble_gradsat_n6(vertices)
        assembly_peak = tracemalloc.get_traced_memory()[1] - before
        nbytes = sum(b.nbytes for b in problem.blocks)
        budget = 3 * max((problem.num_vars + 1) * b.dim**2 * 8 for b in problem.blocks)
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        sol = solve_feasibility(problem)
        solve_excess = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert len(problem.blocks) == vertices + 6 + 3
    # each block holds its base, its support and offsets, and the position
    # and value of each nonzero entry of its support matrices only
    for b in problem.blocks:
        assert b.offsets.size == b.support.size + 1
        assert b.index.size == b.values.size == b.offsets[-1]
        assert b.nbytes == b.base.nbytes + sum(
            a.nbytes for a in (b.support, b.offsets, b.index, b.values)
        )
    # under an eighth of the base and dense support matrices of every block
    dense = sum((b.support.size + 1) * b.dim**2 * 8 for b in problem.blocks)
    assert 8 * nbytes < dense
    assert sol.iterations >= 1
    assert assembly_peak <= nbytes + budget
    assert solve_excess <= budget


def test_rate_saturation_design_at_n8_traced_peak():
    # the stored blocks, one dense vertex matrix at assembly and one block's
    # scaled buffer in the solve stay under 3.5 MB (5.86 MB when each block
    # stored its dense support matrices); a first design makes the imports
    # and caches
    poly = random_polytope("gradsat", 8, 0, 0.5)
    bounds = SaturationBounds([2.0] * 8)
    design_gradsat_gain(poly, 1.0, 0.5, bounds)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        design_gradsat_gain(poly, 1.0, 0.5, bounds)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_each_solve_logs_one_debug_record(caplog):
    problem = design_problem("gradsat", 3, 2, 3.5)
    with caplog.at_level(logging.DEBUG, logger="esc_sat.sdp"):
        sol = solve_feasibility(problem)
        solve_feasibility(scalar_lyapunov_problem(-1.0))
    records = [r for r in caplog.records if r.name == "esc_sat.sdp"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    (
        status, iterations, slack, seconds, num_vars, dims, nonzeros, nbytes,
        supports, steps, values,
    ) = records[0].args
    assert (status, iterations, slack) == (sol.status, sol.iterations, sol.slack)
    assert seconds > 0
    assert num_vars == problem.num_vars
    assert dims == [b.dim for b in problem.blocks]
    assert nonzeros == sum(b.values.size for b in problem.blocks)
    assert nbytes == sum(b.nbytes for b in problem.blocks)
    assert records[1].args[0] == "feasible"
    assert supports == [b.support.size for b in problem.blocks]
    # one step length and barrier value per accepted iteration
    assert len(steps) == len(values) == iterations
    assert all(0 < a <= 1 for a in steps)
    assert all(np.isfinite(values))
