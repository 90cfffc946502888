import dataclasses

import numpy as np
import pytest

from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope, from_scaled_nominal
from esc_sat.sdp import check_solution, solve_feasibility
from esc_sat.synthesis import (
    AwDesign,
    InfeasibleDesignError,
    _assemble_aw_problem,
    _assemble_gradsat_problem,
    _aw_conditions,
    _gradsat_conditions,
    certify,
    design_aw_gains,
    design_gradsat_gain,
    find_aw_certificate,
    load_design,
    save_design,
    verify_aw_design,
    verify_ellipsoid_inclusion,
    verify_gradsat_design,
)
from conftest import EX1_K, EX1_KAW, lyapunov


def test_aw_design_reference_polytope(ex1_polytope, ex1_bounds):
    design = design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    assert verify_aw_design(design, ex1_polytope) < 0
    assert np.all(np.linalg.eigvalsh(design.p) > 0)
    assert np.all(np.diag(design.lam) > 0)
    assert certify(design, ex1_polytope).failures() == []
    assert design.kappa >= 1.0


def _solver_checks_read_by_certify(problem, design, poly):
    """Solver's checks of its non-floor blocks at its own solution, after
    asserting that they are ``certify``'s vertex/row checks, in order."""
    sol = solve_feasibility(problem)
    assert sol.status == "feasible"
    solver = [c for c in check_solution(problem, sol.x) if not c.name.endswith("_floor")]
    report = certify(design, poly).checks
    assert [c.name for c in report if c.name.startswith(("vertex", "row"))] == [
        c.name for c in solver
    ]
    return solver


def test_aw_design_roundtrip_against_solver(ex1_polytope, ex1_bounds):
    # substitution residuals must agree with the solver's own slack
    problem, _ = _assemble_aw_problem(ex1_polytope, 1.0)
    design = design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    solver = _solver_checks_read_by_certify(problem, design, ex1_polytope)
    rebuilt = verify_aw_design(design, ex1_polytope)
    solver_worst = max(c.extreme_eig for c in solver if c.sense == "strict")
    assert rebuilt == pytest.approx(solver_worst, rel=1e-6)


def test_gradsat_design_roundtrip_against_solver(ex2_polytope, ex2_bounds):
    problem, _ = _assemble_gradsat_problem(ex2_polytope, 1.0, 0.5, ex2_bounds)
    design = design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    solver = _solver_checks_read_by_certify(problem, design, ex2_polytope)
    vertex_max, row_min = verify_gradsat_design(design, ex2_polytope)
    assert vertex_max == pytest.approx(
        max(c.extreme_eig for c in solver if c.sense == "strict"), rel=1e-6
    )
    assert row_min == pytest.approx(
        min(c.extreme_eig for c in solver if c.sense == "psd"), rel=1e-6
    )


def _unpack_reference(layout, x, name):
    """Per-vector unpacking with an explicit loop over the symmetric entries."""
    kind, sl = layout._slices[name]
    v = x[sl]
    n = layout.n
    if kind == "diag":
        return np.diag(v)
    if kind == "full":
        return v.reshape(n, n)
    out = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = v[idx]
            idx += 1
    return out


def _coeffs_by_variable(layout, conditions):
    """Coefficient stack of every entry of ``conditions``, by name, from one
    call per unit vector on reference-unpacked variables."""
    def entries(x):
        return conditions({nm: _unpack_reference(layout, x, nm) for nm in layout._slices})

    base = entries(np.zeros(layout.size))
    per_var = [entries(e) for e in np.eye(layout.size)]
    return {
        name: np.stack([e[j][2] - m for e in per_var])
        for j, (name, _, m) in enumerate(base)
    }


def test_batched_assembly_matches_per_variable_build(ex1_polytope, ex2_polytope, ex2_bounds):
    # one conditions call on the stacked unit vectors gives bit-identical coefficients
    def fixed_gains(v):
        v.update(z=v["p"] @ EX1_K, z_aw=v["p"] @ EX1_KAW)
        return _aw_conditions(v, ex1_polytope, 0.9)

    cases = [
        (
            _assemble_aw_problem(ex1_polytope, 1.0),
            lambda v: _aw_conditions(v, ex1_polytope, 1.0),
        ),
        (_assemble_aw_problem(ex1_polytope, 0.9, gains=(EX1_K, EX1_KAW)), fixed_gains),
        (
            _assemble_gradsat_problem(ex2_polytope, 1.0, 0.5, ex2_bounds),
            lambda v: _gradsat_conditions(v, ex2_polytope, 1.0, 0.5, ex2_bounds.limits),
        ),
    ]
    for (problem, layout), conditions in cases:
        ref = _coeffs_by_variable(layout, conditions)
        assert [blk.name for blk in problem.blocks] == list(ref)
        for blk in problem.blocks:
            assert np.array_equal(blk.coeffs, ref[blk.name])


def test_aw_design_singleton_stable():
    poly = HessianPolytope((-np.eye(2),))
    design = design_aw_gains(poly, 0.1, SaturationBounds([1.0, 1.0]))
    assert verify_aw_design(design, poly) < 0
    # stabilizing K H with H = -I needs K positive definite in symmetric part
    sym = 0.5 * (design.k + design.k.T)
    assert np.all(np.linalg.eigvalsh(sym) > 0)


def test_aw_design_contradictory_polytope_infeasible():
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    poly = HessianPolytope((H, -H))
    with pytest.raises(InfeasibleDesignError) as exc:
        design_aw_gains(poly, 0.5, SaturationBounds([1.0, 1.0]))
    assert exc.value.worst_block.startswith("vertex")
    assert exc.value.slack > 0


def test_aw_feasibility_monotone_in_eta(ex1_polytope, ex1_bounds):
    # a smaller decay request can only be easier
    design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    design_aw_gains(ex1_polytope, 0.5, ex1_bounds)


def test_verify_rejects_zero_gains(ex1_polytope, ex1_bounds):
    bad = AwDesign(
        k=np.zeros((2, 2)),
        k_aw=np.zeros((2, 2)),
        p=np.eye(2),
        lam=np.eye(2),
        eta=1.0,
        bounds=ex1_bounds,
    )
    assert verify_aw_design(bad, ex1_polytope) >= 0


def test_verify_scaling_homogeneity(ex1_polytope, ex1_bounds):
    design = design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    for c in (1e-3, 1.0, 1e3):
        scaled = dataclasses.replace(design, p=c * design.p, lam=c * design.lam)
        assert (verify_aw_design(scaled, ex1_polytope) < 0) == (
            verify_aw_design(design, ex1_polytope) < 0
        )


def test_certificate_search_for_published_gains(ex1_polytope, ex1_bounds):
    cert = find_aw_certificate(EX1_K, EX1_KAW, ex1_polytope, 0.9, ex1_bounds)
    assert verify_aw_design(cert, ex1_polytope) < 0
    assert np.allclose(cert.k, EX1_K)
    assert certify(cert, ex1_polytope).failures() == []


@pytest.mark.parametrize(
    "args, message",
    [
        ((EX1_K, EX1_KAW, 0.0, [5.0, 5.0]), "eta must be positive"),
        ((EX1_K, EX1_KAW, -1.0, [5.0, 5.0]), "eta must be positive"),
        ((EX1_K, EX1_KAW, 0.9, [5.0, 5.0, 5.0]), "3 bounds for a polytope of dimension 2"),
        ((EX1_K[:, :1], EX1_KAW, 0.9, [5.0, 5.0]), r"gain k has shape \(2, 1\)"),
        ((EX1_K, np.eye(3), 0.9, [5.0, 5.0]), r"gain k_aw has shape \(3, 3\)"),
    ],
    ids=["eta-zero", "eta-negative", "bounds-length", "k-not-square", "k_aw-size"],
)
def test_certificate_search_rejects_a_malformed_request(ex1_polytope, args, message):
    k, k_aw, eta, bounds = args
    with pytest.raises(ValueError, match=message):
        find_aw_certificate(k, k_aw, ex1_polytope, eta, SaturationBounds(bounds))


def test_certified_published_gains_decay_in_simulation(ex1_polytope, ex1_bounds):
    # the found certificate must actually bound the simulated average loop
    from esc_sat.plant import AwController, QuadraticMap
    from esc_sat.polytope import evaluate
    from esc_sat.signals import DitherSpec
    from esc_sat.sim import SimConfig, simulate

    cert = find_aw_certificate(EX1_K, EX1_KAW, ex1_polytope, 0.9, ex1_bounds)
    H = evaluate(ex1_polytope, [0.6822, 0.3178])
    qmap = QuadraticMap(10.0, [2.0, 4.0], H, ex1_bounds)
    cfg = SimConfig(
        scenario="average-aw",
        qmap=qmap,
        dither=DitherSpec([0.1, 0.1], (10, 70), 1.0),
        controller=AwController(EX1_K, EX1_KAW),
        theta0=np.array([2.5, 6.0]),
        t_end=5.0,
    )
    traj = simulate(cfg)
    v = lyapunov(traj, cert.p, cert.kind)
    bound = v[0] * np.exp(-2.0 * cert.eta * traj.times) * (1.0 + 1e-6)
    assert np.all(v <= bound)


def test_gradsat_design_reference_polytope(ex2_polytope, ex2_bounds):
    design = design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    vmax, rmin = verify_gradsat_design(design, ex2_polytope)
    assert vmax < 0
    assert rmin >= -1e-9
    assert np.min(verify_ellipsoid_inclusion(design)) >= -1e-9
    assert certify(design, ex2_polytope).failures() == []
    assert np.all(np.linalg.eigvalsh(design.p) > 0)
    # the congruence bound makes X invertible by construction
    assert np.all(np.linalg.eigvalsh(design.x + design.x.T) > 0)


def test_gradsat_scalar_case():
    poly = HessianPolytope((np.array([[-1.0]]),))
    design = design_gradsat_gain(poly, 0.2, 0.5, SaturationBounds([1.0]))
    assert design.k[0, 0] > 0
    vmax, rmin = verify_gradsat_design(design, poly)
    assert vmax < 0 and rmin >= -1e-9


def test_gradsat_epsilon_must_be_positive(ex2_polytope, ex2_bounds):
    with pytest.raises(ValueError):
        design_gradsat_gain(ex2_polytope, 1.0, 0.0, ex2_bounds)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_design_requests_need_finite_eta_and_epsilon(
    ex1_polytope, ex1_bounds, ex2_polytope, ex2_bounds, bad
):
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        design_aw_gains(ex1_polytope, bad, ex1_bounds)
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        design_gradsat_gain(ex2_polytope, bad, 0.5, ex2_bounds)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        design_gradsat_gain(ex2_polytope, 1.0, bad, ex2_bounds)


def test_ellipsoid_limit_cases(ex2_polytope, ex2_bounds):
    design = design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    p_min = float(np.linalg.eigvalsh(design.p)[0])
    # taking the sector slope at the gain itself removes the subtrahend
    same = dataclasses.replace(design, l=design.k.copy())
    assert np.allclose(verify_ellipsoid_inclusion(same), p_min)
    # enormous rate limits do the same in the limit
    wide = dataclasses.replace(
        design, bounds=SaturationBounds([1e9] * design.dim)
    )
    assert np.allclose(verify_ellipsoid_inclusion(wide), p_min, atol=1e-12)


def test_design_file_roundtrip(tmp_path, ex1_polytope, ex1_bounds, ex2_polytope, ex2_bounds):
    aw = design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    gs = design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    for design in (aw, gs):
        path = tmp_path / "design.txt"
        save_design(design, str(path))
        back = load_design(str(path))
        assert type(back) is type(design)
        for f in dataclasses.fields(design):
            stored, loaded = getattr(design, f.name), getattr(back, f.name)
            if isinstance(stored, SaturationBounds):
                stored, loaded = stored.limits, loaded.limits
            assert np.array_equal(loaded, stored), f.name
            assert np.asarray(loaded).dtype == np.asarray(stored).dtype, f.name


def test_ill_conditioning_survives_a_design_file(
    tmp_path, ex1_polytope, ex1_bounds, ex2_polytope, ex2_bounds
):
    aw = design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    gs = design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    for design in (aw, gs):
        assert not design.ill_conditioned
        p = np.diag(np.concatenate([[1.0], np.full(design.dim - 1, 1e-11)]))
        path = tmp_path / "ill.txt"
        save_design(dataclasses.replace(design, p=p), str(path))
        back = load_design(str(path))
        assert np.linalg.cond(back.p) == pytest.approx(1e11)
        assert back.ill_conditioned


def test_load_design_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind = aw\nk = 1 0; 0 1\n")
    with pytest.raises(ValueError, match="missing field"):
        load_design(str(path))
    path.write_text("kind = squirrel\n")
    with pytest.raises(ValueError, match="unknown kind"):
        load_design(str(path))
