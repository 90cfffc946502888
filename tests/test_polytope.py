import numpy as np
import pytest

from esc_sat.polytope import (
    HessianPolytope,
    evaluate,
    from_affine,
    from_eigen_interval,
    from_scaled_nominal,
)


def test_eigen_interval():
    poly = from_eigen_interval(-2.0, -1.0, 2)
    assert poly.num_vertices == 2
    assert np.array_equal(poly.vertices[0], -2.0 * np.eye(2))
    assert np.array_equal(poly.vertices[1], -1.0 * np.eye(2))
    mid = evaluate(poly, [0.5, 0.5])
    assert np.allclose(mid, -1.5 * np.eye(2))


def test_eigen_interval_degenerate_and_invalid():
    poly = from_eigen_interval(3.0, 3.0, 1)
    assert np.array_equal(poly.vertices[0], poly.vertices[1])
    with pytest.raises(ValueError):
        from_eigen_interval(2.0, 1.0, 2)


def test_scaled_nominal_reference_values():
    h0 = np.array([[100.0, 30.0], [30.0, 20.0]])
    poly = from_scaled_nominal(h0, 0.1)
    assert np.allclose(poly.vertices[0], [[90.0, 27.0], [27.0, 18.0]])
    assert np.allclose(poly.vertices[1], [[110.0, 33.0], [33.0, 22.0]])
    assert np.allclose(evaluate(poly, [1.0, 0.0]), 0.9 * h0)


def test_scaled_nominal_zero_uncertainty():
    h0 = np.eye(3)
    poly = from_scaled_nominal(h0, 0.0)
    assert np.array_equal(poly.vertices[0], poly.vertices[1])


def test_scaled_nominal_rejects_asymmetric():
    with pytest.raises(ValueError):
        from_scaled_nominal(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_vertices_refuse_non_finite_entries_by_name(value):
    # refused at the parent too, but as "vertex 1 must be symmetric"
    bad = np.array([[-2.0, value], [value, -1.0]])
    with pytest.raises(ValueError) as exc:
        HessianPolytope((-np.eye(2), bad))
    assert str(exc.value) == "vertex 1 must be finite"
    with pytest.raises(ValueError) as exc:
        from_scaled_nominal(bad, 0.1)
    assert str(exc.value) == "nominal hessian must be finite"


def test_affine_vertex_count_and_order():
    g1 = np.diag([1.0, 0.0])
    g2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    g3 = np.diag([0.0, 1.0])
    poly = from_affine(np.zeros((2, 2)), [g1, g2, g3], [1.0, 2.0, 3.0])
    assert poly.num_vertices == 8
    # binary counting, least significant bit drives the first parameter
    assert np.allclose(poly.vertices[0], -g1 - 2 * g2 - 3 * g3)
    assert np.allclose(poly.vertices[1], +g1 - 2 * g2 - 3 * g3)
    assert np.allclose(poly.vertices[2], -g1 + 2 * g2 - 3 * g3)
    assert np.allclose(poly.vertices[7], +g1 + 2 * g2 + 3 * g3)
    flat = {tuple(v.ravel()) for v in poly.vertices}
    assert len(flat) == 8


def test_affine_edge_cases():
    g0 = np.array([[2.0, 0.0], [0.0, 3.0]])
    poly = from_affine(g0, [], [])
    assert poly.num_vertices == 1
    assert np.array_equal(poly.vertices[0], g0)
    poly = from_affine(np.zeros((1, 1)), [np.eye(1)], [1.0])
    assert np.allclose(poly.vertices[0], [[-1.0]])
    assert np.allclose(poly.vertices[1], [[1.0]])
    with pytest.raises(ValueError):
        from_affine(np.zeros((1, 1)), [np.eye(1)] * 21, [1.0] * 21)


def test_evaluate_vertex_recovery_and_linearity():
    rng = np.random.default_rng(11)
    verts = []
    for _ in range(3):
        m = rng.normal(size=(3, 3))
        verts.append(m + m.T)
    poly = HessianPolytope(tuple(verts))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.allclose(evaluate(poly, e), verts[i])
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    lam = 0.3
    mix = evaluate(poly, lam * a + (1 - lam) * b)
    assert np.allclose(mix, lam * evaluate(poly, a) + (1 - lam) * evaluate(poly, b))
    assert np.allclose(mix, mix.T)


def test_example1_mixture():
    h0 = np.array([[100.0, 30.0], [30.0, 20.0]])
    poly = from_scaled_nominal(h0, 0.1)
    mixed = evaluate(poly, [0.6822, 0.3178])
    assert np.allclose(mixed, (0.6822 * 0.9 + 0.3178 * 1.1) * h0)


def test_simplex_membership_tolerances():
    poly = from_scaled_nominal(np.eye(2), 0.1)
    for alpha in ([0.5, 0.5], [0.5, 0.5 + 1e-13], [1.0, -1e-16]):
        evaluate(poly, alpha)
    for alpha in ([0.5, 0.6], [-0.1, 1.1]):
        with pytest.raises(ValueError):
            evaluate(poly, alpha)


def test_evaluate_rejects_bad_weights():
    poly = from_eigen_interval(-1.0, 1.0, 2)
    with pytest.raises(ValueError, match="sum"):
        evaluate(poly, [0.7, 0.7])
    with pytest.raises(ValueError, match="negative"):
        evaluate(poly, [1.5, -0.5])
    with pytest.raises(ValueError, match="weights"):
        evaluate(poly, [1.0])


def test_polytope_validation():
    with pytest.raises(ValueError):
        HessianPolytope(())
    with pytest.raises(ValueError):
        HessianPolytope((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        HessianPolytope((np.array([[0.0, 1.0], [0.0, 0.0]]),))
