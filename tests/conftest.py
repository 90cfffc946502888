import importlib.resources

import numpy as np
import pytest

from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope, from_scaled_nominal

FIXTURES = importlib.resources.files("esc_sat") / "fixtures"

EX1_H0 = np.array([[100.0, 30.0], [30.0, 20.0]])
EX1_K = np.array([[-0.0270, 0.0361], [0.0456, -0.1492]])
EX1_KAW = np.array([[2.2794, 0.0824], [-0.0865, 2.2804]])
EX1_ALPHA = np.array([0.6822, 0.3178])

EX2_VERTICES = (
    np.array(
        [
            [-6.7828, 0.8480, -1.3462],
            [0.8480, -6.0017, -0.7825],
            [-1.3462, -0.7825, -3.2421],
        ]
    ),
    np.array(
        [
            [-3.9159, -0.8122, 1.4150],
            [-0.8122, -5.7484, -0.0047],
            [1.4150, -0.0047, -4.6956],
        ]
    ),
    np.array(
        [
            [-3.9141, -0.3951, 0.5802],
            [-0.3951, -3.6059, 1.0325],
            [0.5802, 1.0325, -4.0962],
        ]
    ),
    np.array(
        [
            [-6.1443, 0.0911, -0.7984],
            [0.0911, -5.9879, -2.3066],
            [-0.7984, -2.3066, -3.9025],
        ]
    ),
)
EX2_K = np.array(
    [
        [0.5009, -0.0094, -0.0018],
        [-0.0104, 0.5312, -0.0881],
        [0.0006, -0.0856, 0.7352],
    ]
)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def support_coeffs(block) -> np.ndarray:
    """A block's support matrices, densified: C_{support[k]} at row k."""
    k = block.support.size
    return block.densify(0, k, np.zeros((k,) + block.base.shape))


def full_coeffs(block) -> np.ndarray:
    """A block's stack of one coefficient matrix per variable of its problem:
    its densified support matrices at ``block.support`` and exact zeros
    elsewhere."""
    full = np.zeros((block.num_vars,) + block.base.shape)
    full[block.support] = support_coeffs(block)
    return full


def lyapunov(traj, p: np.ndarray, kind: str) -> np.ndarray:
    """V(t) = x'Px of a design's certificate along a recorded averaged run:
    x is theta_tilde for an anti-windup ("aw") design and the gradient state
    g_hat for a rate-saturation ("gradsat") one."""
    x = traj.theta_tilde if kind == "aw" else traj.g_hat
    return np.einsum("ij,jk,ik->i", x, p, x)


@pytest.fixture
def ex1_polytope() -> HessianPolytope:
    return from_scaled_nominal(EX1_H0, 0.1)


@pytest.fixture
def ex2_polytope() -> HessianPolytope:
    return HessianPolytope(EX2_VERTICES)


@pytest.fixture
def ex1_bounds() -> SaturationBounds:
    return SaturationBounds([5.0, 5.0])


@pytest.fixture
def ex2_bounds() -> SaturationBounds:
    return SaturationBounds([2.0, 2.0, 2.0])
