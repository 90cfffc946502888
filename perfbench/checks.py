"""Output checks that do not rely on the program under test.

``compare`` matches an operation's digest against its stored reference:
integers, strings and booleans must be equal, floats must agree within
``REL_TOL`` relative.  A dict may carry a ``scale`` entry; floats inside it
(and below it) are then compared relative to at least that magnitude, which
keeps near-zero quantities such as period means checkable.

Designs are judged by re-verification, not by equality of gains, because a
different solver may return another feasible point.  The vertex and
row-coupling inequalities are rebuilt here from the formulas stated in the
synthesis module's docstring and checked by eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-12
PSD_TOL = 1e-9
SAMPLE_STRIDE = 250


def compare(actual, expected, path: str = "", scale: float = 0.0) -> list[str]:
    """Mismatches between a digest and its reference, one line each."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        scale = float(expected.get("scale", scale))
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{path}/{key}", scale)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {actual!r:.80}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{path}[{i}]", scale)
        return out
    if isinstance(expected, float) and not isinstance(actual, (bool, str)):
        a = float(actual)
        if math.isnan(expected) and math.isnan(a):
            return []
        if abs(a - expected) <= REL_TOL * max(abs(a), abs(expected), scale):
            return []
        return [f"{path}: {a!r} != reference {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def csv_digest(path: str) -> dict:
    """Row count, header and per-column sum, scale and sampled values."""
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    columns = {}
    for name, col in zip(header.split(","), data.T):
        columns[name] = {
            "scale": float(np.max(np.abs(col))),
            "sum": float(np.sum(col)),
            "sample": col[::SAMPLE_STRIDE].tolist() + [float(col[-1])],
        }
    return {"header": header, "rows": int(data.shape[0]), "columns": columns}


def parse_design_file(path: str) -> dict:
    """Fields of a design file as matrices (rows separated by ';')."""
    fields = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or key.startswith("#"):
                continue
            if key == "kind":
                fields[key] = value
            else:
                fields[key] = np.array(
                    [[float(x) for x in row.split()] for row in value.split(";")]
                )
    return fields


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _positive_diagonal(m: np.ndarray) -> bool:
    return bool(
        np.all(m == np.diag(np.diag(m))) and np.all(np.diag(m) > 0.0)
    )


def aw_certified(k, k_aw, p, lam, eta, vertices) -> bool:
    """P > 0, Lambda positive diagonal, every vertex block negative definite."""
    p = np.asarray(p)
    if np.linalg.eigvalsh(_sym(p))[0] <= 0.0 or not _positive_diagonal(lam):
        return False
    z = p @ k
    z_aw = p @ k_aw
    for h in vertices:
        b11 = z @ h + h @ z.T + 2.0 * eta * p
        b21 = lam - z_aw.T - h @ z.T
        m = np.block([[b11, b21.T], [b21, -2.0 * lam]])
        if np.linalg.eigvalsh(_sym(m))[-1] >= 0.0:
            return False
    return True


def gradsat_certified(k, l, w, x, ut, p, eta, epsilon, bounds, vertices) -> bool:
    """Vertex blocks < 0, row-coupling blocks >= 0, P = X^-T W X^-1 > 0,
    and the unit sublevel set of g'Pg inside the sector-validity region."""
    bounds = np.ravel(bounds)
    n = k.shape[0]
    if not _positive_diagonal(ut) or np.linalg.eigvalsh(_sym(p))[0] <= 0.0:
        return False
    x_inv = np.linalg.inv(x)
    p_rebuilt = x_inv.T @ w @ x_inv
    if np.linalg.norm(p_rebuilt - p) > 1e-6 * np.linalg.norm(p):
        return False
    z = k @ x
    y = l @ x
    for h in vertices:
        b11 = h @ z + z.T @ h + 2.0 * eta * w
        b21 = w - x.T + epsilon * h @ z
        b22 = -epsilon * (x.T + x)
        b31 = y - ut @ h
        b32 = -epsilon * ut @ h
        m = np.block(
            [[b11, b21.T, b31.T], [b21, b22, b32.T], [b31, b32, -2.0 * ut]]
        )
        if np.linalg.eigvalsh(_sym(m))[-1] >= 0.0:
            return False
    for row in range(n):
        c = (z[row] - y[row])[:, None]
        m = np.block([[w, c], [c.T, np.array([[bounds[row] ** 2]])]])
        if np.linalg.eigvalsh(_sym(m))[0] < -PSD_TOL:
            return False
        d = (k[row] - l[row])[:, None]
        if np.linalg.eigvalsh(_sym(p - d @ d.T / bounds[row] ** 2))[0] < -PSD_TOL:
            return False
    return True


def design_file_certified(path: str, vertices) -> bool:
    """Re-verify a design file written by ``esc-sat design``."""
    f = parse_design_file(path)
    eta = float(f["eta"][0, 0])
    if f.get("kind") == "aw":
        return aw_certified(f["k"], f["k_aw"], f["p"], f["lambda"], eta, vertices)
    if f.get("kind") == "gradsat":
        return gradsat_certified(
            f["k"], f["l"], f["w"], f["x"], f["upsilon_tilde"], f["p"], eta,
            float(f["epsilon"][0, 0]), f["bounds"], vertices,
        )
    return False
