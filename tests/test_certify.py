"""Seeded property tests of ``certify``: fresh designs pass, tampers fail.

Random polytopes follow the two families the gain designs are built for:
two scaled copies of a positive definite nominal for anti-windup, and three
perturbations of a negative definite nominal for rate saturation.  Each
tamper must produce exactly the failure lines its edit implies, and
``esc-sat verify`` must print those lines and no others.
"""

import dataclasses

import numpy as np
import pytest

from esc_sat import cli, synthesis
from esc_sat.config import build_polytope, load_config
from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope
from esc_sat.synthesis import (
    AwDesign,
    CertificateReport,
    Check,
    SynthesisNumericalError,
    certify,
    design_aw_gains,
    design_gradsat_gain,
    load_design,
    save_design,
)
from conftest import fixture_path

P_INDEFINITE = "P not positive definite"
VERTEX = "vertex inequalities not negative definite"
ROW = "row-coupling blocks not positive semidefinite"
INCLUSION = "certified region leaves the sector-validity set"


def _random_polytope(family: str, n: int, seed: int) -> HessianPolytope:
    rng = np.random.default_rng([n, seed, family == "aw"])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if family == "aw":
        h0 = (q * np.sort(rng.uniform(5.0, 100.0, n))) @ q.T
        verts = [0.9 * h0, 1.1 * h0]
    else:
        h0 = -(q * np.sort(rng.uniform(3.0, 6.0, n))) @ q.T
        verts = []
        for _ in range(3):
            e = rng.standard_normal((n, n))
            e = e + e.T
            verts.append(h0 + 0.5 * e / np.linalg.norm(e, 2))
    return HessianPolytope(tuple(0.5 * (v + v.T) for v in verts))


def _design(family: str, poly: HessianPolytope):
    n = poly.dim
    if family == "aw":
        return design_aw_gains(poly, 1.0, SaturationBounds(np.full(n, 5.0)))
    return design_gradsat_gain(poly, 1.0, 0.5, SaturationBounds(np.full(n, 2.0)))


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    # far too small to move an eigenvalue, but no longer diagonal
    return m + 1e-9 * np.max(np.abs(m)) * (1.0 - np.eye(len(m)))


def _scaled_p(d, factor: float) -> dict:
    # P scaled exactly, through the field it is stored in (anti-windup) or
    # derived from (rate saturation, P = X^-T W X^-1)
    return {"p": factor * d.p} if isinstance(d, AwDesign) else {"w": factor * d.w}


# tamper -> (edit of the design, failure lines for aw, for gradsat); an
# absent family means the tamper is not defined for it
TAMPERS = {
    "p-negated": (
        lambda d: _scaled_p(d, -1.0),
        {"aw": [P_INDEFINITE, VERTEX], "gradsat": [P_INDEFINITE, VERTEX, ROW, INCLUSION]},
    ),
    "multiplier-offdiagonal": (
        lambda d: (
            {"lam": _off_diagonal(d.lam)}
            if isinstance(d, AwDesign)
            else {"upsilon_tilde": _off_diagonal(d.upsilon_tilde)}
        ),
        {
            "aw": ["Lambda not a positive diagonal"],
            "gradsat": ["upsilon_tilde not a positive diagonal"],
        },
    ),
    "p-doubled": (lambda d: _scaled_p(d, 2.0), {"gradsat": [VERTEX]}),
    "k-shifted": (
        lambda d: {"k": d.k + 1e3},
        {"aw": [VERTEX], "gradsat": [VERTEX, ROW, INCLUSION]},
    ),
}
TAMPER_CASES = [
    (tamper, family)
    for tamper, (_, expected) in TAMPERS.items()
    for family in ("aw", "gradsat")
    if family in expected
]
RANDOM_CASES = [(n, seed) for n in (2, 3, 4) for seed in (0, 1)]


@pytest.mark.parametrize("family", ["aw", "gradsat"])
@pytest.mark.parametrize("n, seed", RANDOM_CASES)
def test_fresh_design_on_random_polytope_is_certified(family, n, seed):
    poly = _random_polytope(family, n, seed)
    report = certify(_design(family, poly), poly)
    assert report.passed
    assert report.failures() == []
    assert report.values("vertex").shape == (poly.num_vertices,)
    assert np.all(report.values("vertex") < 0.0)
    if family == "gradsat":
        assert report.values("row").shape == (n,)
        assert report.values("inclusion").shape == (n,)


@pytest.mark.parametrize("tamper, family", TAMPER_CASES)
@pytest.mark.parametrize("n, seed", RANDOM_CASES)
def test_tamper_gives_exactly_its_failure_lines(tamper, family, n, seed):
    edit, expected = TAMPERS[tamper]
    poly = _random_polytope(family, n, seed)
    design = _design(family, poly)
    report = certify(dataclasses.replace(design, **edit(design)), poly)
    assert not report.passed
    assert report.failures() == expected[family]
    # every failed check names one of the reported lines
    assert {c.failure for c in report.checks if not c.ok} == set(expected[family])


FIXTURE_OF = {"aw": "example1.cfg", "gradsat": "example2.cfg"}


@pytest.mark.parametrize("tamper, family", TAMPER_CASES)
def test_cli_verify_prints_the_report_failures(tmp_path, capsys, tamper, family):
    cfg = fixture_path(FIXTURE_OF[family])
    assert cli.main(["design", cfg, "--out", str(tmp_path)]) == 0
    design = load_design(str(tmp_path / "design.txt"))
    edit, expected = TAMPERS[tamper]
    bad = tmp_path / "bad.txt"
    save_design(dataclasses.replace(design, **edit(design)), str(bad))
    report = certify(load_design(str(bad)), build_polytope(load_config(cfg)))
    assert report.failures() == expected[family]
    capsys.readouterr()
    assert cli.main(["verify", str(bad), cfg]) == 2
    captured = capsys.readouterr()
    assert "all certificates pass" not in captured.out
    assert captured.err.splitlines() == [f"FAILED: {f}" for f in report.failures()]


def test_cli_verify_reports_a_sector_sampling_failure(tmp_path, capsys):
    # with K = I and L = 0 only a 2^-12 share of the sampling box is
    # admissible, below the sampler's 1/1000 floor
    n = 12
    eye = np.eye(n)
    design = synthesis.GradSatDesign(
        k=eye, l=0 * eye, w=eye, x=eye, upsilon_tilde=eye, eta=1.0,
        epsilon=0.5, bounds=SaturationBounds(np.ones(n)),
    )
    save_design(design, str(tmp_path / "design.txt"))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        f"[map]\npolytope = eigen_interval\nlambda1 = -2\nlambda2 = -1\ndim = {n}\n"
        f"[synthesis]\nkind = gradsat\neta = 1\nbounds = {' '.join(['1'] * n)}\n"
    )
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "design.txt"), str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "dead-zone sector sampling" not in captured.out
    assert "all certificates pass" not in captured.out
    failed = captured.err.splitlines()
    assert all(line.startswith("FAILED: ") for line in failed)
    assert failed[-1] == (
        "FAILED: dead-zone sector sampling: admissible set rejected more than "
        "99.9% of samples"
    )


def test_design_refuses_what_certify_fails(
    monkeypatch, tmp_path, capsys, ex1_polytope, ex1_bounds, ex2_polytope, ex2_bounds
):
    failing = CertificateReport((Check("row[0]", -1.0, False, ROW),))
    monkeypatch.setattr(synthesis, "certify", lambda design, poly: failing)
    with pytest.raises(SynthesisNumericalError, match=ROW):
        design_aw_gains(ex1_polytope, 1.0, ex1_bounds)
    with pytest.raises(SynthesisNumericalError, match=ROW):
        design_gradsat_gain(ex2_polytope, 1.0, 0.5, ex2_bounds)
    capsys.readouterr()
    assert cli.main(["design", fixture_path("example1.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: anti-windup design: recovered gains fail "
        f"re-verification: {ROW}\n"
    )
    assert not (tmp_path / "design.txt").exists()
