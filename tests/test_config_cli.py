import collections
import gc
import itertools
import logging
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from esc_sat import analysis, cli, config, matio
from esc_sat.plant import AwController, GradSatController
from esc_sat.sim import SimulationBlowUp, export_csv, simulate, simulate_batch
from esc_sat.config import (
    ConfigError,
    build_controller,
    build_dither,
    build_polytope,
    build_qmap,
    build_sim_config,
    build_synthesis_request,
    load_config,
    parse_config,
    resolve_hessian,
)
from esc_sat.synthesis import _kappa_of, load_design, save_design
from conftest import EX1_H0, fixture_path

# example1.cfg's k_aw, which a rate-saturation loop does not read, and its
# polytope keys, which no config without a polytope key reads
EX1_KAW_LINE = "k_aw = 2.2794 0.0824; -0.0865 2.2804\n"
EX1_POLYTOPE_LINES = "polytope = scaled_nominal\nh0 = 100 30; 30 20\ndelta_bar = 0.1\n"

GOOD = """
[map]
q_star = 10
theta_star = 2 4
input_bounds = 5 5
polytope = scaled_nominal
h0 = 100 30; 30 20
delta_bar = 0.1
alpha = 0.6822 0.3178

[dither]
amplitudes = 0.1 0.1
multipliers = 10 70
base_omega = 1

[synthesis]
kind = aw
eta = 1
bounds = 5 5

[controller]
k = -0.0270 0.0361; 0.0456 -0.1492
k_aw = 2.2794 0.0824; -0.0865 2.2804

[sim]
scenario = input-saturation
theta0 = 2.5 6
t_end = 5
dt = auto
demod = deviation
"""


def test_parse_errors_carry_position():
    with pytest.raises(ConfigError) as exc:
        parse_config("[map]\nwhatever = 3\n")
    assert exc.value.line == 2
    with pytest.raises(ConfigError, match="outside any section"):
        parse_config("q_star = 10\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[plant]\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[map]\nq_star = 1\nq_star = 2\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("[map]\nq_star 10\n")


def test_builders_on_reference_config():
    cfg = parse_config(GOOD)
    dither = build_dither(cfg)
    assert dither.period == pytest.approx(2 * np.pi / 10)
    poly = build_polytope(cfg)
    H = resolve_hessian(cfg, poly)
    assert np.allclose(H, (0.6822 * 0.9 + 0.3178 * 1.1) * EX1_H0)
    qmap = build_qmap(cfg, H)
    assert qmap.q_star == 10.0
    ctrl = build_controller(cfg, qmap)
    assert ctrl.k.shape == (2, 2)
    sim_cfg = build_sim_config(cfg, qmap, dither, ctrl)
    assert sim_cfg.demod_remove_offset is True
    req = build_synthesis_request(cfg)
    assert req.kind == "aw" and req.eta == 1.0


def test_vertex_polytope_config():
    cfg = load_config(fixture_path("example2.cfg"))
    poly = build_polytope(cfg)
    assert poly.num_vertices == 4
    req = build_synthesis_request(cfg)
    assert req.kind == "gradsat" and req.epsilon == 0.5


def test_missing_alpha_is_an_error():
    text = GOOD.replace("alpha = 0.6822 0.3178\n", "")
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="alpha"):
        resolve_hessian(cfg, build_polytope(cfg))


# ---------------------------------------------------------------------------
# command line


def test_cli_design_and_verify(tmp_path):
    out = tmp_path / "design"
    rc = cli.main(["design", fixture_path("example1.cfg"), "--out", str(out)])
    assert rc == 0
    design_file = out / "design.txt"
    assert design_file.exists()
    assert (out / "design_report.txt").exists()
    rc = cli.main(["verify", str(design_file), fixture_path("example1.cfg")])
    assert rc == 0


def test_cli_design_closes_its_files(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["design", fixture_path("example1.cfg"), "--out", str(tmp_path)])
        gc.collect()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cli_design_epsilon_sweep(tmp_path):
    out = tmp_path / "design"
    rc = cli.main(
        [
            "design",
            fixture_path("example2.cfg"),
            "--out",
            str(out),
            "--epsilon-sweep",
            "0.25,0.5,50",
        ]
    )
    assert rc == 0
    report = (out / "design_report.txt").read_text()
    assert "epsilon = 0.25:" in report
    assert "epsilon = 0.5:" in report
    # an infeasible candidate is reported in its line, and the sweep goes on
    assert re.search(
        r"(?m)^epsilon = 50: rate-saturation design: infeasible \(slack \S+, most "
        r"violated block 'vertex\[2\]'\)$",
        report,
    )


def test_cli_verify_rejects_corrupted_design(tmp_path):
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example1.cfg"), "--out", str(out)]) == 0
    design = load_design(str(out / "design.txt"))
    import dataclasses

    broken = dataclasses.replace(design, k=design.k + 1e3)
    save_design(broken, str(out / "broken.txt"))
    rc = cli.main(["verify", str(out / "broken.txt"), fixture_path("example1.cfg")])
    assert rc == 2


def _edit_design_file(src, dst, **values):
    lines = []
    for line in src.read_text().splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {values[key]}" if key in values else line)
    dst.write_text("\n".join(lines) + "\n")


def test_cli_verify_rejects_forged_aw_certificate(tmp_path, capsys):
    # K = 0, K_aw = -I, P = -I, Lambda = I makes every vertex block -2I
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example1.cfg"), "--out", str(out)]) == 0
    forged = {
        "k": "0 0; 0 0",
        "k_aw": "-1 0; 0 -1",
        "p": "-1 0; 0 -1",
        "lambda": "1 0; 0 1",
    }
    _edit_design_file(out / "design.txt", tmp_path / "forged.txt", **forged)
    capsys.readouterr()
    rc = cli.main(["verify", str(tmp_path / "forged.txt"), fixture_path("example1.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "vertex inequalities: lambda_max = -2.000000e+00" in captured.out
    assert "all certificates pass" not in captured.out
    assert "FAILED: P not positive definite" in captured.err


@pytest.mark.parametrize(
    "tamper, message",
    [
        # P = X^-T W X^-1 is derived, so it is scaled through W
        (lambda d: {"w": 2.0 * d.w}, "vertex inequalities not negative definite"),
        (lambda d: {"w": -d.w}, "P not positive definite"),
        (
            lambda d: {"upsilon_tilde": d.upsilon_tilde + 1e-3 * (1.0 - np.eye(3))},
            "upsilon_tilde not a positive diagonal",
        ),
    ],
    ids=["p-scaled", "p-negated", "upsilon-offdiagonal"],
)
def test_cli_verify_rejects_tampered_gradsat_certificate(tmp_path, capsys, tamper, message):
    import dataclasses

    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example2.cfg"), "--out", str(out)]) == 0
    design = load_design(str(out / "design.txt"))
    save_design(dataclasses.replace(design, **tamper(design)), str(out / "bad.txt"))
    capsys.readouterr()
    rc = cli.main(["verify", str(out / "bad.txt"), fixture_path("example2.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "all certificates pass" not in captured.out
    assert f"FAILED: {message}" in captured.err.splitlines()


def test_cli_verify_ignores_an_edited_kappa_line(tmp_path, capsys, fixture_designs):
    # kappa is derived from P; the kappa / kappa_g line that older design
    # files carry is read by nothing, so an edited one cannot disagree with P
    for cfg, key in (("example1.cfg", "kappa"), ("example2.cfg", "kappa_g")):
        good = fixture_designs[cfg]
        assert f"\n{key} = " not in good.read_text()
        edited = tmp_path / "edited.txt"
        edited.write_text(good.read_text() + f"{key} = 0.5\n")
        design = load_design(str(edited))
        assert design.kappa == _kappa_of(design.p)
        capsys.readouterr()
        assert cli.main(["verify", str(edited), fixture_path(cfg)]) == 0
        assert capsys.readouterr().out.endswith("all certificates pass\n")


def test_cli_verify_ignores_an_edited_gradsat_p_line(tmp_path, capsys, fixture_designs):
    # a rate-saturation P is derived from W and X; its line is not read back
    good = fixture_designs["example2.cfg"]
    design = load_design(str(good))
    edited = tmp_path / "edited.txt"
    _edit_design_file(good, edited, p=matio.format_matrix(-design.p))
    assert edited.read_text() != good.read_text()
    assert np.array_equal(load_design(str(edited)).p, design.p)
    outputs = []
    for path in (good, edited):
        capsys.readouterr()
        assert cli.main(["verify", str(path), fixture_path("example2.cfg")]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[1].out.endswith("all certificates pass\n")


def test_cli_verify_rejects_negative_seed_before_any_check(tmp_path, capsys):
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example2.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    for seed in ("-1", "x"):
        rc = cli.main(
            ["verify", str(out / "design.txt"), fixture_path("example2.cfg"), "--seed", seed]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "--seed" in captured.err


def test_cli_verify_names_both_dimensions_on_mismatch(tmp_path, capsys):
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example1.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["verify", str(out / "design.txt"), fixture_path("example2.cfg")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "error: the design has dimension 2 but the config's polytope has dimension 3\n"
    )


def test_cli_verify_rejects_bounds_that_differ_from_the_config(tmp_path, capsys):
    # the row couplings certify the design for its own bounds only
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example2.cfg"), "--out", str(out)]) == 0
    _edit_design_file(out / "design.txt", tmp_path / "wide.txt", bounds="100 100 100")
    capsys.readouterr()
    rc = cli.main(["verify", str(tmp_path / "wide.txt"), fixture_path("example2.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "all certificates pass" not in captured.out
    assert captured.err == "FAILED: design bounds differ from the config's\n"


@pytest.mark.parametrize(
    "command, old, new, what",
    [
        ("simulate", "dt = auto", "dt = fast", "31:1: [sim] dt = 'fast': not a number"),
        ("design", "kind = aw", "kind = aw\nepsilon = big",
         "20:1: [synthesis] epsilon = 'big': not a number"),
        (
            "design",
            "polytope = scaled_nominal",
            "polytope = eigen_interval\nlambda1 = 10\nlambda2 = 100\ndim = 2.5",
            "11:1: [map] dim = '2.5': not an integer",
        ),
        (
            "simulate", "theta_star = 2 4", "theta_star = 2 x",
            "6:1: [map] theta_star = '2 x': could not convert string to float: 'x'",
        ),
        (
            "simulate", "input_bounds = 5 5", "input_bounds = 5 -5",
            "7:1: [map] input_bounds = '5 -5': saturation limits must be strictly positive",
        ),
        (
            "simulate", "k = -0.0270 0.0361; 0.0456 -0.1492", "k = 1 2; 3",
            "24:1: [controller] k = '1 2; 3': rows of unequal length",
        ),
        (
            "simulate", "multipliers = 10 70", "multipliers = 10 7/0",
            "15:1: [dither] multipliers = '10 7/0': bad rational '7/0': Fraction(7, 0)",
        ),
        ("simulate", "t_end = 5", "t_end = inf", "30:1: [sim] t_end = 'inf': not a finite number"),
        ("simulate", "t_end = 5", "t_end = nan", "30:1: [sim] t_end = 'nan': not a finite number"),
        (
            "simulate", "base_omega = 1", "base_omega = nan",
            "16:1: [dither] base_omega = 'nan': not a finite number",
        ),
        ("simulate", "dt = auto", "dt = nan", "31:1: [sim] dt = 'nan': not a finite number"),
        (
            "simulate", "amplitudes = 0.1 0.1", "amplitudes = nan 0.1",
            "14:1: [dither] amplitudes = 'nan 0.1': values must be finite",
        ),
        (
            "simulate", "theta0 = 2.5 6", "theta0 = 2.5 inf",
            "29:1: [sim] theta0 = '2.5 inf': values must be finite",
        ),
        (
            "simulate", "q_star = 10", "q_star = -inf",
            "5:1: [map] q_star = '-inf': not a finite number",
        ),
        (
            "design", "h0 = 100 30; 30 20", "h0 = 100 30; 30 nan",
            "9:1: [map] h0 = '100 30; 30 nan': values must be finite",
        ),
    ],
    ids=[
        "dt", "epsilon", "dim-fraction",
        "vector", "bounds", "matrix", "rationals", "t_end-inf", "t_end-nan",
        "base_omega-nan", "dt-nan", "amplitudes-nan", "theta0-inf", "q_star-inf",
        "h0-nan",
    ],
)
def test_config_number_errors_name_file_and_key(tmp_path, capsys, command, old, new, what):
    text = Path(fixture_path("example1.cfg")).read_text()
    assert old in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    rc = cli.main([command, str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {path}:{what}\n")


@pytest.mark.parametrize(
    "command, name, old, new, what",
    [
        (
            "simulate", "example1.cfg", "theta0 = 2.5 6", "theta0 = 2.5",
            "29:1: [map] theta_star, [sim] theta0: theta0 has dimension 1, theta_star 2",
        ),
        (
            "simulate", "example2.cfg", "alpha = 0.25 0.25 0.25 0.25", "alpha = 0.5 0.5",
            "12:1: [map] alpha, polytope: alpha has 2 weights for 4 vertices",
        ),
        (
            "simulate", "example2.cfg", "alpha = 0.25 0.25 0.25 0.25",
            "alpha = 0.5 0.2 0.2 0.05",
            "12:1: [map] alpha, polytope: alpha weights sum to 0.95, not 1",
        ),
        *[
            (
                command, "example2.cfg",
                "amplitudes = 0.1 0.1 0.1", "amplitudes = 0.1 0.1",
                "15:1: [map] theta_star, [dither] amplitudes: "
                "amplitudes has dimension 2, theta_star 3",
            )
            for command in ("simulate", "design")
        ],
        (
            "simulate", "example1.cfg", "k = -0.0270 0.0361; 0.0456 -0.1492",
            "k = 1 0 0; 0 1 0",
            "25:1: [controller] k, k_aw: controller gains must be square and of one shape",
        ),
        (
            "simulate", "example1.cfg", "h0 = 100 30; 30 20", "h0 = 100",
            "8:1: [map] theta_star, polytope: polytope has dimension 1, theta_star 2",
        ),
        (
            "design", "example1.cfg", "h0 = 100 30; 30 20", "h0 = 100",
            "8:1: [map] theta_star, polytope: polytope has dimension 1, theta_star 2",
        ),
        (
            "design", "example1.cfg", EX1_POLYTOPE_LINES, "",
            " [map] must define a polytope for gain design",
        ),
        (
            "simulate", "example1.cfg",
            "k = -0.0270 0.0361; 0.0456 -0.1492\nk_aw = 2.2794 0.0824; -0.0865 2.2804",
            "k = 1 0 0; 0 1 0; 0 0 1\nk_aw = 1 0 0; 0 1 0; 0 0 1",
            "25:1: [controller] k, k_aw: a controller of dimension 3 for a map of dimension 2",
        ),
        *[
            (
                command, "example2.cfg", "multipliers = 10 30 70",
                "multipliers = 1/100000007 1/100000037 1/100000039",
                "17:1: [dither] amplitudes, multipliers, base_omega: common-period LCM "
                "exceeds exact integer range while combining multiplier 2 "
                "(reciprocal 100000039) with the running value 10000004400000259",
            )
            for command in ("simulate", "design")
        ],
        (
            "simulate", "example1.cfg", "t_end = 5", "t_end = 0.0001",
            "31:1: [sim] t_end, dt: t_end = 0.0001 rounds to no step of dt = 0.000628319",
        ),
        # errors of one line, which name the config alike
        ("simulate", "example1.cfg", "[sim]\n", "[sim\n", "27:1: unterminated section header"),
        ("simulate", "example1.cfg", "[sim]\n", "[map]\n", "27:1: duplicate section [map]"),
        (
            "simulate", "example1.cfg", "theta0 = 2.5 6", "theta0 =",
            "29:1: [sim] theta0 = '': empty vector",
        ),
        (
            "design", "example1.cfg", "h0 = 100 30; 30 20", "h0 = 100 30;",
            "9:1: [map] h0 = '100 30;': empty matrix row",
        ),
        (
            "simulate", "example1.cfg", "multipliers = 10 70", "multipliers =",
            "15:1: [dither] multipliers = '': empty rational vector",
        ),
    ],
    ids=[
        "theta0", "alpha-count", "alpha-sum", "amplitudes-simulate", "amplitudes-design",
        "k-shape", "h0-simulate", "h0-design", "no-polytope", "k-dimension",
        "period-overflow-simulate", "period-overflow-design", "t_end-under-one-step",
        "unterminated-section", "duplicate-section", "empty-vector", "empty-matrix-row",
        "empty-rational-vector",
    ],
)
def test_config_errors_across_keys_name_the_config(
    tmp_path, capsys, command, name, old, new, what
):
    text = Path(fixture_path(name)).read_text()
    assert text.count(old) == 1
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert cli.main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}:{what}\n")
    assert not out.exists()


@pytest.mark.parametrize("stride", ["0", "-1", "x", "2.5"])
def test_cli_stride_is_checked_before_anything_runs(tmp_path, capsys, stride):
    out = tmp_path / "out"
    argv = ["simulate", fixture_path("example1.cfg"), "--stride", stride]
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --stride: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "old, bad, what",
    [
        ("[controller]", "source = designed", "unknown key 'source' in [controller]"),
        ("demod = deviation", "\n[outputs]\nstride = 1", "unknown section [outputs]"),
        ("demod = deviation", "\n[plant]", "unknown section [plant]"),
        ("demod = deviation", "demod = plain", "duplicate key 'demod' in [sim]"),
    ],
    ids=["source", "outputs", "unknown-section", "duplicate-key"],
)
def test_removed_config_knobs_fail_with_their_position(tmp_path, capsys, old, bad, what):
    # the design file and the output shape are chosen on the command line;
    # every parse error names the file, as typed reads do
    text = Path(fixture_path("example1.cfg")).read_text()
    edited = text.replace(f"{old}\n", f"{old}\n{bad}\n")
    line = edited.splitlines().index(bad.strip().splitlines()[0]) + 1
    path = tmp_path / "old.cfg"
    path.write_text(edited)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}:{line}:1: {what}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "param, values", [("amplitude", "nan,0.1"), ("amplitude", "inf,0.1"), ("omega-scale", "inf,1")]
)
def test_sweep_values_must_be_finite(tmp_path, capsys, param, values):
    argv = ["sweep", fixture_path("example1.cfg"), "--param", param, "--values", values]
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sweep values must be finite: {values!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "0"])
def test_cli_epsilon_sweep_needs_finite_candidates(tmp_path, capsys, bad):
    # every candidate is checked before anything is solved, warned about or
    # created, so a bad one is refused though it follows a good one
    out = tmp_path / "out"
    text = f"0.5,{bad}"
    argv = ["design", fixture_path("example2.cfg"), "--epsilon-sweep", text]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: --epsilon-sweep {text!r}: candidate {float(bad):g}: the congruence "
        "scalar epsilon must be positive and finite\n",
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["design", "example2.cfg"], "--epsilon-sweep", "0.5,abc"),
        (["design", "example2.cfg"], "--epsilon-sweep", "abc"),
        (["sweep", "example1.cfg", "--param", "amplitude"], "--values", "0.1,abc"),
    ],
)
def test_comma_lists_are_parsed_before_anything_runs(tmp_path, capsys, argv, option, text):
    # nothing is solved, simulated, printed or created before the bad entry
    # is reported
    out = tmp_path / "out"
    argv = [argv[0], fixture_path(argv[1]), *argv[2:], option, text, "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {option} {text!r}: could not convert string to float: 'abc'\n",
    )
    assert not out.exists()


def test_cli_epsilon_sweep_skips_empty_entries_as_sweep_values_do(tmp_path):
    out = tmp_path / "design"
    argv = ["design", fixture_path("example2.cfg"), "--epsilon-sweep", "0.25,,0.5,"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = (out / "design_report.txt").read_text().splitlines()
    assert [ln.partition(":")[0] for ln in report[:2]] == [
        "epsilon = 0.25", "epsilon = 0.5"
    ]


def test_cli_epsilon_sweep_is_refused_on_an_aw_config(tmp_path, capsys):
    # an anti-windup design has no congruence scalar to report on
    out = tmp_path / "out"
    argv = ["design", fixture_path("example1.cfg"), "--epsilon-sweep", "0.25,0.5"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: --epsilon-sweep applies to gradsat designs only\n"
    )
    assert not out.exists()


@pytest.fixture(scope="session")
def fixture_designs(tmp_path_factory):
    """Design file of each bundled fixture with a design, keyed by config."""
    out = tmp_path_factory.mktemp("designs")
    designs = {}
    for cfg in ("example1.cfg", "example2.cfg"):
        assert cli.main(["design", fixture_path(cfg), "--out", str(out / cfg)]) == 0
        designs[cfg] = out / cfg / "design.txt"
    return designs


MATRIX_SHAPE = "shape (1, 2), expected ({n}, {n}) from the {n}-row k"


@pytest.mark.parametrize(
    "field, value, reason",
    [
        pytest.param("eta", "abc", "not a number", id="eta-abc"),
        pytest.param("k", "1 2; 3", "rows of unequal length", id="k-ragged"),
        pytest.param("p", "nan 0; 0 1", "values must be finite", id="p-nan"),
        pytest.param("eta", "inf", "not a finite number", id="eta-inf"),
        pytest.param("epsilon", "nan", "not a finite number", id="epsilon-nan"),
        # a certificate of a non-positive decay rate or congruence scalar
        # proves no convergence
        pytest.param("eta", "-1.0", "not positive", id="eta-negative"),
        pytest.param("eta", "0", "not positive", id="eta-zero"),
        pytest.param("epsilon", "-0.5", "not positive", id="epsilon-negative"),
        pytest.param(
            "k", "1 2", "shape (1, 2), expected (1, 1) from the 1-row k", id="shape-k"
        ),
        pytest.param(
            "bounds", "5", "shape (1,), expected ({n},) from the {n}-row k",
            id="shape-bounds",
        ),
        *[
            pytest.param(field, "1 2", MATRIX_SHAPE, id=f"shape-{field}")
            for field in ("k_aw", "p", "lambda", "l", "w", "x", "upsilon_tilde")
        ],
        pytest.param(
            "k", "0 0; 0 0\nk = 0 0; 0 0", "duplicate field (first on line {first})",
            id="duplicate-k",
        ),
        pytest.param(
            "kind", "aw\nkind = aw", "duplicate field (first on line {first})",
            id="duplicate-kind",
        ),
    ],
)
def test_design_file_errors_name_line_and_field(
    tmp_path, capsys, fixture_designs, field, value, reason
):
    # each fixture design that has the field gets the bad value
    tried = 0
    for cfg, good in fixture_designs.items():
        keys = [ln.partition("=")[0].strip() for ln in good.read_text().splitlines()]
        if field not in keys:
            continue
        tried += 1
        first = 1 + keys.index(field)
        raw = value.rpartition("= ")[2]
        expected = f"{field} = {raw!r}: " + reason.format(n=load_design(str(good)).dim, first=first)
        bad = tmp_path / "bad.txt"
        _edit_design_file(good, bad, **{field: value})
        # the error names the field's last line: a repeat, if there is one
        lineno = first + value.count("\n")
        with pytest.raises(ValueError) as exc:
            load_design(str(bad))
        assert str(exc.value) == f"{bad}:{lineno}: {expected}"
        capsys.readouterr()
        rc = cli.main(["verify", str(bad), fixture_path(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:{lineno}: {expected}\n"
    assert tried


def test_design_file_with_a_y_line_still_loads_and_verifies(
    tmp_path, capsys, fixture_designs
):
    # files written before Y = L X was dropped from GradSatDesign carry it
    good = fixture_designs["example2.cfg"]
    design = load_design(str(good))
    lines = good.read_text().splitlines()
    at = 1 + [ln.partition("=")[0].strip() for ln in lines].index("x")
    y = matio.format_matrix(design.l @ design.x)
    old = tmp_path / "old.txt"
    old.write_text("\n".join(lines[:at] + [f"y = {y}"] + lines[at:]) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", str(old), fixture_path("example2.cfg")]) == 0
    assert capsys.readouterr().out.endswith("all certificates pass\n")


def test_design_file_comments_are_ignored(tmp_path, capsys, fixture_designs):
    good = fixture_designs["example1.cfg"]
    lines = good.read_text().splitlines()
    at = [ln.partition("=")[0].strip() for ln in lines].index("eta")
    lines[at] += "  # the certified decay rate"
    commented = tmp_path / "commented.txt"
    commented.write_text("# an anti-windup design\n" + "\n".join(lines) + "\n")
    save_design(load_design(str(commented)), str(tmp_path / "again.txt"))
    assert (tmp_path / "again.txt").read_bytes() == good.read_bytes()
    capsys.readouterr()
    assert cli.main(["verify", str(commented), fixture_path("example1.cfg")]) == 0
    assert capsys.readouterr().out.endswith("all certificates pass\n")


def test_cli_verify_rejects_a_design_of_the_other_kind(tmp_path, capsys, fixture_designs):
    # a gradsat design on the example-1 polytope has the config's dimension
    cfg = tmp_path / "gradsat.cfg"
    text = Path(fixture_path("example1.cfg")).read_text()
    cfg.write_text(text.replace("kind = aw", "kind = gradsat\nepsilon = 0.5"))
    assert cli.main(["design", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = cli.main(["verify", str(tmp_path / "design.txt"), fixture_path("example1.cfg")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "error: the design is of kind 'gradsat' but the config's [synthesis] "
        "kind is 'aw'\n"
    )


def test_cli_verify_rejects_an_eta_below_the_config(tmp_path, capsys, fixture_designs):
    # the certificate proves the stored eta, which the config's eta must not exceed
    good = fixture_designs["example1.cfg"]
    _edit_design_file(good, tmp_path / "slow.txt", eta="0.25")
    capsys.readouterr()
    rc = cli.main(["verify", str(tmp_path / "slow.txt"), fixture_path("example1.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "FAILED: design eta 0.25 is below the config's 1.0\n"


@pytest.mark.parametrize("command", ["design", "verify"])
@pytest.mark.parametrize(
    "old, new",
    [("eta = 1", "eta = -1"), ("eta = 1", "eta = 0"), ("epsilon = 0.5", "epsilon = -0.5")],
    ids=["eta-negative", "eta-zero", "epsilon-negative"],
)
def test_nonpositive_synthesis_scalars_are_refused(
    tmp_path, capsys, fixture_designs, command, old, new
):
    # a non-positive decay rate certifies growth, not decay: refused with
    # the config's key before anything is solved or warned about
    text = Path(fixture_path("example2.cfg")).read_text()
    assert old in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    if command == "design":
        argv = ["design", str(path), "--out", str(out)]
    else:
        argv = ["verify", str(fixture_designs["example2.cfg"]), str(path)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    key, _, value = new.partition(" = ")
    line = 1 + text.splitlines().index(old)
    assert capsys.readouterr() == (
        "", f"error: {path}:{line}:1: [synthesis] {key} = {value!r}: not positive\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "scenario, design_kind",
    [("input-saturation", "gradsat"), ("gradient-saturation", "aw")],
)
def test_designed_controller_needs_the_scenario_kind(
    tmp_path, capsys, command, scenario, design_kind
):
    # both designs live on the example-1 polytope, so the dimensions agree
    text = Path(fixture_path("example1.cfg")).read_text()
    design_cfg = tmp_path / "design.cfg"
    design_cfg.write_text(
        text.replace("kind = aw", "kind = gradsat\nepsilon = 0.5")
        if design_kind == "gradsat" else text
    )
    assert cli.main(["design", str(design_cfg), "--out", str(tmp_path)]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_text = text.replace("scenario = input-saturation", f"scenario = {scenario}")
    if scenario == "gradient-saturation":  # a loop that reads no k_aw
        run_text = run_text.replace(EX1_KAW_LINE, "")
    run_cfg.write_text(run_text)
    argv = [command, str(run_cfg), "--design", str(tmp_path / "design.txt")]
    if command == "sweep":
        argv += ["--param", "amplitude", "--values", "0.1,0.2"]
    capsys.readouterr()
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {run_cfg}: scenario {scenario!r} cannot run a design of kind "
        f"{design_kind!r}\n"
    )


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_designed_controller_needs_the_map_dimension(
    tmp_path, capsys, fixture_designs, command
):
    # the example-2 design is a three-dimensional rate-saturation design
    text = Path(fixture_path("example1.cfg")).read_text()
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        text.replace("scenario = input-saturation", "scenario = gradient-saturation")
        .replace(EX1_KAW_LINE, "")
    )
    argv = [command, str(run_cfg), "--design", str(fixture_designs["example2.cfg"])]
    if command == "sweep":
        argv += ["--param", "amplitude", "--values", "0.1,0.2"]
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {run_cfg}: the design gives a controller of dimension 3 for a map "
        "of dimension 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg"])
def test_design_option_alone_runs_the_design_gains(tmp_path, fixture_designs, name):
    cfg_path = fixture_path(name)
    design = load_design(str(fixture_designs[name]))
    cfg = load_config(cfg_path)
    assert not np.array_equal(design.k, cfg["controller", "k"])
    argv = ["simulate", cfg_path, "--design", str(fixture_designs[name])]
    assert cli.main(argv + ["--out", str(tmp_path / "cli")]) == 0
    qmap = build_qmap(cfg, resolve_hessian(cfg, build_polytope(cfg)))
    if design.kind == "aw":
        ctrl = AwController(design.k, design.k_aw)
    else:
        ctrl = GradSatController(design.k, design.bounds)
    traj = simulate(build_sim_config(cfg, qmap, build_dither(cfg), ctrl))
    export_csv(traj, str(tmp_path / "library.csv"))
    written = (tmp_path / "cli" / "trajectory.csv").read_bytes()
    assert written == (tmp_path / "library.csv").read_bytes()


# the public builders, each of which builds one object a config describes
BUILDERS = (
    "build_polytope", "build_synthesis_request", "build_dither", "resolve_hessian",
    "build_qmap", "build_controller", "build_sim_config",
)
COMMAND_FORMS = {
    "design": ["design", "{cfg}"],
    "verify": ["verify", "{design}", "{cfg}"],
    "simulate": ["simulate", "{cfg}", "--plot"],
    "simulate-design": ["simulate", "{cfg}", "--design", "{design}"],
    "sweep": ["sweep", "{cfg}", "--param", "omega-scale", "--values", "0.8,1"],
    "sweep-design": [
        "sweep", "{cfg}", "--design", "{design}", "--param", "amplitude", "--values", "0.05,0.1"
    ],
}


@pytest.mark.parametrize("form", list(COMMAND_FORMS))
@pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg", "example1_no_aw.cfg"])
def test_each_object_is_built_once_per_command(
    tmp_path, capsys, monkeypatch, fixture_designs, name, form
):
    # the load builds each object the config describes and the command runs
    # those; a --design file's gains go into a controller, and so a run, of
    # their own, built from the loaded map and dither
    text = Path(fixture_path(name)).read_text()
    path = tmp_path / name
    path.write_text(re.sub(r"(?m)^t_end = .*$", "t_end = 0.5", text))
    design = fixture_designs["example2.cfg" if name == "example2.cfg" else "example1.cfg"]
    calls = collections.Counter()
    designed = []  # the controllers that run a design's gains

    def counted(builder, make):
        def wrapped(*args):
            gains = builder == "build_controller" and len(args) > 2 and args[2] is not None
            gains = gains or builder == "build_sim_config" and any(
                args[3] is ctrl for ctrl in designed
            )
            calls[builder, "design" if gains else "config"] += 1
            obj = make(*args)
            if gains and builder == "build_controller":
                designed.append(obj)
            return obj

        return wrapped

    # wherever a module binds a builder, its calls are counted
    for builder in BUILDERS:
        for module in (config, cli):
            if hasattr(module, builder):
                monkeypatch.setattr(module, builder, counted(builder, getattr(config, builder)))
    paths = {"{cfg}": str(path), "{design}": str(design)}
    argv = [paths.get(arg, arg) for arg in COMMAND_FORMS[form]]
    if form != "verify":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert set(calls.values()) == {1}, calls
    assert len(calls) == len(BUILDERS) + 2 * form.endswith("-design"), calls


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_design_option_runs_without_a_controller_section(
    tmp_path, capsys, fixture_designs, command
):
    # a --design file's gains go into a run of their own, so a config with
    # no [controller] section runs them
    text = Path(fixture_path("example2.cfg")).read_text()
    text = re.sub(r"(?m)^\[controller\]\nk = .*\n\n", "", text)
    assert "[controller]" not in text
    path = tmp_path / "no-controller.cfg"
    path.write_text(re.sub(r"(?m)^t_end = .*$", "t_end = 0.5", text))
    argv = [command, str(path), "--design", str(fixture_designs["example2.cfg"])]
    if command == "sweep":
        argv += ["--param", "amplitude", "--values", "0.05,0.1"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    if command == "simulate":
        assert "(797 samples)" in capsys.readouterr().out


def test_verify_refuses_a_controller_that_does_not_fit_the_map(
    tmp_path, capsys, fixture_designs
):
    # verify reads no dither and no controller; the controller is checked
    # against the map at load all the same
    text = Path(fixture_path("example1.cfg")).read_text()
    text = re.sub(r"(?m)^\[dither\]\n(.+\n)+\n", "", text)
    text = re.sub(r"(?m)^(k|k_aw) = .*$", r"\1 = 1 0 0; 0 1 0; 0 0 1", text)
    assert "[dither]" not in text
    path = tmp_path / "no-dither.cfg"
    path.write_text(text)
    capsys.readouterr()
    assert cli.main(["verify", str(fixture_designs["example1.cfg"]), str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {path}:20:1: [controller] k, k_aw: a controller of dimension 3 for a map "
        "of dimension 2\n",
    )


@pytest.mark.parametrize("refusal", ["other-kind", "bad-config", "under-one-step"])
def test_refused_sweep_leaves_no_out_directory(tmp_path, capsys, fixture_designs, refusal):
    cfg = fixture_path("example2.cfg")
    argv = ["sweep", cfg, "--param", "amplitude", "--values", "0.1,0.2"]
    if refusal == "other-kind":
        argv += ["--design", str(fixture_designs["example1.cfg"])]
    elif refusal == "under-one-step":
        # the slowed dither's automatic step, period/1000, is far longer than t_end
        argv = ["sweep", fixture_path("example1.cfg"), "--param", "omega-scale"]
        argv += ["--values", "1e-300,1"]
    else:
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(cfg).read_text().replace("t_end = ", "t_end = x"))
        argv[1] = str(bad)
    out = tmp_path / "r2"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "param, values, what",
    [
        ("omega-scale", "1,2,0", "--values 0: base_omega must be positive"),
        ("amplitude", "-1,1", "--values -1: dither amplitudes must be strictly positive"),
        (
            "omega-scale", "1e-6,1",
            "--values 1e-06: t_end = 5 rounds to no step of dt = 628.319",
        ),
    ],
    ids=["omega-zero", "amplitude-negative", "omega-under-one-step"],
)
def test_bad_sweep_value_fails_before_any_run(tmp_path, capsys, monkeypatch, param, values, what):
    # every member of the sweep is built, and so checked, before the first run

    def no_run(sim_cfgs):
        raise AssertionError("a sweep member was simulated")

    monkeypatch.setattr(cli, "simulate", no_run)
    monkeypatch.setattr(cli, "simulate_batch", no_run)
    cfg = fixture_path("example1.cfg")
    out = tmp_path / "out"
    argv = ["sweep", cfg, "--param", param, f"--values={values}", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: --param {param} {what}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "name, theta_star, param, values",
    [
        ("example1.cfg", "2 4", "omega-scale", "0.8,1"),
        ("example2.cfg", "-1 -2 -3", "amplitude", "0.1,0.2"),
    ],
)
def test_sweep_at_the_optimum_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch, name, theta_star, param, values
):
    # the averaged loop rests at theta_tilde = 0, so no decay could be fitted

    def no_run(sim_cfgs):
        raise AssertionError("a sweep member was simulated")

    monkeypatch.setattr(cli, "simulate", no_run)
    monkeypatch.setattr(cli, "simulate_batch", no_run)
    text = Path(fixture_path(name)).read_text()
    path = tmp_path / "optimum.cfg"
    path.write_text(re.sub(r"(?m)^theta0 = .*$", f"theta0 = {theta_star}", text))
    out = tmp_path / "out"
    argv = ["sweep", str(path), "--param", param, "--values", values, "--out", str(out)]
    assert cli.main(argv) == 1
    # the error alone: example 2's frequency warnings come only once every
    # check has passed
    assert capsys.readouterr() == (
        "",
        f"error: {path}: [sim] theta0 = {theta_star!r} is the optimum theta*, where "
        "the averaged loop rests, so a sweep has no decay to fit\n",
    )
    assert not out.exists()


def test_sweep_refused_by_a_member_check_prints_its_error_alone(tmp_path, capsys):
    cfg = fixture_path("example2.cfg")
    out = tmp_path / "out"
    argv = ["sweep", cfg, "--param", "amplitude", "--values", "0.1,-1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {cfg}: --param amplitude --values -1: "
        "dither amplitudes must be strictly positive\n",
    )
    assert not out.exists()


def test_sweep_that_passes_its_checks_still_warns(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    text = Path(fixture_path("example2.cfg")).read_text()
    path.write_text(text.replace("t_end = 10", "t_end = 0.5"))
    argv = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "warning: inadmissible frequency multipliers: "
        "m[1] = m[0] + 2*m[0] = 30; m[2] = m[0] + 2*m[1] = 70\n"
        "warning: proceeding anyway; averaged predictions may be distorted\n"
    )


def test_uncountable_horizon_is_a_named_error(tmp_path, capsys):
    # t_end / dt overflows a float, so the step count is refused in SimConfig
    text = Path(fixture_path("example1.cfg")).read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("t_end = 5", "t_end = 1e300").replace("dt = auto", "dt = 1e-10"))
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {path}:31:1: [sim] t_end, dt: "
        "t_end = 1e+300 at dt = 1e-10 takes too many steps to count\n",
    )
    assert not out.exists()


# Only horizons that no machine can allocate are run: 1e12 s at the fixture
# step asks for tens of PiB, and 1e300 s for more elements than numpy can
# index.  Sizes in between may be allocated lazily and then exhaust memory.
@pytest.mark.parametrize(
    "edits, argv, message",
    [
        (
            {"t_end = 5": "t_end = 1e12"}, ["simulate"],
            "t_end = 1e+12 at dt = 0.000628319 takes 1.592e+15 steps",
        ),
        (
            {"t_end = 5": "t_end = 1e12", "= input-saturation": "= average-aw"}, ["simulate"],
            "t_end = 1e+12 at dt = 0.000628319 takes 1.592e+15 steps",
        ),
        (
            {"t_end = 5": "t_end = 1e300"}, ["simulate"],
            "t_end = 1e+300 at dt = 0.000628319 takes 1.592e+303 steps",
        ),
        (
            {}, ["sweep", "--param", "omega-scale", "--values", "1e12,1"],
            "t_end = 5 at dt = 6.28319e-16 takes 7.958e+15 steps",
        ),
    ],
    ids=["simulate-1e12", "average-1e12", "simulate-1e300", "sweep-omega-1e12"],
)
def test_unallocatable_run_is_a_named_error(tmp_path, capsys, edits, argv, message):
    text = Path(fixture_path("example1.cfg")).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}, too many to allocate\n")
    assert not out.exists()


def test_cli_verify_bad_theta_star_names_file_and_key(tmp_path, capsys, fixture_designs):
    text = Path(fixture_path("example1.cfg")).read_text()
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace("theta_star = 2 4", "theta_star = 2 x"))
    capsys.readouterr()
    rc = cli.main(["verify", str(fixture_designs["example1.cfg"]), str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: {path}:6:1: [map] theta_star = '2 x': "
        "could not convert string to float: 'x'\n"
    )


@pytest.mark.parametrize("command", ["design", "verify", "simulate", "sweep"])
@pytest.mark.parametrize(
    "old, new, what",
    [
        (
            "bounds = 5 5", "bounds = 4 4",
            "21:1: [map] input_bounds, [synthesis] bounds: "
            "an anti-windup loop has one set of input bounds",
        ),
        (
            "theta_star = 2 4", "theta_star = 2 6",
            "21:1: [map] theta_star, [synthesis] bounds: "
            "theta_star must lie strictly inside the input bounds",
        ),
    ],
    ids=["bounds-differ", "theta-star-outside"],
)
def test_aw_config_states_one_set_of_input_bounds(
    tmp_path, capsys, fixture_designs, command, old, new, what
):
    text = Path(fixture_path("example1.cfg")).read_text()
    assert text.count(f"\n{old}\n") == 1
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    out = tmp_path / "out"
    argv = {
        "design": ["design", str(path), "--out", str(out)],
        "verify": ["verify", str(fixture_designs["example1.cfg"]), str(path)],
        "simulate": ["simulate", str(path), "--out", str(out)],
        "sweep": ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2",
                  "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {path}:{what}\n")
    assert not out.exists()


def _malformed_keys():
    """(fixture, line, section, key, value) for each key of the fixtures with
    a design, given a value of its shape that does not parse, and for the
    synthesis scalars that parse but are not positive."""
    cases = []
    for name in ("example1.cfg", "example2.cfg"):
        lines = Path(fixture_path(name)).read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("["):
                section = line[1:-1]
            key, eq, value = line.partition(" = ")
            if not eq or line.startswith("#"):
                continue
            bad = "1 2; 3" if ";" in value else "1 x" if " " in value else "abc"
            fixture = name.removesuffix(".cfg")
            cases.append(pytest.param(name, lineno, section, key, bad, id=f"{fixture}-{key}"))
            nonpositive = {"eta": "-1" if fixture == "example1" else "0", "epsilon": "-0.5"}
            if key in nonpositive:
                bad = nonpositive[key]
                cases.append(
                    pytest.param(name, lineno, section, key, bad, id=f"{fixture}-{key}={bad}")
                )
    return cases


@pytest.mark.parametrize("name, lineno, section, key, bad", _malformed_keys())
def test_a_malformed_key_is_refused_alike_by_every_command(
    tmp_path, capsys, fixture_designs, name, lineno, section, key, bad
):
    # typed at load, a bad value stops every command with the same line,
    # before it prints, creates or runs anything
    text = Path(fixture_path(name)).read_text()
    lines = re.sub(r"(?m)^t_end = .*$", "t_end = 0.05", text).splitlines()
    lines[lineno - 1] = f"{key} = {bad}"
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    design = str(fixture_designs[name])
    forms = [
        ["design", str(path), "--out", str(out)],
        ["verify", design, str(path)],
        ["simulate", str(path), "--out", str(out)],
        ["simulate", str(path), "--design", design, "--out", str(out)],
        ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2", "--out", str(out)],
    ]
    refusals = []
    for argv in forms:
        capsys.readouterr()
        refusals.append((cli.main(argv), *capsys.readouterr()))
        assert not out.exists(), argv
    rc, stdout, stderr = refusals[0]
    assert refusals == [(1, "", stderr)] * len(forms)
    assert stderr.startswith(f"error: {path}:{lineno}:1: [{section}] {key} = {bad!r}: ")
    assert stderr.count("\n") == 1


AFFINE = """polytope = affine
gamma0 = -5 0 0; 0 -5 0; 0 0 -4
delta_bars = 1 1
gamma1 = 1 0 0; 0 0 0; 0 0 0
gamma2 = 0 0 0; 0 1 0; 0 0 0
"""


@pytest.mark.parametrize(
    "polytope, old, new, key, reason",
    [
        ("vertices", "vertex4 = ", "vertex5 = ", "vertex5", "vertex4 is missing"),
        ("vertices", "vertex1 = ", "vertex0 = ", "vertex0", "vertex keys start at 1"),
        ("affine", "gamma2 = ", "gamma3 = ", "gamma3", "gamma2 is missing"),
        (
            "affine", "gamma2 = 0 0 0; 0 1 0; 0 0 0\n",
            "gamma2 = 0 0 0; 0 1 0; 0 0 0\ngamma3 = 0 0 0; 0 0 0; 0 0 1\n",
            "[map] polytope, gamma0, delta_bars, gamma1, gamma2, gamma3",
            "gammas and delta_bars disagree in length",
        ),
        (
            "affine", "gamma2 = 0 0 0; 0 1 0; 0 0 0\n", "",
            "[map] polytope, gamma0, delta_bars, gamma1",
            "gammas and delta_bars disagree in length",
        ),
    ],
    ids=["vertex-gap", "vertex0", "gamma-gap", "gamma-beyond", "gamma-missing"],
)
def test_a_numbered_family_is_read_whole(
    tmp_path, capsys, fixture_designs, polytope, old, new, key, reason
):
    # a polytope whose numbered keys have a gap, or do not match the count
    # of delta_bars, is refused at load: a certificate over part of the
    # listed vertices certifies another polytope
    text = Path(fixture_path("example2.cfg")).read_text()
    if polytope == "affine":
        text = re.sub(r"(?m)^polytope = vertices\n(vertex\d = .*\n)+", AFFINE, text)
    assert text.count(old) == 1
    text = text.replace(old, new)
    path = tmp_path / "gap.cfg"
    path.write_text(text)
    # a lone key is quoted at its line, a check across keys at the last of them
    lines = text.splitlines()
    if key.startswith("["):
        at = max(i for i, ln in enumerate(lines, 1) if ln.startswith("gamma"))
        what = f"{key}: {reason}"
    else:
        at = next(i for i, ln in enumerate(lines, 1) if ln.startswith(f"{key} = "))
        what = f"[map] {key} = {lines[at - 1].partition(' = ')[2]!r}: {reason}"
    out = tmp_path / "out"
    for argv in (
        ["design", str(path), "--out", str(out)],
        ["verify", str(fixture_designs["example2.cfg"]), str(path)],
        ["simulate", str(path), "--out", str(out)],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}:{at}:1: {what}\n")
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "name, old, new, key, reason",
    [
        (
            "example1.cfg", "delta_bar = 0.1\n", "delta_bar = 0.1\nvertex1 = 1 0; 0 1\n",
            "vertex1", "not read under polytope = scaled_nominal",
        ),
        (
            "example2.cfg", "polytope = vertices\n",
            "polytope = vertices\nh0 = -5 0 0; 0 -5 0; 0 0 -4\n",
            "h0", "not read under polytope = vertices",
        ),
        (
            "example1.cfg", "alpha = 0.6822 0.3178\n",
            "alpha = 0.6822 0.3178\nhessian = 100 30; 30 20\n",
            "alpha", "not read beside [map] hessian",
        ),
        (
            "example1.cfg", "kind = aw\n", "kind = aw\nepsilon = 0.5\n",
            "epsilon", "not read under kind = aw",
        ),
        (
            "example2.cfg", "[controller]\n", "[controller]\nk_aw = 1 0 0; 0 1 0; 0 0 1\n",
            "k_aw", "not read under scenario = gradient-saturation",
        ),
        (
            "example1.cfg", "polytope = scaled_nominal\n", "",
            "h0", "not read without [map] polytope",
        ),
    ],
    ids=["vertex-under-scaled-nominal", "h0-under-vertices", "alpha-beside-hessian",
         "epsilon-under-aw", "k_aw-under-gradient-saturation", "h0-without-polytope"],
)
def test_a_key_that_nothing_reads_is_refused(
    tmp_path, capsys, fixture_designs, name, old, new, key, reason
):
    # a key that the config's own choices do not read is a statement the
    # user believes is in force, so every command refuses it at its line
    text = Path(fixture_path(name)).read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    path = tmp_path / "stray.cfg"
    path.write_text(text)
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = "))
    section = {"epsilon": "synthesis", "k_aw": "controller"}.get(key, "map")
    raw = lines[at - 1].partition(" = ")[2]
    out = tmp_path / "out"
    for argv in (
        ["design", str(path), "--out", str(out)],
        ["verify", str(fixture_designs[name]), str(path)],
        ["simulate", str(path), "--out", str(out)],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}:{at}:1: [{section}] {key} = {raw!r}: {reason}\n"
        )
        assert not out.exists()
    assert f"{key} = {raw!r}: {reason}`" in README.read_text()


def test_a_run_from_hessian_reads_no_polytope_key(tmp_path, capsys, fixture_designs):
    # simulate and sweep run [map] hessian, so a polytope key that is missing
    # stops only design and verify, which certify the polytope
    complete = Path(fixture_path("example1.cfg")).read_text().replace(
        "alpha = 0.6822 0.3178\n", "hessian = 100 30; 30 20\n"
    )
    runs = {}
    for name, text in (
        ("complete", complete), ("lacking", complete.replace("delta_bar = 0.1\n", ""))
    ):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert np.array_equal(load_config(str(path)).built("map").hessian, EX1_H0)
        out = tmp_path / f"sim-{name}"
        assert cli.main(["simulate", str(path), "--out", str(out), "--stride", "100"]) == 0
        runs[name] = (out / "trajectory.csv").read_bytes()
        sweep = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2"]
        assert cli.main([*sweep, "--out", str(tmp_path / f"sweep-{name}")]) == 0
    assert runs["lacking"] == runs["complete"]
    out = tmp_path / "out"
    for argv in (
        ["design", str(path), "--out", str(out)],
        ["verify", str(fixture_designs["example1.cfg"]), str(path)],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: missing [map] delta_bar\n")
        assert not out.exists()



# Each refusal that README lists as command-specific: its stderr line, with
# <config> and <path> for the paths, -> (fixture, {old: new} edits, argv
# after the command, with {cfg} the edited fixture, {aw} and {gradsat} the
# fixture designs and {singular} the latter with x zeroed).
COMMAND_REFUSALS = {
    "error: <config>: missing [sim] theta0": (
        "example1.cfg", {"theta0 = 2.5 6\n": ""}, ["simulate", "{cfg}"]
    ),
    "error: <config>: [map] must define a polytope for gain design": (
        "example1.cfg", {EX1_POLYTOPE_LINES: ""}, ["design", "{cfg}"]
    ),
    "error: <config>: [map] needs either 'hessian' or a polytope": (
        "example1.cfg", {EX1_POLYTOPE_LINES: ""}, ["simulate", "{cfg}"]
    ),
    "error: <config>: simulating from a polytope needs [map] alpha weights": (
        "example1.cfg", {"alpha = 0.6822 0.3178\n": ""}, ["simulate", "{cfg}"]
    ),
    "error: <config>: missing [map] delta_bar": (
        "example1.cfg",
        {"delta_bar = 0.1\n": "hessian = 100 30; 30 20\n", "alpha = 0.6822 0.3178\n": ""},
        ["verify", "{aw}", "{cfg}"],
    ),
    "error: <config>: scenario 'gradient-saturation' cannot run a design of kind 'aw'": (
        "example1.cfg", {"= input-saturation": "= gradient-saturation", EX1_KAW_LINE: ""},
        ["simulate", "{cfg}", "--design", "{aw}"],
    ),
    "error: <config>: the design gives a controller of dimension 3 for a map of dimension 2": (
        "example1.cfg", {"= input-saturation": "= gradient-saturation", EX1_KAW_LINE: ""},
        ["sweep", "{cfg}", "--design", "{gradsat}", "--param", "amplitude", "--values", "1,2"],
    ),
    "error: the design has dimension 2 but the config's polytope has dimension 3": (
        "example2.cfg", {}, ["verify", "{aw}", "{cfg}"]
    ),
    "error: the design is of kind 'aw' but the config's [synthesis] kind is 'gradsat'": (
        "example1.cfg", {"kind = aw": "kind = gradsat\nepsilon = 0.5"},
        ["verify", "{aw}", "{cfg}"],
    ),
    "error: x is singular or too near it for a finite P = X^-T W X^-1": (
        "example2.cfg", {}, ["verify", "{singular}", "{cfg}"]
    ),
    "error: --epsilon-sweep applies to gradsat designs only": (
        "example1.cfg", {}, ["design", "{cfg}", "--epsilon-sweep", "0.25,0.5"]
    ),
    "error: --epsilon-sweep '0.5,-1': candidate -1: the congruence scalar epsilon must "
    "be positive and finite": (
        "example2.cfg", {}, ["design", "{cfg}", "--epsilon-sweep", "0.5,-1"]
    ),
    "error: --values '0.1,abc': could not convert string to float: 'abc'": (
        "example1.cfg", {}, ["sweep", "{cfg}", "--param", "amplitude", "--values", "0.1,abc"]
    ),
    "error: sweep needs at least two values": (
        "example1.cfg", {}, ["sweep", "{cfg}", "--param", "amplitude", "--values", "0.1"]
    ),
    "error: sweep values must be finite: '0.1,nan'": (
        "example1.cfg", {}, ["sweep", "{cfg}", "--param", "amplitude", "--values", "0.1,nan"]
    ),
    "error: <config>: [sim] theta0 = '2 4' is the optimum theta*, where the averaged loop "
    "rests, so a sweep has no decay to fit": (
        "example1.cfg", {"theta0 = 2.5 6": "theta0 = 2 4"},
        ["sweep", "{cfg}", "--param", "omega-scale", "--values", "0.8,1"],
    ),
    "error: <config>: --param omega-scale --values 1e-06: t_end = 5 rounds to no step of "
    "dt = 628.319": (
        "example1.cfg", {}, ["sweep", "{cfg}", "--param", "omega-scale", "--values", "1e-6,1"]
    ),
    "error: t_end = 1e+12 at dt = 0.000628319 takes 1.592e+15 steps, too many to allocate": (
        "example1.cfg", {"t_end = 5": "t_end = 1e12"}, ["simulate", "{cfg}"]
    ),
    "error: [Errno 2] No such file or directory: '<path>'": (
        "example1.cfg", {}, ["verify", "<path>", "{cfg}"]
    ),
    "usage error: argument --stride: expected at least 1, got '0'": (
        "example1.cfg", {}, ["simulate", "{cfg}", "--stride", "0"]
    ),
}


def test_readme_lists_the_refusals_each_command_makes(tmp_path, capsys, fixture_designs):
    text = README.read_text()
    rows = text[text.index("| refusal | command | stderr line |"):].splitlines()[2:]
    listed = [
        row.rstrip(" |").rpartition("| `")[2].rstrip("`")
        for row in itertools.takewhile(lambda row: row.startswith("|"), rows)
    ]
    assert listed == list(COMMAND_REFUSALS)
    missing = str(tmp_path / "nope.txt")
    singular = str(tmp_path / "singular.txt")
    _edit_design_file(fixture_designs["example2.cfg"], Path(singular), x="0 0 0; 0 0 0; 0 0 0")
    for line, (name, edits, argv) in COMMAND_REFUSALS.items():
        cfg_text = Path(fixture_path(name)).read_text()
        for old, new in edits.items():
            assert cfg_text.count(old) == 1
            cfg_text = cfg_text.replace(old, new)
        cfg = tmp_path / name
        cfg.write_text(cfg_text)
        paths = {
            "{cfg}": str(cfg), "<path>": missing,
            "{aw}": str(fixture_designs["example1.cfg"]),
            "{gradsat}": str(fixture_designs["example2.cfg"]), "{singular}": singular,
        }
        argv = [paths.get(arg, arg) for arg in argv]
        out = tmp_path / "out"
        if argv[0] != "verify":
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert cli.main(argv) == 1
        expected = line.replace("<config>", str(cfg)).replace("<path>", missing)
        assert capsys.readouterr() == ("", expected + "\n"), argv
        assert not out.exists()


def test_cli_verify_missing_file(tmp_path, capsys, fixture_designs):
    missing = str(tmp_path / "nope.txt")
    for argv in (
        [missing, fixture_path("example1.cfg")],
        [str(fixture_designs["example1.cfg"]), missing],
    ):
        capsys.readouterr()
        assert cli.main(["verify", *argv]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )


def test_cli_simulate_writes_outputs(tmp_path):
    rc = cli.main(
        [
            "simulate",
            fixture_path("example1.cfg"),
            "--out",
            str(tmp_path),
            "--stride",
            "10",
            "--plot",
        ]
    )
    assert rc == 0
    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("t,theta_1")
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_a_failed_write_removes_only_the_directories_it_created(
    tmp_path, capsys, monkeypatch, existing
):
    # a write that fails once it has begun leaves no temporary file, and no
    # --out directory that the command created for it
    def full_disk(traj, path, stride=1):
        with open(path, "w") as fh:
            fh.write("t\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "export_csv", full_disk)
    out = tmp_path / "new" / "sub"
    if existing:
        out.mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(["simulate", fixture_path("example1.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert out.is_dir() == existing
    assert [p.name for p in tmp_path.rglob("*")] == (["new", "sub"] if existing else [])


def test_cli_simulate_parse_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[map]\nnot_a_key = 3\n")
    assert cli.main(["simulate", str(bad), "--out", str(tmp_path)]) == 1


def test_cli_simulate_blowup(tmp_path):
    text = (fixture_path("example1.cfg"), )
    cfg = Path(text[0]).read_text().replace(
        "k_aw = 2.2794 0.0824; -0.0865 2.2804", "k_aw = -1 0; 0 -1"
    ).replace("t_end = 5", "t_end = 60")
    path = tmp_path / "diverge.cfg"
    path.write_text(cfg)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == 3


DIVERGE = {
    "k_aw = 2.2794 0.0824; -0.0865 2.2804": "k_aw = -1 0; 0 -1",
    "t_end = 5": "t_end = 60",
}


@pytest.mark.parametrize(
    "command, name, edits, rc, prefix",
    [
        ("design", "example2.cfg", {"eta = 1": "eta = 50"}, 2, "infeasible: "),
        ("simulate", "example1.cfg", DIVERGE, 3, "blow-up: "),
        ("sweep", "example1.cfg", DIVERGE, 3, "blow-up: "),
    ],
    ids=["design-infeasible", "simulate-blowup", "sweep-blowup"],
)
def test_failed_commands_leave_no_out_directory(
    tmp_path, capsys, command, name, edits, rc, prefix
):
    text = Path(fixture_path(name)).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "failing.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [command, str(path), "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv) == rc
    captured = capsys.readouterr()
    assert captured.out == ""
    # frequency warnings may come first; the last line says why the command stopped
    assert captured.err.splitlines()[-1].startswith(prefix)
    assert not out.exists()


# example 2 runs whose map output or initial norm overflows: (command, edits
# of the config, further arguments, the last line on stderr).  At the parent
# the first two exited 0 with inf and nan residuals, and numpy's
# RuntimeWarnings reached stderr in all three.
OVERFLOWS = {
    "simulate-amplitudes": (
        "simulate", {"amplitudes = 0.1 0.1 0.1": "amplitudes = 1e160 1e160 1e160"}, [],
        "blow-up: simulation signal y is not finite at t = 0.000628319 s",
    ),
    "sweep-amplitude": (
        "sweep", {}, ["--param", "amplitude", "--values", "1e300,0.1"],
        "blow-up: simulation signal y is not finite at t = 0.000628319 s",
    ),
    "simulate-theta0": (
        "simulate", {"theta0 = 2.5 5 6": "theta0 = 1e160 1e160 1e160"}, [],
        "blow-up: simulation state blew up at t = 0.000628319 s",
    ),
}


@pytest.mark.parametrize("probe", sorted(OVERFLOWS))
def test_overflowing_run_is_a_named_blowup_without_warnings(tmp_path, capsys, probe):
    command, edits, extra, line = OVERFLOWS[probe]
    text = Path(fixture_path("example2.cfg")).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, str(path), "--out", str(out), *extra]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == line
    assert "RuntimeWarning" not in captured.err
    assert not out.exists()


def test_sweep_blowup_reports_the_first_member_in_value_order(tmp_path, capsys, monkeypatch):
    # the member at amplitude 0.05 blows up first in time (t = 9.73 s), the
    # one at 0.1 first in value order (t = 16.5 s); the sweep reports that
    # one, and starts no averaged run, since no row before it is reported
    text = Path(fixture_path("example1.cfg")).read_text()
    for old, new in DIVERGE.items():
        text = text.replace(old, new)
    path = tmp_path / "diverge.cfg"
    path.write_text(text)
    sim_cfg = load_config(str(path)).run()
    with pytest.raises(SimulationBlowUp) as first:
        simulate(cli._sweep_member(sim_cfg, "amplitude", 0.1))
    scenarios = []

    def counted_batch(cfgs):
        scenarios.extend(cfg.scenario for cfg in cfgs)
        return simulate_batch(cfgs)

    monkeypatch.setattr(cli, "simulate_batch", counted_batch)
    out = tmp_path / "out"
    argv = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2,0.05"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"blow-up: simulation state blew up at t = {first.value.time:.6g} s\n"
    )
    assert scenarios == ["input-saturation"] * 3
    assert not out.exists()


def test_sweep_reports_an_earlier_averaged_blowup_first(tmp_path, capsys, monkeypatch):
    # run one by one, the first member's averaged run fails before the
    # second member's true run; the two batches keep that order

    def by_scenario(cfgs):
        if cfgs[0].scenario == "average-aw":
            assert len(cfgs) == 1
            return [SimulationBlowUp(0.25)]
        return [*simulate_batch(cfgs[:1]), SimulationBlowUp(0.5)]

    monkeypatch.setattr(cli, "simulate_batch", by_scenario)
    text = Path(fixture_path("example1.cfg")).read_text().replace("t_end = 5", "t_end = 0.1")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "blow-up: simulation state blew up at t = 0.25 s\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "param, values, failing, averaged",
    [
        ("amplitude", "0.1,0.2", 0, 0),
        ("omega-scale", "1,2,0.5", 0, 0),
        ("omega-scale", "1,2,0.5", 1, 1),
        ("omega-scale", "1,2,0.5", 2, 2),
    ],
)
def test_sweep_runs_averaged_members_only_before_the_first_true_blowup(
    tmp_path, capsys, monkeypatch, param, values, failing, averaged
):
    # a true run that blows up ends the sweep at its row, so the averaged
    # batch holds only the steps of the members before it in value order
    batches = []

    def failing_member(cfgs):
        batches.append([cfg.scenario for cfg in cfgs])
        runs = simulate_batch(cfgs)
        if len(batches) == 1:
            runs[failing] = SimulationBlowUp(0.125)
        return runs

    monkeypatch.setattr(cli, "simulate_batch", failing_member)
    text = Path(fixture_path("example1.cfg")).read_text().replace("t_end = 5", "t_end = 0.2")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["sweep", str(path), "--param", param, "--values", values, "--out", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", "blow-up: simulation state blew up at t = 0.125 s\n")
    assert not out.exists()
    n = len(values.split(","))
    assert batches == [["input-saturation"] * n, ["average-aw"] * averaged]


def test_cli_sweep(tmp_path):
    rc = cli.main(
        [
            "sweep",
            fixture_path("example1.cfg"),
            "--param",
            "omega-scale",
            "--values",
            "1,2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "value,sup_deviation,tail_r_theta,tail_r_y,eta_hat"
    assert len(rows) == 3
    dev1 = float(rows[1].split(",")[1])
    dev2 = float(rows[2].split(",")[1])
    assert 1.5 <= dev1 / dev2 <= 3.0


def test_cli_simulate_no_aw_fixture_runs(tmp_path):
    # the ablation fixture must simulate cleanly (exit 0); its band verdict
    # is informational output
    rc = cli.main(
        ["simulate", fixture_path("example1_no_aw.cfg"), "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_cli_sweep_amplitude_scales_tail_r_y(tmp_path):
    rc = cli.main(
        [
            "sweep",
            fixture_path("example1.cfg"),
            "--param",
            "amplitude",
            "--values",
            "0.1,0.2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    ry1 = float(rows[1].split(",")[3])
    ry2 = float(rows[2].split(",")[3])
    assert 2.0 <= ry2 / ry1 <= 8.0


def test_amplitude_sweep_keeps_the_config_step(tmp_path):
    # the row at the config's own amplitude is the config's run: same dt
    text = Path(fixture_path("example1.cfg")).read_text()
    text = text.replace("dt = auto", "dt = 0.0005").replace("t_end = 5", "t_end = 1.5")
    path = tmp_path / "dt.cfg"
    path.write_text(text)
    argv = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    sim_cfg = load_config(str(path)).run()
    assert sim_cfg.dt == 0.0005
    band = analysis.check_convergence_bands(simulate(sim_cfg), sim_cfg.qmap, sim_cfg.dither)
    assert (float(row[0]), float(row[2]), float(row[3])) == (0.1, band.r_theta, band.r_y)


@pytest.mark.parametrize(
    "param, values, runs", [("amplitude", "0.05,0.1,0.2", 4), ("omega-scale", "1,2", 4)]
)
def test_sweep_runs_the_averaged_loop_once_per_step(
    tmp_path, monkeypatch, param, values, runs
):
    # the averaged loop reads no dither: an amplitude sweep keeps one step,
    # so one averaged run serves every row; an omega-scale value has its own
    text = Path(fixture_path("example1.cfg")).read_text().replace("t_end = 5", "t_end = 0.5")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    batches = []

    def no_lone_run(cfg):
        raise AssertionError("a sweep ran a member alone")

    def counted_batch(cfgs):
        batches.append([cfg.scenario for cfg in cfgs])
        return simulate_batch(cfgs)

    monkeypatch.setattr(cli, "simulate", no_lone_run)
    monkeypatch.setattr(cli, "simulate_batch", counted_batch)
    argv = ["sweep", str(path), "--param", param, "--values", values]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    # two batches, the true runs and then the averaged ones: one true run
    # per value, one averaged run per step
    assert len(batches) == 2
    assert batches[0] == ["input-saturation"] * len(values.split(","))
    assert batches[1] == ["average-aw"] * (runs - len(batches[0]))
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    eta_hats = {row[4] for row in rows}
    assert len(eta_hats) == (1 if param == "amplitude" else len(rows))


def test_sweep_logs_one_debug_record(tmp_path, caplog):
    text = Path(fixture_path("example1.cfg")).read_text().replace("t_end = 5", "t_end = 0.2")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    argv = ["sweep", str(path), "--param", "omega-scale", "--values", "1,2,1"]
    with caplog.at_level(logging.WARNING, logger="esc_sat"):
        assert cli.main(argv + ["--out", str(tmp_path / "quiet")]) == 0
    assert not [r for r in caplog.records if r.name == "esc_sat.cli"]
    with caplog.at_level(logging.DEBUG, logger="esc_sat.cli"):
        assert cli.main(argv + ["--out", str(tmp_path / "told")]) == 0
    (record,) = [r for r in caplog.records if r.name == "esc_sat.cli"]
    assert record.levelno == logging.DEBUG
    # three values, two steps, then each batch's seconds
    values, averaged, true_s, averaged_s = record.args
    assert (values, averaged) == (3, 2)
    assert true_s > 0.0 and averaged_s > 0.0


def test_cli_sweep_needs_two_values(tmp_path):
    rc = cli.main(
        [
            "sweep",
            fixture_path("example1.cfg"),
            "--param",
            "amplitude",
            "--values",
            "0.1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1


def test_cli_usage_error():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["sweep", "nope.cfg", "--param", "bogus", "--values", "1,2"]) == 1


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_inadmissible_frequencies_warn_once(tmp_path, capsys, command):
    text = Path(fixture_path("example1.cfg")).read_text()
    text = text.replace("multipliers = 10 70", "multipliers = 10 20")
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace("t_end = 5", "t_end = 0.5"))
    argv = [command, str(path), "--out", str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: inadmissible frequency multipliers: "
        "m[1] = m[0] + m[0] = 20; m[0] = m[1] - m[0] = 10\n"
        "warning: proceeding anyway; averaged predictions may be distorted\n"
    )
