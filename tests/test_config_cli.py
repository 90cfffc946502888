import gc
import os
import warnings

import numpy as np
import pytest

from esc_sat import analysis, cli, matio
from esc_sat.plant import AwController, GradSatController
from esc_sat.sim import export_csv, simulate
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
            "0.25,0.5",
        ]
    )
    assert rc == 0
    report = (out / "design_report.txt").read_text()
    assert "epsilon = 0.25:" in report
    assert "epsilon = 0.5:" in report


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
        (lambda d: {"p": 2.0 * d.p}, "P differs from X^-T W X^-1"),
        (lambda d: {"p": -d.p, "w": -d.w}, "P not positive definite"),
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
        ("simulate", "dt = auto", "dt = fast", "[sim] dt = 'fast' is not a number"),
        ("design", "kind = aw", "kind = aw\nepsilon = big",
         "[synthesis] epsilon = 'big' is not a number"),
        (
            "design",
            "polytope = scaled_nominal",
            "polytope = eigen_interval\nlambda1 = 10\nlambda2 = 100\ndim = 2.5",
            "[map] dim = '2.5' is not an integer",
        ),
        (
            "simulate", "theta_star = 2 4", "theta_star = 2 x",
            "[map] theta_star = '2 x': bad vector literal '2 x': "
            "could not convert string to float: 'x'",
        ),
        (
            "simulate", "input_bounds = 5 5", "input_bounds = 5 -5",
            "[map] input_bounds = '5 -5': saturation limits must be strictly positive",
        ),
        (
            "simulate", "k = -0.0270 0.0361; 0.0456 -0.1492", "k = 1 2; 3",
            "[controller] k = '1 2; 3': ragged matrix literal '1 2; 3'",
        ),
        (
            "simulate", "multipliers = 10 70", "multipliers = 10 7/0",
            "[dither] multipliers = '10 7/0': bad rational '7/0': Fraction(7, 0)",
        ),
        ("simulate", "t_end = 5", "t_end = inf", "[sim] t_end = 'inf' is not a finite number"),
        ("simulate", "t_end = 5", "t_end = nan", "[sim] t_end = 'nan' is not a finite number"),
        (
            "simulate", "base_omega = 1", "base_omega = nan",
            "[dither] base_omega = 'nan' is not a finite number",
        ),
        ("simulate", "dt = auto", "dt = nan", "[sim] dt = 'nan' is not a finite number"),
        (
            "simulate", "amplitudes = 0.1 0.1", "amplitudes = nan 0.1",
            "[dither] amplitudes = 'nan 0.1': bad vector literal 'nan 0.1': "
            "values must be finite",
        ),
        (
            "simulate", "theta0 = 2.5 6", "theta0 = 2.5 inf",
            "[sim] theta0 = '2.5 inf': bad vector literal '2.5 inf': values must be finite",
        ),
        ("simulate", "q_star = 10", "q_star = -inf", "[map] q_star = '-inf' is not a finite number"),
        (
            "design", "h0 = 100 30; 30 20", "h0 = 100 30; 30 nan",
            "[map] h0 = '100 30; 30 nan': bad vector literal '30 nan': values must be finite",
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
    text = open(fixture_path("example1.cfg")).read()
    assert old in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    rc = cli.main([command, str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {path}: {what}\n")


@pytest.mark.parametrize(
    "command, name, old, new, what",
    [
        (
            "simulate", "example1.cfg", "theta0 = 2.5 6", "theta0 = 2.5",
            "[sim] theta0, t_end, dt, [map] theta_star, [dither] amplitudes: "
            "theta0 dimension mismatch",
        ),
        (
            "simulate", "example2.cfg", "alpha = 0.25 0.25 0.25 0.25", "alpha = 0.5 0.5",
            "[map] alpha, polytope: alpha has 2 weights for 4 vertices",
        ),
        (
            "simulate", "example2.cfg", "alpha = 0.25 0.25 0.25 0.25",
            "alpha = 0.5 0.2 0.2 0.05",
            "[map] alpha, polytope: alpha weights sum to 0.95, not 1",
        ),
        *[
            (
                command, "example2.cfg",
                "amplitudes = 0.1 0.1 0.1", "amplitudes = 0.1 0.1",
                "[dither] amplitudes, multipliers, base_omega: "
                "amplitudes and freq_multipliers disagree in length",
            )
            for command in ("simulate", "design")
        ],
        (
            "simulate", "example1.cfg", "k = -0.0270 0.0361; 0.0456 -0.1492",
            "k = 1 0 0; 0 1 0",
            "[controller] k, k_aw: controller gains must be square and of one shape",
        ),
        (
            "simulate", "example1.cfg", "h0 = 100 30; 30 20", "h0 = 100",
            "[map] theta_star, polytope: hessian shape does not match theta_star",
        ),
        (
            "design", "example1.cfg", "h0 = 100 30; 30 20", "h0 = 100",
            "[synthesis] bounds = '5 5' has 2 bounds for a [map] polytope of dimension 1",
        ),
        (
            "design", "example2.cfg", "polytope = vertices\n", "",
            "[map] must define a polytope for gain design",
        ),
    ],
    ids=[
        "theta0", "alpha-count", "alpha-sum", "amplitudes-simulate", "amplitudes-design",
        "k-shape", "h0-simulate", "h0-design", "no-polytope",
    ],
)
def test_config_errors_across_keys_name_the_config(
    tmp_path, capsys, command, name, old, new, what
):
    text = open(fixture_path(name)).read()
    assert text.count(old) == 1
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert cli.main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {what}\n")
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
    text = open(fixture_path("example1.cfg")).read()
    edited = text.replace(f"{old}\n", f"{old}\n{bad}\n")
    line = edited.splitlines().index(bad.strip().splitlines()[0]) + 1
    path = tmp_path / "old.cfg"
    path.write_text(edited)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {what} (line {line}, col 1)\n")
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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_epsilon_sweep_needs_finite_candidates(tmp_path, capsys, bad):
    argv = ["design", fixture_path("example2.cfg"), "--epsilon-sweep", f"{bad},0.5"]
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(
        "error: the congruence scalar epsilon must be positive and finite\n"
    )


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


@pytest.fixture(scope="module")
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
        ("eta", "abc", "could not convert string to float: 'abc'"),
        ("k", "1 2; 3", "ragged matrix literal '1 2; 3'"),
        pytest.param(
            "p", "nan 0; 0 1", "bad vector literal 'nan 0': values must be finite",
            id="p-nan",
        ),
        pytest.param("eta", "inf", "'inf' is not a finite number", id="eta-inf"),
        pytest.param("epsilon", "nan", "'nan' is not a finite number", id="epsilon-nan"),
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
        expected = reason.format(n=load_design(str(good)).dim, first=first)
        bad = tmp_path / "bad.txt"
        _edit_design_file(good, bad, **{field: value})
        # the error names the field's last line: a repeat, if there is one
        lineno = first + value.count("\n")
        with pytest.raises(ValueError) as exc:
            load_design(str(bad))
        assert str(exc.value) == f"{bad}:{lineno}: {field}: {expected}"
        capsys.readouterr()
        rc = cli.main(["verify", str(bad), fixture_path(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:{lineno}: {field}: {expected}\n"
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
    text = open(fixture_path("example1.cfg")).read()
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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "scenario, design_kind",
    [("input-saturation", "gradsat"), ("gradient-saturation", "aw")],
)
def test_designed_controller_needs_the_scenario_kind(
    tmp_path, capsys, command, scenario, design_kind
):
    # both designs live on the example-1 polytope, so the dimensions agree
    text = open(fixture_path("example1.cfg")).read()
    design_cfg = tmp_path / "design.cfg"
    design_cfg.write_text(
        text.replace("kind = aw", "kind = gradsat\nepsilon = 0.5")
        if design_kind == "gradsat" else text
    )
    assert cli.main(["design", str(design_cfg), "--out", str(tmp_path)]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(text.replace("scenario = input-saturation", f"scenario = {scenario}"))
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


@pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg"])
def test_design_option_alone_runs_the_design_gains(tmp_path, fixture_designs, name):
    cfg_path = fixture_path(name)
    design = load_design(str(fixture_designs[name]))
    cfg = load_config(cfg_path)
    assert not np.array_equal(design.k, matio.parse_matrix(cfg.require("controller", "k")))
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


@pytest.mark.parametrize("refusal", ["other-kind", "bad-config"])
def test_refused_sweep_leaves_no_out_directory(tmp_path, capsys, fixture_designs, refusal):
    cfg = fixture_path("example2.cfg")
    argv = ["sweep", cfg, "--param", "amplitude", "--values", "0.1,0.2"]
    if refusal == "other-kind":
        argv += ["--design", str(fixture_designs["example1.cfg"])]
    else:
        bad = tmp_path / "bad.cfg"
        bad.write_text(open(cfg).read().replace("t_end = ", "t_end = x"))
        argv[1] = str(bad)
    out = tmp_path / "r2"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_verify_bad_theta_star_names_file_and_key(tmp_path, capsys, fixture_designs):
    text = open(fixture_path("example1.cfg")).read()
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace("theta_star = 2 4", "theta_star = 2 x"))
    capsys.readouterr()
    rc = cli.main(["verify", str(fixture_designs["example1.cfg"]), str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: {path}: [map] theta_star = '2 x': bad vector literal '2 x': "
        "could not convert string to float: 'x'\n"
    )


@pytest.mark.parametrize("command", ["design", "verify", "simulate", "sweep"])
@pytest.mark.parametrize(
    "old, new, what",
    [
        (
            "bounds = 5 5", "bounds = 4 4",
            "[map] input_bounds = '5 5' and [synthesis] bounds = '4 4' differ; "
            "an anti-windup loop has one set of input bounds",
        ),
        (
            "theta_star = 2 4", "theta_star = 2 6",
            "[map] theta_star = '2 6' must lie strictly inside [map] input_bounds = '5 5'",
        ),
    ],
    ids=["bounds-differ", "theta-star-outside"],
)
def test_aw_config_states_one_set_of_input_bounds(
    tmp_path, capsys, fixture_designs, command, old, new, what
):
    text = open(fixture_path("example1.cfg")).read()
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
    assert capsys.readouterr() == ("", f"error: {path}: {what}\n")
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


def test_cli_simulate_parse_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[map]\nnot_a_key = 3\n")
    assert cli.main(["simulate", str(bad), "--out", str(tmp_path)]) == 1


def test_cli_simulate_blowup(tmp_path):
    text = (fixture_path("example1.cfg"), )
    cfg = open(text[0]).read().replace(
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
    "command, name, edits, rc",
    [
        ("design", "example2.cfg", {"eta = 1": "eta = 50"}, 2),
        ("simulate", "example1.cfg", DIVERGE, 3),
        ("sweep", "example1.cfg", DIVERGE, 3),
    ],
    ids=["design-infeasible", "simulate-blowup", "sweep-blowup"],
)
def test_failed_commands_leave_no_out_directory(tmp_path, capsys, command, name, edits, rc):
    text = open(fixture_path(name)).read()
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
    assert capsys.readouterr().out == ""
    assert not out.exists()


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
    text = open(fixture_path("example1.cfg")).read()
    text = text.replace("dt = auto", "dt = 0.0005").replace("t_end = 5", "t_end = 1.5")
    path = tmp_path / "dt.cfg"
    path.write_text(text)
    argv = ["sweep", str(path), "--param", "amplitude", "--values", "0.1,0.2"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    sim_cfg = cli._load_sim_config(load_config(str(path)), None)
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
    text = open(fixture_path("example1.cfg")).read().replace("t_end = 5", "t_end = 0.5")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    scenarios = []

    def counted(cfg):
        scenarios.append(cfg.scenario)
        return simulate(cfg)

    monkeypatch.setattr(cli, "simulate", counted)
    argv = ["sweep", str(path), "--param", param, "--values", values]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert len(scenarios) == runs
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    eta_hats = {row[4] for row in rows}
    assert len(eta_hats) == (1 if param == "amplitude" else len(rows))


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
    text = open(fixture_path("example1.cfg")).read()
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
