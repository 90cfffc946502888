import gc
import os
import warnings

import numpy as np
import pytest

from esc_sat import cli
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
    serialize_config,
)
from esc_sat.synthesis import load_design, save_design
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
source = explicit
k = -0.0270 0.0361; 0.0456 -0.1492
k_aw = 2.2794 0.0824; -0.0865 2.2804

[sim]
scenario = input-saturation
theta0 = 2.5 6
t_end = 5
dt = auto
demod = deviation
"""


def test_parse_and_roundtrip():
    cfg = parse_config(GOOD)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.sections == cfg.sections


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


def test_polytope_config_roundtrip():
    from esc_sat.config import polytope_to_entries

    cfg = load_config(fixture_path("example2.cfg"))
    poly = build_polytope(cfg)
    entries = polytope_to_entries(poly)
    text = "[map]\nq_star = 0\ntheta_star = 0 0 0\n" + "\n".join(
        f"{k} = {v}" for k, v in entries.items()
    )
    back = build_polytope(parse_config(text))
    assert back.num_vertices == poly.num_vertices
    for a, b in zip(back.vertices, poly.vertices):
        assert np.array_equal(a, b)


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


def test_cli_verify_rejects_edited_kappa(tmp_path, capsys):
    # the stored transient bound must be the condition number of P; the
    # vertex, row and ellipsoid checks cannot see it
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example2.cfg"), "--out", str(out)]) == 0
    design = load_design(str(out / "design.txt"))
    _edit_design_file(
        out / "design.txt", tmp_path / "bad.txt", kappa_g=repr(0.5 * design.kappa_g)
    )
    capsys.readouterr()
    rc = cli.main(["verify", str(tmp_path / "bad.txt"), fixture_path("example2.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "all certificates pass" not in captured.out
    failed = [ln for ln in captured.err.splitlines() if ln.startswith("FAILED:")]
    assert failed == [
        "FAILED: kappa_g differs from sqrt(lambda_max(P)/lambda_min(P))"
    ]


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
        ("simulate", "stride = 1", "stride = x", "[outputs] stride = 'x' is not a number"),
        (
            "simulate", "stride = 1", "stride = 2.5",
            "[outputs] stride = '2.5' is not an integer",
        ),
        ("design", "kind = aw", "kind = aw\nepsilon = big",
         "[synthesis] epsilon = 'big' is not a number"),
        (
            "design",
            "polytope = scaled_nominal",
            "polytope = eigen_interval\nlambda1 = 10\nlambda2 = 100\ndim = 2.5",
            "[map] dim = '2.5' is not an integer",
        ),
    ],
    ids=["dt", "stride-text", "stride-fraction", "epsilon", "dim-fraction"],
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
    "field, value, reason",
    [
        ("eta", "abc", "could not convert string to float: 'abc'"),
        ("k", "1 2; 3", "ragged matrix literal '1 2; 3'"),
    ],
)
def test_design_file_errors_name_line_and_field(tmp_path, capsys, field, value, reason):
    out = tmp_path / "design"
    assert cli.main(["design", fixture_path("example1.cfg"), "--out", str(out)]) == 0
    good = out / "design.txt"
    lineno = 1 + [
        ln.partition("=")[0].strip() for ln in good.read_text().splitlines()
    ].index(field)
    bad = tmp_path / "bad.txt"
    _edit_design_file(good, bad, **{field: value})
    with pytest.raises(ValueError) as exc:
        load_design(str(bad))
    assert str(exc.value) == f"{bad}:{lineno}: {field}: {reason}"
    capsys.readouterr()
    rc = cli.main(["verify", str(bad), fixture_path("example1.cfg")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}:{lineno}: {field}: {reason}\n"


def test_cli_verify_missing_file(tmp_path):
    rc = cli.main(
        ["verify", str(tmp_path / "nope.txt"), fixture_path("example1.cfg")]
    )
    assert rc == 1


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


def test_cli_sweep_respects_thread_cap(tmp_path, monkeypatch):
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
