"""Command line front end: design gains, simulate, sweep, verify.

Exit codes are a stable contract: 0 success, 1 usage or parse problems,
2 infeasibility or a failed certificate, 3 simulation blow-up.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from typing import Optional

import numpy as np

from . import analysis, synthesis
from .config import (
    ConfigError,
    ExperimentConfig,
    build_controller,
    build_dither,
    build_polytope,
    build_qmap,
    build_sim_config,
    build_stride,
    build_synthesis_request,
    build_theta_star,
    load_config,
    resolve_hessian,
)
from .signals import DitherSpec
from .sim import SCENARIOS, SimConfig, SimulationBlowUp, export_csv, simulate
from .svgplot import render_trajectory_svg
from .synthesis import (
    AwDesign,
    InfeasibleDesignError,
    SynthesisNumericalError,
    load_design,
    save_design,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_BLOWUP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".esc-sat-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _warn_frequencies(dither: DitherSpec) -> None:
    report = dither.admissibility()
    if not report.valid:
        print(f"warning: {report.describe()}", file=sys.stderr)
        print(
            "warning: proceeding anyway; averaged predictions may be distorted",
            file=sys.stderr,
        )


def _cmd_design(args) -> int:
    cfg = load_config(args.config)
    _warn_frequencies(build_dither(cfg))
    req = build_synthesis_request(cfg)
    poly = build_polytope(cfg)
    if poly is None:
        print("error: [map] must define a polytope for gain design", file=sys.stderr)
        return EXIT_USAGE
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    try:
        if req.kind == "aw":
            design = synthesis.design_aw_gains(poly, req.eta, req.bounds)
            vertex = synthesis.certify(design, poly).values("vertex")
            lines.append(f"kind = aw, eta = {req.eta}, kappa = {design.kappa:.6g}")
            lines += [f"vertex[{i}] lambda_max = {v:.6e}" for i, v in enumerate(vertex)]
            lines.append(f"overall lambda_max = {np.max(vertex):.6e}")
        else:
            eps = req.epsilon if req.epsilon is not None else 0.5
            if args.epsilon_sweep:
                # no principled rule fixes the congruence scalar; report how
                # feasibility and conditioning move across candidate values
                for cand in (float(v) for v in args.epsilon_sweep.split(",")):
                    try:
                        trial = synthesis.design_gradsat_gain(
                            poly, req.eta, cand, req.bounds
                        )
                        vmax_c, _ = synthesis.verify_gradsat_design(trial, poly)
                        lines.append(
                            f"epsilon = {cand:g}: feasible, kappa_g = "
                            f"{trial.kappa_g:.6g}, vertex lambda_max = {vmax_c:.3e}"
                        )
                    except (InfeasibleDesignError, SynthesisNumericalError) as exc:
                        lines.append(f"epsilon = {cand:g}: {exc}")
            design = synthesis.design_gradsat_gain(poly, req.eta, eps, req.bounds)
            lines.append(
                f"kind = gradsat, eta = {req.eta}, epsilon = {eps}, "
                f"kappa_g = {design.kappa_g:.6g}"
            )
            report = synthesis.certify(design, poly)
            lines.append(f"vertex lambda_max = {np.max(report.values('vertex')):.6e}")
            rmin = np.min(report.values("row"))
            lines.append(f"row-coupling lambda_min = {rmin:.6e}")
            lines.append(
                "ellipsoid inclusion residuals = "
                + " ".join(f"{r:.6e}" for r in report.values("inclusion"))
            )
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except SynthesisNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE

    design_path = os.path.join(out_dir, "design.txt")
    _atomic_write(design_path, lambda p: save_design(design, p))
    report_path = os.path.join(out_dir, "design_report.txt")
    text = "\n".join(lines) + "\n"

    def write_report(p):
        with open(p, "w") as fh:
            fh.write(text)

    _atomic_write(report_path, write_report)
    print(text, end="")
    print(f"design written to {design_path}")
    return EXIT_OK


def _load_sim_config(cfg: ExperimentConfig, design_path: Optional[str]) -> SimConfig:
    """The run the config describes, then warnings on its dither frequencies."""
    design = load_design(design_path) if design_path else None
    qmap = build_qmap(cfg, resolve_hessian(cfg, build_polytope(cfg)))
    dither = build_dither(cfg)
    sim_cfg = build_sim_config(cfg, qmap, dither, build_controller(cfg, qmap, design))
    _warn_frequencies(dither)
    return sim_cfg


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim_cfg = _load_sim_config(cfg, args.design)
    os.makedirs(args.out, exist_ok=True)
    stride = args.stride if args.stride is not None else build_stride(cfg)
    try:
        traj = simulate(sim_cfg)
    except SimulationBlowUp as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    csv_path = os.path.join(args.out, "trajectory.csv")
    _atomic_write(csv_path, lambda p: export_csv(traj, p, stride=stride))
    print(f"trajectory written to {csv_path} ({traj.times.size} samples)")
    want_plot = args.plot or cfg.get("outputs", "plot", "false") == "true"
    if want_plot:
        svg_path = os.path.join(args.out, "trajectory.svg")
        _atomic_write(svg_path, lambda p: render_trajectory_svg(traj, p))
        print(f"plot written to {svg_path}")
    band = analysis.check_convergence_bands(traj, sim_cfg.qmap, sim_cfg.dither)
    print(
        f"tail residuals: |theta - theta*| = {band.r_theta:.4g} "
        f"(band {band.theta_band:.4g}, {'ok' if band.theta_ok else 'FAIL'}), "
        f"|y - q*| = {band.r_y:.4g} "
        f"(band {band.y_band:.4g}, {'ok' if band.y_ok else 'FAIL'})"
    )
    return EXIT_OK


def _sweep_one(sim_cfg, param: str, value: float):
    dither = sim_cfg.dither
    if param == "omega-scale":
        dither = dither.with_base_omega(dither.base_omega * value)
    else:
        # amplitude values are absolute and apply to every channel
        dither = DitherSpec(
            np.full(dither.dim, value), dither.freq_multipliers, dither.base_omega
        )
    sim_cfg = replace(sim_cfg, dither=dither, dt=None)
    traj = simulate(sim_cfg)
    avg = simulate(replace(sim_cfg, scenario=SCENARIOS[sim_cfg.scenario][1]))
    dev = analysis.sup_deviation(traj, avg, "theta_tilde")
    band = analysis.check_convergence_bands(traj, sim_cfg.qmap, dither)
    fit = analysis.fit_decay(avg, "theta_tilde")
    return (value, dev, band.r_theta, band.r_y, fit.eta_hat)


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not np.all(np.isfinite(values)):
        print(f"error: sweep values must be finite: {args.values!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(values) < 2:
        print("error: sweep needs at least two values", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    sim_cfg = _load_sim_config(load_config(args.config), args.design)
    try:
        rows = [_sweep_one(sim_cfg, args.param, v) for v in values]
    except SimulationBlowUp as exc:
        print(f"blow-up during sweep: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    path = os.path.join(args.out, "sweep.csv")

    def write(p):
        with open(p, "w") as fh:
            fh.write("value,sup_deviation,tail_r_theta,tail_r_y,eta_hat\n")
            for row in rows:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")

    _atomic_write(path, write)
    for row in rows:
        print(
            f"{args.param} = {row[0]:g}: sup|tt - tt_av| = {row[1]:.4g}, "
            f"r_theta = {row[2]:.4g}, r_y = {row[3]:.4g}, eta_hat = {row[4]:.4g}"
        )
    print(f"sweep summary written to {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not os.path.exists(args.design):
        print(f"error: no such design file {args.design}", file=sys.stderr)
        return EXIT_USAGE
    if not os.path.exists(args.config):
        print(f"error: no such config {args.config}", file=sys.stderr)
        return EXIT_USAGE
    design = load_design(args.design)
    cfg = load_config(args.config)
    poly = build_polytope(cfg)
    if poly is None:
        print("error: config defines no polytope", file=sys.stderr)
        return EXIT_USAGE
    if design.dim != poly.dim:
        raise ValueError(
            f"the design has dimension {design.dim} but the config's polytope "
            f"has dimension {poly.dim}"
        )
    req = build_synthesis_request(cfg)
    if design.kind != req.kind:
        raise ValueError(
            f"the design is of kind {design.kind!r} but the config's [synthesis] "
            f"kind is {req.kind!r}"
        )
    # the certificates hold for the design's own bounds and decay rate only
    failures = []
    if not np.array_equal(design.bounds.limits, req.bounds.limits):
        failures.append("design bounds differ from the config's")
    if not design.eta >= req.eta:
        failures.append(f"design eta {design.eta!r} is below the config's {req.eta!r}")
    if failures:
        for f in failures:
            print(f"FAILED: {f}", file=sys.stderr)
        return EXIT_CERTIFICATE
    # read before any line is printed, so a bad theta* fails with file and key
    theta_star = build_theta_star(cfg) if isinstance(design, AwDesign) else None
    report = synthesis.certify(design, poly)
    print(f"vertex inequalities: lambda_max = {np.max(report.values('vertex')):.6e}")
    if isinstance(design, AwDesign):
        slack = analysis.sample_deadzone_sector_global(
            design.bounds, theta_star, trials=10_000, seed=args.seed
        )
    else:
        print(f"row-coupling blocks: lambda_min = {np.min(report.values('row')):.6e}")
        print(
            "ellipsoid inclusion residuals: "
            + " ".join(f"{r:.6e}" for r in report.values("inclusion"))
        )
        slack = analysis.sample_deadzone_sector_regional(
            design, trials=10_000, seed=args.seed
        )
    print(f"dead-zone sector sampling: max slack = {slack:.3e}")
    failures = report.failures()
    if slack > analysis.SECTOR_SLACK_TOL:
        failures.append("sector condition violated in sampling")
    if failures:
        for f in failures:
            print(f"FAILED: {f}", file=sys.stderr)
        return EXIT_CERTIFICATE
    print("all certificates pass")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="esc-sat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize gains from a config")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--epsilon-sweep",
        default=None,
        help="comma-separated congruence-scalar candidates to report on "
        "(rate-saturation designs only)",
    )
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="run one closed-loop simulation")
    p.add_argument("config")
    p.add_argument("--design", default=None, help="design file for gains")
    p.add_argument("--out", default=".")
    p.add_argument("--plot", action="store_true")
    p.add_argument("--stride", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep dither frequency or amplitude")
    p.add_argument("config")
    p.add_argument("--design", default=None)
    p.add_argument("--param", choices=("omega-scale", "amplitude"), required=True)
    p.add_argument("--values", required=True, help="comma-separated scale factors")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="re-check the certificates of a design")
    p.add_argument("design")
    p.add_argument("config")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
