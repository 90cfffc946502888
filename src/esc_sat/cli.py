"""Command line front end: design gains, simulate, sweep, verify.

Exit codes are a stable contract: 0 success, 1 usage or parse problems,
2 infeasibility or a failed certificate, 3 simulation blow-up.  ``--design``
alone makes ``simulate`` and ``sweep`` run a design's gains; an ``--out``
directory is created only when a result file is written into it.
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
    build_synthesis_request,
    build_theta_star,
    load_config,
    resolve_hessian,
)
from .signals import DitherSpec, validate_frequencies
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


def _integer_from(minimum: int):
    """Parse-time type of an integer option, so that a bad value is a usage
    error naming the option before anything runs."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected at least {minimum}, got {text!r}")
        return value

    return integer


def _comma_numbers(option: str, text: str) -> list[float]:
    """The entries of a comma-separated option value, parsed before anything
    runs; empty entries are skipped, any other non-number is an error."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None


def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
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
    report = validate_frequencies(dither.freq_multipliers)
    if not report.valid:
        print(f"warning: {report.describe()}", file=sys.stderr)
        print(
            "warning: proceeding anyway; averaged predictions may be distorted",
            file=sys.stderr,
        )


def _design_polytope(cfg: ExperimentConfig, req):
    """The config's polytope, which a design needs, with [synthesis] bounds to match."""
    poly = build_polytope(cfg)
    if poly is None:
        raise ConfigError(f"{cfg.name}: [map] must define a polytope for gain design")
    if req.bounds.dim != poly.dim:
        raise ConfigError(
            f"{cfg.name}: [synthesis] bounds = {cfg.get('synthesis', 'bounds')!r} has "
            f"{req.bounds.dim} bounds for a [map] polytope of dimension {poly.dim}"
        )
    return poly


def _cmd_design(args) -> int:
    eps_candidates = _comma_numbers("--epsilon-sweep", args.epsilon_sweep or "")
    cfg = load_config(args.config)
    dither = build_dither(cfg)
    req = build_synthesis_request(cfg)
    if req.kind == "aw" and args.epsilon_sweep is not None:
        print("error: --epsilon-sweep applies to gradsat designs only", file=sys.stderr)
        return EXIT_USAGE
    poly = _design_polytope(cfg, req)
    _warn_frequencies(dither)
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
            # no principled rule fixes the congruence scalar; report how
            # feasibility and conditioning move across candidate values
            for cand in eps_candidates:
                try:
                    trial = synthesis.design_gradsat_gain(poly, req.eta, cand, req.bounds)
                    vmax_c, _ = synthesis.verify_gradsat_design(trial, poly)
                    lines.append(
                        f"epsilon = {cand:g}: feasible, kappa_g = "
                        f"{trial.kappa:.6g}, vertex lambda_max = {vmax_c:.3e}"
                    )
                except (InfeasibleDesignError, SynthesisNumericalError) as exc:
                    lines.append(f"epsilon = {cand:g}: {exc}")
            design = synthesis.design_gradsat_gain(poly, req.eta, eps, req.bounds)
            lines.append(
                f"kind = gradsat, eta = {req.eta}, epsilon = {eps}, "
                f"kappa_g = {design.kappa:.6g}"
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

    design_path = os.path.join(args.out, "design.txt")
    _atomic_write(design_path, lambda p: save_design(design, p))
    report_path = os.path.join(args.out, "design_report.txt")
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
    sim_cfg = _load_sim_config(load_config(args.config), args.design)
    try:
        traj = simulate(sim_cfg)
    except SimulationBlowUp as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    csv_path = os.path.join(args.out, "trajectory.csv")
    _atomic_write(csv_path, lambda p: export_csv(traj, p, stride=args.stride))
    print(f"trajectory written to {csv_path} ({traj.times.size} samples)")
    if args.plot:
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


def _sweep_one(sim_cfg, param: str, value: float, averaged: dict):
    dither = sim_cfg.dither
    if param == "omega-scale":
        dither = replace(dither, base_omega=dither.base_omega * value)
        # the period changes with the frequencies, so each value runs at its
        # own automatic step, period/1000
        sim_cfg = replace(sim_cfg, dither=dither, dt=None)
    else:
        # amplitude values are absolute and apply to every channel; the
        # period, and so the config's step, stays
        dither = replace(dither, amplitudes=np.full(dither.dim, value))
        sim_cfg = replace(sim_cfg, dither=dither)
    traj = simulate(sim_cfg)
    # the averaged loop reads no dither: one run and decay fit per step
    if sim_cfg.dt not in averaged:
        avg = simulate(replace(sim_cfg, scenario=SCENARIOS[sim_cfg.scenario][1]))
        averaged[sim_cfg.dt] = (avg, analysis.fit_decay(avg, "theta_tilde"))
    avg, fit = averaged[sim_cfg.dt]
    dev = analysis.sup_deviation(traj, avg, "theta_tilde")
    band = analysis.check_convergence_bands(traj, sim_cfg.qmap, dither)
    return (value, dev, band.r_theta, band.r_y, fit.eta_hat)


def _cmd_sweep(args) -> int:
    values = _comma_numbers("--values", args.values)
    if not np.all(np.isfinite(values)):
        print(f"error: sweep values must be finite: {args.values!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(values) < 2:
        print("error: sweep needs at least two values", file=sys.stderr)
        return EXIT_USAGE
    sim_cfg = _load_sim_config(load_config(args.config), args.design)
    try:
        averaged: dict = {}
        rows = [_sweep_one(sim_cfg, args.param, v, averaged) for v in values]
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
    design = load_design(args.design)
    cfg = load_config(args.config)
    req = build_synthesis_request(cfg)
    poly = _design_polytope(cfg, req)
    if design.dim != poly.dim:
        raise ValueError(
            f"the design has dimension {design.dim} but the config's polytope "
            f"has dimension {poly.dim}"
        )
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
    report = synthesis.certify(design, poly)
    print(f"vertex inequalities: lambda_max = {np.max(report.values('vertex')):.6e}")
    if isinstance(design, AwDesign):
        sample = analysis.sample_deadzone_sector_global
        # build_synthesis_request has read theta* of this anti-windup config
        sample_args = (design.bounds, build_theta_star(cfg))
    else:
        print(f"row-coupling blocks: lambda_min = {np.min(report.values('row')):.6e}")
        print(
            "ellipsoid inclusion residuals: "
            + " ".join(f"{r:.6e}" for r in report.values("inclusion"))
        )
        sample, sample_args = analysis.sample_deadzone_sector_regional, (design,)
    failures = report.failures()
    try:
        slack = sample(*sample_args, trials=10_000, seed=args.seed)
    except RuntimeError as exc:
        failures.append(f"dead-zone sector sampling: {exc}")
    else:
        print(f"dead-zone sector sampling: max slack = {slack:.3e}")
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
    p.add_argument("--stride", type=_integer_from(1), default=1, help="CSV row step")
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
    p.add_argument("--seed", type=_integer_from(0), default=0)
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
