"""Command line front end: design gains, simulate, sweep, verify.

Exit codes are a stable contract: 0 success, 1 usage or parse problems,
2 infeasibility or a failed certificate, 3 simulation blow-up.  ``--design``
alone makes ``simulate`` and ``sweep`` run a design's gains; an ``--out``
directory is created only when a result file is written into it, and a
failed write removes the directories it created.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, synthesis
from .config import load_config
from .signals import DitherSpec, validate_frequencies
from .sim import (
    SCENARIOS,
    SimConfig,
    SimulationBlowUp,
    export_csv,
    simulate,
    simulate_batch,
)
from .svgplot import render_trajectory_svg
from .synthesis import (
    AwDesign,
    InfeasibleDesignError,
    SynthesisNumericalError,
    load_design,
    save_design,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_BLOWUP = 3


class _UsageError(Exception):
    pass


class _CertificateFailed(Exception):
    """The failed checks of ``verify``, one per line."""

    def __init__(self, failures: list[str]):
        super().__init__("\n".join(failures))


# Every way a command stops short of success: exception type -> (exit code,
# prefix of each stderr line).  ``main`` takes the entry of the most specific
# class, so a ConfigError, a ValueError, reports as "error".
_EXITS = {
    _UsageError: (EXIT_USAGE, "usage error"),
    InfeasibleDesignError: (EXIT_CERTIFICATE, "infeasible"),
    SynthesisNumericalError: (EXIT_CERTIFICATE, "numerical failure"),
    _CertificateFailed: (EXIT_CERTIFICATE, "FAILED"),
    SimulationBlowUp: (EXIT_BLOWUP, "blow-up"),
    ValueError: (EXIT_USAGE, "error"),
    OSError: (EXIT_USAGE, "error"),
}


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
    """writer(tmp), then tmp renamed to path.  A failed write removes its
    temporary file and, innermost first, the directories this call created,
    each only while it is empty."""
    d = os.path.dirname(os.path.abspath(path))
    made, parent = [], d  # the directories this call creates, innermost first
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".esc-sat-")
        os.close(fd)
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        for made_dir in made:
            with contextlib.suppress(OSError):  # a directory that holds a file stays
                os.rmdir(made_dir)
        raise


def _warn_frequencies(dither: DitherSpec) -> None:
    report = validate_frequencies(dither.freq_multipliers)
    if not report.valid:
        print(f"warning: {report.describe()}", file=sys.stderr)
        print(
            "warning: proceeding anyway; averaged predictions may be distorted",
            file=sys.stderr,
        )


def _cmd_design(args) -> None:
    eps_candidates = _comma_numbers("--epsilon-sweep", args.epsilon_sweep or "")
    for cand in eps_candidates:
        if not 0 < cand < np.inf:
            raise ValueError(
                f"--epsilon-sweep {args.epsilon_sweep!r}: candidate {cand:g}: the "
                "congruence scalar epsilon must be positive and finite"
            )
    cfg = load_config(args.config)
    dither = cfg.built("dither")
    req = cfg.built("request")
    if req.kind == "aw" and args.epsilon_sweep is not None:
        raise ValueError("--epsilon-sweep applies to gradsat designs only")
    poly = cfg.built("polytope")
    _warn_frequencies(dither)
    lines = []
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

    design_path = os.path.join(args.out, "design.txt")
    _atomic_write(design_path, lambda p: save_design(design, p))
    report_path = os.path.join(args.out, "design_report.txt")
    text = "\n".join(lines) + "\n"
    _atomic_write(report_path, lambda p: Path(p).write_text(text))
    print(text, end="")
    print(f"design written to {design_path}")


def _cmd_simulate(args) -> None:
    cfg = load_config(args.config)
    sim_cfg = cfg.run(load_design(args.design) if args.design else None)
    _warn_frequencies(sim_cfg.dither)
    traj = simulate(sim_cfg)
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


def _sweep_member(sim_cfg: SimConfig, param: str, value: float) -> SimConfig:
    dither = sim_cfg.dither
    if param == "omega-scale":
        # the frequencies change, so each value runs at its own automatic
        # step, 100 steps per cycle of the fastest dither component (at
        # least 10 cycles per period)
        dither = replace(dither, base_omega=dither.base_omega * value)
        return replace(sim_cfg, dither=dither, dt=None)
    # amplitude values are absolute and apply to every channel; the
    # frequencies, and so the config's step, stay
    return replace(sim_cfg, dither=replace(dither, amplitudes=np.full(dither.dim, value)))


def _sweep_row(sim_cfg: SimConfig, traj, averaged: dict, fits: dict):
    # reached in value order, a row raises its true run's blow-up, then that
    # of its step's averaged run, as running the members one by one would
    avg = averaged.get(sim_cfg.dt)
    for run in (traj, avg):
        if isinstance(run, SimulationBlowUp):
            raise run
    if sim_cfg.dt not in fits:
        fits[sim_cfg.dt] = analysis.fit_decay(avg, "theta_tilde")
    dev = analysis.sup_deviation(traj, avg, "theta_tilde")
    band = analysis.check_convergence_bands(traj, sim_cfg.qmap, sim_cfg.dither)
    return (dev, band.r_theta, band.r_y, fits[sim_cfg.dt].eta_hat)


def _cmd_sweep(args) -> None:
    values = _comma_numbers("--values", args.values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"sweep values must be finite: {args.values!r}")
    if len(values) < 2:
        raise ValueError("sweep needs at least two values")
    cfg = load_config(args.config)
    sim_cfg = cfg.run(load_design(args.design) if args.design else None)
    if np.array_equal(sim_cfg.theta0, sim_cfg.qmap.theta_star):
        raise ValueError(
            f"{cfg.name}: [sim] theta0 = {cfg.where['sim', 'theta0'][2]!r} is the optimum "
            "theta*, where the averaged loop rests, so a sweep has no decay to fit"
        )
    # every member is built, and so checked, before the first run
    members = []
    for v in values:
        try:
            members.append(_sweep_member(sim_cfg, args.param, v))
        except ValueError as exc:
            where = f"{cfg.name}: --param {args.param} --values {v:g}"
            raise ValueError(f"{where}: {exc}") from None
    _warn_frequencies(sim_cfg.dither)
    # the true runs step as one batch, then the averaged runs as another.
    # The averaged loop reads no dither, so each step has one averaged run,
    # that of its first member; only the members before the first true
    # blow-up in value order are reported, so only their steps run
    start = time.perf_counter()
    runs = simulate_batch(members)
    true_s = time.perf_counter() - start
    failed = next((i for i, r in enumerate(runs) if isinstance(r, SimulationBlowUp)), len(runs))
    firsts: dict = {}
    for m in members[:failed]:
        if m.dt not in firsts:
            firsts[m.dt] = replace(m, scenario=SCENARIOS[m.scenario][1])
    start = time.perf_counter()
    averaged = dict(zip(firsts, simulate_batch(list(firsts.values()))))
    log.debug(
        "sweep: %d values, %d averaged runs, true batch %.6f s, averaged batch %.6f s",
        len(values), len(averaged), true_s, time.perf_counter() - start,
    )
    fits: dict = {}
    rows = [(v, *_sweep_row(m, r, averaged, fits)) for v, m, r in zip(values, members, runs)]
    path = os.path.join(args.out, "sweep.csv")
    text = "value,sup_deviation,tail_r_theta,tail_r_y,eta_hat\n" + "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in rows
    )
    _atomic_write(path, lambda p: Path(p).write_text(text))
    for row in rows:
        print(
            f"{args.param} = {row[0]:g}: sup|tt - tt_av| = {row[1]:.4g}, "
            f"r_theta = {row[2]:.4g}, r_y = {row[3]:.4g}, eta_hat = {row[4]:.4g}"
        )
    print(f"sweep summary written to {path}")


def _cmd_verify(args) -> None:
    design = load_design(args.design)
    cfg = load_config(args.config)
    req = cfg.built("request")
    poly = cfg.built("polytope")
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
        raise _CertificateFailed(failures)
    # an anti-windup design's sector is sampled around theta*, which is read
    # before any line is printed
    if isinstance(design, AwDesign):
        sample = analysis.sample_deadzone_sector_global
        sample_args = (design.bounds, cfg["map", "theta_star"])
    else:
        sample, sample_args = analysis.sample_deadzone_sector_regional, (design,)
    report = synthesis.certify(design, poly)
    print(f"vertex inequalities: lambda_max = {np.max(report.values('vertex')):.6e}")
    if not isinstance(design, AwDesign):
        print(f"row-coupling blocks: lambda_min = {np.min(report.values('row')):.6e}")
        print(
            "ellipsoid inclusion residuals: "
            + " ".join(f"{r:.6e}" for r in report.values("inclusion"))
        )
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
        raise _CertificateFailed(failures)
    print("all certificates pass")


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
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[t] for t in type(exc).__mro__ if t in _EXITS)
        lines = str(exc).split("\n")
        print("\n".join(f"{prefix}: {line}" for line in lines), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
