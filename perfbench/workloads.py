"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Why these workloads:

- ``fixture-pipeline``: the default user path, design -> verify -> simulate
  on each bundled fixture; long single RK4 runs and CSV export dominate it.
- ``wide-sweep``: ``sweep`` over several values per fixture, many
  short-to-medium true-plus-averaged runs of one loop; exercises the sweep
  path and the simulator's batch dimension, with no LMI solving and no CSV
  export.  Horizons are shortened (``SHORT_T_END``) so a pass takes seconds,
  and the omega-scale values are symmetric about 1 so every seed integrates
  the same number of steps.
- ``lmi-scaling``: seeded random Hessian polytopes at loop dimension 2..8;
  solver cost dominates and nothing is simulated.  The families are scaled
  so the solver stops in its first centering phase at every dimension,
  which keeps the iteration count the same across instances.
- ``averaging-oracles``: the acceptance-suite certification oracles
  (period-mean quadrature, averaged-loop consistency, sector sampling,
  decay fits, deviations, bands), which no CLI path calls.

The run seed only selects and orders entries of fixed input pools defined in
this file (sweep values, random Hessian polytopes, frozen states, sampler
seeds), so every operation has a stored reference in ``reference.json``.
The program receives only the generated configs and arrays.

Every call into the program goes through a module attribute at call time
(``cli.main``, ``synthesis.design_gradsat_gain``), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from esc_sat import analysis, cli, config, sim, synthesis
from esc_sat.plant import SaturationBounds
from esc_sat.polytope import HessianPolytope

import checks

WORKLOADS = ("fixture-pipeline", "wide-sweep", "lmi-scaling", "averaging-oracles")
KINDS = ("design", "verify", "simulate", "sweep", "oracle")

FIXTURES = ("example1", "example1_no_aw", "example2")
PLOT_FIXTURE = "example1"

# Master seed of every input pool; the run seed never changes the pools.
POOL_SEED = 0xE5C5A7

# Shortened horizons of the generated sweep configs and the oracle inputs,
# so that a pass takes seconds (the fixtures run 5 s and 10 s).
SHORT_T_END = {"example1": 1.5, "example2": 3.0}

SWEEP_FIXTURES = {"omega-scale": "example1", "amplitude": "example2"}
OMEGA_STEP = 0.05
OMEGA_OFFSETS = range(1, 9)
AMPLITUDES = tuple(round(0.04 + 0.02 * i, 2) for i in range(9))
AMPLITUDES_PER_SWEEP = 3

LMI_DIMS = range(2, 9)
LMI_POOL = 6
LMI_PER_DIM = 2
GRADSAT_ETA, GRADSAT_EPSILON, GRADSAT_BOUND = 1.0, 0.5, 2.0
AW_ETA, AW_BOUND = 1.0, 5.0

ORACLE_FIXTURES = ("example1", "example2")
THETA_POOL = 6
# A quarter of zero_mean_report's default 20001 Simpson nodes: the per-node
# cost is the same, and a 4 s pass gives a run enough passes for a steady
# median on a noisy 2-core machine.
ZERO_MEAN_NODES = 5001
SEED_POOL = 8
SAMPLER_TRIALS = 10_000
INTERIOR_STATES = 100
VERDICT_TOL = 1e-6
MEAN_FREE_PREFIXES = ("S[", "M[", "w[", "varsigma[", "delta_mean_free[")


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``expected`` reads the op's reference entry; ``store`` writes one, and is
    used only when the reference is generated.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    digest: Callable[[Any], Any]
    expected: Callable[[dict], Any]
    store: Callable[[dict, Any], None]


def _at(*path):
    def expected(ref):
        for key in path:
            ref = ref[key]
        return ref

    def store(ref, value):
        for key in path[:-1]:
            ref = ref.setdefault(key, {})
        ref[path[-1]] = value

    return expected, store


def fixture_path(root: str, name: str) -> str:
    return os.path.join(root, "src", "esc_sat", "fixtures", f"{name}.cfg")


def _value_key(v: float) -> str:
    return f"{v:.2f}"


def omega_pool() -> list[str]:
    return [_value_key(1.0 + k * OMEGA_STEP) for k in range(-8, 9)]


# ---------------------------------------------------------------------------
# seeded inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the seed decides for one workload, as plain data."""
    rng = np.random.default_rng(seed)
    if workload == "fixture-pipeline":
        return {"verify_seed": {fx: int(rng.integers(2**31)) for fx in FIXTURES}}
    if workload == "wide-sweep":
        d = OMEGA_STEP * int(rng.choice(OMEGA_OFFSETS))
        omega = [1.0 - d, 1.0, 1.0 + d]
        rng.shuffle(omega)
        amps = rng.choice(AMPLITUDES, AMPLITUDES_PER_SWEEP, replace=False)
        return {
            "omega-scale": [_value_key(v) for v in omega],
            "amplitude": [_value_key(v) for v in amps],
        }
    if workload == "lmi-scaling":
        return {
            family: {
                str(n): sorted(int(i) for i in rng.choice(LMI_POOL, LMI_PER_DIM, replace=False))
                for n in LMI_DIMS
            }
            for family in ("gradsat", "aw")
        }
    if workload == "averaging-oracles":
        return {
            "theta_tilde": {fx: int(rng.integers(THETA_POOL)) for fx in ORACLE_FIXTURES},
            "interior_seed": int(rng.integers(SEED_POOL)),
            "global_seed": int(rng.integers(SEED_POOL)),
            "regional_seed": int(rng.integers(SEED_POOL)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def pool_inputs(workload: str) -> list[dict]:
    """Input sets that together cover every pool entry (reference generation)."""
    if workload == "fixture-pipeline":
        return [{"verify_seed": {fx: 0 for fx in FIXTURES}}]
    if workload == "wide-sweep":
        return [{"omega-scale": omega_pool(), "amplitude": [_value_key(a) for a in AMPLITUDES]}]
    if workload == "lmi-scaling":
        every = {str(n): list(range(LMI_POOL)) for n in LMI_DIMS}
        return [{"gradsat": every, "aw": every}]
    return [
        {
            "theta_tilde": {fx: i % THETA_POOL for fx in ORACLE_FIXTURES},
            "interior_seed": i, "global_seed": i, "regional_seed": i,
        }
        for i in range(max(THETA_POOL, SEED_POOL))
    ]


def sweep_config_text(root: str, fixture: str) -> str:
    with open(fixture_path(root, fixture)) as fh:
        text = fh.read()
    return re.sub(r"(?m)^t_end = .*$", f"t_end = {SHORT_T_END[fixture]:g}", text)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym(m):
    return 0.5 * (m + m.T)


def concave_vertices(n: int, idx: int) -> tuple:
    """Three vertices around a negative definite nominal with spectrum -[3, 6]."""
    rng = np.random.default_rng([POOL_SEED, 1, n, idx])
    q = _random_orthogonal(rng, n)
    h0 = _sym(-(q * np.linspace(3.0, 6.0, n)) @ q.T)
    verts = []
    for _ in range(3):
        e = _sym(rng.standard_normal((n, n)))
        verts.append(h0 + 0.5 * e / np.linalg.norm(e, 2))
    return tuple(verts)


def convex_vertices(n: int, idx: int) -> tuple:
    """(1 -/+ 0.1) times a positive definite nominal with spectrum [10, 100]."""
    rng = np.random.default_rng([POOL_SEED, 2, n, idx])
    q = _random_orthogonal(rng, n)
    h0 = _sym((q * np.geomspace(10.0, 100.0, n)) @ q.T)
    return (0.9 * h0, 1.1 * h0)


def theta_tilde_pool(fixture: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng([POOL_SEED, 3, ORACLE_FIXTURES.index(fixture)])
    return rng.uniform(-0.5, 0.5, size=(THETA_POOL, dim))


# ---------------------------------------------------------------------------
# operations


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _fixture_pieces(path: str):
    cfg = config.load_config(path)
    poly = config.build_polytope(cfg)
    qmap = config.build_qmap(cfg, config.resolve_hessian(cfg, poly))
    dither = config.build_dither(cfg)
    ctrl = config.build_controller(cfg, qmap)
    return cfg, poly, qmap, dither, ctrl


def prepare(workload: str, root: str, workdir: str) -> dict:
    """Seed-independent objects the operations need, built before timing."""
    ctx: dict = {"root": root}
    if workload == "fixture-pipeline":
        ctx["vertices"] = {
            fx: _fixture_pieces(fixture_path(root, fx))[1].vertices for fx in FIXTURES
        }
    elif workload == "wide-sweep":
        for fx in SWEEP_FIXTURES.values():
            path = os.path.join(workdir, f"{fx}-sweep.cfg")
            with open(path, "w") as fh:
                fh.write(sweep_config_text(root, fx))
            ctx[fx] = path
    elif workload == "lmi-scaling":
        ctx["gradsat"] = {
            n: [HessianPolytope(concave_vertices(n, i)) for i in range(LMI_POOL)]
            for n in LMI_DIMS
        }
        ctx["aw"] = {
            n: [HessianPolytope(convex_vertices(n, i)) for i in range(LMI_POOL)]
            for n in LMI_DIMS
        }
    elif workload == "averaging-oracles":
        for fx in ORACLE_FIXTURES:
            cfg, poly, qmap, dither, ctrl = _fixture_pieces(fixture_path(root, fx))
            true_cfg = replace(
                config.build_sim_config(cfg, qmap, dither, ctrl),
                t_end=SHORT_T_END[fx],
            )
            average = "average-aw" if true_cfg.scenario == "input-saturation" else "average-gradsat"
            ctx[fx] = {
                "qmap": qmap,
                "dither": dither,
                "ctrl": ctrl,
                "true": sim.simulate(true_cfg),
                "avg": sim.simulate(replace(true_cfg, scenario=average, dt=None)),
                "theta_tilde": theta_tilde_pool(fx, qmap.dim),
            }
        ctx["regional_design"] = synthesis.load_design(
            os.path.join(root, "perfbench", "data", "example2_design.txt")
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


def build_ops(workload: str, inputs: dict, ctx: dict, pass_dir: str) -> list[Op]:
    builders = {
        "fixture-pipeline": _pipeline_ops,
        "wide-sweep": _sweep_ops,
        "lmi-scaling": _lmi_ops,
        "averaging-oracles": _oracle_ops,
    }
    os.makedirs(pass_dir, exist_ok=True)
    return builders[workload](inputs, ctx, pass_dir)


def _band_verdicts(stdout: str) -> list[str]:
    return re.findall(r"\b(ok|FAIL)\)", stdout)


def _svg_ok(path: str) -> bool:
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        text = fh.read()
    return (
        text.startswith("<svg")
        and text.count("<polyline") >= 3
        and text.rstrip().endswith("</svg>")
    )


def _pipeline_ops(inputs, ctx, pass_dir):
    ops = []
    for fx in FIXTURES:
        cfg = fixture_path(ctx["root"], fx)
        out = os.path.join(pass_dir, fx)
        design_file = os.path.join(out, "design.txt")
        verts = ctx["vertices"][fx]
        simulate_argv = ["simulate", cfg, "--out", out, "--stride", "1"]
        if fx == PLOT_FIXTURE:
            simulate_argv.append("--plot")

        def design_digest(res, design_file=design_file, verts=verts):
            return {
                "rc": res[0],
                "certified": os.path.exists(design_file)
                and checks.design_file_certified(design_file, verts),
            }

        def verify_digest(res):
            lines = res[1].strip().splitlines()
            return {
                "rc": res[0],
                "verdict": lines[-1] if lines else "",
                "failed": [l for l in res[2].splitlines() if l.startswith("FAILED")],
            }

        def simulate_digest(res, out=out):
            csv_path = os.path.join(out, "trajectory.csv")
            return {
                "rc": res[0],
                "bands": _band_verdicts(res[1]),
                "trajectory": checks.csv_digest(csv_path) if res[0] == 0 else None,
                "plot": _svg_ok(os.path.join(out, "trajectory.svg")),
            }

        argv_design = ["design", cfg, "--out", out]
        argv_verify = ["verify", design_file, cfg, "--seed", str(inputs["verify_seed"][fx])]
        ops += [
            Op("design", f"{fx}:design", lambda a=argv_design: _cli(a), design_digest,
               *_at("fixture-pipeline", fx, "design")),
            Op("verify", f"{fx}:verify", lambda a=argv_verify: _cli(a), verify_digest,
               *_at("fixture-pipeline", fx, "verify")),
            Op("simulate", f"{fx}:simulate", lambda a=simulate_argv: _cli(a), simulate_digest,
               *_at("fixture-pipeline", fx, "simulate")),
        ]
    return ops


def _sweep_ops(inputs, ctx, pass_dir):
    ops = []
    for param, fx in SWEEP_FIXTURES.items():
        values = inputs[param]
        out = os.path.join(pass_dir, param)
        argv = ["sweep", ctx[fx], "--param", param, "--values", ",".join(values), "--out", out]

        def digest(res, out=out, values=values):
            data = np.empty((0, 5))
            if res[0] == 0:
                data = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",",
                                  skiprows=1, ndmin=2)
            return {
                "rc": res[0],
                "count": len(data),
                "rows": {v: row.tolist() for v, row in zip(values, data)},
            }

        def expected(ref, param=param, values=values):
            entry = ref["wide-sweep"][param]
            return {
                "rc": entry["rc"],
                "count": len(values),
                "rows": {v: entry["rows"][v] for v in values},
            }

        def store(ref, value, param=param):
            entry = ref.setdefault("wide-sweep", {}).setdefault(param, {"rows": {}})
            entry["rc"] = value["rc"]
            entry["rows"].update(value["rows"])

        ops.append(Op("sweep", f"{param}:sweep", lambda a=argv: _cli(a), digest, expected, store))
    return ops


def _solver_outcome(design):
    try:
        return "feasible", design()
    except synthesis.InfeasibleDesignError:
        return "infeasible", None
    except synthesis.SynthesisNumericalError:
        return "numerical-failure", None


def _lmi_ops(inputs, ctx, pass_dir):
    ops = []
    for n in LMI_DIMS:
        for idx in inputs["gradsat"][str(n)]:
            poly = ctx["gradsat"][n][idx]
            bounds = SaturationBounds(np.full(n, GRADSAT_BOUND))
            held: dict = {}

            def design(poly=poly, bounds=bounds, held=held):
                status, d = _solver_outcome(lambda: synthesis.design_gradsat_gain(
                    poly, GRADSAT_ETA, GRADSAT_EPSILON, bounds))
                held["design"] = d
                return status, d

            def design_digest(res, poly=poly):
                status, d = res
                certified = d is not None and checks.gradsat_certified(
                    d.k, d.l, d.w, d.x, d.upsilon_tilde, d.p, d.eta, d.epsilon,
                    d.bounds.limits, poly.vertices)
                return {"instance": float(np.sum(poly.vertices)), "status": status,
                        "certified": bool(certified)}

            def verify(poly=poly, held=held):
                d = held["design"]
                vmax, rmin = synthesis.verify_gradsat_design(d, poly)
                ell = synthesis.verify_ellipsoid_inclusion(d)
                return bool(vmax < 0 and rmin >= -checks.PSD_TOL and np.min(ell) >= -checks.PSD_TOL)

            label = f"gradsat-n{n}-{idx}"
            ops += [
                Op("design", f"{label}:design", design, design_digest,
                   *_at("lmi-scaling", "gradsat", str(n), str(idx))),
                Op("verify", f"{label}:verify", verify, lambda ok: {"verdict": ok},
                   *_at("lmi-scaling", "verdict")),
            ]
        for idx in inputs["aw"][str(n)]:
            poly = ctx["aw"][n][idx]
            bounds = SaturationBounds(np.full(n, AW_BOUND))
            held = {}

            def design(poly=poly, bounds=bounds, held=held):
                status, d = _solver_outcome(
                    lambda: synthesis.design_aw_gains(poly, AW_ETA, bounds))
                held["design"] = d
                return status, d

            def design_digest(res, poly=poly):
                status, d = res
                certified = d is not None and checks.aw_certified(
                    d.k, d.k_aw, d.p, d.lam, d.eta, poly.vertices)
                return {"instance": float(np.sum(poly.vertices)), "status": status,
                        "certified": bool(certified)}

            def verify(poly=poly, held=held):
                return bool(synthesis.verify_aw_design(held["design"], poly) < 0)

            label = f"aw-n{n}-{idx}"
            ops += [
                Op("design", f"{label}:design", design, design_digest,
                   *_at("lmi-scaling", "aw", str(n), str(idx))),
                Op("verify", f"{label}:verify", verify, lambda ok: {"verdict": ok},
                   *_at("lmi-scaling", "verdict")),
            ]
    return ops


def _zero_mean_digest(rep):
    literal = [tm.mean for name, tm in rep.terms.items() if name.startswith("delta_literal")]
    return {
        "terms": {
            name: {"mean": tm.mean, "linf": tm.linf, "scale": tm.linf}
            for name, tm in rep.terms.items()
        },
        "mean_free_zero": bool(rep.max_rel(MEAN_FREE_PREFIXES) <= VERDICT_TOL),
        "literal_one": bool(all(abs(m - 1.0) <= VERDICT_TOL for m in literal)),
    }


def _slack_digest(value):
    return {"value": float(value), "ok": bool(value <= analysis.SECTOR_SLACK_TOL), "scale": 1.0}


def _fit_digest(fit):
    return {
        "eta_hat": fit.eta_hat, "kappa_hat": fit.kappa_hat, "amplitude": fit.amplitude,
        "window": list(fit.window), "residual": fit.residual, "truncated": fit.truncated,
    }


def _band_digest(band):
    return {
        "r_theta": band.r_theta, "theta_band": band.theta_band, "theta_ok": bool(band.theta_ok),
        "r_y": band.r_y, "y_band": band.y_band, "y_ok": bool(band.y_ok),
        "tail_start": band.tail_start,
    }


def _oracle_ops(inputs, ctx, pass_dir):
    ops = []
    for fx in ORACLE_FIXTURES:
        f = ctx[fx]
        idx = inputs["theta_tilde"][fx]
        tt = f["theta_tilde"][idx]
        ops.append(Op(
            "oracle", f"{fx}:zero_mean",
            lambda f=f, tt=tt: analysis.zero_mean_report(
                f["dither"], f["qmap"], tt, nodes=ZERO_MEAN_NODES),
            _zero_mean_digest, *_at("averaging-oracles", "zero_mean", fx, str(idx)),
        ))

    f1 = ctx["example1"]
    s = inputs["interior_seed"]

    def consistency(f=f1, s=s):
        states = analysis.draw_interior_states(f["qmap"], f["dither"], INTERIOR_STATES, seed=s)
        return analysis.average_rhs_consistency(f["dither"], f["qmap"], f["ctrl"], states)

    ops.append(Op(
        "oracle", "example1:rhs_consistency", consistency,
        lambda gap: {"value": float(gap), "ok": bool(gap <= VERDICT_TOL), "scale": 1.0},
        *_at("averaging-oracles", "rhs_consistency", str(s)),
    ))
    s = inputs["global_seed"]
    ops.append(Op(
        "oracle", "example1:sector_global",
        lambda f=f1, s=s: analysis.sample_deadzone_sector_global(
            f["qmap"].input_bounds, f["qmap"].theta_star, trials=SAMPLER_TRIALS, seed=s),
        _slack_digest, *_at("averaging-oracles", "sector_global", str(s)),
    ))
    s = inputs["regional_seed"]
    ops.append(Op(
        "oracle", "example2:sector_regional",
        lambda d=ctx["regional_design"], s=s: analysis.sample_deadzone_sector_regional(
            d, trials=SAMPLER_TRIALS, seed=s),
        _slack_digest, *_at("averaging-oracles", "sector_regional", str(s)),
    ))
    for fx, signal in zip(ORACLE_FIXTURES, ("theta_tilde", "g_hat")):
        f = ctx[fx]
        ops += [
            Op("oracle", f"{fx}:fit_decay",
               lambda f=f, signal=signal: analysis.fit_decay(f["avg"], signal),
               _fit_digest, *_at("averaging-oracles", "fit_decay", fx)),
            Op("oracle", f"{fx}:sup_deviation",
               lambda f=f: analysis.sup_deviation(f["true"], f["avg"], "theta_tilde"),
               lambda v: {"value": float(v)}, *_at("averaging-oracles", "sup_deviation", fx)),
            Op("oracle", f"{fx}:bands",
               lambda f=f: analysis.check_convergence_bands(f["true"], f["qmap"], f["dither"]),
               _band_digest, *_at("averaging-oracles", "bands", fx)),
        ]
    return ops


# ---------------------------------------------------------------------------
# running


def run_op(op: Op, ref: dict, tracer=None) -> tuple[float, list[str]]:
    """Time one call, then check its output with tracing paused.

    The op fails if it raises, or if its digest differs from the reference.
    """
    start = time.perf_counter()
    try:
        outcome = op.call()
    except Exception as exc:
        return time.perf_counter() - start, [f"{op.label}: raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.paused = True
    try:
        problems = checks.compare(op.digest(outcome), op.expected(ref), op.label)
    except Exception as exc:
        problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.paused = False
    return elapsed, problems


def run_pass(ops: list[Op], ref: dict, tracer=None) -> dict:
    """Run the ops one after another (closed loop, one client)."""
    times = dict.fromkeys(KINDS, 0.0)
    failed = 0
    problems: list[str] = []
    for op in ops:
        elapsed, bad = run_op(op, ref, tracer)
        times[op.kind] += elapsed
        if bad:
            failed += 1
            problems += bad
    return {
        "wall": sum(times.values()),
        "times": times,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
    }
