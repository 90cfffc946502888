"""esc-sat benchmark: four seeded workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-pipeline --seed 1 --seconds 24 --trace 0

The driver is one process and one client: each operation starts only after
the previous one returned (closed loop).  It runs passes of the workload's
operations until ``--seconds`` of measurement are used, checks every output
against ``perfbench/reference.json``, and prints each metric by name with
its unit.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: one pass's summed operation wall time, averaged over the run's
  passes (output checks run between operations, outside the timed region).
  The mean, not the median: on a shared host the machine speed switches
  between regimes for seconds at a time, and the median of a few passes
  jumps between them while the mean uses every measured second;
- ``setup_s``: median over fresh interpreters of ``import esc_sat`` plus the
  first ``load_config``, the cost every CLI command pays.  Two interpreters
  start after every pass, so the samples spread over the run instead of
  sharing one moment's machine load;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` spends the first half of the time on untraced passes and the
second half on passes with ``spans.Tracer`` installed, and reports the
per-layer metrics of ``BENCHMARK.json``: layer numbers from the spans, the
untraced per-command breakdown (``e2e.*``) and the tracing overhead.  Spans
are written to ``perfbench/out/`` when the run ends.

BLAS and OpenMP run single-threaded and ``ESC_SAT_THREADS`` is set to 1, so
the sweep pool has one worker.  Every result also records the machine and
environment (see ``environment``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# One thread everywhere: the driver is a single client, and the sweep pool's
# GIL-bound workers were slower with two threads than with one on 2 cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ESC_SAT_THREADS": "1",
}
SETUP_PER_PASS = 2
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import esc_sat\n"
    "from esc_sat.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample(config_path: str) -> float:
    """Import-plus-first-load time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, config_path],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, np) -> dict:
    """Machine, toolchain and source identity of this result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(
        os.path.join(d, f)
        for d, _, files in os.walk(os.path.join(SRC, "esc_sat"))
        for f in files if f.endswith(".py")
    )
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "esc_sat_threads": os.environ["ESC_SAT_THREADS"],
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_passes(workloads, name, inputs, ctx, ref, workdir, start, stop_at,
               tracer=None, after_pass=None):
    """Run passes until the next one would end after ``stop_at`` seconds."""
    passes = []
    while True:
        begun = time.perf_counter()
        pass_dir = os.path.join(workdir, f"pass{len(passes)}-{int(tracer is not None)}")
        ops = workloads.build_ops(name, inputs, ctx, pass_dir)
        result = workloads.run_pass(ops, ref, tracer)
        if tracer is not None:
            result["spans"] = tracer.take()
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(result)
        if after_pass is not None:
            after_pass()
        now = time.perf_counter()
        if now - start + (now - begun) > stop_at:
            return passes


def breakdown(passes, kinds) -> dict:
    """Per-command sums of one pass, averaged over the untraced passes."""
    out = {f"e2e.{k}_s": statistics.mean([p["times"][k] for p in passes]) for k in kinds}
    out["e2e.wall_s"] = statistics.mean([p["wall"] for p in passes])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "esc_sat", "__init__.py")):
        print(f"error: no esc_sat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)

    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ref = json.load(fh)

    env = environment(args, np)
    print("env " + json.dumps(env, sort_keys=True))
    inputs = workloads.make_inputs(args.workload, args.seed)
    print("inputs " + json.dumps(inputs, sort_keys=True))

    setup_config = workloads.fixture_path(ROOT, "example1")
    setup: list[float] = []

    def sample_setup():
        setup.extend(setup_sample(setup_config) for _ in range(SETUP_PER_PASS))

    if not args.trace:
        setup_sample(setup_config)  # writes the bytecode cache; discarded
        sample_setup()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    traced = []
    try:
        ctx = workloads.prepare(args.workload, ROOT, workdir)
        start = time.perf_counter()
        half = args.seconds / 2 if args.trace else args.seconds
        untraced = run_passes(workloads, args.workload, inputs, ctx, ref, workdir, start, half,
                              after_pass=None if args.trace else sample_setup)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_passes(workloads, args.workload, inputs, ctx, ref, workdir,
                                    start, args.seconds, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = untraced + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    values = breakdown(untraced, workloads.KINDS)
    values["e2e.failed_ratio"] = failed / attempted
    if args.trace:
        per_pass = [spans.layer_metrics(p["spans"]) for p in traced]
        for key in per_pass[0]:
            values[key] = statistics.median([m[key] for m in per_pass])
        total_steps = sum(v for k, v in values.items() if k.startswith("sim.steps."))
        values["e2e.traj_steps_per_s"] = total_steps / values["e2e.wall_s"]
        traced_wall = statistics.mean([p["wall"] for p in traced])
        values["trace.overhead_s"] = traced_wall - values["e2e.wall_s"]
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = values["e2e.wall_s"]
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"attempted={attempted} failed={failed} "
          f"failed_ratio={values['e2e.failed_ratio']:.6g}")
    for key in sorted(k for k in values if k.startswith("e2e.")):
        print(f"breakdown {key} = {values[key]:.6g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    problems = [line for p in everything for line in p["problems"]]
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({
            "env": env, "inputs": inputs, "setup_samples_s": setup,
            "pass_walls_s": {"untraced": [p["wall"] for p in untraced],
                             "traced": [p["wall"] for p in traced]},
            "values": values, "problems": problems,
        }, fh, indent=1, sort_keys=True)
    if traced:
        spans.write_spans(os.path.join(OUT, f"spans-{stem}.jsonl.gz"),
                          [p["spans"] for p in traced])

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
