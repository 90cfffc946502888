"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Every pool entry of every workload is run once and its output digest stored.
The example-2 design used by the regional sector sampler is written to
perfbench/data/ first.  Regenerate only when a change is meant to alter the
program's outputs, and say so where the change is described: the stored
reference is what every later run is checked against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import BENCH, ROOT, SRC, THREAD_ENV

REFERENCE = os.path.join(BENCH, "reference.json")
DESIGN = os.path.join(BENCH, "data", "example2_design.txt")


def main() -> int:
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import workloads
    from esc_sat import config, synthesis

    cfg = config.load_config(workloads.fixture_path(ROOT, "example2"))
    req = config.build_synthesis_request(cfg)
    design = synthesis.design_gradsat_gain(
        config.build_polytope(cfg), req.eta, req.epsilon, req.bounds
    )
    os.makedirs(os.path.dirname(DESIGN), exist_ok=True)
    synthesis.save_design(design, DESIGN)

    ref: dict = {}
    workdir = tempfile.mkdtemp(prefix="reference-", dir=BENCH)
    try:
        for name in workloads.WORKLOADS:
            ctx = workloads.prepare(name, ROOT, workdir)
            for i, inputs in enumerate(workloads.pool_inputs(name)):
                pass_dir = os.path.join(workdir, f"{name}-{i}")
                for op in workloads.build_ops(name, inputs, ctx, pass_dir):
                    op.store(ref, op.digest(op.call()))
            print(f"{name}: done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [
        f"{fx}:{step} rc {entry['rc']}"
        for fx, steps in ref["fixture-pipeline"].items()
        for step, entry in steps.items() if entry["rc"] != 0
    ]
    bad += [f"sweep {p} rc {e['rc']}" for p, e in ref["wide-sweep"].items() if e["rc"] != 0]
    bad += [
        f"{family} n={n} #{i}: {e['status']}"
        for family in ("gradsat", "aw")
        for n, pool in ref["lmi-scaling"][family].items()
        for i, e in pool.items() if not (e["status"] == "feasible" and e["certified"])
    ]
    if bad:
        print("operations that fail at this commit:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
