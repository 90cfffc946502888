"""Tests of the benchmark itself: seeded inputs, reference checks, metric list.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seed_changes_inputs(name):
    assert workloads.make_inputs(name, 1) != workloads.make_inputs(name, 2)


def test_inputs_stay_inside_the_reference_pools(reference):
    for seed in range(20):
        sweep = workloads.make_inputs("wide-sweep", seed)
        for param, values in sweep.items():
            assert set(values) <= set(reference["wide-sweep"][param]["rows"])
        lmi = workloads.make_inputs("lmi-scaling", seed)
        for family, dims in lmi.items():
            for n, chosen in dims.items():
                assert {str(i) for i in chosen} <= set(reference["lmi-scaling"][family][n])


def _lmi_first_design(tmp_path):
    inputs = workloads.make_inputs("lmi-scaling", 3)
    ctx = workloads.prepare("lmi-scaling", ROOT, str(tmp_path))
    ops = workloads.build_ops("lmi-scaling", inputs, ctx, str(tmp_path / "pass"))
    return inputs, ops[:2]


def test_intact_reference_passes(tmp_path, reference):
    _, ops = _lmi_first_design(tmp_path)
    result = workloads.run_pass(ops, reference)
    assert result["attempted"] == 2 and result["failed"] == 0, result["problems"]


def test_corrupted_status_is_a_failed_operation(tmp_path, reference):
    inputs, ops = _lmi_first_design(tmp_path)
    bad = copy.deepcopy(reference)
    idx = str(inputs["gradsat"]["2"][0])
    bad["lmi-scaling"]["gradsat"]["2"][idx]["status"] = "infeasible"
    result = workloads.run_pass(ops, bad)
    assert result["failed"] == 1
    assert "status" in result["problems"][0]


def test_corrupted_number_is_a_failed_operation(tmp_path, reference):
    inputs = workloads.make_inputs("wide-sweep", 5)
    ctx = workloads.prepare("wide-sweep", ROOT, str(tmp_path))
    bad = copy.deepcopy(reference)
    value = inputs["amplitude"][1]
    row = bad["wide-sweep"]["amplitude"]["rows"][value]
    row[1] *= 1.0 + 1e-9
    ops = [
        op for op in workloads.build_ops("wide-sweep", inputs, ctx, str(tmp_path / "pass"))
        if op.label == "amplitude:sweep"
    ]
    assert workloads.run_pass(ops, reference)["failed"] == 0
    result = workloads.run_pass(ops, bad)
    assert result["failed"] == 1
    assert f"rows/{value}[1]" in result["problems"][0]


def test_compare_tolerances():
    assert checks.compare(1.0 + 1e-13, 1.0) == []
    assert checks.compare(1.0 + 1e-10, 1.0) != []
    assert checks.compare({"v": 1e-13, "scale": 1.0}, {"v": 0.0, "scale": 1.0}) == []
    assert checks.compare(1e-13, 0.0) != []
    assert checks.compare(1, True) != []
    assert checks.compare([1.0], [1.0, 2.0]) != []


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = set(spans.layer_metrics([]))
    reported |= {f"e2e.{k}_s" for k in workloads.KINDS}
    reported |= {"e2e.wall_s", "e2e.traj_steps_per_s", "e2e.failed_ratio", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    named = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    for entry in layer_map["layers"]:
        assert set(entry["per_layer"]) <= named
        for pair in entry["moves"] + entry["unchanged"]:
            assert pair["metric"] in named and pair["workload"] in workloads.WORKLOADS


def test_tracer_records_nested_spans_and_restores_functions():
    from esc_sat import config, sim

    original, original_simulate = config.load_config, sim.simulate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert config.load_config is not original
        config.load_config(workloads.fixture_path(ROOT, "example1"))
    finally:
        tracer.uninstall()
    assert config.load_config is original and sim.simulate is original_simulate
    names = {s[1]: s for s in tracer.spans}
    assert "config.parse_config" in names
    assert names["config.parse_config"][4] == names["config.load_config"][0]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["config.loads"] == 1 and metrics["config.load_s"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lmi-scaling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
