"""Span tracing for the benchmark's traced run, installed from outside the package.

``Tracer.install`` wraps every public function of each esc_sat layer module
and rebinds it in every esc_sat module namespace that holds it, so calls made
inside the package (``cli`` calling ``simulate``, ``synthesis`` calling
``solve_feasibility``) are recorded too.  A span is (id, name, start, end,
parent, attrs).  Spans are kept in memory and written out by the caller once
the traced run ends.  Untraced runs never create a Tracer.

A span opened on a thread with no open span of its own (the sweep worker
pool) takes the innermost open span of the installing thread as its parent,
so worker time is not counted as the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "config", "signals", "plant", "polytope", "sdp",
    "synthesis", "sim", "analysis", "svgplot", "cli",
)
SCENARIOS = ("input-saturation", "gradient-saturation", "average-aw", "average-gradsat")
SDP_STATUSES = ("feasible", "infeasible", "numerical-failure")
LMI_DIMS = range(2, 9)


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _sim_attrs(fn, args, kwargs, result):
    cfg = _bound(fn, args, kwargs, "cfg")
    return {"scenario": cfg.scenario, "steps": int(result.times.size - 1)}


# Attributes recorded from a finished call, keyed by span name.
_ANNOTATE = {
    "sim.simulate": _sim_attrs,
    **{f"sim.simulate_{s}": _sim_attrs for s in (
        "input_sat", "gradient_sat", "average_aw", "average_gradsat")},
    "sim.export_csv": lambda fn, a, k, r: {
        "bytes": os.path.getsize(_bound(fn, a, k, "path"))},
    "sdp.solve_feasibility": lambda fn, a, k, r: {
        "status": r.status, "iterations": int(r.iterations)},
    "synthesis.design_aw_gains": lambda fn, a, k, r: {
        "n": _bound(fn, a, k, "poly").dim},
    "synthesis.design_gradsat_gain": lambda fn, a, k, r: {
        "n": _bound(fn, a, k, "poly").dim},
    "synthesis.find_aw_certificate": lambda fn, a, k, r: {
        "n": _bound(fn, a, k, "poly").dim},
}


class Tracer:
    """Records spans around the public functions of the layer modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.paused = False
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._owner = threading.get_ident()
        self._patches: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"esc_sat.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if name != "esc_sat" and not name.startswith("esc_sat."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stacks[threading.get_ident()]
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks[self._owner]
                parent = owner[-1] if owner else None
            sid = next(self._ids)
            stack.append(sid)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if annotate is not None:
                    attrs = annotate(fn, args, kwargs, result)
                return result
            except BaseException as exc:
                end = time.perf_counter()
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                self.spans.append((sid, name, start, end, parent, attrs))

        return wrapper

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, passes: list[list[tuple]]) -> None:
    """One JSON object per span and line, gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        for index, spans in enumerate(passes):
            for sid, name, start, end, parent, attrs in spans:
                fh.write(json.dumps({
                    "pass": index, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "attrs": attrs,
                }) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Self time is a span's duration minus the union of its child spans.
    Inclusive sums count only spans with no ancestor of the same name, so
    recursion or re-entry is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        inside = [(max(lo, s[2]), min(hi, s[3])) for lo, hi in children[s[0]]]
        return dur(s) - _union_length([iv for iv in inside if iv[1] > iv[0]])

    def ancestors(s):
        parent = s[4]
        while parent is not None and parent in by_id:
            s = by_id[parent]
            yield s
            parent = s[4]

    def outermost(names):
        return [
            s for name in names for s in by_name[name]
            if not any(a[1] in names for a in ancestors(s))
        ]

    def total(names):
        return sum(dur(s) for s in outermost(names))

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{s[1].split('.', 1)[0]}.self_s"] += self_time(s)

    sim_names = {"sim.simulate"} | {
        f"sim.simulate_{s}" for s in
        ("input_sat", "gradient_sat", "average_aw", "average_gradsat")
    }
    runs = [s for s in outermost(sim_names) if s[5] and "steps" in s[5]]
    for sc in SCENARIOS:
        mine = [s for s in runs if s[5]["scenario"] == sc]
        steps = sum(s[5]["steps"] for s in mine)
        m[f"sim.steps.{sc}"] = steps
        m[f"sim.us_per_step.{sc}"] = (
            1e6 * sum(self_time(s) for s in mine) / steps if steps else 0.0
        )
    exports = outermost({"sim.export_csv"})
    m["sim.export_csv_s"] = sum(dur(s) for s in exports)
    m["sim.csv_bytes"] = sum(s[5]["bytes"] for s in exports if s[5] and "bytes" in s[5])

    solves = outermost({"sdp.solve_feasibility"})
    m["sdp.calls"] = len(solves)
    done = [s for s in solves if s[5] and "iterations" in s[5]]
    m["sdp.iterations"] = sum(s[5]["iterations"] for s in done)
    m["sdp.solve_s"] = sum(dur(s) for s in solves)
    m["sdp.s_per_iter"] = (
        m["sdp.solve_s"] / m["sdp.iterations"] if m["sdp.iterations"] else 0.0
    )

    def loop_dim(s):
        for a in ancestors(s):
            if a[5] and "n" in a[5]:
                return a[5]["n"]
        return None

    for n in LMI_DIMS:
        mine = [s for s in solves if loop_dim(s) == n]
        m[f"sdp.iterations.n{n}"] = sum(
            s[5]["iterations"] for s in mine if s[5] and "iterations" in s[5]
        )
        m[f"sdp.solve_s.n{n}"] = sum(dur(s) for s in mine)
    for status in SDP_STATUSES:
        m[f"sdp.status.{status}"] = sum(1 for s in done if s[5]["status"] == status)

    designs = {
        "synthesis.design_aw_gains", "synthesis.design_gradsat_gain",
        "synthesis.find_aw_certificate",
    }
    m["synthesis.design_self_s"] = sum(
        self_time(s) for name in designs for s in by_name[name]
    )
    m["synthesis.verify_s"] = total({
        "synthesis.verify_aw_design", "synthesis.verify_gradsat_design",
        "synthesis.verify_ellipsoid_inclusion",
    })

    m["analysis.sector_global_s"] = total({"analysis.sample_deadzone_sector_global"})
    m["analysis.sector_regional_s"] = total({"analysis.sample_deadzone_sector_regional"})
    m["analysis.zero_mean_s"] = total({"analysis.zero_mean_report"})
    m["analysis.rhs_consistency_s"] = total(
        {"analysis.draw_interior_states", "analysis.average_rhs_consistency"}
    )
    m["analysis.bands_s"] = total({"analysis.check_convergence_bands"})
    m["analysis.fit_decay_s"] = total({"analysis.fit_decay"})
    m["analysis.sup_deviation_s"] = total({"analysis.sup_deviation"})

    loads = outermost({"config.load_config"})
    m["config.loads"] = len(loads)
    m["config.load_s"] = sum(dur(s) for s in loads)
    m["svgplot.render_s"] = total({"svgplot.render_trajectory_svg"})
    m["trace.spans"] = len(spans)
    return m
