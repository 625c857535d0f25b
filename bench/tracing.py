"""Spans around steerkit's module boundaries, recorded from outside `src/`.

`install` replaces each traced function with a wrapper under the name its
caller looks up (for example `lqr.spectral_radius`, which is what
`GainSchedule.lookup` calls, not `numkit.spectral_radius`).  Each call
records a span: name, start, end and parent.  Spans stay in memory until
the pass ends; `summary` then derives per-layer counts and times, and
`dump` writes the raw spans out.

A span's self time is its duration minus the time covered by its direct
children.  The layer of a span is the prefix of its name before the dot.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

CURVKIT_FUNCS = ("ackermann_curvature", "differential_curvature", "feedforward_steer", "kf_update")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap owner.attr in place; a name the program no longer has is skipped."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.wrap(fn, name, on_result))

    # -- after the pass ---------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def dump(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus derived counts."""
        name_id, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        own = np.bincount(name_id, weights=self_time, minlength=n_names)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                 for i, name in enumerate(self.names)}
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)

        def under(child_name: str, parent_name_: str) -> int:
            if child_name not in self._ids or parent_name_ not in self._ids:
                return 0
            return int(np.sum((name_id == self._ids[child_name])
                              & (parent_name == self._ids[parent_name_])))

        counters = dict(self.counters)
        # a certification is a spectral-radius evaluation made by a lookup
        counters["lqr.lookup.certifications"] = under("numkit.spectral_radius", "lqr.lookup")
        counters["lqr.build_schedule.designs"] = under("lqr.design", "lqr.build_schedule")
        counters["spans"] = int(len(dur))
        return {"spans": spans, "counters": counters}


def install(tracer: Tracer) -> None:
    """Wrap steerkit's public functions at the names their callers use."""
    from steerkit import cli, curvkit, lqr, margins, pathkit, simkit, svgplot

    def steps(log) -> None:
        tracer.counters["simkit.steps"] += len(log)

    for attr in ("c2d", "solve_dare", "spectral_radius"):
        tracer.patch(lqr, attr, f"numkit.{attr}")
    for attr in ("build_schedule", "save_gain_csv", "load_gain_csv"):
        tracer.patch(lqr, attr, f"lqr.{attr}")
    tracer.patch(lqr, "design_kinematic", "lqr.design")
    tracer.patch(lqr, "design_dynamic", "lqr.design")
    tracer.patch(lqr.GainSchedule, "lookup", "lqr.lookup")

    tracer.patch(simkit, "run_scenario", "simkit.run_scenario", on_result=steps)
    for attr in ("rk4_step", "compute_metrics"):
        tracer.patch(simkit, attr, f"simkit.{attr}")
    tracer.patch(simkit.SimLog, "to_csv", "simkit.to_csv")
    tracer.patch(simkit, "project", "pathkit.project")

    for attr in ("gen_path", "read_recorded_csv", "load_recorded", "smooth_recorded"):
        tracer.patch(pathkit, attr, f"pathkit.{attr}")
    tracer.patch(cli, "read_recorded_csv", "pathkit.read_recorded_csv")
    tracer.patch(cli, "write_recorded_csv", "pathkit.write_recorded_csv")

    for owner in (curvkit, simkit):
        for attr in CURVKIT_FUNCS:
            tracer.patch(owner, attr, f"curvkit.{attr}")

    tracer.patch(margins, "loop_response", "margins.loop_response")
    tracer.patch(margins, "compute_margins", "margins.compute_margins")
    tracer.patch(svgplot, "render", "svgplot.render")


LAYERS = ("cli", "numkit", "lqr", "simkit", "pathkit", "curvkit", "margins", "svgplot")


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def per(t: float, n: int, scale: float) -> float:
        return t / n * scale if n else 0.0

    steps = counters.get("simkit.steps", 0)
    m = {
        "simkit.steps": (steps, "count"),
        "simkit.run_scenario.s": (total("simkit.run_scenario"), "s"),
        "simkit.us_per_step": (per(total("simkit.run_scenario"), steps, 1e6), "us"),
        "simkit.self_us_per_step": (
            per(spans.get("simkit.run_scenario", {}).get("self_s", 0.0), steps, 1e6), "us"),
        "simkit.rk4_step.calls": (calls("simkit.rk4_step"), "count"),
        "simkit.rk4_step.us_per_call": (
            per(total("simkit.rk4_step"), calls("simkit.rk4_step"), 1e6), "us"),
        "simkit.to_csv.s": (total("simkit.to_csv"), "s"),
        "simkit.compute_metrics.s": (total("simkit.compute_metrics"), "s"),
        "pathkit.project.calls": (calls("pathkit.project"), "count"),
        "pathkit.project.us_per_call": (
            per(total("pathkit.project"), calls("pathkit.project"), 1e6), "us"),
        "pathkit.read_recorded_csv.s": (total("pathkit.read_recorded_csv"), "s"),
        "pathkit.load_recorded.s": (total("pathkit.load_recorded"), "s"),
        "pathkit.smooth_recorded.s": (total("pathkit.smooth_recorded"), "s"),
        "lqr.designs": (calls("lqr.design"), "count"),
        "lqr.build_schedule.s": (total("lqr.build_schedule"), "s"),
        "lqr.ms_per_gain": (per(total("lqr.build_schedule"),
                                counters.get("lqr.build_schedule.designs", 0), 1e3), "ms"),
        "lqr.lookup.calls": (calls("lqr.lookup"), "count"),
        "lqr.lookup.certifications": (counters.get("lqr.lookup.certifications", 0), "count"),
        "lqr.lookup.s": (total("lqr.lookup"), "s"),
        "lqr.save_gain_csv.s": (total("lqr.save_gain_csv"), "s"),
        "numkit.solve_dare.calls": (calls("numkit.solve_dare"), "count"),
        "numkit.solve_dare.ms_per_call": (
            per(total("numkit.solve_dare"), calls("numkit.solve_dare"), 1e3), "ms"),
        "numkit.spectral_radius.calls": (calls("numkit.spectral_radius"), "count"),
        "numkit.spectral_radius.us_per_call": (
            per(total("numkit.spectral_radius"), calls("numkit.spectral_radius"), 1e6), "us"),
        "numkit.c2d.calls": (calls("numkit.c2d"), "count"),
        "numkit.c2d.us_per_call": (per(total("numkit.c2d"), calls("numkit.c2d"), 1e6), "us"),
        "curvkit.kf_update.calls": (calls("curvkit.kf_update"), "count"),
        "curvkit.kf_update.us_per_call": (
            per(total("curvkit.kf_update"), calls("curvkit.kf_update"), 1e6), "us"),
        "curvkit.differential_curvature.calls": (calls("curvkit.differential_curvature"), "count"),
        "curvkit.ackermann_curvature.calls": (calls("curvkit.ackermann_curvature"), "count"),
        "margins.loop_response.calls": (calls("margins.loop_response"), "count"),
        "margins.loop_response.ms_per_call": (
            per(total("margins.loop_response"), calls("margins.loop_response"), 1e3), "ms"),
        "margins.compute_margins.s": (total("margins.compute_margins"), "s"),
        "svgplot.render.calls": (calls("svgplot.render"), "count"),
        "svgplot.render.s": (total("svgplot.render"), "s"),
    }
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in spans.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = (own, "s")
    return m
