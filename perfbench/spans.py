"""Span tracing of tramkit from outside the program.

`Tracer.install` wraps the public functions of the traced modules at every
module attribute that refers to them (the defining module, each module that
imported the name, and the package's re-exports), plus `Dataset.prefix`.
Each wrapped call records one span (id, parent span, operation id, name,
start, end) in memory and adds counts computed from its arguments and
result. `restore` puts every original back. Nothing under src/ changes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "tramkit"
TRACED_MODULES = (
    "core",
    "solver",
    "coreset",
    "rng",
    "tradeoff",
    "tram",
    "data",
    "analytic",
    "cli",
)
TRACED_METHODS = (("core", "Dataset", "prefix"),)
CLI_COMMANDS = ("gen", "sweep", "pareto", "tram", "analytic")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) > 1 else 1


def _dist_evals(args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    centers = _arg(args, kwargs, 1, "centers")
    return {"dist_evals": _rows(points) * _rows(centers)}


# Counts recorded per call, computed from argument shapes and results.
COUNTERS = {
    "core.assign_nearest": _dist_evals,
    "core.min_sq_dists": _dist_evals,
    "core.empirical_risk": lambda a, kw, r: {"points": _arg(a, kw, 0, "data").n},
    "core.Dataset.prefix": lambda a, kw, r: {"bytes": r.points.nbytes},
    "solver.lloyd": lambda a, kw, r: {"iters": r.iterations},
    "coreset.build_coreset": lambda a, kw, r: {
        "points_in": _arg(a, kw, 0, "data").n,
        "summary_points": r.size,
    },
    "data.save_csv": lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))},
    "data.load_csv": lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))},
    "tradeoff.run_sweep": lambda a, kw, r: {
        "cells": len(r.records),
        "cell_time_s": sum(rec.mean_time_s * rec.repeats for rec in r.records),
    },
    "tram.run_tram": lambda a, kw, r: {
        "iters": r.J,
        "passed": sum(row.stopped for row in r.rows),
        "clock_s": r.total_time,
    },
}


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(mod, n, None))
        and getattr(mod, n).__module__ == mod.__name__
    ]


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans of wrapped tramkit calls; one instance per traced run."""

    def __init__(self):
        # (span id, parent id or -1, op id, name, start, end)
        self.spans: list[tuple] = []
        # span id -> counts computed for that call
        self.span_counts: dict[int, dict] = {}
        self.op = ""
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _begin(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a benchmark-level span around the block."""
        sid, parent, t0 = self._begin()
        try:
            yield
        finally:
            self._end(sid, parent, name, t0)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, t0 = tracer._begin()
            label = name
            try:
                if name == "cli.main":
                    argv = args[0] if args else kwargs.get("argv")
                    label = f"cli.main.{argv[0]}" if argv else name
                result = fn(*args, **kwargs)
            finally:
                tracer._end(sid, parent, label, t0)
            if counter is not None:
                tracer.span_counts[sid] = counter(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for fname in _public_functions(mod):
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
            self._patched.append((cls, meth, fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @property
    def sites(self) -> int:
        return len(self._patched)

    # -- results ---------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "op", "name", "start_s", "end_s"])
            writer.writerows(self.spans)

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) time and self time."""
        child = defaultdict(float)
        for _sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _parent, _op, name, t0, t1 in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[sid]
        return dict(out)

    def counts(self) -> dict[str, float]:
        """Counts summed per span name, keyed "<name>.<count>"."""
        names = {sid: n for sid, _p, _op, n, _t0, _t1 in self.spans}
        out: dict[str, float] = defaultdict(float)
        for sid, counts in self.span_counts.items():
            for key, value in counts.items():
                out[f"{names[sid]}.{key}"] += value
        return out

    def under(self, name: str, parent_name: str) -> tuple[float, dict]:
        """Total time and summed counts of `name` spans whose parent is a
        `parent_name` span."""
        names = {sid: n for sid, _p, _op, n, _t0, _t1 in self.spans}
        total, counts = 0.0, defaultdict(float)
        for sid, parent, _op, n, t0, t1 in self.spans:
            if n == name and names.get(parent) == parent_name:
                total += t1 - t0
                for key, value in self.span_counts.get(sid, {}).items():
                    counts[key] += value
        return total, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer values from a finished traced run.

    Every span name gives `<name>.calls`, `.self_s` and `.total_s`, and
    every count `<name>.<count>`; the derived values follow. `extra` carries
    the benchmark-side values (untraced timings, quality, overhead) under
    their per-layer names.
    """
    v = dict(tracer.counts())
    summary = tracer.summary()
    for name, rec in summary.items():
        for key, x in rec.items():
            v[f"{name}.{key}"] = x

    def get(key):
        return v.get(key, 0.0)

    iters = get("tram.run_tram.iters")
    sweep_wall = get("tradeoff.run_sweep.total_s")
    val_s, val_counts = tracer.under("core.empirical_risk", "tram.run_tram")
    v.update(
        {
            "solver.lloyd.iters_per_call": _ratio(
                get("solver.lloyd.iters"), get("solver.lloyd.calls")
            ),
            "tradeoff.cells": get("tradeoff.run_sweep.cells"),
            "tradeoff.reference_risk_s": tracer.under(
                "core.empirical_risk", "tradeoff.run_sweep"
            )[0],
            "tradeoff.untimed_frac": (
                1.0 - get("tradeoff.run_sweep.cell_time_s") / sweep_wall if sweep_wall else 0.0
            ),
            "tram.pilot_s": get("tram.default_start_sizes.total_s"),
            "tram.iters": iters,
            "tram.pass_per_iter": _ratio(get("tram.run_tram.passed"), iters),
            "tram.validation_s": val_s,
            "tram.validation_points": val_counts["points"],
            "tram.clock_frac": _ratio(
                get("tram.run_tram.clock_s"), get("tram.run_tram.total_s")
            ),
            "trace.spans": len(tracer.spans),
        }
    )
    for cmd in CLI_COMMANDS:
        v[f"cli.main.{cmd}.s"] = get(f"cli.main.{cmd}.total_s")
    for short in TRACED_MODULES:
        v[f"{short}.self_s"] = sum(
            rec["self_s"] for name, rec in summary.items() if name.startswith(short + ".")
        )
    v.update(extra)
    return v
