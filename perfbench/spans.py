"""Outside-in span tracing of wildknot's layers.

The tracer wraps the public functions of the layer modules from outside the
package, so nothing under `src/` changes.  Every module attribute bound to a
wrapped function is replaced, which catches calls made through names imported
with `from ... import` (for example `cli.build_cover` or `cover.knot_surface`)
as well as calls through the defining module.  Spans are kept in memory and
written out once, when the run ends.

`lorentz` is not wrapped: its primitives run once per word and per relation,
so their cost is left in their callers' self time.  For the same reason the
per-face helpers in PER_ITEM are not wrapped either.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import resource
import sys
import time

PACKAGE = "wildknot"
LAYERS = ("complexes", "presets", "cover", "groups", "limitset", "bending",
          "alexander", "cli")
PER_ITEM = ("complexes.face_vertices", "complexes.face_edges_directed")
MARKER = "__perfbench_original__"


def _coverage_samples(args, _result):
    return {"samples": len(args["surf"].faces) * args["n_samples"]}


def _word_counts(_args, result):
    return {"classes": len(result.words), "raw": result.n_raw,
            "merged": result.n_merged}


def _sphere_count(_args, result):
    return {"spheres": len(result.radii)}


# Work counters read at the layer boundary: (bound arguments, result) -> dict.
COUNTERS = {
    "cover.coverage_check": _coverage_samples,
    "groups.enumerate_words": _word_counts,
    "groups.orbit_spheres": _sphere_count,
}


@dataclasses.dataclass(slots=True)
class Span:
    sid: int
    parent: int  # sid of the enclosing span, -1 at top level
    name: str  # "<module>.<function>"
    run_id: str
    t0: float
    t1: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    rss0_kb: int = 0
    rss1_kb: int = 0
    counters: dict | None = None


def public_functions():
    """[(qualified name, function)] for every public function a layer defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and f"{layer}.{attr}" not in PER_ITEM):
                out.append((f"{layer}.{attr}", obj))
    return out


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def binding_sites(functions):
    """{qualified name: [(module, attribute)]} for every name bound to each function."""
    sites = {name: [] for name, _fn in functions}
    by_id = {id(fn): name for name, fn in functions}
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            name = by_id.get(id(obj))
            if name is not None:
                sites[name].append((mod, attr))
    return sites


def wrapped_bindings():
    """Module attributes across the package that currently hold a wrapper."""
    return sorted(f"{mod.__name__}.{attr}" for mod in _package_modules()
                  for attr, obj in vars(mod).items() if hasattr(obj, MARKER))


class Tracer:
    """Patches every binding site while installed; records one span per call."""

    def __init__(self):
        self.functions = public_functions()
        self.sites = binding_sites(self.functions)
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, run_id):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for name, fn in self.functions:
            wrapper = self._wrap(name, fn)
            for mod, attr in self.sites[name]:
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self._stack.clear()

    def originals_restored(self):
        """True iff every binding site holds its original function again."""
        fns = dict(self.functions)
        return all(getattr(mod, attr) is fns[name]
                   for name, sites in self.sites.items() for mod, attr in sites)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        spans, stack = self.spans, self._stack
        getrusage, self_ = resource.getrusage, resource.RUSAGE_SELF
        perf, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name, self.run_id,
                        0.0, rss0_kb=getrusage(self_).ru_maxrss, c0=cpu())
            spans.append(span)
            stack.append(span.sid)
            span.t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf()
                span.c1 = cpu()
                span.rss1_kb = getrusage(self_).ru_maxrss
                stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = count(bound.arguments, result)
            return result

        setattr(wrapper, MARKER, fn)
        return wrapper

    def spans_of(self, run_id):
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s), sort_keys=True) + "\n")


def self_times(spans):
    """Each span's duration minus the part its direct children cover.

    Calls are synchronous, so a span's children do not overlap each other.
    """
    index = {s.sid: k for k, s in enumerate(spans)}
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[index[s.parent]] += s.t1 - s.t0
    return [s.t1 - s.t0 - c for s, c in zip(spans, child)]


def layer_table(spans):
    """Per function: calls, total_s, self_s, cpu_s, rss_rise_mb, counters.

    Inclusive quantities (total, CPU, RSS rise) count only the outermost call
    of a function, so recursion through another wrapped layer is not counted
    twice.
    """
    index = {s.sid: s for s in spans}
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "cpu_s": 0.0, "rss_rise_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, val in (s.counters or {}).items():
            row[key] = row.get(key, 0) + val
        p = index.get(s.parent)
        while p is not None and p.name != s.name:
            p = index.get(p.parent)
        if p is None:
            row["total_s"] += s.t1 - s.t0
            row["cpu_s"] += s.c1 - s.c0
            row["rss_rise_mb"] += (s.rss1_kb - s.rss0_kb) / 1024.0
    return table


def top_level_seconds(spans):
    return sum(s.t1 - s.t0 for s in spans if s.parent < 0)

