"""One benchmark run in a fresh interpreter: set-up, repetitions, checks.

Started by run.py with the BLAS thread count already fixed in the
environment.  Writes one JSON record to --out and exits 0 when the record was
written, whatever the checks found.

Untraced runs (--trace 0) interleave three set-ups with repetitions of the
workload's phase and with readings of probe(), a fixed piece of interpreter
and numpy work; no wrapper is ever installed.  The speed of the shared
2-vCPU virtual machine this was tuned on drifts by 20-35% over seconds to
minutes, and every kind of code slows together (probe, set-up and phase
times correlate at 0.8), so wall_s and setup_s are reported at a reference
speed: median seconds x PROBE_REF_S / the run's median probe seconds.  The
unscaled medians and every probe reading are recorded as well.

Traced runs (--trace 1) set up once if the phase needs it, then alternate
traced and untraced repetitions (T U U T ...), so the tracing overhead is
measured under the same conditions; per-layer numbers come from the traced
repetitions only and are not scaled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import selftest
import spans
import workloads as wl

N_SETUPS = 3
TRACED_MIN_REPS = 4
TRACE_PATTERN = (True, False, False, True)
# probe() takes about this long on the 2-vCPU Xeon VM the benchmark was tuned on
PROBE_REF_S = 0.25
_PROBE_A = np.linspace(0.0, 1.0, 200 * 4, dtype=np.float32).reshape(200, 1, 4)
_PROBE_B = np.linspace(1.0, 0.0, 300 * 4, dtype=np.float32).reshape(1, 300, 4)
_PROBE_M = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)


# per-layer quantities computed from two counters of the same function
DERIVED = {"samples_per_s": ("samples", "self_s"), "merged_frac": ("merged", "raw")}


def _layer_metrics(names, reps):
    """Values of the per-layer metrics named in BENCHMARK.json.

    `<module>.<function>.<quantity>` reads the traced repetitions' span
    tables: rss_rise_mb as the maximum, because later repetitions start from
    an already raised high-water mark, everything else as the median.
    `<module>.<fact>` reads what the workload's check recorded, and `run.*`
    compares traced with untraced repetitions.
    """
    med = statistics.median
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {
        "run.cpu_s": med(r["cpu_s"] for r in plain),
        "run.traced_wall_s": med(r["wall_s"] for r in traced),
        "run.trace_overhead_s": med(r["wall_s"] for r in traced)
        - med(r["wall_s"] for r in plain),
        "run.span_coverage": med(r["span_coverage"] for r in traced),
    }
    for name in names:
        if name in out:
            continue
        function, _, quantity = name.rpartition(".")
        if "." not in function:
            out[name] = med(r["facts"].get(quantity, 0) for r in traced)
            continue
        rows = [r["table"].get(function, {}) for r in traced]
        if quantity in DERIVED:
            num, den = DERIVED[quantity]
            out[name] = med(row[num] / row[den] if row.get(den) else 0.0 for row in rows)
        else:
            reduce = max if quantity == "rss_rise_mb" else med
            out[name] = reduce(row.get(quantity, 0.0) for row in rows)
    return {name: float(out[name]) for name in names}


def probe():
    """Seconds for a fixed mix of dict-and-tuple interpreter work and numpy
    broadcasting and matmul, the two kinds of work the workloads do."""
    t0 = time.perf_counter()
    table = {}
    for i in range(300_000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + 1
    for _ in range(60):
        ((_PROBE_A - _PROBE_B) ** 2).sum(-1).min()
        _PROBE_M @ _PROBE_M
    return time.perf_counter() - t0


class Run:
    """One run's set-ups, repetitions and checks."""

    def __init__(self, workload, seed):
        self.name, self.seed = workload, seed
        self.w = wl.WORKLOADS[workload]
        self.checks = wl.Checks()
        self.ctx = None
        self.setup_s = []
        self.reps = []

    def setup(self):
        self.ctx = None
        gc.collect()
        t0 = time.perf_counter()
        self.ctx = wl.setup()
        self.setup_s.append(time.perf_counter() - t0)
        wl.check_setup(self.ctx, self.checks)

    def rep(self, tracer=None):
        w, checks, ctx, k = self.w, self.checks, self.ctx, len(self.reps)
        run_id = f"{self.name}-seed{self.seed}-rep{k}"
        w.prepare(ctx)
        gc.collect()
        if tracer:
            tracer.install(run_id)
        else:
            checks.add(f"rep{k}.unwrapped", spans.wrapped_bindings() == [])
        out, error = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = w.phase(ctx, self.seed)
        except Exception:  # a failed phase is a failed check, not a crash
            error = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer:
            tracer.uninstall()
            checks.add(f"rep{k}.patches_undone",
                       tracer.originals_restored() and spans.wrapped_bindings() == [])
        rep = {"rep": k, "traced": bool(tracer), "wall_s": t1 - t0, "cpu_s": c1 - c0,
               "facts": {}}
        if checks.add(f"rep{k}.completed", error is None):
            rep["facts"] = w.check(out, checks)
            if w.needs_setup:
                rep["facts"].update(n_balls=len(ctx.cover),
                                    n_intersecting_pairs=len(ctx.cover.adjacency))
        else:
            print(error, file=sys.stderr)
        if tracer:
            rep_spans = tracer.spans_of(run_id)
            rep["table"] = spans.layer_table(rep_spans)
            top = spans.top_level_seconds(rep_spans)
            rep["span_coverage"] = top / rep["wall_s"]
            self_sum = sum(spans.self_times(rep_spans))
            checks.add(f"rep{k}.self_times_sum", abs(self_sum - top) <= 1e-6 * max(top, 1))
            checks.add(f"rep{k}.spans_cover_wall", 0.95 <= rep["span_coverage"] <= 1.0)
        self.reps.append(rep)


def run(workload, seed, seconds, trace):
    r = Run(workload, seed)
    selftest.run_all(r.checks)
    start = time.perf_counter()
    probes = []
    if trace:
        if r.w.needs_setup:
            r.setup()
        tracer = spans.Tracer()
        selftest.check_binding_sites(tracer, r.checks)
        while len(r.reps) < TRACED_MIN_REPS or time.perf_counter() - start < seconds:
            r.rep(tracer if TRACE_PATTERN[len(r.reps) % len(TRACE_PATTERN)] else None)
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = _layer_metrics(names, r.reps)
        os.makedirs(wl.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(wl.OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
        unscaled = {}
    else:
        r.checks.add("untraced.never_patched", spans.wrapped_bindings() == [])
        # P S P R P S P R P S P, then R P until `seconds` have passed
        probes.append(probe())
        for k in range(N_SETUPS):
            r.setup()
            probes.append(probe())
            if k < N_SETUPS - 1:
                r.rep()
                probes.append(probe())
        while time.perf_counter() - start < seconds:
            r.rep()
            probes.append(probe())
        unscaled = {"wall_s": statistics.median(x["wall_s"] for x in r.reps),
                    "setup_s": statistics.median(r.setup_s)}
        speed = PROBE_REF_S / statistics.median(probes)
        metrics = {name: v * speed for name, v in unscaled.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = sorted({x["facts"]["digest"] for x in r.reps if "digest" in x["facts"]})
    if workload == "report":
        r.checks.add("report.digest_agrees", len(digests) == 1)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "unscaled": unscaled,
        "probe_s": probes,
        "attempted": r.checks.attempted,
        "failures": r.checks.failures,
        "setup_s": r.setup_s,
        "reps": [{k: v for k, v in x.items() if k != "table"} for x in r.reps],
        "digests": digests,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    a = p.parse_args()
    record = run(a.workload, a.seed, a.seconds, a.trace)
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
