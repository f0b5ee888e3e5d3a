"""wildknot benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (no install needed; the package is
imported from ./src):

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One run starts one fresh interpreter (worker.py) with the BLAS thread count
fixed, waits for it, and prints its metrics with units, the run environment
and, for `report`, the bundle digest.  wall_s and setup_s are scaled to a
reference machine speed read by a probe between timed intervals (see
worker.py); their unscaled values are printed too.  The last line of standard output is a
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  `--workload all` runs every workload untraced and then traced
and prints one table.  Records, span files and the report bundle go to
./.bench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("report", "orbit7", "certify1k")
BLAS_THREADS = 1  # fixed per child: BLAS threads in the sweep's matmul add variance
CHILD_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": git_commit(),
            "seed": seed, "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
            "platform": platform.platform()}


def git_commit():
    """HEAD's commit, or None outside a git clone (as in an exported checkout)."""
    try:
        # the ceiling keeps git from reporting an enclosing repository's HEAD
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(workload, seed, seconds, trace, env_record):
    """One fresh interpreter for one run; returns its record."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(env_record["blas_threads"])
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="worker-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    try:
        # the pipeline prints PASS lines; keep stdout for this script's results
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"{workload} worker exited with code {proc.returncode}", 1)
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s and was killed", 1)
    finally:
        os.remove(out)
    record["env"] = env_record
    return record


def metrics_of(record, units):
    """{name: {value, unit}} for exactly the declared metrics, in declared order."""
    values = record["metrics"]
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", 3)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def show(record, metrics):
    w = record["workload"]
    n, failed = record["attempted"], len(record["failures"])
    print(f"[{w}] trace={record['trace']} seed={record['seed']} "
          f"reps={len(record['reps'])} python {record['python']} numpy {record['numpy']}")
    for name, m in metrics.items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    for name, value in record["unscaled"].items():
        print(f"[{w}] {name} unscaled = {value:.6g} s")
    print(f"[{w}] fail_frac = {failed}/{n} = {failed / n:.6g}"
          + (f"  failed: {' '.join(record['failures'])}" if failed else ""))
    for digest in record["digests"]:
        print(f"[{w}] bundle sha256 {digest}")


def save(name, payload):
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "wildknot", "__init__.py")):
        fail(f"no wildknot sources under {os.path.join(ROOT, 'src')}", 2)
    end_to_end, per_layer = declared_metrics()
    env_record = environment(args.seed)
    print("env " + json.dumps(env_record, sort_keys=True))

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    attempted = failed = 0
    table = {}
    digests = set()
    for workload, trace in runs:
        record = run_worker(workload, args.seed, args.seconds, trace, env_record)
        metrics = metrics_of(record, per_layer if trace else end_to_end)
        show(record, metrics)
        save(f"run-{workload}-seed{args.seed}-trace{trace}.json",
             dict(record, metrics=metrics))
        attempted += record["attempted"]
        failed += len(record["failures"])
        digests.update(record["digests"])
        table.setdefault(workload, {}).update(
            {name: m["value"] for name, m in metrics.items()})
        last = metrics
    if args.workload == "all":
        # the traced and untraced report runs share the seed: one bundle
        attempted += 1
        failed += len(digests) != 1
        save(f"suite-seed{args.seed}.json",
             {"env": env_record, "report_bundle_sha256": sorted(digests),
              "workloads": table})
        last = {f"{w}.{name}": {"value": v, "unit": {**end_to_end, **per_layer}[name]}
                for w, row in table.items() for name, v in row.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": last}, sort_keys=True))


if __name__ == "__main__":
    main()
