#!/usr/bin/env python3
"""The repository benchmark.

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
project's libraries from src/) into .bench_build/, runs one workload for
--seconds, gates its outcome, prints a report, and ends stdout with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end-to-end set, with --trace 1 its
per-layer set; BENCHMARK.json also names the workloads. Run it from
anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload mixed_native_skip --seed 1 --seconds 18 --trace 0

perfbench/README.md documents the workloads, every metric, and which layer
metric should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_DEADLINE_S = 175  # a run must end within 180 s of its start
BUILD_DEADLINE_S = 850  # ... or 900 s when it has to build first

# Per-layer metrics (BENCHMARK.json) each workload must report in a traced
# run, by name or by a prefix ending in "."; a traced run that misses one
# fails. Per-layer metrics of layers a workload does not run read 0.
OWNS = {
    "mixed_native_skip": ["delete_p99_ns.skip", "slpq.skip."],
    "mixed_native_multiqueue": ["delete_p99_ns.multiqueue",
                                "rank_error_mean.multiqueue",
                                "slpq.multiqueue."],
    "service_trace": ["dequeue_p50_ns.pqd", "dequeue_p99_ns.pqd",
                      "rank_error_mean.pqd", "pqd.", "slpq.skip."],
    "paper_sim_skip": ["sim_op_cycles.skip", "sim.", "simq.skip.",
                       "sim_op_cycles.heap", "simq.heap.", "accuracy."],
    "paper_sim_funnel": ["sim_op_cycles.funnel", "sim.", "simq.funnel."],
}
ALWAYS = ["error_rate", "peak_rss_mb", "trace_overhead"]


def owned(workload, name):
    return name in ALWAYS or any(
        name == p or (p.endswith(".") and name.startswith(p))
        for p in OWNS[workload])


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        r = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                           timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(Path(log).read_text()[-4000:])
        fail(f"build step failed: {' '.join(cmd)}", 1)


def build(timeout):
    """Configures (once) and builds the binary; returns its path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", "perfbench", "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], log, timeout)
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", "4"], log, timeout)
    return BUILD / "perfbench"


def provenance_args():
    commit = "unknown (not a git checkout)"
    if shutil.which("git") and (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
                digest.update(f.read_bytes())
    return ["--commit", commit, "--source", digest.hexdigest()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads or args.workload not in OWNS:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}: run from a full checkout")

    start = time.monotonic()
    binary = build(BUILD_DEADLINE_S)
    # A build that was already up to date leaves the 180 s budget intact.
    budget = max(RUN_DEADLINE_S - (time.monotonic() - start),
                 3 * args.seconds + 30)
    spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.csv"
    spans.parent.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans)] + provenance_args()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=budget)
    except subprocess.TimeoutExpired:
        fail("perfbench overran its deadline", 1)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with code {r.returncode}", 1)
    out = json.loads(lines[-1])
    by_name = {m["name"]: m for m in out["metrics"]}

    prov = out["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    for m in out["metrics"]:
        n = f"  (n={m['samples']})" if m["samples"] else ""
        print(f"  {m['name']:<40} {m['value']:>16.6g} {m['unit']}{n}")
    error_rate = out["failed"] / max(out["attempted"], 1)
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio  "
          f"({out['failed']} failed of {out['attempted']} ops)")
    for note in out["notes"]:
        print(f"  note: {note}")
    for v in out["violations"]:
        print(f"  VIOLATION: {v}")

    metrics = {}
    if args.trace == 0:
        for m in manifest["end_to_end"]:
            if m["name"] not in by_name:
                fail(f"perfbench did not report {m['name']}", 1)
            metrics[m["name"]] = {"value": by_name[m["name"]]["value"],
                                  "unit": m["unit"]}
    else:
        by_name["error_rate"] = {"value": error_rate}
        for m in manifest["per_layer"]:
            if m["name"] in by_name:
                value = by_name[m["name"]]["value"]
            elif owned(args.workload, m["name"]):
                fail(f"{args.workload} did not report {m['name']}", 1)
            else:
                value = 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({"correct": out["correct"],
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
