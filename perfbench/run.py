#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-digests <first>-<last>

Run from the repository root. The benchmark is compiled from ../src into
.bench_build/perfbench; scratch files go to .bench_tmp and per-run reports to
.bench_out. The last line of standard output is the JSON result of the run
(for --workload all, one line per workload). The exit status is 0 only when
the build succeeded and every correctness and exercise check passed.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_tmp")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ["sweep-serial", "sweep-pooled", "serve-fleet"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout keeps only result lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def digest_family(workload):
    # Both sweeps run the same grid and must produce the same digest.
    return "sweep" if workload.startswith("sweep") else workload


def recorded_digest(workload, seed):
    try:
        with open(DIGESTS) as f:
            table = json.load(f)
    except (OSError, ValueError):
        return ""
    return table.get(digest_family(workload), {}).get(str(seed), "")


def expected_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    tmp = os.path.join(TMP, "%s-%d" % (workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", tmp, "--rev", git_rev(),
           "--report", os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))]
    expect = recorded_digest(workload, seed)
    if expect:
        cmd += ["--expect-digest", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed no result" % workload)
        return proc.returncode or 1, None
    result = lines[-1]
    try:
        parsed = json.loads(result)
    except ValueError:
        log("perfbench: %s printed a malformed result" % workload)
        return 1, None
    want = expected_metric_names(trace)
    if sorted(parsed["metrics"]) != sorted(want):
        log("perfbench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(parsed["metrics"]), sorted(want)))
        return 1, None
    return proc.returncode, result


def record_digests(span):
    first, last = (int(x) for x in span.split("-"))
    if not build(["perfbench"]):
        return 1
    binary = os.path.join(BUILD, "perfbench")

    def one(job):
        family, seed = job
        tmp = os.path.join(TMP, "digest-%s-%d-%d" % (family, seed, os.getpid()))
        out = subprocess.run([binary, "--digest", family, "--seed", str(seed), "--tmp", tmp],
                             capture_output=True, text=True, check=True)
        shutil.rmtree(tmp, ignore_errors=True)
        log("%s seed %d: %s" % (family, seed, out.stdout.strip()))
        return family, seed, out.stdout.strip()

    jobs = [(f, s) for f in ["sweep", "serve-fleet"] for s in range(first, last + 1)]
    table = {"sweep": {}, "serve-fleet": {}}
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as ex:
        for family, seed, digest in ex.map(one, jobs):
            table[family][str(seed)] = digest
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", metavar="FIRST-LAST")
    args = ap.parse_args()

    if args.record_digests:
        return record_digests(args.record_digests)
    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build(["perfbench"]):
        return 1
    status = 0
    results = []
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        status = status or code
        if result is None:
            status = status or 1
            continue
        results.append(result)
    for r in results:
        print(r)
    return status


if __name__ == "__main__":
    sys.exit(main())
