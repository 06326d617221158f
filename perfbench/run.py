#!/usr/bin/env python3
"""Build the benchmark from source, self-test it, and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench;
the first run configures and compiles (the library and the benchmark), later
runs rebuild only what changed. The last line of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric; a layer that the workload leaves idle reads 0.
Exit status is nonzero, with no result line, when the build, the
self-test or the run fails, and nonzero with "correct": false when a
correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(why):
    print("perfbench: " + why, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def parse_args(spec):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run one benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()  # unknown flags exit 2 with usage
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def run_quiet(cmd, what, timeout):
    """Runs cmd with its output on stderr; fails the run on error."""
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s failed: %s" % (what, e))
    if r.returncode != 0:
        fail("%s failed with status %d" % (what, r.returncode))


def build():
    run_quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], "configure", 300)
    run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target",
               "perfbench", "perfbench_selftest"], "build", 850)


def clean_env():
    # The library reads MIRAGE_* knobs (threads, faults, tracing, flight
    # dumps); a run measures the defaults, whatever the caller's shell has.
    return {k: v for k, v in os.environ.items() if not k.startswith("MIRAGE_")}


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail("metrics not declared in BENCHMARK.json: %s" % extra)
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], units[name]))
    missing = [n for n in units if n not in metrics]
    if not trace and missing:
        fail("end-to-end metrics missing: %s" % missing)
    ordered = {}
    for name in units:
        # Per-layer metrics of a layer this workload leaves idle read 0.
        ordered[name] = metrics.get(name, {"value": 0, "unit": units[name]})
    result["metrics"] = ordered
    return result


def main():
    spec = load_spec()
    args = parse_args(spec)
    build()
    run_quiet([os.path.join(BUILD, "perfbench_selftest")], "self-test", 60)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        # A run takes its seconds plus under ten of set-up per workload.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=clean_env(), timeout=60 + 4 * args.seconds,
                           text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("workload run failed: %s" % e)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result (status %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload result is not JSON: %r" % lines[-1][:200])
    result = check_result(result, spec, args.trace)
    if r.returncode != 0 and result.get("correct", False):
        fail("workload exited with status %d" % r.returncode)
    print(json.dumps(result))
    sys.exit(0 if r.returncode == 0 else 1)


if __name__ == "__main__":
    main()
