#!/usr/bin/env python3
"""Builds and runs the SODA end-to-end benchmark.

    python3 perfbench/run.py --workload corpus-exact|serve-replay|fleet-coupled \
        --seed N --seconds S --trace 0|1 [--pins PATH]

Run from the repository root. The first run configures and compiles
perfbench/ (which builds the libraries under src/) into .bench_build/;
later runs only re-check the build. The benchmark binary prints a run manifest
line and a result line with every metric it measured. This script passes the
manifest on and prints, as the last line of stdout, the result JSON object
with the end-to-end (--trace 0) or per-layer (--trace 1) metrics named in
BENCHMARK.json, each with its unit there; a metric the workload does not
measure reads 0. The pinned output digest for (workload, seed), if
perfbench/pins.json has one, is passed to the binary, which fails the run
when its output differs. A traced run writes its spans to
.bench_build/traces/.

Exits 0 only when every output check passed and every metric is finite.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "soda_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("corpus-exact", "serve-replay", "fleet-coupled")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Git commit when available, plus a digest of the benchmarked sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "%s+src.%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned digests (default: perfbench/pins.json)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", source_id()]
    with open(args.pins) as handle:
        pin = json.load(handle).get(args.workload, {}).get(str(args.seed))
    if pin is not None:
        command += ["--expect-digest", str(pin)]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = run.stdout.strip().splitlines()
    try:
        measured = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark exited %d without a result" % run.returncode)

    with open(SPEC) as handle:
        wanted = json.load(handle)["end_to_end" if args.trace == "0"
                                   else "per_layer"]
    correct = run.returncode == 0 and measured["correct"]
    metrics = {}
    for metric in wanted:
        value = measured["metrics"].get(metric["name"], 0.0)
        if value is None or not math.isfinite(value):
            print("perfbench: metric %s is not finite" % metric["name"],
                  file=sys.stderr)
            correct, value = False, 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": correct, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else run.returncode or 1)


if __name__ == "__main__":
    main()
