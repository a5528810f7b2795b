#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds S]

From the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py briefly (pinned default seed), untraced and traced, and
checks that the run passes and prints every end-to-end / per-layer metric
named in BENCHMARK.json with its unit, that the end-to-end ones are positive
and that every per-layer one is measured (nonzero) by some workload. It then
checks two ways the benchmark must fail: a corrupted pin makes the command
exit nonzero with failed operations on every workload, and a directory
holding only BENCHMARK.json and perfbench/ makes it exit nonzero without
printing a result. Work files go under
.bench_build/selftest/. Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")
SEED = 20240804  # pinned in perfbench/pins.json

problems = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def run(workload, seconds, trace, cwd=ROOT, pins=None):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    if pins:
        command += ["--pins", pins]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(WORK_DIR, exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]

    measured_layers = set()
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, args.seconds, trace)
            label = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + " passes its output checks")
            metrics = (result or {}).get("metrics", {})
            missing = [m["name"] for m in spec[key]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, label + " prints every %s metric%s" % (
                key, "" if not missing else " (missing: %s)" % missing))
            if trace == 0:
                zero = [m["name"] for m in spec[key]
                        if metrics.get(m["name"], {}).get("value", 0) <= 0]
                check(not zero, label + " end-to-end metrics are positive%s"
                      % ("" if not zero else " (not: %s)" % zero))
            else:
                measured_layers.update(
                    name for name, m in metrics.items() if m["value"] != 0)
    # A workload reports 0 for a layer it bypasses; every layer metric must
    # be measured by some workload.
    unmeasured = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in measured_layers]
    check(not unmeasured, "every per_layer metric is measured by a workload%s"
          % ("" if not unmeasured else " (not: %s)" % unmeasured))

    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)
    for workload in pins:
        pins[workload][str(SEED)] = str(
            (int(pins[workload][str(SEED)]) + 1) % 2**64)
    corrupted = os.path.join(WORK_DIR, "corrupted-pins.json")
    with open(corrupted, "w") as handle:
        json.dump(pins, handle)
    for workload in workloads:
        code, result = run(workload, args.seconds, 0, pins=corrupted)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "%s: a corrupted pin fails the run (exit %d)" % (workload, code))

    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, result = run("corpus-exact", args.seconds, 0, cwd=bare)
    check(code != 0 and result is None,
          "without the sources the command fails without a result (exit %d)"
          % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not problems else
                            "%d check(s) failed" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
