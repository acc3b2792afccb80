#!/usr/bin/env python3
"""DReAMSim benchmark: build the driver from source, run one workload, and
print the result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload table2_saturated --seed 42 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run. --size reduced shrinks every
workload for smoke tests; digests are checked for the seeds listed in
expected_digests.json. See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DRIVER_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.hpp")):
        fail(f"no DReAMSim source tree under {ROOT}", code=2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench_driver")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256():
    """Digest of the simulator sources the driver was built from."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def expected_digest(workload, size, seed):
    with open(os.path.join(BENCH_DIR, "expected_digests.json")) as f:
        return json.load(f)["digests"].get(f"{workload}/{size}/{seed}")


def run_driver(driver, args):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}",
             code=proc.returncode if proc.returncode > 0 else 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "reduced"), default="full")
    args = parser.parse_args()

    driver = build()
    raw = run_driver(driver, args)

    failed = raw["failed"]
    failures = list(raw["failures"])
    if not args.trace:
        want = expected_digest(args.workload, args.size, args.seed)
        if want is not None and want != raw["digest"]:
            failures.append(f"digest {raw['digest']} != expected {want}")
            failed = raw["attempted"]
    for failure in failures:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)

    declared = declared_metrics(args.trace)
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in raw["metrics"]}
    if {n: m["unit"] for n, m in metrics.items()} != declared:
        fail("driver metrics do not match BENCHMARK.json")

    stamp = dict(raw["stamp"], git_sha=git_sha(),
                 source_sha256=source_sha256(), workload=args.workload,
                 seed=args.seed, size=args.size, instances=raw["instances"],
                 rounds=raw["rounds"], digest=raw["digest"])
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
