#!/usr/bin/env python3
"""Cross-check the benchmark's simulated output against the dreamsim CLI.

For every workload, size and seed, the driver prints each report row it
simulates (--rows) together with the flags that reproduce it; this script
runs the dreamsim CLI with those flags, requires byte-identical CSV rows,
and compares the digest over them with expected_digests.json (--write
records it instead).

    cmake -B build -S . && cmake --build build -j4 --target dreamsim
    python3 perfbench/crosscheck_cli.py --cli build/tools/dreamsim
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import run

WORKLOADS = ("table2_saturated", "wide_fleet", "paper_sweep")
SEEDS = (42, 2012)  # SimulationConfig's default seed and the held-out seed
SWEEP_SCALE = {"full": "1.0", "reduced": "0.02"}


def fnv1a64(text):
    value = 0xcbf29ce484222325
    for byte in text.encode():
        value = ((value ^ byte) * 0x100000001b3) % (1 << 64)
    return f"{value:016x}"


def cli_rows(cli, flags, tmp):
    csv = os.path.join(tmp, "rows.csv")
    subprocess.run([cli, *flags, "--csv", csv], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(csv) as f:
        return f.read().splitlines()[1:]


def crosscheck(driver, cli, workload, size, seed, tmp):
    out = subprocess.run([driver, "--workload", workload, "--seed", str(seed),
                          "--size", size, "--rows"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    lines = [line.split("\t") for line in out.strip().splitlines()]
    digest = lines.pop()[1]
    ours = [line[4] for line in lines]
    theirs = []
    if workload == "paper_sweep":
        for nodes in dict.fromkeys(line[1] for line in lines):
            theirs += cli_rows(cli, ["--sweep", "--scale", SWEEP_SCALE[size],
                                     "--nodes", nodes, "--seed", str(seed),
                                     "--threads", "4"], tmp)
    else:
        for run_seed, nodes, tasks, mode, _ in lines:
            theirs += cli_rows(cli, ["--nodes", nodes, "--tasks", tasks,
                                     "--seed", run_seed, "--mode", mode], tmp)
    if ours != theirs:
        raise SystemExit(f"{workload}/{size}/{seed}: rows differ from the CLI")
    if fnv1a64("".join(row + "\n" for row in theirs)) != digest:
        raise SystemExit(f"{workload}/{size}/{seed}: digest mismatch")
    return digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="dreamsim CLI binary")
    parser.add_argument("--sizes", nargs="+", default=["full", "reduced"])
    parser.add_argument("--write", action="store_true",
                        help="record the digests in expected_digests.json")
    args = parser.parse_args()

    driver = run.build()
    path = os.path.join(run.BENCH_DIR, "expected_digests.json")
    with open(path) as f:
        expected = json.load(f)
    mismatches = 0
    with tempfile.TemporaryDirectory(dir=os.path.dirname(driver)) as tmp:
        for size in args.sizes:
            for workload in WORKLOADS:
                for seed in SEEDS:
                    key = f"{workload}/{size}/{seed}"
                    digest = crosscheck(driver, args.cli, workload, size,
                                        seed, tmp)
                    want = expected["digests"].get(key)
                    status = "matches the CLI"
                    if args.write:
                        expected["digests"][key] = digest
                    elif want != digest:
                        status += f", but expected {want}"
                        mismatches += 1
                    print(f"{key}: {digest} {status}")
    if args.write:
        expected["digests"] = dict(sorted(expected["digests"].items()))
        with open(path, "w") as f:
            json.dump(expected, f, indent=2)
            f.write("\n")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
