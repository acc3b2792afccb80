#!/usr/bin/env python3
"""Validate BENCH_*.json files against the one envelope every bench_*
gate program writes (docs/formats.md "Benchmark JSON").

    python3 bench/check_bench.py [--replications N] BENCH_x.json ...

Every file: the envelope keys, hardware_threads > 0, well-formed rows and
gates, and `pass` on every gate. Per program:

* lint: more than 150 files scanned, 9 rules;
* scale: phase rows for every trajectory point, completed tasks and
  throughput > 0, one replication row per run; in quick mode the single
  (10000, 30000) point. --replications N also requires N replications.

Exits 1 on the first failed check.
"""
import argparse
import json
import sys

ENVELOPE = {"bench", "quick", "hardware_threads", "rows", "gates"}
ROW = {"layer", "name", "value", "unit", "gated", "params"}
OPS = {"<": lambda v, b: v < b, ">=": lambda v, b: v >= b}


def rows(bench, layer, name):
    return [r for r in bench["rows"]
            if r["layer"] == layer and r["name"] == name]


def check_envelope(bench):
    assert set(bench) == ENVELOPE, sorted(bench)
    assert isinstance(bench["bench"], str) and bench["bench"], bench["bench"]
    assert isinstance(bench["quick"], bool), bench["quick"]
    assert bench["hardware_threads"] > 0, bench["hardware_threads"]
    assert bench["rows"], "no rows"
    # A gate list can be empty: bench_scenario's floors only exist in
    # optimized builds.
    assert isinstance(bench["gates"], list), bench["gates"]
    for row in bench["rows"]:
        assert set(row) == ROW, row
        assert isinstance(row["params"], dict), row
        assert isinstance(row["gated"], bool), row
    gated_values = [r["value"] for r in bench["rows"] if r["gated"]]
    numeric = [g for g in bench["gates"] if "value" in g]
    assert sorted(gated_values) == sorted(g["value"] for g in numeric), \
        "gated rows and numeric gates disagree"
    for gate in bench["gates"]:
        if "value" in gate:
            assert set(gate) == {"name", "value", "op", "budget", "pass"}, gate
            assert gate["pass"] == OPS[gate["op"]](gate["value"],
                                                   gate["budget"]), gate
        else:
            assert set(gate) == {"name", "pass"}, gate
        assert gate["pass"] is True, f"gate failed: {gate}"


def check_lint(bench):
    (files,) = rows(bench, "lint.scan", "files")
    (rules,) = rows(bench, "lint.scan", "rules")
    assert files["value"] > 150, files
    assert rules["value"] == 9, rules


def check_scale(bench, replications):
    def point(row):
        return (row["params"]["nodes"], row["params"]["tasks"])

    trajectory = rows(bench, "scale.trajectory", "tasks_per_s")
    points = [point(r) for r in trajectory]
    assert points, "no trajectory rows"
    if bench["quick"]:
        assert points == [(10000, 30000)], points
    assert all(r["value"] > 0 for r in trajectory), trajectory
    completed = rows(bench, "scale.trajectory", "completed_tasks")
    assert all(r["value"] > 0 for r in completed), completed
    phases = {point(r) for r in bench["rows"]
              if r["layer"].startswith("scale.phase.")}
    assert phases == set(points), (phases, points)
    summary = rows(bench, "scale.replications", "aggregate_tasks_per_s")
    if replications is not None:
        assert len(summary) == 1, summary
        assert summary[0]["params"]["replications"] == replications, summary
    for row in summary:
        runs = rows(bench, "scale.replication", "completed_tasks")
        assert len(runs) == row["params"]["replications"], runs
        assert all(r["value"] > 0 for r in runs), runs
        assert row["value"] > 0, row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int,
                        help="a scale file must carry this many replications")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    for path in args.files:
        with open(path) as f:
            bench = json.load(f)
        try:
            check_envelope(bench)
            if bench["bench"] == "lint":
                check_lint(bench)
            elif bench["bench"] == "scale":
                check_scale(bench, args.replications)
        except (AssertionError, KeyError, ValueError) as e:
            print(f"{path}: FAILED: {e!r}", file=sys.stderr)
            return 1
        gates = ", ".join(g["name"] for g in bench["gates"])
        print(f"ok: {path} ({bench['bench']}, {len(bench['rows'])} rows; "
              f"gates {gates})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
