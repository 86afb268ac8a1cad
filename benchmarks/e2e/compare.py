"""Compare two sets of end-to-end runs: a parent (A) and a change (B).

Usage (from the repository root)::

    python benchmarks/e2e/compare.py A/ B/

``A/`` and ``B/`` hold untraced ``<workload>.result.json`` files, one
per run, in any layout below them (for example ``A/run01/``, one
``--out`` directory per run).  Make at least ten runs a side,
alternating which side runs first; the i-th run of A (in path order)
is paired with the i-th run of B.  A run with an invalid open-loop
phase (the generator fell behind by itself) is left out, and the
number left out is printed per side.

For every workload and metric it prints each side's median and
quartiles, B's share of pairs won, and a verdict:

* ``improved`` — B wins at least 90 % of the pairs (ties count for
  neither) and the medians differ, in B's favour, by more than the
  distance between A's quartiles; or every B run beats every A run;
* ``regressed`` — B's median is worse than A's by more than the
  metric's bound;
* ``unresolved`` — A's own quartile spread exceeds the bound;
* ``no worse`` — otherwise.

Bounds and directions of the bounded metrics come from the
repository's ``BENCHMARK.json``.  The metrics it does not bound
(wall-clock throughput and latency percentiles, listed under
``reported`` in each result file with their direction) take A's own
quartile spread as their bound, so they are never ``unresolved``.
``failed_share`` is 0 on a correct run, and any rise of its largest
value is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(root: Path) -> tuple[dict[str, list[dict[str, float]]], dict[str, str], int]:
    """``{workload: [{metric: value}, ...]}`` in path order, the
    direction of each reported metric, and the number of runs left out
    for an invalid phase."""
    runs: dict[str, list[dict[str, float]]] = {}
    reported: dict[str, str] = {}
    invalid = 0
    for path in sorted(root.rglob("*.result.json")):
        report = json.loads(path.read_text())
        if report["trace"]:
            continue
        if not all(report["phases_valid"].values()):
            invalid += 1
            continue
        values = {k: v["value"] for k, v in report["metrics"].items()}
        for k, v in report["reported"].items():
            values[k] = v["value"]
            reported[k] = v["better"]
        runs.setdefault(report["workload"], []).append(values)
    return runs, reported, invalid


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> dict:
    """The comparison of one metric on one workload (see module doc);
    ``bound`` ``None`` takes A's quartile spread as the bound."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    out = {
        "a": qa,
        "b": qb,
        "change": (med_b - med_a) / abs(med_a) if med_a else float(med_b != med_a),
        "wins": wins / len(pairs) if pairs else float("nan"),
    }
    spread = qa[2] - qa[0]
    allowed = spread if bound is None else bound * abs(med_a)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if all_better or (
        pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > spread
    ):
        out["verdict"] = "improved"
    elif sign * (med_a - med_b) > allowed:
        out["verdict"] = "regressed"
    elif spread > allowed:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "no worse"
    return out


def failures_verdict(a: list[float], b: list[float]) -> dict:
    """``failed_share``: any rise of the largest value regresses."""
    return {
        "a": quartiles(a),
        "b": quartiles(b),
        "change": max(b) - max(a),
        "wins": float("nan"),
        "verdict": "regressed" if max(b) > max(a) else "no worse",
    }


def compare(a_runs: dict, b_runs: dict, reported: dict, benchmark: dict) -> list[dict]:
    bounded = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        a_list, b_list = a_runs[workload], b_runs[workload]
        for metric in [*bounded, *reported]:
            a = [run[metric] for run in a_list if metric in run]
            b = [run[metric] for run in b_list if metric in run]
            if not a or not b:
                continue
            spec = bounded.get(metric)
            if metric == "failed_share":
                row = failures_verdict(a, b)
            elif spec is not None:
                row = verdict(a, b, spec["better"], spec["bound"])
            else:
                row = verdict(a, b, reported[metric], None)
            row.update(workload=workload, metric=metric, runs=(len(a), len(b)))
            rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent runs")
    parser.add_argument("b", type=Path, help="change runs")
    args = parser.parse_args(argv)
    a_runs, reported, a_invalid = load_runs(args.a)
    b_runs, _, b_invalid = load_runs(args.b)
    print(f"runs left out for an invalid phase: A {a_invalid}, B {b_invalid}")
    rows = compare(a_runs, b_runs, reported, json.loads(BENCHMARK.read_text()))
    if not rows:
        print("no workload has valid untraced runs on both sides", file=sys.stderr)
        return 1

    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(
        f"{'workload':13s} {'metric':24s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'change':>8s} {'wins':>5s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:13s} {row['metric']:24s} {cell(row['a']):>32s} "
            f"{cell(row['b']):>32s} {row['change']:+8.1%} {row['wins']:5.0%}  "
            f"{row['verdict']}"
        )
    short = sorted({min(r["runs"]) for r in rows if min(r["runs"]) < 10})
    if short:
        print(f"warning: fewer than 10 runs a side for some workloads ({short})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
