"""End-to-end benchmark of the decision service, driven open-loop.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--trace [0|1]] [--out DIR]

With ``--workload`` one workload runs in this process; without it,
every workload runs in its own fresh subprocess, one after another.
The phases are sized for ``BENCHMARK.json``'s ``run_seconds``;
``--seconds`` is accepted only with that value.

A run generates its stream from the seed, sets the program up, then
drives the phases in order — warm-up (closed loop) and its open-loop
``settle`` tail, ``light`` and ``heavy`` (open loop at the workload's
fixed rates) and ``capacity`` (closed loop) — draining the service and
collecting the heap between phases.  Untraced, it then sets the program
up again, to the workload's ``setup_repeats`` in all, and reports the
median set-up time, scaled by a calibration loop timed around each
set-up to a host of fixed speed.  Every decision of
the checked sessions is compared with a single-threaded reference
engine, and the reference outcomes' digest with ``expected.json`` for
the default seed.

The last line on standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
untraced, the per-layer metrics with ``--trace``.  ``DIR`` (default
``benchmarks/e2e/out``) receives ``<workload>.result.json`` and, when
traced, ``<workload>.layers.json`` and ``<workload>.spans.json``.  The
exit code is non-zero when a decision disagrees with the reference or
the digest does not match.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import repro.obs as obs  # noqa: E402
from repro.srac.reachability import clear_caches  # noqa: E402

import reference  # noqa: E402
from driver import LATE_LIMIT_MS, Client, build_stack, rss_mb  # noqa: E402
from layers import LAYERS, Segments, Tracer  # noqa: E402
from workloads import Shape, generate, make_plan  # noqa: E402

CONFIG = json.loads((HERE / "config.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
#: Run length: the one ``BENCHMARK.json`` fixes for every run.
RUN_SECONDS = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())[
    "run_seconds"
]

#: The end-to-end metrics ``BENCHMARK.json`` bounds, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "program_rss_mb": "MB",
}

#: ``setup_s`` is set-up time scaled to a host on which ``calibration``
#: takes this long (a calm two-vCPU VM).  The host's speed drifts by up
#: to 2x over minutes, and the loop, timed around each set-up, follows
#: most of that drift.
CALIBRATION_REF_S = 0.06

#: Measured and reported on every run, but not bounded: (unit, which
#: direction is better).  On a shared two-vCPU host the spread of these
#: timings across runs is too wide for any admissible bound (README.md,
#: "Why throughput and latency are not bounded").
REPORTED = {
    "capacity_rps": ("req/s", "higher"),
    "light.p50_ms": ("ms", "lower"),
    "light.p99_ms": ("ms", "lower"),
    "heavy.p50_ms": ("ms", "lower"),
    "heavy.p99_ms": ("ms", "lower"),
    "heavy.p999_ms": ("ms", "lower"),
    "heavy.slo_share": ("fraction", "higher"),
    "failed_share": ("fraction", "lower"),
}


def calibration() -> float:
    """Seconds a fixed pure-Python loop of dict work, like much of
    set-up, takes now.  It allocates nothing that outlives it, so it
    leaves the resident set alone."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(400_000):
        table[i & 4095] = i
        total += table.get(i >> 3, 0)
    return time.perf_counter() - started


def timed_setup(stream, service_cfg: dict):
    """Set the program up once; returns the stack, the set-up wall time
    and the calibration time around it (mean of before and after)."""
    before = calibration()
    started = time.perf_counter()
    stack = build_stack(stream, service_cfg)
    wall = time.perf_counter() - started
    return stack, wall, (before + calibration()) / 2


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: dict | None = None,
    config: dict = CONFIG,
) -> dict:
    """One workload in this process; returns the full report.

    ``spec`` and ``config`` override the configured workload and
    settings (the self-tests pass tiny ones)."""
    pinned = spec is None
    spec = config["workloads"][name] if spec is None else spec
    plan = make_plan(spec, config["phase_shares"], seconds, config["settle_s"])
    stream = generate(Shape.from_dict(spec["shape"]), plan, seed)
    service_cfg = config["service"]
    slo_ms = config["slo_ms"]
    chunk = config["submit_chunk"]

    gc.collect()
    rss_base = rss_mb()
    tracer = Tracer(stream.t) if trace else None
    if tracer is not None:
        tracer.install()
    stack, wall, calibrated = timed_setup(stream, service_cfg)
    setup_runs, calibrations = [wall], [calibrated]
    client = Client(stack, stream)
    rss = [rss_mb()]
    phases: dict[str, dict] = {}

    lo, hi = plan.bounds("warmup")
    phases["warmup"] = client.closed_loop(lo, hi, chunk)
    lo, hi = plan.bounds("settle")
    phases["settle"] = client.open_loop(lo, hi, stream.due["settle"], slo_ms)
    segments = None
    setup_totals: dict = {}
    if tracer is not None:
        setup_totals = tracer.totals()
        tracer.uninstall()
        tracer.reset()
        obs.reset()
        segments = Segments(stack, client, tracer)
    for phase in ("light", "heavy"):
        lo, hi = plan.bounds(phase)
        # Every phase starts from a collected heap, so the full
        # collections it sees depend on what it allocates itself, not
        # on where the previous phase left the collector's counters.
        gc.collect()
        if segments is not None:
            segments.begin()
        phases[phase] = client.open_loop(lo, hi, stream.due[phase], slo_ms)
        if segments is not None:
            segments.end()
        rss.append(rss_mb())
    lo, hi = plan.bounds("capacity")
    gc.collect()
    if segments is None:
        phases["capacity"] = client.closed_loop(lo, hi, chunk)
    else:
        phases["capacity"], overhead = _capacity_ab(client, segments, lo, hi, chunk)
        late = max(phases[p]["late_p99_ms"] for p in ("light", "heavy"))
        layer_metrics = segments.metrics(setup_totals, late, overhead)
    rss.append(rss_mb())
    stack.close()

    check = reference.check(stream, client.outcome, plan.total)
    expected = EXPECTED.get(name) if pinned else None
    if expected is not None and expected["seed"] == seed:
        check["digest_ok"] = expected["digest"] == check["digest"]
    failed = client.failed(0, plan.total) + check["mismatches"]
    reported = {
        "capacity_rps": phases["capacity"]["rps"],
        "light.p50_ms": phases["light"]["p50_ms"],
        "light.p99_ms": phases["light"]["p99_ms"],
        "heavy.p50_ms": phases["heavy"]["p50_ms"],
        "heavy.p99_ms": phases["heavy"]["p99_ms"],
        "heavy.p999_ms": phases["heavy"]["p999_ms"],
        "heavy.slo_share": phases["heavy"]["slo_share"],
        "failed_share": failed / plan.total,
    }

    if tracer is None:
        del client, stack
        for _ in range(spec["setup_repeats"] - 1):
            gc.collect()
            clear_caches()
            extra, wall, calibrated = timed_setup(stream, service_cfg)
            setup_runs.append(wall)
            calibrations.append(calibrated)
            extra.close()
            del extra
        metrics = {
            "setup_s": statistics.median(
                wall * CALIBRATION_REF_S / c
                for wall, c in zip(setup_runs, calibrations)
            ),
            "program_rss_mb": max(rss) - rss_base,
        }
        units = E2E_UNITS
    else:
        metrics = layer_metrics
        units = {name: unit for name, (unit, _better) in LAYERS.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "correct": check["mismatches"] == 0 and check.get("digest_ok", True),
        "attempted": plan.total,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "reported": {
            k: {"value": reported[k], "unit": unit, "better": better}
            for k, (unit, better) in REPORTED.items()
        },
        "setup_runs_s": setup_runs,
        "setup_calibrations_s": calibrations,
        "phases": phases,
        "phases_valid": {
            p: phases[p]["own_late_p99_ms"] <= LATE_LIMIT_MS
            for p in ("light", "heavy")
        },
        "check": check,
        "tracer": tracer,
    }


def _capacity_ab(client: Client, segments: Segments, lo: int, hi: int, chunk: int):
    """The traced run's capacity phase: chunks alternate untraced and
    traced (each submitted and drained on its own), so the tracing
    overhead is measured on interleaved halves of one slice."""
    walls = {False: 0.0, True: 0.0}
    counts = {False: 0, True: 0}
    failed = 0
    for index, c in enumerate(range(lo, hi, chunk)):
        traced = index % 2 == 1
        if traced:
            segments.begin()
        result = client.closed_loop(c, min(c + chunk, hi), chunk)
        if traced:
            segments.end()
        walls[traced] += result["wall_s"]
        counts[traced] += result["requests"]
        failed += result["failed"]
    rps = {k: counts[k] / walls[k] if walls[k] else 0.0 for k in walls}
    overhead = 1.0 - rps[True] / rps[False] if rps[False] and rps[True] else 0.0
    summary = {
        "requests": hi - lo,
        "failed": failed,
        "wall_s": walls[False] + walls[True],
        "rps": (hi - lo) / (walls[False] + walls[True]),
        "untraced_rps": rps[False],
        "traced_rps": rps[True],
    }
    return summary, overhead


def write_outputs(report: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report["workload"]
    tracer = report["tracer"]
    body = {k: v for k, v in report.items() if k != "tracer"}
    (out_dir / f"{name}.result.json").write_text(json.dumps(body, indent=2))
    if tracer is not None:
        (out_dir / f"{name}.layers.json").write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": report["seed"],
                    "metrics": report["metrics"],
                    "layer_map": CONFIG["layer_map"],
                    "totals": tracer.totals(),
                    "phases": report["phases"],
                },
                indent=2,
            )
        )
        tracer.write_spans(out_dir / f"{name}.spans.json")


def result_line(report: dict) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def print_report(report: dict) -> None:
    name = report["workload"]
    for group in ("metrics", "reported"):
        for metric, entry in report[group].items():
            print(f"{name:13s} {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    check = report["check"]
    pinned = {
        True: "pinned: ok",
        False: "pinned: MISMATCH",
        None: f"not pinned for seed {report['seed']}",
    }
    print(
        f"{name:13s} checked {check['checked_requests']} decisions over "
        f"{check['checked_sessions']} sessions: {check['mismatches']} "
        f"mismatches, digest {check['digest'][:16]} "
        f"({pinned[check.get('digest_ok')]})"
    )
    print(f"{name:13s} open-loop phases valid: {report['phases_valid']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Open-loop end-to-end benchmark of the decision service."
    )
    parser.add_argument("--workload", choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["seed"])
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="must equal BENCHMARK.json run_seconds, the one run length "
        "the phases are sized for",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS} (BENCHMARK.json run_seconds)")
    if args.workload is not None:
        report = run_workload(args.workload, args.seed, RUN_SECONDS, bool(args.trace))
        write_outputs(report, args.out)
        print_report(report)
        print(json.dumps(result_line(report)))
        return 0 if report["correct"] else 1
    lines = {}
    status = 0
    for name in CONFIG["workloads"]:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(args.trace), "--out", str(args.out),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not child.stdout.strip():
            status = child.returncode or 1
            continue
        lines[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
