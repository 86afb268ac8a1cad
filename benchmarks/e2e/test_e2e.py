"""Self-tests of the end-to-end benchmark (tiny sizes, well under 60 s).

Run from the repository root::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json
import math
import time
import types
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import compare
import reference
import run
from driver import Client, Pauses
from workloads import CHECK, EXPLICIT, Shape, generate, make_plan

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)

TINY_SPEC = {
    "shape": {
        "sessions": 24, "users": 6, "servers": 3, "zipf_s": 0.8,
        "mix": [0.5, 0.3, 0.2], "preseed_every": 3, "expiry_cohorts": 4,
    },
    "warmup_requests": 128,
    "light_rps": 400,
    "heavy_rps": 800,
    "capacity_rps_ref": 2000,
    "setup_repeats": 2,
}


def tiny_config() -> dict:
    config = copy.deepcopy(run.CONFIG)
    config.update(settle_s=0.1, submit_chunk=256)
    config["service"].update(shards=4, queue_depth=4096)
    return config


def tiny_run(trace: bool = False, seed: int = 3) -> dict:
    return run.run_workload(
        "tiny", seed, 1.0, trace, spec=TINY_SPEC, config=tiny_config()
    )


def test_generators_are_deterministic_per_seed():
    shape = Shape.from_dict(TINY_SPEC["shape"])
    plan = make_plan(TINY_SPEC, run.CONFIG["phase_shares"], 1.0, 0.1)
    a, b, c = generate(shape, plan, 5), generate(shape, plan, 5), generate(shape, plan, 6)
    for field in ("session", "access", "t", "kind", "history", "preseed", "checked"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.histories == b.histories
    assert all(np.array_equal(a.due[p], b.due[p]) for p in a.due)
    assert not np.array_equal(a.access, c.access)
    assert np.all(np.diff(a.t) > 0)  # request ids recoverable from t
    assert set(np.unique(a.kind)) <= {0, 1, 2}
    assert np.all((a.history >= 0) == (a.kind == EXPLICIT))


def test_output_has_every_benchmark_metric_with_its_unit():
    report = tiny_run()
    assert report["correct"] and report["failed"] == 0
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())

    traced = tiny_run(trace=True)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    layer_map = run.CONFIG["layer_map"]
    mapped = {name for group in layer_map.values() for name in group["metrics"]}
    assert mapped == set(traced["metrics"])


class _StallingService:
    """Answers every request at once, except that the first submission
    blocks for 50 ms — the stall a collection pause or a held lock puts
    on the sender."""

    workers = 1

    def __init__(self):
        self.stalled = False

    def _answer(self, n: int) -> list:
        if not self.stalled:
            self.stalled = True
            time.sleep(0.05)
        futures = []
        for _ in range(n):
            future = Future()
            future.set_result(None)
            futures.append(future)
        return futures

    def submit_many(self, requests, observe_granted=False, block=True):
        return self._answer(len(list(requests)))

    def submit(self, *args, **kwargs):
        return self._answer(1)[0]

    def drain(self, timeout=None):
        return True


def test_stall_counts_from_due_time_not_send_time():
    spec = dict(TINY_SPEC, light_rps=2000)
    spec["shape"] = dict(TINY_SPEC["shape"], mix=[1.0, 0.0, 0.0])
    shape = Shape.from_dict(spec["shape"])
    plan = make_plan(spec, {"light": 0.2, "heavy": 0.1, "capacity": 0.1}, 1.0, 0.01)
    stream = generate(shape, plan, 1)
    assert set(stream.kind.tolist()) == {CHECK}
    stack = types.SimpleNamespace(
        service=_StallingService(), handles=[object()] * shape.sessions
    )
    client = Client(stack, stream)
    lo, hi = plan.bounds("light")
    result = client.open_loop(lo, hi, stream.due["light"], slo_ms=25.0)
    # Requests due during the stall were sent late: measured from their
    # due time they waited up to 50 ms, although each was answered the
    # instant it was sent.
    assert result["p99_ms"] >= 40.0
    assert result["late_p99_ms"] >= 40.0
    # The stall was the generator's own, not a collector pause.
    assert result["own_late_p99_ms"] >= 40.0
    assert result["p50_ms"] < 10.0
    assert result["slo_share"] < 1.0


def test_forced_mismatch_raises_failed_share(monkeypatch):
    replay = reference.replay

    def tampered(stream, upto):
        ids, prints = replay(stream, upto)
        prints[0] = (not prints[0][0],) + prints[0][1:]
        return ids, prints

    monkeypatch.setattr(reference, "replay", tampered)
    report = tiny_run()
    assert report["check"]["mismatches"] == 1
    assert report["failed"] == 1
    assert report["reported"]["failed_share"]["value"] == pytest.approx(
        1 / report["attempted"]
    )
    assert not report["correct"]


def test_collector_backlog_is_not_the_generators_lateness():
    pauses = Pauses()
    # A 2 ms young collection and a 100 ms full one.
    pauses.starts, pauses.ends = [1.0, 2.0], [1.002, 2.1]
    due = np.arange(0.0, 3.0, 0.01)
    idle = np.array([0.5, 1.5, 2.05, 2.135, 2.5])
    backlog = pauses.backlog(due, idle, longer_than=0.005)
    # Due from the full collection's start to the first idle moment
    # after its end: 2.00, 2.01, ..., 2.13.
    assert np.flatnonzero(backlog).tolist() == list(range(200, 214))


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        ([100.0 + i for i in range(10)], [150.0 + i for i in range(10)], "higher", 0.25, "improved"),
        ([100.0 + i for i in range(10)], [60.0 + i for i in range(10)], "higher", 0.25, "regressed"),
        ([100.0 + (i % 2) for i in range(10)], [99.0 + (i % 3) for i in range(10)], "higher", 0.25, "no worse"),
        ([50.0, 150.0] * 5, [100.0] * 10, "higher", 0.25, "unresolved"),
        # Unbounded: worse by more than A's quartile spread.
        ([10.0 + (i % 3) for i in range(10)], [14.0 + (i % 3) for i in range(10)], "lower", None, "regressed"),
        ([10.0 + (i % 3) for i in range(10)], [11.0 + (i % 3) for i in range(10)], "lower", None, "no worse"),
    ],
)
def test_compare_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound)["verdict"] == expected


def test_compare_any_failure_rise_regresses_and_invalid_runs_are_left_out(tmp_path):
    def write(side: str, run: int, failed_share: float, valid: bool = True) -> None:
        out = tmp_path / side / f"run{run:02d}"
        out.mkdir(parents=True)
        metric = {"value": 100.0, "unit": "MB"}
        report = {
            "workload": "w",
            "trace": False,
            "metrics": {"program_rss_mb": metric},
            "reported": {
                "failed_share": {"value": failed_share, "unit": "fraction", "better": "lower"}
            },
            "phases_valid": {"light": True, "heavy": valid},
        }
        (out / "w.result.json").write_text(json.dumps(report))

    for run in range(10):
        write("A", run, 0.0)
        write("B", run, 1e-5 if run == 3 else 0.0)
    write("B", 10, 0.5, valid=False)
    a_runs, reported, a_invalid = compare.load_runs(tmp_path / "A")
    b_runs, _, b_invalid = compare.load_runs(tmp_path / "B")
    assert (a_invalid, b_invalid) == (0, 1)
    rows = {r["metric"]: r for r in compare.compare(a_runs, b_runs, reported, BENCHMARK)}
    assert rows["failed_share"]["verdict"] == "regressed"
    assert rows["program_rss_mb"]["verdict"] == "no worse"
    assert rows["program_rss_mb"]["runs"] == (10, 10)
