"""EXP-SCALE — the columnar session store at coalition scale.

A coalition fleet holds *far* more live sessions than it has in-flight
requests: hundreds of servers, millions of authenticated mobile
objects, a Zipf-skewed hot set producing most of the traffic.  The
columnar session store (:mod:`repro.rbac.session_store`) is built for
exactly that population — per-shard struct-of-arrays monitor/tracker
columns instead of a Python object per session — and this benchmark
measures what that buys:

* **bit-identity first** — before anything is timed, the same skewed
  stream is decided through the batched service over sessions opened
  one by one (``authenticate`` + ``activate_role``) and over sessions
  bulk-opened by
  :meth:`~repro.rbac.engine.AccessControlEngine.open_sessions`:
  decisions, provenance, per-shard audit order and tracker timelines
  must match exactly, with zero vector-sweep fallbacks and a real mix
  of grants and denials.  (Whether the decisions are *right* is the
  job of the definitions-level oracle in ``tests/test_spec_oracle.py``.)
* **resident scale** — ``open_sessions`` bulk-loads the full
  population (1M+ sessions in the full run) under ``tracemalloc``, on
  the default engine (timelines recorded, as deployed); the marginal
  bytes/session (and the store's own column accounting) gate the
  ≤ 24 B/session budget: a row holds 16 B (its user, generation, cell
  and place in its open), and the block's first session and subject
  numbers, start time, role set and trackers sit in one template cell
  (the 100k smoke reads 20.1 B).
* **touched handles** — the drive's touched sessions get handles,
  each read through its trackers and role set under ``tracemalloc``;
  what they retain per session gates the ≤ 256 B budget.  Reads copy
  no cell, so this holds only the handles and their weak references
  in the store's handle registry.  The handles are made once
  untraced first, and the wall µs per ``session_at`` is reported
  (``drive.handle_us_per_touched_session``).
* **throughput at scale** — the diurnal Zipf stream is driven through
  the micro-batched :class:`~repro.service.DecisionService`.  After
  the drive, the store's bytes over its residents — the untouched rows
  still sharing their template cell, each written row with a cell of
  its own — gate a ≤ 40 B/session budget (the smoke reads 32.7 B).

Run:  python benchmarks/bench_scale.py [--smoke]
Emits benchmarks/artifacts/BENCH_scale.json.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import pathlib
import time
import tracemalloc

import numpy as np

import repro.rbac.engine as rbac_engine
import repro.rbac.model as rbac_model
from repro.service import DecisionService, ShardedEngine
from repro.traces.trace import AccessKey
from repro.workloads.scale import (
    ScaleSpec,
    ScaleWorkload,
    build_policy,
    build_workload,
)

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts" / "BENCH_scale.json"
)

#: Service knobs shared by every driven phase (the PR-6 batched shape).
SHARDS = 16
WORKERS = 4
MAX_BATCH = 256
MAX_WAIT_S = 0.002
QUEUE_DEPTH = 1 << 17
SUBMIT_CHUNK = 8192

#: Store-overhead budget per resident session after the bulk open.
BYTES_PER_SESSION_BUDGET = 24.0

#: The same budget after the drive, whose written rows own cells.
DRIVEN_BYTES_PER_SESSION_BUDGET = 40.0

#: What a touched session's handle may keep beside its row.
HANDLE_BYTES_BUDGET = 256.0


def _reset_counters() -> None:
    """Restart the process-global subject/session counters so
    independently built stacks assign identical ids and whole
    ``Decision`` objects compare equal."""
    rbac_model._subject_counter = itertools.count(1)
    rbac_engine._session_counter = itertools.count(1)


def _norm(decision):
    """Erase the only id that legitimately differs across stacks built
    in different session orders (the bulk loader opens shard-by-shard)."""
    return dataclasses.replace(decision, subject_id="")


def _service(engine: ShardedEngine) -> DecisionService:
    return DecisionService(
        engine,
        workers=WORKERS,
        queue_depth=QUEUE_DEPTH,
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
    )


def _shard_ids(engine: ShardedEngine, workload: ScaleWorkload) -> np.ndarray:
    """``shard_ids[i]`` = shard owning session ``i`` (route by name,
    exactly as ``authenticate``/``open_sessions`` do)."""
    cache: dict[str, int] = {}
    index = engine.shard_index
    return np.fromiter(
        (
            cache[n] if n in cache else cache.setdefault(n, index(n))
            for n in workload.user_names
        ),
        dtype=np.int64,
        count=len(workload.user_names),
    )


def _rows_in_workload_order(
    shard_ids: np.ndarray, rows_by_shard: dict[int, np.ndarray]
) -> np.ndarray:
    """Invert the bulk loader's per-shard grouping: ``row_of[i]`` is
    the store row of workload session ``i`` (the loader preserves
    arrival order within each shard)."""
    row_of = np.empty(len(shard_ids), dtype=np.int64)
    for shard, rows in rows_by_shard.items():
        row_of[shard_ids == shard] = rows
    return row_of


def _drive(
    service: DecisionService,
    sessions: list,
    workload: ScaleWorkload,
) -> tuple[list, float]:
    """Submit the whole stream in chunks; returns (decisions, wall)."""
    times = workload.times.tolist()
    targets = workload.session_index.tolist()
    accesses = workload.accesses
    futures = []
    start = time.perf_counter()
    for offset in range(0, len(times), SUBMIT_CHUNK):
        end = min(offset + SUBMIT_CHUNK, len(times))
        futures.extend(
            service.submit_many(
                [
                    (sessions[targets[k]], accesses[k], times[k])
                    for k in range(offset, end)
                ]
            )
        )
    if not service.drain(timeout=600.0):
        raise AssertionError("scale stream failed to drain in time")
    wall = time.perf_counter() - start
    return [f.result() for f in futures], wall


# -- bit-identity -----------------------------------------------------------


def _build_stack(spec: ScaleSpec, workload: ScaleWorkload, bulk: bool):
    """One full service stack over the verification workload; returns
    (engine, sessions-in-workload-order)."""
    _reset_counters()
    engine = ShardedEngine(build_policy(spec), shards=8)
    if bulk:
        shard_ids = _shard_ids(engine, workload)
        rows = engine.open_sessions(workload.user_names, 0.0, roles=("agent",))
        row_of = _rows_in_workload_order(shard_ids, rows)
        sessions = [
            engine.session_at(int(shard_ids[i]), int(row_of[i]))
            for i in range(spec.sessions)
        ]
    else:
        sessions = []
        for name in workload.user_names:
            session = engine.authenticate(name, 0.0)
            engine.activate_role(session, "agent", 0.0)
            sessions.append(session)
    # A third of the population starts past the counting bound: their
    # exec requests deny spatially, so the differential stream carries
    # real denials (and a populated observation arena) from request 0.
    hot = AccessKey.of("exec", "rsw", "s0")
    for k, session in enumerate(sessions):
        if k % 3 == 1:
            for _ in range(spec.count_bound + 1):
                engine.observe(session, hot)
    engine.prewarm(workload.alphabet)
    return engine, sessions


def _run_verification_stack(spec: ScaleSpec, workload: ScaleWorkload, bulk: bool):
    engine, sessions = _build_stack(spec, workload, bulk)
    with _service(engine) as service:
        decisions, _ = _drive(service, sessions, workload)
        stats = service.service_stats()
    audit = [[_norm(d) for d in shard.engine.audit] for shard in engine._shards]
    timelines = {}
    for k in range(0, spec.sessions, 17):
        for key, tracker in sessions[k].trackers.items():
            timelines[(k, key)] = (
                tracker.now,
                tracker.valid_timeline(),
                tracker.active_timeline(),
            )
    return decisions, audit, stats, timelines


def verify_bit_identity(spec: ScaleSpec) -> dict:
    """Bulk-opened and one-by-one-opened stacks must be
    indistinguishable on the skewed stream — decisions (full
    provenance), per-shard audit order, tracker timelines — with zero
    vector fallbacks.  Returns comparison counts for the report."""
    workload = build_workload(spec)
    single = _run_verification_stack(spec, workload, bulk=False)
    bulk = _run_verification_stack(spec, workload, bulk=True)

    want = [_norm(d) for d in single[0]]
    got = [_norm(d) for d in bulk[0]]
    if got != want:
        for a, b in zip(got, want):
            if a != b:
                raise AssertionError(
                    f"bulk-opened decision diverges:\n{a}\nvs\n{b}"
                )
        raise AssertionError("bulk-opened decision stream diverges")
    if bulk[1] != single[1]:
        raise AssertionError("per-shard audit order diverges after a bulk open")
    if bulk[3] != single[3]:
        raise AssertionError("tracker timelines diverge after a bulk open")

    stats = single[2]
    for side in (stats, bulk[2]):
        if side.vector_fallbacks != 0:
            raise AssertionError(
                f"verification stream fell back {side.vector_fallbacks}x"
            )
    if stats.vector_decisions == 0:
        raise AssertionError("verification stream never hit the vector sweep")
    granted = sum(d.granted for d in single[0])
    if granted == 0 or granted == len(single[0]):
        raise AssertionError(
            f"degenerate verification stream ({granted} grants "
            f"of {len(single[0])})"
        )
    return {
        "decisions_compared": len(single[0]),
        "granted": granted,
        "denied": len(single[0]) - granted,
        "timelines_compared": len(single[3]),
        "vector_decisions": stats.vector_decisions,
        "vector_fallbacks": stats.vector_fallbacks,
    }


# -- resident scale ---------------------------------------------------------


def build_population(spec: ScaleSpec, workload: ScaleWorkload):
    """Bulk-load the full session population under tracemalloc.
    Returns (engine, shard_ids, row_of, build report)."""
    _reset_counters()
    engine = ShardedEngine(build_policy(spec), shards=SHARDS)
    shard_ids = _shard_ids(engine, workload)
    counts = np.bincount(shard_ids, minlength=SHARDS)
    for shard in engine._shards:
        shard.engine._store.reserve(int(counts[shard.index]))
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    rows_by_shard = engine.open_sessions(
        workload.user_names, 0.0, roles=("agent",)
    )
    open_wall = time.perf_counter() - start
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The returned row-index arrays are loader *output*, not store
    # state — exclude them from the per-session overhead.
    rows_bytes = sum(rows.nbytes for rows in rows_by_shard.values())
    traced_marginal = (current - base - rows_bytes) / spec.sessions
    store_bytes = sum(
        shard.engine._store.nbytes() for shard in engine._shards
    )
    row_of = _rows_in_workload_order(shard_ids, rows_by_shard)
    report = {
        "sessions": spec.sessions,
        "resident": engine.resident_sessions(),
        "open_wall_s": open_wall,
        "open_rate": spec.sessions / open_wall,
        "tracemalloc_bytes_per_session": traced_marginal,
        "store_bytes_per_session": store_bytes / spec.sessions,
        "bytes_per_session": max(
            traced_marginal, store_bytes / spec.sessions
        ),
    }
    return engine, shard_ids, row_of, report


def touch_handles(
    engine: ShardedEngine,
    shard_ids: np.ndarray,
    row_of: np.ndarray,
    touched: np.ndarray,
) -> tuple[dict[int, object], float, float]:
    """Handles for the ``touched`` sessions, each read through every
    tracker's state and its role set.  They are made twice: untraced,
    timing each ``session_at``, and — once those are dropped — under
    tracemalloc.  Returns the handles, the bytes they retain per touched
    session and the wall µs per ``session_at``."""
    shards = shard_ids[touched].tolist()
    rows = row_of[touched].tolist()
    session_at = engine.session_at
    gc.collect()
    start = time.perf_counter()
    timed = [session_at(shard, row) for shard, row in zip(shards, rows)]
    handle_us = (time.perf_counter() - start) / len(timed) * 1e6
    del timed
    handles: dict[int, object] = dict.fromkeys(touched.tolist())
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    for i in handles:
        handle = engine.session_at(int(shard_ids[i]), int(row_of[i]))
        for tracker in handle.trackers.values():
            tracker.state()
        set(handle.active_roles)
        handles[i] = handle
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return handles, (current - base) / len(handles), handle_us


def drive_population(
    engine: ShardedEngine,
    shard_ids: np.ndarray,
    row_of: np.ndarray,
    workload: ScaleWorkload,
) -> dict:
    """Drive the Zipf/diurnal stream against the resident population
    through the batched service; only touched sessions get handles."""
    touched = np.unique(workload.session_index)
    handles, handle_bytes, handle_us = touch_handles(
        engine, shard_ids, row_of, touched
    )
    sessions = _HandleList(handles)
    engine.prewarm(workload.alphabet)
    with _service(engine) as service:
        decisions, wall = _drive(service, sessions, workload)
        stats = service.service_stats()
    if stats.errors:
        raise AssertionError(f"scale drive reported {stats.errors} errors")
    granted = sum(d.granted for d in decisions)
    store_bytes = sum(shard.engine._store.nbytes() for shard in engine._shards)
    return {
        "requests": len(decisions),
        "touched_sessions": int(len(touched)),
        "handle_bytes_per_touched_session": handle_bytes,
        "handle_us_per_touched_session": handle_us,
        "store_bytes_per_session": store_bytes / engine.resident_sessions(),
        "wall_s": wall,
        "throughput": len(decisions) / wall,
        "granted": granted,
        "denied": len(decisions) - granted,
        "mean_batch_size": stats.mean_batch_size,
        "vector_decisions": stats.vector_decisions,
        "vector_fallbacks": stats.vector_fallbacks,
        "resident_after": engine.resident_sessions(),
    }


class _HandleList:
    """Index-compatible view over the sparse handle dict (the drive
    loop subscripts ``sessions[target]``; only touched targets exist)."""

    __slots__ = ("_handles",)

    def __init__(self, handles: dict[int, object]):
        self._handles = handles

    def __getitem__(self, index: int):
        return self._handles[index]


# -- top level --------------------------------------------------------------


def measure(spec: ScaleSpec, verify_spec: ScaleSpec) -> dict:
    report: dict = {
        "spec": dataclasses.asdict(spec),
        "verify": verify_bit_identity(verify_spec),
    }
    # Expiry-crossing differential: the stream outlives the finite
    # validity duration (4 simulated days), so temporal denials — and
    # decisions near the expiry instant — are compared too.
    expiry_spec = dataclasses.replace(verify_spec, days=6.0, seed=verify_spec.seed + 1)
    report["verify_expiry"] = verify_bit_identity(expiry_spec)

    workload = build_workload(spec)
    engine, shard_ids, row_of, build = build_population(spec, workload)
    report["build"] = build
    report["drive"] = drive_population(engine, shard_ids, row_of, workload)
    return report


def print_report(report: dict) -> None:
    spec = report["spec"]
    verify = report["verify"]
    print(
        f"verification: {verify['decisions_compared']} decisions "
        f"bit-identical (one-by-one vs bulk-opened sessions), "
        f"{verify['granted']} grants / {verify['denied']} denials, "
        f"{verify['timelines_compared']} tracker timelines, "
        f"{verify['vector_fallbacks']} fallbacks"
    )
    expiry = report["verify_expiry"]
    print(
        f"expiry-crossing pass: {expiry['decisions_compared']} decisions, "
        f"{expiry['denied']} denials"
    )
    build = report["build"]
    print(
        f"\nresident scale: {build['resident']:,} sessions over "
        f"{spec['servers']} servers, opened at "
        f"{build['open_rate']:,.0f} sessions/s"
    )
    print(
        f"per-session store overhead: "
        f"{build['bytes_per_session']:.1f} B "
        f"(tracemalloc {build['tracemalloc_bytes_per_session']:.1f} B, "
        f"columns {build['store_bytes_per_session']:.1f} B; "
        f"budget {BYTES_PER_SESSION_BUDGET:.0f} B)"
    )
    drive = report["drive"]
    print(
        f"\ndriven stream: {drive['requests']:,} requests over "
        f"{drive['touched_sessions']:,} touched sessions -> "
        f"{drive['throughput']:,.0f} req/s "
        f"(mean batch {drive['mean_batch_size']:.1f}, "
        f"vector {drive['vector_decisions']} / "
        f"fallback {drive['vector_fallbacks']})"
    )
    print(
        f"per touched session's handle: "
        f"{drive['handle_bytes_per_touched_session']:.1f} B "
        f"(budget {HANDLE_BYTES_BUDGET:.0f} B), "
        f"{drive['handle_us_per_touched_session']:.2f} µs per session_at"
    )
    print(
        f"store after the drive: "
        f"{drive['store_bytes_per_session']:.1f} B per resident session "
        f"(budget {DRIVEN_BYTES_PER_SESSION_BUDGET:.0f} B)"
    )


def check_acceptance(report: dict, smoke: bool = False) -> None:
    """The ISSUE gates.  Smoke (CI) keeps the memory budget hard but
    relaxes throughput floors for noisy shared runners."""
    for phase in ("verify", "verify_expiry"):
        verify = report[phase]
        assert verify["vector_fallbacks"] == 0, verify
        assert verify["granted"] > 0 and verify["denied"] > 0, verify
    build = report["build"]
    assert build["resident"] == build["sessions"], build
    assert build["bytes_per_session"] <= BYTES_PER_SESSION_BUDGET, (
        f"store overhead {build['bytes_per_session']:.1f} B/session "
        f"exceeds the {BYTES_PER_SESSION_BUDGET:.0f} B budget"
    )
    drive = report["drive"]
    assert drive["handle_bytes_per_touched_session"] <= HANDLE_BYTES_BUDGET, (
        f"{drive['handle_bytes_per_touched_session']:.1f} B per touched "
        f"session's handle exceeds the {HANDLE_BYTES_BUDGET:.0f} B budget"
    )
    assert drive["store_bytes_per_session"] <= DRIVEN_BYTES_PER_SESSION_BUDGET, (
        f"store overhead after the drive "
        f"{drive['store_bytes_per_session']:.1f} B/session exceeds the "
        f"{DRIVEN_BYTES_PER_SESSION_BUDGET:.0f} B budget"
    )
    assert drive["vector_fallbacks"] == 0, drive
    assert drive["vector_decisions"] > 0, drive
    throughput_floor = 5_000.0 if smoke else 7_500.0
    assert drive["throughput"] >= throughput_floor, (
        f"scale throughput {drive['throughput']:.0f} req/s below the "
        f"{throughput_floor:.0f} req/s floor"
    )
    print("acceptance checks passed.")


def smoke_specs() -> tuple[ScaleSpec, ScaleSpec]:
    """(population, verification) specs for the CI smoke."""
    spec = ScaleSpec(
        sessions=100_000, users=2_000, servers=50, requests=30_000
    )
    verify_spec = ScaleSpec(
        sessions=600, users=30, servers=8, requests=3_000, count_bound=3
    )
    return spec, verify_spec


def full_specs() -> tuple[ScaleSpec, ScaleSpec]:
    """(population, verification) specs for the full run."""
    spec = ScaleSpec()
    verify_spec = ScaleSpec(
        sessions=1_500, users=60, servers=12, requests=6_000, count_bound=3
    )
    return spec, verify_spec


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: 100k sessions, conservative throughput floors",
    )
    args = parser.parse_args()
    spec, verify_spec = smoke_specs() if args.smoke else full_specs()
    report = measure(spec, verify_spec)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=args.smoke)


if __name__ == "__main__":
    main()
