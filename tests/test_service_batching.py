"""Differential tests for the micro-batched decision service.

The batched drain loop (``max_batch > 1``) must be observationally
identical to the scalar per-request service (``max_batch=1``) and to
deciding directly on a :class:`~repro.service.ShardedEngine` — same
decisions *bit-identically* (fields, provenance, reasons), same
per-shard audit order, same invariants — while actually routing
vector-eligible traffic through
:func:`~repro.rbac.vector_engine.sweep_interleaved`.

The workload mixes the shapes that matter: grants, spatial denials
(sessions pre-seeded past the count bound), no-candidate accesses,
several sessions interleaved per shard, and (in the fallback tests)
explicit histories / ``observe_granted`` feedback that must leave the
vector path in exactly their arrival slot.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import CancelledError

import pytest

import repro.rbac.engine as rbac_engine
import repro.rbac.model as rbac_model
from repro.errors import ServiceError, TemporalError
from repro.rbac.audit import Decision
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ShardedEngine
from repro.srac.compiled import clear_table_cache, table_cache_counters
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

SERVERS = [f"s{i}" for i in range(3)]
EXEC = [AccessKey("exec", "rsw", s) for s in SERVERS]
#: No permission matches this access — the "no-candidate" decision shape.
UNMATCHED = AccessKey("write", "ledger", "s0")

SESSIONS_N = 8
PER_SESSION = 30


def make_policy(count_bound: int = 5) -> Policy:
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint(
                f"count(0, {count_bound}, [res = rsw])"
            ),
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    return policy


def build_engine(shards: int = 4):
    """Sharded engine + sessions with deterministic routing and mixed
    starting histories: odd sessions are pre-seeded past the count
    bound, so their vector decisions are spatial denials.

    Subject/session id counters are process-global; restarting them
    here makes independently built engines assign identical ids, so
    whole :class:`Decision` objects compare bit-identically across the
    scalar run, the batched run and the direct reference.
    """
    rbac_model._subject_counter = itertools.count(1)
    rbac_engine._session_counter = itertools.count(1)
    engine = ShardedEngine(make_policy(), shards=shards)
    sessions = []
    for k in range(SESSIONS_N):
        session = engine.authenticate("u", 0.0, shard_key=f"agent-{k}")
        engine.activate_role(session, "r", 0.0)
        if k % 2 == 1:
            for _ in range(6):  # past the count bound of 5
                engine.observe(session, EXEC[0])
        sessions.append(session)
    return engine, sessions


def workload(k: int, i: int) -> AccessKey:
    """Deterministic mixed stream: grants, denials, no-candidates."""
    if (k + i) % 7 == 0:
        return UNMATCHED
    return EXEC[(k + i) % len(EXEC)]


def submit_wave(service, sessions, observe_granted=False):
    """One interleaved submit_many wave (arrival order round-robins
    the sessions, per-session times strictly increasing)."""
    requests = []
    for i in range(PER_SESSION):
        for k, session in enumerate(sessions):
            requests.append((session, workload(k, i), float(i + 1)))
    return service.submit_many(requests, observe_granted=observe_granted)


def audit_per_shard(engine: ShardedEngine):
    return [list(shard.engine.audit) for shard in engine._shards]


def run_service(max_batch: int, workers: int = 4, **kwargs):
    engine, sessions = build_engine()
    with DecisionService(
        engine, workers=workers, queue_depth=4096,
        max_batch=max_batch, **kwargs,
    ) as service:
        futures = submit_wave(service, sessions)
        assert service.drain(timeout=60.0)
        stats = service.service_stats()
    decisions = [f.result() for f in futures]
    return engine, decisions, stats


class TestBatchedDifferential:
    """batched service ≡ scalar service ≡ direct engine."""

    def test_batched_equals_scalar_equals_direct(self):
        scalar_engine, scalar_decisions, scalar_stats = run_service(
            max_batch=1
        )
        batched_engine, batched_decisions, batched_stats = run_service(
            max_batch=64, max_wait_s=0.001
        )

        # Direct reference: same construction, decided inline in the
        # same arrival order.
        direct_engine, direct_sessions = build_engine()
        direct_decisions = []
        for i in range(PER_SESSION):
            for k, session in enumerate(direct_sessions):
                direct_decisions.append(
                    direct_engine.decide(
                        session, workload(k, i), float(i + 1), history=None
                    )
                )

        # Bit-identical decisions (dataclass equality covers access,
        # grant, reason, role/permission attribution and the full
        # provenance tree).
        assert batched_decisions == scalar_decisions == direct_decisions
        assert any(d.granted for d in batched_decisions)
        assert any(
            not d.granted and d.provenance.kind == "spatial"
            for d in batched_decisions
        )
        assert any(
            d.provenance.kind == "no-candidate" for d in batched_decisions
        )

        # Same per-shard audit order (single submit_many wave -> the
        # per-shard queue order is the arrival order for all three).
        assert (
            audit_per_shard(batched_engine)
            == audit_per_shard(scalar_engine)
            == audit_per_shard(direct_engine)
        )

        # The equivalence is not vacuous: the batched run actually used
        # the vector path, the scalar run never did.
        assert batched_stats.vector_decisions > 0
        assert scalar_stats.vector_decisions == 0
        assert batched_stats.batches < batched_stats.batched_requests
        assert batched_stats.mean_batch_size > 1.0
        assert batched_stats.max_batch_size <= 64
        assert scalar_stats.max_batch_size == 1

    def test_concurrent_submitters_per_session_equivalence(self):
        """4 racing submit_many threads (disjoint session subsets):
        per-session outcome sequences still match the direct engine."""
        engine, sessions = build_engine()
        with DecisionService(
            engine, workers=4, queue_depth=4096,
            max_batch=32, max_wait_s=0.001,
        ) as service:
            futures_by_k: dict[int, list] = {}

            def submitter(ks):
                for k in ks:
                    requests = [
                        (sessions[k], workload(k, i), float(i + 1))
                        for i in range(PER_SESSION)
                    ]
                    futures_by_k[k] = service.submit_many(requests)

            threads = [
                threading.Thread(target=submitter, args=([k, k + 4],))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        assert stats.errors == 0
        assert stats.completed == SESSIONS_N * PER_SESSION

        direct_engine, direct_sessions = build_engine()
        for k in range(SESSIONS_N):
            expected = [
                direct_engine.decide(
                    direct_sessions[k], workload(k, i), float(i + 1),
                    history=None,
                )
                for i in range(PER_SESSION)
            ]
            actual = [f.result() for f in futures_by_k[k]]
            assert actual == expected


class TestScalarFallbacks:
    """Requests the sweep must not touch leave the vector path in
    exactly their arrival slot."""

    def test_explicit_history_and_observe_granted_interleaved(self):
        def drive(max_batch):
            engine, sessions = build_engine()
            with DecisionService(
                engine, workers=2, queue_depth=4096,
                max_batch=max_batch, max_wait_s=0.001,
            ) as service:
                futures = []
                for i in range(PER_SESSION):
                    for k, session in enumerate(sessions):
                        access = workload(k, i)
                        if (k + i) % 5 == 0:
                            # Explicit empty history: scalar-only mode.
                            futures.append(
                                service.submit(
                                    session, access, float(i + 1), history=()
                                )
                            )
                        elif (k + i) % 5 == 1:
                            # Feedback: mutates mid-stream, scalar-only.
                            futures.append(
                                service.submit(
                                    session, access, float(i + 1),
                                    observe_granted=True,
                                )
                            )
                        else:
                            futures.append(
                                service.submit(session, access, float(i + 1))
                            )
                assert service.drain(timeout=60.0)
                stats = service.service_stats()
            return engine, [f.result() for f in futures], stats

        scalar_engine, scalar_decisions, _ = drive(max_batch=1)
        batched_engine, batched_decisions, batched_stats = drive(max_batch=64)
        assert batched_decisions == scalar_decisions
        assert audit_per_shard(batched_engine) == audit_per_shard(
            scalar_engine
        )
        # observe_granted feedback replayed in stream order produces
        # denials later in each stream; the mix is real.
        assert any(d.granted for d in batched_decisions)
        assert any(not d.granted for d in batched_decisions)
        assert batched_stats.vector_decisions > 0

    def test_poisoned_request_fails_only_its_own_future(self):
        engine, sessions = build_engine()
        with DecisionService(
            engine, workers=1, queue_depth=4096,
            max_batch=64, max_wait_s=0.0,
        ) as service:
            requests = [
                (sessions[0], EXEC[i % len(EXEC)], float(i + 1))
                for i in range(10)
            ]
            # A non-numeric decision time poisons the sweep *and* the
            # scalar replay — but must fail only its own future.
            requests[4] = (sessions[0], EXEC[1], "not-a-time")
            futures = service.submit_many(requests)
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        assert isinstance(futures[4].exception(), Exception)
        healthy = [f for i, f in enumerate(futures) if i != 4]
        assert all(f.result().granted is not None for f in healthy)
        assert stats.errors == 1
        assert stats.completed == 10

        # The healthy neighbours decide exactly as a clean stream
        # decides at the same instants on a fresh engine.
        direct_engine, direct_sessions = build_engine()
        expected = [
            direct_engine.decide(
                direct_sessions[0], EXEC[i % len(EXEC)], float(i + 1),
                history=None,
            )
            for i in range(10)
            if i != 4
        ]
        assert [f.result() for f in healthy] == expected

    def test_nan_time_fails_only_its_own_request(self):
        """A NaN decision time is refused like a time running backwards:
        the sweep hands the run to the scalar loop, which fails that
        request alone; its neighbours are granted."""
        engine, sessions = build_engine()
        times = [1.0, 2.0, math.nan, 3.0, 4.0]
        with DecisionService(
            engine, workers=1, queue_depth=4096,
            max_batch=64, max_wait_s=0.0,
        ) as service:
            futures = service.submit_many(
                [(sessions[0], EXEC[0], t) for t in times]
            )
            assert service.drain(timeout=60.0)
        assert isinstance(futures[2].exception(), TemporalError)
        neighbours = [f for i, f in enumerate(futures) if i != 2]
        assert [f.result().granted for f in neighbours] == [True] * 4


class TestCancellation:
    def test_queued_futures_cancel_before_entering_a_sweep(self):
        gate = threading.Event()
        in_hook = threading.Event()

        def hook(decision):
            in_hook.set()
            assert gate.wait(timeout=30.0)

        engine, sessions = build_engine()
        try:
            service = DecisionService(
                engine, workers=1, queue_depth=4096,
                max_batch=64, max_wait_s=0.0, post_decision_hook=hook,
            )
            # Park the only worker in the hook (outside the shard lock).
            first = service.submit(sessions[0], EXEC[0], 1.0)
            assert in_hook.wait(timeout=30.0)
            # Everything submitted now queues behind the parked drain.
            queued = submit_wave(service, sessions)
            cancelled_ok = [f.cancel() for f in queued]
            assert any(cancelled_ok)
            gate.set()
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        finally:
            gate.set()
            service.shutdown()
        assert first.result().granted
        n_cancelled = sum(cancelled_ok)
        assert stats.cancelled == n_cancelled
        assert stats.completed + stats.cancelled == stats.submitted
        for ok, future in zip(cancelled_ok, queued):
            if ok:
                with pytest.raises(CancelledError):
                    future.result()
            else:
                assert future.result() is not None


def parked_service(engine):
    """A one-worker service whose hook parks the worker until ``gate``
    is set (the request being hooked stays RUNNING meanwhile)."""
    gate = threading.Event()
    in_hook = threading.Event()

    def hook(decision):
        in_hook.set()
        assert gate.wait(timeout=30.0)

    service = DecisionService(
        engine, workers=1, queue_depth=4096, max_batch=64, max_wait_s=0.0,
        post_decision_hook=hook,
    )
    return service, gate, in_hook


class TestRequestObject:
    """The object ``submit`` returns: one result slot per request on its
    shard's shared condition, with a future-style surface."""

    def test_callback_added_after_resolution_runs_at_once(self):
        engine, sessions = build_engine()
        with DecisionService(engine, workers=1) as service:
            request = service.submit(sessions[0], EXEC[0], 1.0)
            decision = request.result(timeout=30.0)
            seen = []
            request.add_done_callback(seen.append)
            assert seen == [request]
            assert request.done() and not request.running()
            assert not request.cancelled()
        assert isinstance(decision, Decision)

    def test_raising_callback_is_logged_and_later_callbacks_run(self, caplog):
        engine, sessions = build_engine()
        service, gate, in_hook = parked_service(engine)
        try:
            request = service.submit(sessions[0], EXEC[0], 1.0)
            assert in_hook.wait(timeout=30.0)
            seen = []

            def boom(_request):
                raise RuntimeError("callback failure")

            request.add_done_callback(seen.append)
            request.add_done_callback(boom)
            request.add_done_callback(seen.append)
            with caplog.at_level(logging.ERROR, logger="repro.service.service"):
                gate.set()
                assert service.drain(timeout=30.0)
        finally:
            gate.set()
            service.shutdown()
        assert seen == [request, request]
        assert request.result().granted
        logged = [
            r for r in caplog.records
            if r.name == "repro.service.service" and r.exc_info
        ]
        assert len(logged) == 1
        assert isinstance(logged[0].exc_info[1], RuntimeError)

    def test_cancel_running_or_finished_request_returns_false(self):
        engine, sessions = build_engine()
        service, gate, in_hook = parked_service(engine)
        try:
            request = service.submit(sessions[0], EXEC[0], 1.0)
            assert in_hook.wait(timeout=30.0)
            assert request.running()
            assert not request.cancel()
            gate.set()
            assert service.drain(timeout=30.0)
            assert not request.cancel()
            assert request.done() and not request.cancelled()
            stats = service.service_stats()
        finally:
            gate.set()
            service.shutdown()
        assert request.result().granted
        assert stats.cancelled == 0

    def test_stress_every_request_resolves_once(self):
        """More submitter threads than cores, a short switch interval:
        submit_many, submit, random cancel(), done-callbacks and
        result(timeout=...) waits woken by sibling broadcasts."""
        threads_n = 2 * (os.cpu_count() or 2) + 1
        engine = ShardedEngine(make_policy(count_bound=10 ** 6), shards=2)
        sessions = []
        for k in range(2 * threads_n):
            session = engine.authenticate("u", 0.0, shard_key=f"stress-{k}")
            engine.activate_role(session, "r", 0.0)
            sessions.append(session)
        service = DecisionService(
            engine, workers=2, queue_depth=32, max_batch=16, max_wait_s=0.0005
        )
        requests: list = []
        #: id(request) -> number of callbacks registered
        registered: Counter = Counter()
        fired: list = []
        #: id(request) -> when its first callback ran (its resolution)
        resolved_at: dict = {}
        cancelled_ok: set = set()
        raised_rejections = [0]
        early_timeouts: list = []
        timeouts: list = []
        lock = threading.Lock()
        stop_at = time.monotonic() + 2.0

        def on_done(request):
            resolved_at.setdefault(id(request), time.monotonic())
            fired.append(id(request))

        def submitter(i):
            rng = random.Random(1000 + i)
            own = sessions[2 * i:2 * i + 2]
            clock = 1.0
            while time.monotonic() < stop_at:
                batch = []
                if rng.random() < 0.5:
                    batch = service.submit_many(
                        [
                            (own[j % 2], EXEC[j % len(EXEC)], clock + j)
                            for j in range(rng.randint(1, 8))
                        ],
                        block=False,
                    )
                    clock += len(batch)
                else:
                    try:
                        batch = [
                            service.submit(
                                own[0], EXEC[0], clock, block=False
                            )
                        ]
                    except ServiceError:
                        with lock:
                            raised_rejections[0] += 1
                    clock += 1.0
                for request in batch:
                    for _ in range(rng.randint(1, 2)):
                        with lock:
                            registered[id(request)] += 1
                        request.add_done_callback(on_done)
                    # A repeated cancel() succeeds again and runs no
                    # callback twice.
                    if rng.random() < 0.3 and request.cancel():
                        if request.cancel():
                            with lock:
                                cancelled_ok.add(id(request))
                with lock:
                    requests.extend(batch)
                if batch and rng.random() < 0.5:
                    request = rng.choice(batch)
                    timeout = rng.choice([0.0005, 0.005, 0.05])
                    start = time.monotonic()
                    try:
                        request.result(timeout=timeout)
                    except TimeoutError:
                        elapsed = time.monotonic() - start
                        with lock:
                            timeouts.append((request, start + timeout))
                            if elapsed < timeout:
                                early_timeouts.append(elapsed)
                    except (CancelledError, ServiceError):
                        pass

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        finally:
            sys.setswitchinterval(old_interval)
            service.shutdown()

        assert requests
        outcomes: Counter = Counter()
        service_errors = raised_rejections[0]
        for request in requests:
            assert request.done()
            if request.cancelled():
                with pytest.raises(CancelledError):
                    request.exception(timeout=0)
                outcomes["cancelled"] += 1
                continue
            assert id(request) not in cancelled_ok
            error = request.exception(timeout=0)
            if error is not None:
                assert isinstance(error, ServiceError)
                service_errors += 1
                outcomes["error"] += 1
            else:
                assert isinstance(request.result(timeout=0), Decision)
                outcomes["result"] += 1
        assert outcomes["cancelled"] == len(cancelled_ok)
        # Every callback ran exactly once.
        assert Counter(fired) == registered
        # A wait times out only at its deadline, on a request still
        # unresolved then — never because a sibling's broadcast woke it.
        assert early_timeouts == []
        for request, deadline in timeouts:
            assert resolved_at[id(request)] >= deadline
        assert stats.completed + stats.cancelled == stats.submitted
        assert stats.cancelled == outcomes["cancelled"]
        assert stats.rejected == service_errors
        assert stats.errors == 0
        assert outcomes["result"] > 0 and outcomes["cancelled"] > 0


class TestPrewarm:
    def test_prewarm_compiles_tables_with_zero_misses_after(self):
        clear_table_cache()
        engine, sessions = build_engine()
        with DecisionService(
            engine, workers=2, queue_depth=4096,
            max_batch=64, max_wait_s=0.001, prewarm=EXEC,
        ) as service:
            _hits, misses_after_init, fallbacks0, entries = (
                table_cache_counters()
            )
            assert entries > 0  # prewarm actually compiled tables
            futures = submit_wave(service, sessions)
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
            _hits, misses_after_load, fallbacks1, _ = table_cache_counters()
        assert all(f.exception() is None for f in futures)
        # Serving traffic after prewarm never misses the table cache.
        assert misses_after_load == misses_after_init
        assert fallbacks1 == fallbacks0
        assert stats.vector_decisions > 0

    def test_prewarm_true_warms_constraint_universes(self):
        clear_table_cache()
        engine, _sessions = build_engine()
        with DecisionService(engine, prewarm=True):
            _hits, misses, _fallbacks, entries = table_cache_counters()
        assert entries > 0
        assert misses > 0  # the construction-time compile is the miss

    def test_prewarm_validation_still_applies(self):
        engine, _sessions = build_engine()
        with pytest.raises(ServiceError):
            DecisionService(engine, max_batch=0)
        with pytest.raises(ServiceError):
            DecisionService(engine, max_wait_s=-1.0)


class TestBatchObservability:
    def test_shard_stats_expose_vector_counters(self):
        engine, decisions, stats = run_service(
            max_batch=64, max_wait_s=0.001
        )
        rows = engine.shard_stats()
        for row in rows:
            assert {"vector_decisions", "vector_fallbacks"} <= row.keys()
        assert (
            sum(row["vector_decisions"] for row in rows)
            == stats.vector_decisions
            > 0
        )
        assert stats.as_dict()["vector_decisions"] == stats.vector_decisions
        assert stats.as_dict()["mean_batch_size"] == stats.mean_batch_size

    def test_batch_histograms_recorded_when_obs_enabled(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            run_service(max_batch=64, max_wait_s=0.001)
            export = obs.export()
        finally:
            obs.disable()
            obs.reset()
        histograms = export["metrics"]["histograms"]
        batch_rows = [
            row for name, row in histograms.items()
            if name.startswith("service.batch_size{") and row["count"]
        ]
        occupancy_rows = [
            row for name, row in histograms.items()
            if name.startswith("service.queue_occupancy{") and row["count"]
        ]
        assert batch_rows and occupancy_rows
        assert any("buckets" in row for row in batch_rows)
        assert (
            sum(row["count"] for row in batch_rows)
            == sum(row["count"] for row in occupancy_rows)
        )


class TestBackpressure:
    def test_submit_many_nonblocking_rejects_overflow_per_future(self):
        gate = threading.Event()
        in_hook = threading.Event()

        def hook(decision):
            in_hook.set()
            assert gate.wait(timeout=30.0)

        engine, sessions = build_engine()
        try:
            service = DecisionService(
                engine, workers=1, queue_depth=3,
                max_batch=1, max_wait_s=0.0, post_decision_hook=hook,
            )
            # One request parks the worker; sessions[0] and sessions[2]
            # share a 4-shard ring position only if routed so — submit
            # everything to one session, hence one shard queue.
            first = service.submit(sessions[0], EXEC[0], 1.0)
            assert in_hook.wait(timeout=30.0)
            requests = [
                (sessions[0], EXEC[0], float(i + 2)) for i in range(8)
            ]
            futures = service.submit_many(requests, block=False)
            rejected = [
                f for f in futures
                if f.done() and isinstance(f.exception(), ServiceError)
            ]
            assert len(rejected) == len(requests) - 3  # queue_depth room
            gate.set()
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        finally:
            gate.set()
            service.shutdown()
        assert first.result() is not None
        assert stats.rejected == len(rejected)
        assert stats.completed + stats.cancelled == stats.submitted
        accepted = [f for f in futures if not isinstance(
            f.exception(), ServiceError
        )]
        assert all(f.result() is not None for f in accepted)


class TestAdaptiveController:
    def test_window_grows_under_depth_and_collapses_on_trickle(self):
        engine, sessions = build_engine(shards=1)
        with DecisionService(
            engine, workers=1, queue_depth=8192,
            max_batch=32, max_wait_s=0.005,
        ) as service:
            # Deep wave: drains come up at max_batch, the EWMA rises
            # past the goal and the window opens to the full budget.
            requests = [
                (sessions[0], EXEC[i % len(EXEC)], float(i + 1))
                for i in range(1024)
            ]
            service.submit_many(requests)
            assert service.drain(timeout=60.0)
            assert service._windows[0] == pytest.approx(0.005)

            # Trickle: one request at a time fully drained each time —
            # the EWMA decays and the window collapses to zero, so low
            # load pays no coalescing latency.
            t = 2000.0
            for _ in range(30):
                service.submit(sessions[0], EXEC[0], t).result(timeout=30.0)
                t += 1.0
            assert service._windows[0] == 0.0
        stats = service.service_stats()
        assert stats.max_batch_size <= 32
