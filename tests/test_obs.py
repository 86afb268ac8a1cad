"""Tests for the observability layer (:mod:`repro.obs`) and the
service/temporal bug fixes that shipped with it.

The load-bearing property: instrumentation is **decision-neutral** —
running the same workload with observability enabled and disabled
produces bit-identical decision content (verdict, reason, provenance),
because provenance is part of the decision itself and the obs layer
only ever counts and times.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.errors import ServiceError
from repro.obs import (
    OBS,
    RECORDER,
    REGISTRY,
    CandidateProvenance,
    DecisionProvenance,
    MetricsRegistry,
    SpanRecorder,
    span,
)
from repro.rbac.engine import DECIDE_SPAN_SAMPLE, AccessControlEngine
from repro.service import DecisionService, ShardedEngine
from repro.temporal.duration import (
    DurationAtLeast,
    DurationAtMost,
    Everywhere,
    Somewhere,
    evaluate,
)
from repro.temporal.timeline import BooleanTimeline
from repro.traces.trace import AccessKey

from tests.test_service_concurrency import SERVERS, make_policy, random_workload


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with observability off and empty.
    (Components earlier tests left open were unregistered when those
    tests ended, by ``tests/conftest.py``.)"""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.gauge("g").add(0.5)
        hist = reg.histogram("h")
        for v in (0.1, 0.3, 0.2):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 2.0
        row = snap["histograms"]["h"]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(0.6)
        assert row["min"] == pytest.approx(0.1)
        assert row["max"] == pytest.approx(0.3)

    def test_labels_key_separate_instruments(self):
        reg = MetricsRegistry()
        reg.counter("c", shard="0").inc()
        reg.counter("c", shard="1").inc(5)
        snap = reg.snapshot()
        assert snap["counters"]["c{shard=0}"] == 1
        assert snap["counters"]["c{shard=1}"] == 5

    def test_same_key_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a="1") is reg.counter("c", a="1")
        assert reg.counter("c", a="1") is not reg.counter("c", a="2")

    def test_bucketed_histogram(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        buckets = reg.snapshot()["histograms"]["h"]["buckets"]
        assert buckets["0.1"] == 1
        assert buckets["1.0"] == 1
        assert buckets["+inf"] == 1

    def test_reset_zeroes_but_keeps_bound_instruments(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc(7)
        reg.reset()
        assert reg.snapshot()["counters"]["c"] == 0
        counter.inc()  # the pre-bound handle still works
        assert reg.snapshot()["counters"]["c"] == 1

    def test_bound_method_collector_lives_with_owner(self):
        """A collector reports until it is unregistered, whether or not
        anything else still references its owner."""

        class Owner:
            value = 42

            def collect(self):
                return {"owner.value": self.value}

        reg = MetricsRegistry()
        owner = Owner()
        reg.register_collector(owner.collect)
        assert reg.snapshot()["collected"] == {"owner.value": 42}
        del owner
        assert reg.snapshot()["collected"] == {"owner.value": 42}
        (collect,) = reg.collectors()
        collect.__self__.value = 50
        assert reg.snapshot()["collected"] == {"owner.value": 50}
        reg.unregister_collector(collect)
        assert reg.collectors() == []
        collect.__self__.value = 99  # no longer pulled
        assert reg.snapshot()["collected"] == {"owner.value": 50}

    def test_collectors_sum_duplicate_keys(self):
        class Shard:
            def __init__(self, n):
                self.n = n

            def collect(self):
                return {"shard.decisions": self.n}

        reg = MetricsRegistry()
        shards = [Shard(1), Shard(10)]
        for shard in shards:
            reg.register_collector(shard.collect)
        assert reg.snapshot()["collected"]["shard.decisions"] == 11

    def test_absorb_preserves_dead_collector_totals(self):
        reg = MetricsRegistry()
        for n in (5, 3):
            reg.register_collector(lambda n=n: {"engine.decisions": n})
        for fn in reg.collectors():
            reg.unregister_collector(fn)
        assert reg.snapshot()["collected"]["engine.decisions"] == 8
        reg.reset()
        assert "collected" not in reg.snapshot()

    def test_unregister_collector(self):
        """Unregistering keeps the final counters, ends the gauges and
        stops pulling the collector; a second unregister is a no-op."""

        class Owner:
            value = 1

            def collect(self):
                return {"x": self.value, "proofbatch.pending": 7}

        reg = MetricsRegistry()
        owner = Owner()
        reg.register_collector(owner.collect)
        owner.value = 3
        assert reg.snapshot()["collected"] == {"proofbatch.pending": 7, "x": 3}
        reg.unregister_collector(owner.collect)
        owner.value = 100
        assert reg.collectors() == []
        assert reg.snapshot()["collected"] == {"x": 3}
        reg.unregister_collector(owner.collect)
        assert reg.snapshot()["collected"] == {"x": 3}


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_record_and_query(self):
        rec = SpanRecorder(capacity=8)
        rec.record("a", 0.0, 0.5)
        rec.record("b", 1.0, 0.25, {"k": "v"})
        assert len(rec) == 2
        assert [s.name for s in rec.spans()] == ["a", "b"]
        assert rec.spans("b")[0].attrs == {"k": "v"}
        assert rec.recent(1)[0].name == "b"

    def test_ring_buffer_caps_capacity(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            rec.record(f"s{i}", float(i), 0.0)
        assert len(rec) == 4
        assert [s.name for s in rec.spans()] == ["s6", "s7", "s8", "s9"]

    def test_summary_aggregates(self):
        rec = SpanRecorder()
        rec.record("op", 0.0, 1.0)
        rec.record("op", 1.0, 3.0, error="ValueError")
        summary = rec.summary()["op"]
        assert summary["count"] == 2
        assert summary["total_s"] == pytest.approx(4.0)
        assert summary["mean_s"] == pytest.approx(2.0)
        assert summary["max_s"] == pytest.approx(3.0)
        assert summary["errors"] == 1

    def test_span_contextmanager_noop_when_disabled(self):
        rec = SpanRecorder()
        with span("idle", recorder=rec):
            pass
        assert len(rec) == 0

    def test_span_contextmanager_records_when_enabled(self):
        rec = SpanRecorder()
        obs.enable()
        with span("work", recorder=rec, where="here"):
            pass
        (recorded,) = rec.spans()
        assert recorded.name == "work"
        assert recorded.attrs == {"where": "here"}
        assert recorded.error is None

    def test_span_contextmanager_records_error_and_reraises(self):
        rec = SpanRecorder()
        obs.enable()
        with pytest.raises(ValueError):
            with span("boom", recorder=rec):
                raise ValueError("nope")
        (recorded,) = rec.spans()
        assert recorded.error == "ValueError"


# ---------------------------------------------------------------------------
# obs switch / export
# ---------------------------------------------------------------------------


class TestObsSwitch:
    def test_enable_disable(self):
        assert not obs.is_enabled()
        obs.enable()
        assert obs.is_enabled() and OBS.enabled
        obs.disable()
        assert not obs.is_enabled()

    def test_export_shape(self):
        obs.enable()
        REGISTRY.counter("x").inc()
        RECORDER.record("s", 0.0, 0.1)
        out = obs.export()
        assert out["enabled"] is True
        assert out["metrics"]["counters"]["x"] == 1
        assert out["spans"]["s"]["count"] == 1
        obs.reset()
        out = obs.export()
        assert out["metrics"]["counters"]["x"] == 0
        assert out["spans"] == {}


# ---------------------------------------------------------------------------
# engine instrumentation + provenance
# ---------------------------------------------------------------------------


def _fresh_engine(count_bound: int = 2):
    engine = AccessControlEngine(make_policy(count_bound))
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


class TestEngineObservability:
    def test_collector_counts_decisions(self):
        obs.enable()
        engine, session = _fresh_engine(count_bound=2)
        for i in range(4):
            decision = engine.decide(
                session, ("exec", "rsw", "s0"), float(i + 1), history=None
            )
            if decision.granted:
                engine.observe(session, decision.access)
        collected = REGISTRY.snapshot()["collected"]
        assert collected["engine.decisions"] == 4
        assert collected["engine.decisions.granted"] == 2
        assert collected["engine.decisions.denied"] == 2

    def test_outcome_counts_are_audit_derived_even_when_disabled(self):
        engine, session = _fresh_engine(count_bound=5)
        engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=None)
        collected = REGISTRY.snapshot()["collected"]
        assert collected["engine.decisions"] == 1
        assert collected["engine.decisions.granted"] == 1

    def test_decide_spans_sampled(self):
        obs.enable()
        engine, session = _fresh_engine(count_bound=10 ** 6)
        n = 2 * DECIDE_SPAN_SAMPLE
        for i in range(n):
            engine.decide(session, ("exec", "rsw", "s0"), float(i + 1), history=None)
        assert len(RECORDER.spans("engine.decide")) == 2
        collected = REGISTRY.snapshot()["collected"]
        assert collected["engine.decide.sampled"] == 2
        assert collected["engine.decide.sampled_s"] > 0

    def test_no_spans_while_disabled(self):
        engine, session = _fresh_engine(count_bound=10 ** 6)
        for i in range(2 * DECIDE_SPAN_SAMPLE):
            engine.decide(session, ("exec", "rsw", "s0"), float(i + 1), history=None)
        assert len(RECORDER.spans("engine.decide")) == 0

    def test_reset_stats_rebaselines_obs_counters(self):
        obs.enable()
        engine, session = _fresh_engine(count_bound=5)
        engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=None)
        engine.reset_stats()
        collected = REGISTRY.snapshot()["collected"]
        assert collected["engine.decisions"] == 0
        engine.decide(session, ("exec", "rsw", "s0"), 2.0, history=None)
        collected = REGISTRY.snapshot()["collected"]
        assert collected["engine.decisions"] == 1


class TestCollectedGaugesAndMaxima:
    def test_dead_engine_gauges_are_not_absorbed(self):
        """A closed engine's resident sessions and store bytes end with
        it, though the engine is still referenced; only its counters
        are kept."""
        before = REGISTRY.snapshot().get("collected", {})
        engine, session = _fresh_engine(count_bound=5)
        engine.open_sessions(["u"] * 1000, 0.0, roles=["r"])
        engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=None)
        live = REGISTRY.snapshot()["collected"]
        assert live["engine.sessions.resident"] == (
            before.get("engine.sessions.resident", 0) + 1001
        )
        # Only the authenticated session has written its cells.
        assert live["engine.sessions.own_cells"] == (
            before.get("engine.sessions.own_cells", 0) + 1
        )
        engine.close()
        after = REGISTRY.snapshot().get("collected", {})
        for gauge in (
            "engine.sessions.resident",
            "engine.sessions.store_bytes",
            "engine.sessions.own_cells",
        ):
            assert after.get(gauge, 0) == before.get(gauge, 0), gauge
        assert after["engine.decisions"] == before.get("engine.decisions", 0) + 1
        engine.close()
        assert REGISTRY.snapshot().get("collected", {}) == after

    def test_decide_max_combines_by_max_not_sum(self):
        engine = ShardedEngine(make_policy(), shards=2)
        for shard, max_s in zip(engine._shards, (0.5, 2.0)):
            shard.engine._obs_decide_max_s = max_s
        assert REGISTRY.snapshot()["collected"]["engine.decide.max_s"] == 2.0
        # A closed engine's maximum still counts, combined by max too.
        for max_s in (3.0, 1.0):
            closed = AccessControlEngine(make_policy())
            closed._obs_decide_max_s = max_s
            closed.close()
        assert REGISTRY.snapshot()["collected"]["engine.decide.max_s"] == 3.0

    def test_membership_epoch_combines_by_max(self):
        """The epoch gauge of several open coalitions is the highest
        one; a closed coalition's epoch ends with it."""
        from repro.coalition import Coalition, CoalitionServer

        coalitions = []
        for joins in (2, 5):
            coalition = Coalition([CoalitionServer("s0")])
            for i in range(joins):
                coalition.join(CoalitionServer(f"s{i + 1}"))
            coalitions.append(coalition)
        collected = REGISTRY.snapshot()["collected"]
        assert collected["coalition.membership_epoch"] == 5
        assert collected["coalition.joins"] == 7
        coalitions[1].close()
        collected = REGISTRY.snapshot()["collected"]
        assert collected["coalition.membership_epoch"] == 2
        assert collected["coalition.joins"] == 7
        coalitions[0].close()
        assert "coalition.membership_epoch" not in REGISTRY.snapshot()["collected"]


class TestProvenance:
    def test_grant_carries_winning_candidate(self):
        engine, session = _fresh_engine()
        decision = engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=None)
        assert decision.granted
        p = decision.provenance
        assert p.kind == "granted"
        assert p.history_mode == "incremental"
        (candidate,) = p.candidates
        assert candidate.role == "r"
        assert candidate.permission == "p"
        assert candidate.spatial_ok and candidate.temporal_ok
        assert "count(0, 2, [res = rsw])" in candidate.constraint
        assert "granted via role 'r'" in p.describe()

    def test_spatial_denial_names_constraint(self):
        engine, session = _fresh_engine(count_bound=2)
        for i in range(2):
            decision = engine.decide(
                session, ("exec", "rsw", "s0"), float(i + 1), history=None
            )
            engine.observe(session, decision.access)
        denial = engine.decide(session, ("exec", "rsw", "s0"), 3.0, history=None)
        assert not denial.granted
        p = denial.provenance
        assert p.kind == "spatial"
        assert p.failing is not None and not p.failing.spatial_ok
        assert "count(0, 2, [res = rsw])" in p.describe()
        assert p.history_len == 2

    def test_no_candidate_denial(self):
        engine, session = _fresh_engine()
        denial = engine.decide(session, ("read", "nothing", "s0"), 1.0, history=None)
        assert denial.provenance.kind == "no-candidate"
        assert denial.provenance.describe()

    def test_explicit_history_mode_and_foreign_servers(self):
        engine, session = _fresh_engine(count_bound=1)
        history = (
            AccessKey("exec", "rsw", "s1"),
            AccessKey("exec", "rsw", "s2"),
        )
        denial = engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=history)
        assert not denial.granted
        p = denial.provenance
        assert p.history_mode == "explicit"
        assert p.history_len == 2
        # Both history entries came from servers other than s0.
        assert p.foreign_servers == ("s1", "s2")

    def test_every_denial_has_nonempty_provenance(self):
        engine, session = _fresh_engine(count_bound=1)
        engine.observe(session, AccessKey("exec", "rsw", "s0"))
        for access in (("exec", "rsw", "s1"), ("read", "x", "s0")):
            denial = engine.decide(session, access, 5.0, history=None)
            assert not denial.granted
            assert denial.provenance is not None
            assert denial.provenance.describe()

    def test_degraded_describe(self):
        p = DecisionProvenance(
            kind="degraded", uncorroborated=("d1", "d2"), detail="deny-uncorroborated"
        )
        assert "2 uncorroborated" in p.describe()
        assert "deny-uncorroborated" in p.describe()

    def test_as_dict_roundtrips_to_plain_types(self):
        engine, session = _fresh_engine()
        decision = engine.decide(session, ("exec", "rsw", "s0"), 1.0, history=None)
        d = decision.provenance.as_dict()
        assert d["kind"] == "granted"
        assert isinstance(d["candidates"], list)
        assert d["summary"] == decision.provenance.describe()
        assert isinstance(d["candidates"][0], dict)

    def test_temporal_describe_names_state(self):
        p = DecisionProvenance(
            kind="temporal",
            candidates=(
                CandidateProvenance(
                    role="r",
                    permission="p",
                    constraint=None,
                    spatial_ok=True,
                    temporal_ok=False,
                    temporal_state="active-but-invalid",
                ),
            ),
        )
        assert "active-but-invalid" in p.describe()


class TestDecisionNeutrality:
    """Instrumentation is decision-neutral: the same workload decides
    bit-identically with observability on and off (PR2's determinism
    harness, replayed under both switches)."""

    @staticmethod
    def _run(seed: int, enabled: bool):
        if enabled:
            obs.enable()
        else:
            obs.disable()
        try:
            workload = random_workload(seed, sessions=6, per_session=20)
            engine = AccessControlEngine(make_policy())
            outcomes = []
            for k, stream in enumerate(workload):
                session = engine.authenticate("u", 0.0)
                engine.activate_role(session, "r", 0.0)
                row = []
                for i, access in enumerate(stream):
                    decision = engine.decide(
                        session, access, float(i + 1), history=None
                    )
                    if decision.granted:
                        engine.observe(session, access)
                    # Everything decision-relevant except the
                    # process-global session id and wall-clock inputs.
                    row.append(
                        (
                            access,
                            decision.granted,
                            decision.role,
                            decision.permission,
                            decision.spatial_ok,
                            decision.temporal_ok,
                            decision.reason,
                            decision.provenance,
                        )
                    )
                outcomes.append(row)
            return outcomes
        finally:
            obs.disable()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_decisions_identical_with_obs_on_and_off(self, seed):
        assert self._run(seed, enabled=False) == self._run(seed, enabled=True)


# ---------------------------------------------------------------------------
# service regressions (satellites a, b, c)
# ---------------------------------------------------------------------------


class TestSubmitManyParity:
    def test_batch_and_single_submission_decide_identically(self):
        workload = random_workload(7, sessions=4, per_session=25)

        def run(batched: bool):
            sharded = ShardedEngine(make_policy(), shards=2)
            sessions = []
            for k in range(len(workload)):
                session = sharded.authenticate("u", 0.0, shard_key=f"agent-{k}")
                sharded.activate_role(session, "r", 0.0)
                sessions.append(session)
            requests = [
                (sessions[k], workload[k][i], float(i + 1))
                for i in range(len(workload[0]))
                for k in range(len(workload))
            ]
            with DecisionService(sharded, workers=4) as service:
                if batched:
                    futures = service.submit_many(requests, observe_granted=True)
                else:
                    futures = [
                        service.submit(s, a, t, observe_granted=True)
                        for s, a, t in requests
                    ]
                assert service.drain(timeout=60.0)
            return [
                (f.result().granted, f.result().reason, f.result().provenance)
                for f in futures
            ]

        assert run(batched=False) == run(batched=True)

    def test_explicit_empty_history_differs_from_incremental(self):
        """``history=()`` means "exactly this (empty) proved trace";
        ``history=None`` means the session's own observed history.
        With a count-2 bound the former never denies, the latter does."""
        sharded = ShardedEngine(make_policy(count_bound=2), shards=1)
        session = sharded.authenticate("u", 0.0)
        sharded.activate_role(session, "r", 0.0)
        with DecisionService(sharded, workers=1) as service:
            incremental = [
                service.submit(
                    session, ("exec", "rsw", "s0"), float(i + 1),
                    observe_granted=True,
                ).result()
                for i in range(4)
            ]
            explicit = [
                service.submit(
                    session, ("exec", "rsw", "s0"), float(i + 10), history=()
                ).result()
                for i in range(4)
            ]
        assert [d.granted for d in incremental] == [True, True, False, False]
        assert all(d.granted for d in explicit)


class TestCancellation:
    def _blocked_service(self):
        """A 1-worker service whose single worker is parked inside the
        post-decision hook until ``gate`` is set."""
        gate = threading.Event()
        in_hook = threading.Event()

        def hook(decision):
            in_hook.set()
            assert gate.wait(timeout=30.0)

        sharded = ShardedEngine(make_policy(), shards=1)
        session = sharded.authenticate("u", 0.0)
        sharded.activate_role(session, "r", 0.0)
        service = DecisionService(
            sharded, workers=1, post_decision_hook=hook, queue_depth=4
        )
        return service, session, gate, in_hook

    def test_cancelled_future_never_decided_and_counted(self):
        service, session, gate, in_hook = self._blocked_service()
        try:
            first = service.submit(session, ("exec", "rsw", "s0"), 1.0)
            assert in_hook.wait(timeout=30.0)
            second = service.submit(session, ("exec", "rsw", "s0"), 2.0)
            assert second.cancel()  # not yet picked up by the worker
            gate.set()
            assert service.drain(timeout=30.0)
            stats = service.service_stats()
            assert stats.cancelled == 1
            assert stats.completed == 1
            assert stats.submitted == 2
            assert second.cancelled()
            assert first.result().granted
            # The cancelled request was never decided: only one
            # decision ever reached the shard.
            assert sum(stats.shard_decisions) == 1
            assert stats.as_dict()["cancelled"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_queue_full_rolls_back_submitted(self):
        gate = threading.Event()
        in_hook = threading.Event()

        def hook(decision):
            in_hook.set()
            assert gate.wait(timeout=30.0)

        sharded = ShardedEngine(make_policy(), shards=1)
        session = sharded.authenticate("u", 0.0)
        sharded.activate_role(session, "r", 0.0)
        service = DecisionService(
            sharded, workers=1, post_decision_hook=hook, queue_depth=1
        )
        try:
            service.submit(session, ("exec", "rsw", "s0"), 1.0)
            assert in_hook.wait(timeout=30.0)
            service.submit(session, ("exec", "rsw", "s0"), 2.0)
            with pytest.raises(ServiceError):
                service.submit(session, ("exec", "rsw", "s0"), 3.0, block=False)
            stats = service.service_stats()
            assert stats.submitted == 2  # the rejected one was rolled back
            assert stats.rejected == 1
            gate.set()
            assert service.drain(timeout=30.0)
            final = service.service_stats()
            assert final.completed + final.cancelled == final.submitted == 2
        finally:
            gate.set()
            service.shutdown()


class TestSubmittedInvariant:
    def test_completed_never_exceeds_submitted_under_stress(self):
        """8 submitter threads vs. a sampler asserting the invariant
        ``completed + cancelled <= submitted`` at every observation —
        this is why the submission count is reserved *before* the
        queue put."""
        sharded = ShardedEngine(make_policy(count_bound=10 ** 6), shards=4)
        sessions = []
        for k in range(8):
            session = sharded.authenticate("u", 0.0, shard_key=f"agent-{k}")
            sharded.activate_role(session, "r", 0.0)
            sessions.append(session)
        violations = []
        stop = threading.Event()

        with DecisionService(sharded, workers=4, queue_depth=64) as service:

            def sample():
                while not stop.is_set():
                    stats = service.service_stats()
                    if stats.completed + stats.cancelled > stats.submitted:
                        violations.append(stats)

            def submit_all(k: int):
                for i in range(100):
                    while True:
                        try:
                            service.submit(
                                sessions[k],
                                ("exec", "rsw", SERVERS[i % len(SERVERS)]),
                                float(i + 1),
                                block=True,
                                timeout=5.0,
                            )
                            break
                        except ServiceError:
                            continue

            sampler = threading.Thread(target=sample)
            submitters = [
                threading.Thread(target=submit_all, args=(k,)) for k in range(8)
            ]
            sampler.start()
            for t in submitters:
                t.start()
            for t in submitters:
                t.join(timeout=60.0)
            assert service.drain(timeout=60.0)
            stop.set()
            sampler.join(timeout=10.0)
            assert not violations
            stats = service.service_stats()
            assert stats.completed + stats.cancelled == stats.submitted == 800


# ---------------------------------------------------------------------------
# duration-calculus tolerance boundaries (satellite d)
# ---------------------------------------------------------------------------


class TestDurationToleranceBoundaries:
    def _state(self, intervals):
        return BooleanTimeline.from_intervals(intervals)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e9])
    def test_exact_boundary_compares_equal_at_any_scale(self, scale):
        """∫S over [0, scale] with S on for the first half is exactly
        scale/2 up to rounding; comparing against that bound must not
        misclassify at small or large horizons."""
        state = self._state([(0.0, scale / 2)])
        bound = state.integrate(0.0, scale)
        assert evaluate(DurationAtLeast(state, bound), 0.0, scale)
        assert evaluate(DurationAtMost(state, bound), 0.0, scale)

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_accumulated_rounding_does_not_flip_the_verdict(self, scale):
        """Many tiny intervals summing to (almost) the bound: the sum
        carries accumulated rounding error proportional to the scale,
        which the scale-relative tolerance absorbs — an absolute
        1e-12 epsilon would not."""
        k = 1000
        width = scale / (2 * k)
        intervals = [(i * 2 * width, i * 2 * width + width) for i in range(k)]
        state = self._state(intervals)
        assert evaluate(DurationAtLeast(state, scale / 2), 0.0, scale)
        assert evaluate(DurationAtMost(state, scale / 2), 0.0, scale)

    def test_tolerance_stays_below_meaningful_differences(self):
        """A genuine half-second deficit on a 1e9 s horizon must still
        deny: the relative tolerance (1e-12 × 1e9 = 1e-3 s) is far
        below any duration difference the model cares about."""
        scale = 1e9
        state = self._state([(0.0, scale / 2 - 0.5)])
        assert not evaluate(DurationAtLeast(state, scale / 2), 0.0, scale)
        assert evaluate(DurationAtMost(state, scale / 2), 0.0, scale)

    def test_somewhere_sees_half_second_on_huge_horizon(self):
        scale = 1e9
        state = self._state([(123456.0, 123456.5)])
        assert evaluate(Somewhere(state), 0.0, scale)

    def test_somewhere_rejects_empty_state_on_huge_horizon(self):
        state = self._state([])
        assert not evaluate(Somewhere(state), 0.0, 1e9)

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_everywhere_at_scale_boundaries(self, scale):
        on = self._state([(0.0, scale)])
        assert evaluate(Everywhere(on), 0.0, scale)
        # A point interval never satisfies Everywhere.
        assert not evaluate(Everywhere(on), scale / 2, scale / 2)

    def test_small_horizon_keeps_historic_absolute_slack(self):
        """At sub-unit scale the tolerance floors at the historic
        absolute 1e-12, so tiny-horizon behaviour is unchanged."""
        state = self._state([(0.0, 1e-9)])
        bound = state.integrate(0.0, 1e-9)
        assert evaluate(DurationAtLeast(state, bound), 0.0, 1e-9)
        assert not evaluate(DurationAtLeast(state, bound + 1e-10), 0.0, 1e-9)
