"""Bit-identity of the vectorized decision core.

The contract of :mod:`repro.rbac.vector_engine` is *bit-identity*: for
any eligible batch, the vector sweep must return exactly the decisions
the per-request ``decide`` loop returns — same grants, same reasons,
same :class:`~repro.obs.provenance.DecisionProvenance`, same audit
order, and the same validity-tracker end state (including the recorded
timelines).  Every test here runs the same workload through a batch
call on one engine and through ``decide`` one request at a time on a
twin engine over the same policy, and compares.  (Whether those
decisions are *right* is checked against the definitions-level oracle
in ``tests/test_spec_oracle.py``.)

Ineligible batches must *fall back*, not fail: the fallback paths are
driven through configuration (a product over the reachability budget,
explicit history, ``observe_granted``).  Owner scope is swept.

The audit log keeps every decision, so what one decision retains is
gated too (``TestRetainedDecisions``): bytes per swept and per scalar
decision, no per-instance ``__dict__``, and the sharing of provenance
records between decisions.  A decision is its request plus one shared
``Outcome``; ``TestDecisionSurface`` pins its ten names, ``replace``,
equality, hash and immutability on the scalar, swept, service and
degraded paths.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.strategies as strategies
from repro.errors import ReproError
from repro.obs.provenance import CandidateProvenance, DecisionProvenance
from repro.rbac.audit import AuditLog, Decision, Outcome
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac.compiled import StateTable
from repro.srac.monitors import compile_constraint
from repro.srac.parser import parse_constraint
from repro.service.sharding import ShardedEngine
from repro.traces.trace import AccessKey

CHAIN_SRC = "exec r1 @ s1 >> exec r1 @ s2"
COUNT_SRC = "count(0, 3, [res = r1])"


def _norm(decision: Decision) -> Decision:
    """Session subject ids are globally unique; mask them out."""
    return dataclasses.replace(decision, subject_id="")


def _build_engines(permissions, durations):
    """One policy, two engines: the first takes batch calls, its twin
    replays the same requests through :func:`_decide_loop`."""
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    for i, (constraint, duration) in enumerate(zip(permissions, durations)):
        kwargs = {} if duration is None else {"validity_duration": duration}
        policy.add_permission(
            Permission(
                f"p{i}",
                op="exec",
                resource="r1",
                spatial_constraint=constraint,
                **kwargs,
            )
        )
        policy.assign_permission("r", f"p{i}")
    policy.assign_user("u", "r")
    out = []
    for _ in range(2):
        engine = AccessControlEngine(policy)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        out.append((engine, session))
    return out


def _decide_loop(
    engine, session, accesses, t, dt=0.0, history=None, observe_granted=False
):
    """What ``decide_batch`` promises to equal: one ``decide`` per
    request at ``t``, ``t + dt``, … (same clock accumulation), with
    granted accesses fed back through ``observe`` on request."""
    out, clock = [], t
    for access in accesses:
        decision = engine.decide(session, access, clock, history=history)
        if observe_granted and decision.granted:
            engine.observe(session, access)
        out.append(decision)
        clock += dt
    return out


def _decide_loop_many(engine, requests, t, dt):
    """``decide_batch_many``'s promise: one ``decide`` per
    ``(session, access)`` on the global clock ``t``, ``t + dt``, …"""
    out, clock = [], t
    for session, access in requests:
        out.append(engine.decide(session, access, clock, history=None))
        clock += dt
    return out


def _assert_equivalent(vec, sc):
    """Decisions, audit, counters and tracker timelines must agree."""
    (vec_engine, vec_session), (sc_engine, sc_session) = vec, sc
    assert [_norm(d) for d in vec_engine.audit] == [
        _norm(d) for d in sc_engine.audit
    ]
    assert vec_engine.audit.granted_count == sc_engine.audit.granted_count
    assert vec_engine.audit.denied_count == sc_engine.audit.denied_count
    assert set(vec_session.trackers) == set(sc_session.trackers)
    for key, sc_tracker in sc_session.trackers.items():
        vec_tracker = vec_session.trackers[key]
        assert vec_tracker.now == sc_tracker.now
        assert vec_tracker.state(sc_tracker.now) == sc_tracker.state(
            sc_tracker.now
        )
        assert vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
        assert vec_tracker.active_timeline() == sc_tracker.active_timeline()


class TestDifferentialProperty:
    """Random policies x random workloads: batch == decide loop, bitwise."""

    @given(
        constraint=strategies.constraints(max_leaves=4),
        duration=st.one_of(st.none(), st.integers(1, 8).map(float)),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=20),
        t0=st.integers(0, 5).map(float),
        dt=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_policy_bit_identity(
        self, constraint, duration, batch, t0, dt
    ):
        vec, sc = _build_engines([constraint], [duration])
        got = vec[0].decide_batch(vec[1], batch, t=t0, dt=dt)
        want = _decide_loop(sc[0], sc[1], batch, t=t0, dt=dt)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        _assert_equivalent(vec, sc)

    @given(
        c1=strategies.constraints(max_leaves=3),
        c2=strategies.constraints(max_leaves=3),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=12),
        dt=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_multi_candidate_bit_identity(self, c1, c2, batch, dt):
        """Several (role, permission) candidates per access: the
        first-grant short-circuit and the failing-candidate provenance
        must match the scalar walk exactly."""
        vec, sc = _build_engines([c1, c2], [3.0, None])
        got = vec[0].decide_batch(vec[1], batch, t=1.0, dt=dt)
        want = _decide_loop(sc[0], sc[1], batch, t=1.0, dt=dt)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        _assert_equivalent(vec, sc)

    def test_vector_path_actually_taken(self):
        vec, sc = _build_engines([parse_constraint(COUNT_SRC)], [None])
        batch = [AccessKey("exec", "r1", "s1")] * 10
        got = vec[0].decide_batch(vec[1], batch, t=1.0, dt=0.5)
        want = _decide_loop(sc[0], sc[1], batch, t=1.0, dt=0.5)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        stats = vec[0].cache_stats()
        assert stats.vector_decisions == 10
        assert stats.vector_fallbacks == 0
        assert sc[0].cache_stats().vector_decisions == 0

    def test_owner_scope_is_swept(self):
        """Owner scope reads the owner's combined history, which no
        sweep observes into: the batch is swept, and equals a twin
        engine's per-request loop.  A companion's three observations
        put the count bound out of reach for every request."""
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission("p", op="exec", resource="r1",
                       spatial_constraint=parse_constraint(COUNT_SRC))
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        vec, sc = [], []
        for pair in (vec, sc):
            engine = AccessControlEngine(policy, coordination_scope="owner")
            companion = engine.authenticate("u", 0.0)
            for server in ("s1", "s2", "s3"):
                engine.observe(companion, AccessKey("exec", "r1", server))
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            pair += (engine, session)
        batch = [AccessKey("exec", "r1", "s1")] * 6
        got = vec[0].decide_batch(vec[1], batch, t=1.0, dt=0.5)
        want = _decide_loop(sc[0], sc[1], batch, t=1.0, dt=0.5)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        _assert_equivalent(vec, sc)
        assert [d.provenance.kind for d in got] == ["spatial"] * 6
        assert got[0].provenance.history_len == 3
        stats = vec[0].cache_stats()
        assert stats.vector_decisions == 6
        assert stats.vector_fallbacks == 0


class TestTemporalBoundaries:
    def test_decision_exactly_at_expiry_instant(self):
        """``t >= expiry`` denies: the breakpoint arrays use
        ``side="right"``, which must agree at the boundary itself."""
        duration = 4.0
        vec, sc = _build_engines([None], [duration])
        # Role activation at 0.0 -> expiry at exactly 4.0.  The batch
        # instants 0, 2, 4, 6, 8 include the boundary itself.
        batch = [AccessKey("exec", "r1", "s1")] * 5
        got = vec[0].decide_batch(vec[1], batch, t=0.0, dt=2.0)
        want = _decide_loop(sc[0], sc[1], batch, t=0.0, dt=2.0)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert [d.granted for d in got] == [True, True, False, False, False]
        _assert_equivalent(vec, sc)

    def test_expiry_switch_recorded_at_same_instant(self):
        """The committed tracker advance must emit the validity-expired
        timeline switch at the same instant the scalar path records."""
        vec, sc = _build_engines([None], [2.0])
        batch = [AccessKey("exec", "r1", "s1")] * 8
        vec[0].decide_batch(vec[1], batch, t=0.5, dt=0.5)
        _decide_loop(sc[0], sc[1], batch, t=0.5, dt=0.5)
        _assert_equivalent(vec, sc)
        (tracker,) = vec[1].trackers.values()
        assert 2.0 in tracker.valid_timeline().switches


class TestFallbacks:
    def _grant_batch(self):
        return [AccessKey("exec", "r1", "s1")] * 6

    def test_uncached_srac_falls_back_identically(self):
        """A monitor product over the reachability budget has no live
        set, so the sweep cannot take it: the batch falls back to the
        scalar loop, whose spatial checks run the BFS."""
        constraint = parse_constraint("count(0, 100000, [res = r1])")
        vec, sc = _build_engines([constraint], [None])
        got = vec[0].decide_batch(vec[1], self._grant_batch(), t=1.0, dt=1.0)
        want = _decide_loop(sc[0], sc[1], self._grant_batch(), t=1.0, dt=1.0)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert vec[0].cache_stats().vector_fallbacks == 6

    def test_explicit_history_and_observe_granted_fall_back(self):
        constraint = parse_constraint(COUNT_SRC)
        for kwargs in (
            {"history": ()},
            {"observe_granted": True},
        ):
            vec, sc = _build_engines([constraint], [None])
            got = vec[0].decide_batch(
                vec[1], self._grant_batch(), t=1.0, dt=1.0, **kwargs
            )
            want = _decide_loop(
                sc[0], sc[1], self._grant_batch(), t=1.0, dt=1.0, **kwargs
            )
            assert [_norm(d) for d in got] == [_norm(d) for d in want]
            assert vec[0].cache_stats().vector_fallbacks == 6
            _assert_equivalent(vec, sc)

    def test_stale_time_falls_back(self):
        """A batch starting behind an existing tracker's clock cannot be
        swept (tracker queries must stay monotone) — and the scalar
        loop's behaviour, whatever it is, is reproduced."""
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines([constraint], [5.0])
        vec[0].decide_batch(vec[1], self._grant_batch()[:1], t=4.0)
        _decide_loop(sc[0], sc[1], self._grant_batch()[:1], t=4.0)
        outcomes = []
        for (engine, session), run in (
            (vec, AccessControlEngine.decide_batch),
            (sc, _decide_loop),
        ):
            try:
                result = run(engine, session, self._grant_batch()[:2], t=1.0, dt=0.5)
                outcomes.append([_norm(d) for d in result])
            except ReproError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1]
        assert vec[0].cache_stats().vector_fallbacks == 2


class TestAlphabetInterning:
    def test_step_ids_matches_monitor_steps(self):
        constraint = parse_constraint(COUNT_SRC)
        universe = tuple(
            AccessKey("exec", "r1", s) for s in ("s1", "s2", "s3")
        )
        compiled = compile_constraint(constraint)
        table = StateTable(compiled)
        state = table.initial
        for access in universe * 3:
            state = table.step(state, access)
        assert 0 <= state < table.n_states
        assert table.decode(state) == compiled.run(universe * 3)
        # Counting 9 accesses against count(0, 3) leaves a dead state.
        assert not table.live_mask(universe)[state]


class TestBatchMany:
    def _sessions(self, engine, k):
        out = []
        for _ in range(k):
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            out.append(session)
        return out

    def test_interleaved_stream_matches_scalar(self):
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines([constraint], [6.0])
        vec_sessions = [vec[1]] + self._sessions(vec[0], 2)
        sc_sessions = [sc[1]] + self._sessions(sc[0], 2)
        accesses = [
            AccessKey("exec", "r1", f"s{1 + i % 3}") for i in range(24)
        ]
        got = vec[0].decide_batch_many(
            [(vec_sessions[i % 3], accesses[i]) for i in range(24)],
            t=1.0,
            dt=0.25,
        )
        want = _decide_loop_many(
            sc[0], [(sc_sessions[i % 3], accesses[i]) for i in range(24)], 1.0, 0.25
        )
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert vec[0].cache_stats().vector_decisions == 24
        assert [_norm(d) for d in vec[0].audit] == [
            _norm(d) for d in sc[0].audit
        ]
        for v, s in zip(vec_sessions, sc_sessions):
            for key, sc_tracker in s.trackers.items():
                vec_tracker = v.trackers[key]
                assert vec_tracker.now == sc_tracker.now
                assert (
                    vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
                )

    def test_sharded_sweep_matches_plain_engine(self):
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission(
                "p",
                op="exec",
                resource="r1",
                spatial_constraint=parse_constraint(COUNT_SRC),
                validity_duration=8.0,
            )
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        sharded = ShardedEngine(policy, shards=3)
        plain = AccessControlEngine(policy)
        sh_sessions, pl_sessions = [], []
        for i in range(4):
            s = sharded.authenticate("u", 0.0, shard_key=f"agent-{i}")
            sharded.activate_role(s, "r", 0.0)
            sh_sessions.append(s)
            p = plain.authenticate("u", 0.0)
            plain.activate_role(p, "r", 0.0)
            pl_sessions.append(p)
        requests = [
            (i % 4, AccessKey("exec", "r1", f"s{1 + i % 3}"))
            for i in range(20)
        ]
        got = sharded.decide_batch_many(
            [(sh_sessions[j], a) for j, a in requests], t=2.0, dt=0.5
        )
        want = _decide_loop_many(
            plain, [(pl_sessions[j], a) for j, a in requests], 2.0, 0.5
        )
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert sum(s["decisions"] for s in sharded.shard_stats()) == 20

    def test_explicit_times_length_mismatch(self):
        constraint = parse_constraint(COUNT_SRC)
        vec, _sc = _build_engines([constraint], [None])
        with pytest.raises(ReproError):
            vec[0].decide_batch_many(
                [(vec[1], AccessKey("exec", "r1", "s1"))],
                t=0.0,
                times=[1.0, 2.0],
            )


class TestAuditRecordMany:
    def test_counters_match_scalar_recording(self):
        grant = Decision("s", AccessKey("e", "r", "s"), 1.0, Outcome(True))
        deny = Decision("s", AccessKey("e", "r", "s"), 2.0, Outcome(False))
        log = AuditLog()
        log.record_many([grant, deny, grant])
        assert (log.granted_count, log.denied_count) == (2, 1)
        log.record_many([deny, deny], granted=0)
        assert (log.granted_count, log.denied_count) == (2, 3)
        assert len(log) == 5
        assert list(log)[-1] is deny

    def test_empty_batch(self):
        log = AuditLog()
        log.record_many([])
        assert len(log) == 0
        assert log.grant_rate() == 0.0


class TestStateCodes:
    def test_state_codes_match_scalar_states(self):
        """The read-only vectorized state query agrees with repeated
        scalar queries at every instant, including breakpoints."""
        from repro.temporal.validity import (
            STATE_CODES,
            ValidityTracker,
        )

        tracker = ValidityTracker(duration=3.0)
        # Inactive tracker: every instant reads INACTIVE.
        inactive = tracker.state_codes_at(np.array([0.0, 0.5]))
        assert [STATE_CODES[c] for c in inactive.tolist()] == [
            tracker.state(0.0),
            tracker.state(0.5),
        ]
        tracker.activate(1.0)
        # Contract: query instants are >= now; the probe includes the
        # expiry breakpoint (activation 1.0 + duration 3.0 = 4.0).
        probe = np.array([1.0, 2.0, 3.999, 4.0, 4.5, 9.0])
        codes = tracker.state_codes_at(probe)
        scalar_states = [tracker.state(float(t)) for t in probe]
        assert [STATE_CODES[c] for c in codes.tolist()] == scalar_states


# Retained bytes per decision: the audit log keeps every decision, so
# what one costs is what the log grows by.  Budgets in bytes, measured
# by tracemalloc with the request stream built beforehand.
SWEPT_BUDGET_B = 100
SCALAR_BUDGET_B = 100


def _hot_population(sessions: int = 64):
    """The e2e ``hot_sessions`` shape in small: the scale policy with a
    count bound of 3 and 64 sessions, every fourth one pre-seeded past
    the bound (so ``exec rsw`` denies it spatially).  The alphabet also
    holds an access no permission matches."""
    from repro.workloads.scale import ScaleSpec, build_policy

    spec = ScaleSpec(
        sessions=sessions, users=16, servers=8, requests=1, count_bound=3
    )
    engine = AccessControlEngine(build_policy(spec))
    seed = AccessKey.of("exec", "rsw", "s0")
    handles = []
    for i in range(sessions):
        session = engine.authenticate(f"u{i % spec.users:05d}", 0.0)
        engine.activate_role(session, "agent", 0.0)
        if i % 4 == 0:
            for _ in range(spec.count_bound + 1):
                engine.observe(session, seed)
        handles.append(session)
    alphabet = [
        AccessKey.of(op, resource, f"s{j}")
        for op, resource in (
            ("exec", "rsw"), ("read", "rsw"), ("write", "log"), ("read", "log")
        )
        for j in range(spec.servers)
    ]
    return engine, handles, alphabet


def _retained_bytes_per_decision(run, n: int) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (current - base) / n


class TestRetainedDecisions:
    N = 8192

    def _stream(self, seed: int):
        """A warmed population and a seeded request stream over it:
        (session, access) pairs and their instants."""
        engine, handles, alphabet = _hot_population()
        # Warm every candidate list, table, tracker and memo entry.
        warm = [(s, a) for s in handles for a in alphabet]
        engine.decide_batch_many(warm, 0.5)
        rng = random.Random(seed)
        pairs = [(rng.choice(handles), rng.choice(alphabet)) for _ in range(self.N)]
        times = [1.0 + i * 1e-3 for i in range(self.N)]
        return engine, pairs, times

    def test_swept_decision_bytes_within_budget(self):
        engine, pairs, times = self._stream(15)
        before = len(engine.audit)

        def run():
            for lo in range(0, self.N, 256):
                engine.decide_batch_many(
                    pairs[lo:lo + 256], 0.0, times=times[lo:lo + 256]
                )

        per_decision = _retained_bytes_per_decision(run, self.N)
        kept = engine.audit.decisions()[before:]
        assert len(kept) == self.N
        assert engine.cache_stats().vector_fallbacks == 0
        assert {d.provenance.kind for d in kept} == {
            "granted", "spatial", "no-candidate"
        }
        assert per_decision <= SWEPT_BUDGET_B, per_decision
        assert not any(hasattr(d, "__dict__") for d in kept)

    def test_scalar_decision_bytes_within_budget(self):
        engine, pairs, times = self._stream(16)
        before = len(engine.audit)

        def run():
            for (session, access), t in zip(pairs, times):
                engine.decide(session, access, t, history=None)

        per_decision = _retained_bytes_per_decision(run, self.N)
        kept = engine.audit.decisions()[before:]
        assert len(kept) == self.N
        assert per_decision <= SCALAR_BUDGET_B, per_decision
        assert not any(hasattr(d, "__dict__") for d in kept)
        # Equal outcomes share one provenance record, across calls and
        # sessions.
        grants = [d for d in kept if d.granted]
        first = grants[0]
        twin = next(
            d for d in grants[1:]
            if d.provenance == first.provenance and d.subject_id != first.subject_id
        )
        assert twin.provenance is first.provenance
        provenances = [d.provenance for d in kept]
        assert len({id(p) for p in provenances}) == len(set(provenances))
        # A replaced permission empties the memo: the next spatial
        # denial names the new constraint text.
        i = next(i for i, d in enumerate(kept) if d.provenance.kind == "spatial")
        session, access = pairs[i]
        old = engine.policy.permission(kept[i].permission)
        source = "count(0, 2, [res = rsw])"
        engine.policy.replace_permission(
            dataclasses.replace(old, spatial_constraint=parse_constraint(source))
        )
        denial = engine.decide(session, access, times[-1] + 1.0, history=None)
        assert denial.provenance.kind == "spatial"
        assert denial.provenance.failing.constraint == source
        assert kept[i].provenance.failing.constraint != source
        assert list(engine._memo.outcomes.values()) == [denial.outcome]

    def test_sessions_of_one_sweep_share_provenance(self):
        """Equal outcomes of different sessions retain one
        ``DecisionProvenance``; it, the candidate records, grant tuples
        and reasons are shared across calls and with the scalar path."""
        engine, handles, _ = _hot_population()
        fresh_a, fresh_b = handles[1], handles[2]
        seeded_a, seeded_b = handles[0], handles[4]
        write = AccessKey.of("write", "log", "s1")
        exec_s2 = AccessKey.of("exec", "rsw", "s2")
        first = engine.decide_batch_many(
            [(fresh_a, write), (fresh_b, write),
             (seeded_a, exec_s2), (seeded_b, exec_s2)],
            1.0,
        )
        assert [d.provenance.kind for d in first] == [
            "granted", "granted", "spatial", "spatial"
        ]
        assert first[0] == dataclasses.replace(
            first[1], subject_id=first[0].subject_id
        )
        assert first[0].provenance is first[1].provenance
        assert first[2].provenance is first[3].provenance
        later = engine.decide_batch_many([(fresh_a, write), (seeded_a, exec_s2)], 2.0)
        scalar = engine.decide(fresh_b, write, 3.0, history=None)
        denied = engine.decide(seeded_b, exec_s2, 3.0, history=None)
        assert later[0].provenance.candidates is first[0].provenance.candidates
        assert scalar.provenance.candidates is first[0].provenance.candidates
        assert denied.provenance.failing is first[2].provenance.failing
        # The provenance records themselves are interned per engine.
        assert later[0].provenance is scalar.provenance is first[0].provenance
        assert denied.provenance is first[2].provenance
        assert denied.reason is first[2].reason
        assert later[1].reason is first[2].reason

    def test_scalar_decide_keeps_the_callers_access_key(self):
        engine, handles, _ = _hot_population()
        key = AccessKey("write", "log", "s3")
        assert engine.decide(handles[1], key, 1.0, history=None).access is key
        from_tuple = engine.decide(handles[1], ("write", "log", "s3"), 2.0)
        assert from_tuple.access is AccessKey.of("write", "log", "s3")


class TestDecisionSurface:
    """A ``Decision`` is its request plus one interned ``Outcome``; the
    ten names, ``replace``, equality, hash and immutability read as
    they did when all ten were slots of the record."""

    NAMES = (
        "subject_id", "access", "granted", "time", "role", "permission",
        "spatial_ok", "temporal_ok", "reason", "provenance",
    )
    WRITE = AccessKey.of("write", "log", "s1")
    EXEC = AccessKey.of("exec", "rsw", "s2")

    @staticmethod
    def _grant(access, t):
        record = CandidateProvenance(
            "agent", "write-log", None, True, True, "valid"
        )
        provenance = DecisionProvenance(
            kind="granted", candidates=(record,),
            history_mode="incremental", history_len=0,
        )
        return (access, True, t, "agent", "write-log", True, True, "",
                provenance)

    @staticmethod
    def _spatial(access, t):
        record = CandidateProvenance(
            "agent", "exec-rsw", "count(0, 3, [res = rsw])", False, True,
            "valid",
        )
        provenance = DecisionProvenance(
            kind="spatial", candidates=(record,),
            history_mode="incremental", history_len=4,
            foreign_servers=("s0",),
        )
        return (access, False, t, "agent", "exec-rsw", False, True,
                "spatial constraint of 'exec-rsw' cannot be satisfied",
                provenance)

    def _check_record(self, decision, subject_id, pinned):
        assert tuple(getattr(decision, n) for n in self.NAMES) == (
            subject_id, *pinned
        )
        masked = dataclasses.replace(decision, subject_id="")
        assert masked.subject_id == "" and masked.outcome is decision.outcome
        assert [getattr(masked, n) for n in self.NAMES[1:]] == list(pinned)
        # Equality and hash by value: a copy with its own outcome record.
        outcome = decision.outcome
        copy = Decision(
            subject_id, decision.access, decision.time,
            Outcome(*(getattr(outcome, f.name)
                      for f in dataclasses.fields(Outcome))),
        )
        assert copy.outcome is not outcome
        assert copy == decision and hash(copy) == hash(decision)
        assert dataclasses.replace(decision, time=decision.time + 1) != decision
        assert not hasattr(decision, "__dict__")
        for name in ("subject_id", "access", "time", "outcome"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(decision, name, None)
        for name in self.NAMES:
            with pytest.raises((AttributeError, TypeError)):
                setattr(decision, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.granted = not outcome.granted
        assert tuple(getattr(decision, n) for n in self.NAMES) == (
            subject_id, *pinned
        )

    def test_scalar_swept_served_and_degraded_decisions(self):
        from repro.faults import FaultPlan, fail_closed
        from repro.service import DecisionService
        from repro.workloads.scale import ScaleSpec, build_policy
        from tests.faultload import run_workload

        engine, handles, _ = _hot_population(8)
        scalar = engine.decide(handles[1], self.WRITE, 1.0, history=None)
        swept = engine.decide_batch_many(
            [(handles[2], self.WRITE), (handles[0], self.EXEC)], 2.0
        )
        denial = engine.decide(handles[4], self.EXEC, 3.0, history=None)
        assert engine.cache_stats().vector_decisions == 2
        self._check_record(
            scalar, handles[1].subject.subject_id, self._grant(self.WRITE, 1.0)
        )
        self._check_record(
            swept[0], handles[2].subject.subject_id,
            self._grant(self.WRITE, 2.0),
        )
        self._check_record(
            swept[1], handles[0].subject.subject_id,
            self._spatial(self.EXEC, 2.0),
        )
        # Equal outcomes share one record across sessions, the sweep
        # and the scalar path.
        assert swept[0].outcome is scalar.outcome
        assert denial.outcome is swept[1].outcome
        assert len(engine._memo.outcomes) == 2
        engine.close()

        spec = ScaleSpec(sessions=8, users=16, servers=8, requests=1)
        sharded = ShardedEngine(build_policy(spec), shards=4)
        service = DecisionService(sharded, workers=2)
        try:
            sessions = [
                sharded.authenticate(f"u{i:05d}", 0.0) for i in (1, 2)
            ]
            assert sharded.shard_of(sessions[0]) != sharded.shard_of(sessions[1])
            for session in sessions:
                sharded.activate_role(session, "agent", 0.0)
            served = [
                service.submit(session, self.WRITE, 4.0).result()
                for session in sessions
            ]
        finally:
            service.shutdown()
        for session, decision in zip(sessions, served):
            self._check_record(
                decision, session.subject.subject_id,
                self._grant(self.WRITE, 4.0),
            )
        assert served[0].outcome is served[1].outcome

        sim, _, naplets = run_workload(
            [("u0", "exec rsw @ s1 ; read r1 @ s2", "s1")], "batched",
            faults=FaultPlan(degradation=fail_closed()),
        )
        assert sim.degraded_denials == 1
        (degraded,) = naplets[0].denials
        (proof,) = naplets[0].registry.proofs()
        provenance = DecisionProvenance(
            kind="degraded", uncorroborated=(proof.digest,),
            detail="fail_closed",
        )
        self._check_record(degraded, "u0", (
            AccessKey.of("read", "r1", "s2"), False, 3.0, None, None, None,
            None, "degraded (fail_closed): 1 uncorroborated foreign proofs",
            provenance,
        ))
