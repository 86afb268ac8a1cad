"""The columnar session store: differentials, mechanics and tracker
reference.

Sessions live in :mod:`repro.rbac.session_store` columns; the
:class:`~repro.rbac.session_store.Session` handle is the engine's only
session representation.  The reference is the definitions-level oracle
(:mod:`tests.spec_oracle`; the all-paths harness is
``tests/test_spec_oracle.py``).  This module checks:

* store-backed sessions against the oracle over random single-session
  batches, interleaved multi-session walks with observe feedback, and
  session churn with server rescission — every verdict field, the audit
  order, and each open session's history, role set, last-seen instant
  and tracker states;
* the tracker cells — a :class:`~repro.rbac.session_store.ColumnTracker`
  and a standalone :class:`~repro.temporal.validity.ValidityTracker`
  must follow the oracle's Eq. 4.1 integral step for step (state,
  budget, expiry, clock and both timelines);
* bulk opens, the observed-view memo, idle expiry, ``AccessKey``
  interning, row recycling, closed-handle guards and the memory budget.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.strategies as strategies
from repro.errors import RbacError
from repro.rbac import session_store
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ShardedEngine
from repro.srac.parser import parse_constraint
from repro.temporal.validity import Scheme, ValidityTracker
from repro.traces.trace import AccessKey
from tests.spec_oracle import SpecOracle, spatial_ok, verdict

COUNT_SRC = "count(0, 3, [res = r1])"


def _norm(decision: Decision) -> Decision:
    """Subject ids are globally unique across engines; mask them."""
    return dataclasses.replace(decision, subject_id="")


def _policy(constraints, durations):
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    for i, (constraint, duration) in enumerate(zip(constraints, durations)):
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
    return policy


def _engine(policy, sharded: bool):
    """A plain engine, or a two-shard engine whose sessions reach the
    same store code through the shard wrapper."""
    if sharded:
        return ShardedEngine(policy, shards=2)
    return AccessControlEngine(policy)


def _build_with_oracle(constraints, durations, sessions=1):
    """One policy, a store-backed engine and the oracle, with
    ``sessions`` sessions opened and role ``r`` activated at 0.0 on
    both sides (oracle session ids are the list indices)."""
    policy = _policy(constraints, durations)
    engine = AccessControlEngine(policy)
    oracle = SpecOracle({"r": list(policy.permissions.values())})
    opened = []
    for k in range(sessions):
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        oracle.open(k, 0.0)
        oracle.activate(k, "r", 0.0)
        opened.append(session)
    return engine, opened, oracle


def _clock(t, dt, n):
    """``t, t + dt, …`` on the engine's ``clock += dt`` accumulation."""
    out = []
    for _ in range(n):
        out.append(t)
        t += dt
    return out


def _assert_matches_oracle(engine, sessions, oracle, decisions, expected, last_seen):
    """Every decision carries the oracle's verdict, the audit holds
    exactly those decisions in stream order, and every open session's
    history, role set, last-seen instant and tracker states are what
    the oracle's replay implies."""
    assert [verdict(d) for d in decisions] == [
        dataclasses.astuple(e) for e in expected
    ]
    assert list(engine.audit) == decisions
    assert engine.audit.granted_count == sum(d.granted for d in decisions)
    live = [k for k, state in oracle.sessions.items() if not state.closed]
    assert engine.resident_sessions() == len(live)
    permissions = {
        p.name: p for perms in oracle.role_permissions.values() for p in perms
    }
    for k in live:
        session, state = sessions[k], oracle.sessions[k]
        assert session.observed == tuple(state.history)
        assert {role.name for role in session.role_set()} == state.roles
        assert session.last_seen == last_seen[k]
        assert set(session.trackers) == set(state.intervals)
        for name, tracker in session.trackers.items():
            permission, now = permissions[name], tracker.now
            assert tracker.state(now).value == oracle.temporal_state(
                k, permission, now
            )
            budget = permission.validity_duration
            if not math.isinf(budget):
                budget = max(0.0, budget - oracle.consumed(k, name, now))
            assert tracker.remaining_budget(now) == budget


class TestDifferentialProperty:
    """Random policies x random workloads: store-backed sessions
    against the oracle, bitwise on every verdict field."""

    @given(
        constraint=strategies.constraints(max_leaves=4),
        duration=st.one_of(st.none(), st.integers(1, 8).map(float)),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=16),
        dt=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_single_session_bit_identity(self, constraint, duration, batch, dt):
        engine, sessions, oracle = _build_with_oracle([constraint], [duration])
        times = _clock(1.0, dt, len(batch))
        got = engine.decide_batch(sessions[0], batch, t=1.0, dt=dt)
        want = [oracle.decide(0, a, when) for a, when in zip(batch, times)]
        _assert_matches_oracle(
            engine, sessions, oracle, got, want, {0: times[-1]}
        )

    @given(
        constraint=strategies.constraints(max_leaves=3),
        duration=st.one_of(st.none(), st.integers(1, 6).map(float)),
        walk=st.lists(
            st.tuples(st.integers(0, 3), strategies.access_keys()),
            min_size=1,
            max_size=24,
        ),
        observe_every=st.sampled_from([0, 2]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_interleaved_walk_bit_identity(
        self, constraint, duration, walk, observe_every
    ):
        """An interleaved multi-session stream — scalar decides plus
        granted-observation feedback plus a vectorized sweep — must
        decide as the oracle does and leave the sessions in the states
        its replay implies."""
        engine, sessions, oracle = _build_with_oracle(
            [constraint], [duration], sessions=4
        )
        decisions, expected = [], []
        last_seen = dict.fromkeys(range(4), 0.0)
        t = 1.0
        for step, (idx, access) in enumerate(walk):
            t += 0.5
            got = engine.decide(sessions[idx], access, t, history=None)
            want = oracle.decide(idx, access, t)
            decisions.append(got)
            expected.append(want)
            last_seen[idx] = t
            if observe_every and step % observe_every == 0:
                if got.granted:
                    engine.observe(sessions[idx], access)
                if want.granted:
                    oracle.observe(idx, access)
        times = _clock(t + 1.0, 0.25, len(walk))
        decisions += engine.decide_batch_many(
            [(sessions[i], a) for i, a in walk], t=t + 1.0, dt=0.25
        )
        for (idx, access), when in zip(walk, times):
            expected.append(oracle.decide(idx, access, when))
            last_seen[idx] = when
        _assert_matches_oracle(
            engine, sessions, oracle, decisions, expected, last_seen
        )

    @given(
        closes=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        rescind=st.booleans(),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_churn_and_rescind_bit_identity(self, closes, rescind, batch):
        """Closing sessions mid-stream and rescinding a server's
        observations must leave the survivors deciding as the oracle
        does, with exactly the oracle's histories."""
        constraint = parse_constraint(COUNT_SRC)
        engine, sessions, oracle = _build_with_oracle(
            [constraint], [None], sessions=6
        )
        seed = AccessKey.of("exec", "r1", "s1")
        for k, session in enumerate(sessions):
            for _ in range(k % 4):
                engine.observe(session, seed)
                oracle.observe(k, seed)
        requests = [(i % 6, a) for i, a in enumerate(batch)]
        times = _clock(1.0, 0.5, len(requests))
        decisions = engine.decide_batch_many(
            [(sessions[k], a) for k, a in requests], t=1.0, dt=0.5
        )
        expected = [
            oracle.decide(k, a, when) for (k, a), when in zip(requests, times)
        ]
        last_seen = dict.fromkeys(range(6), 0.0)
        for (k, _), when in zip(requests, times):
            last_seen[k] = when
        for idx in closes:
            if oracle.sessions[idx].closed:
                continue
            engine.close_session(sessions[idx], 50.0)
            oracle.close(idx, 50.0)
        if rescind:
            held = sum(
                a.server == "s1"
                for state in oracle.sessions.values()
                if not state.closed
                for a in state.history
            )
            assert engine.rescind_server("s1") == held
            oracle.rescind("s1")
        survivors = [k for k, state in oracle.sessions.items() if not state.closed]
        for n, k in enumerate(survivors):
            decisions.append(
                engine.decide(sessions[k], seed, 60.0 + n, history=None)
            )
            expected.append(oracle.decide(k, seed, 60.0 + n))
            last_seen[k] = 60.0 + n
        _assert_matches_oracle(
            engine, sessions, oracle, decisions, expected, last_seen
        )


class TestTrackerReference:
    """Trackers against Eq. 4.1 as the oracle integrates it."""

    @given(
        scheme=st.sampled_from(list(Scheme)),
        duration=st.sampled_from([math.inf, 1.0, 2.5, 4.0]),
        start=st.sampled_from([0.0, 1.5]),
        events=st.lists(
            st.tuples(
                st.sampled_from(["activate", "deactivate", "migrate", "state"]),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_column_tracker_matches_validity_tracker(
        self, scheme, duration, start, events
    ):
        """A store row's tracker and a standalone one, after every
        event: the oracle's state, the budget left (``dur − ∫_{t_b}^{t}
        active``, clipped at 0) and the expiry instant it implies, the
        clock, and the recorded timelines integrated from ``t_b``
        (``∫ active`` for ``active``, ``min(∫ active, dur)`` for
        ``valid``).  Every instant and budget is a multiple of 0.25, so
        the float compares are exact."""
        engine = AccessControlEngine(_policy([None], [None]), scheme=scheme)
        session = engine.authenticate("u", start)
        trackers = (
            session.create_tracker("k", duration),
            ValidityTracker(duration, scheme=scheme, start_time=start),
        )
        permission = Permission("k", validity_duration=duration)
        oracle = SpecOracle(
            {"r": [permission]}, per_server=scheme is Scheme.PER_SERVER
        )
        oracle.open("s", start)
        t = start
        for kind, step in events:
            t += step
            for tracker in trackers:
                getattr(tracker, kind)(t)
            if kind == "migrate":
                oracle.migrate("s", t)
            elif kind != "state":
                getattr(oracle, kind)("s", "r", t)
            consumed = oracle.consumed("s", "k", t)
            t_b = oracle.sessions["s"].base
            state = oracle.temporal_state("s", permission, t)
            expiry = (
                t + (duration - consumed)
                if state == "valid" and not math.isinf(duration)
                else None
            )
            for tracker in trackers:
                assert tracker.state().value == state
                assert tracker.remaining_budget() == max(0.0, duration - consumed)
                assert tracker.expiry_time() == expiry
                assert tracker.now == t
                assert tracker.active_timeline().integrate(t_b, t) == consumed
                assert tracker.valid_timeline().integrate(t_b, t) == min(
                    consumed, duration
                )


class TestBulkOpen:
    @staticmethod
    def _assert_twins(bulk_sessions, scalar_sessions):
        """Same role set, tracker keys, clocks, states and both
        timelines, session by session."""
        for bs, ss in zip(bulk_sessions, scalar_sessions):
            assert bs.role_set() == ss.role_set()
            assert set(bs.trackers) == set(ss.trackers)
            for key, st_tracker in ss.trackers.items():
                tracker = bs.trackers[key]
                assert tracker.now == st_tracker.now
                assert tracker.state() is st_tracker.state()
                assert tracker.valid_timeline() == st_tracker.valid_timeline()
                assert (
                    tracker.active_timeline() == st_tracker.active_timeline()
                )

    def test_bulk_open_equals_scalar_establishment(self):
        """``open_sessions`` must leave every session exactly as
        ``authenticate`` + ``activate_role`` would: same role set,
        tracker states and ``valid``/``active`` timelines, identical
        subsequent decisions, and identical timelines after a later
        deactivation, reactivation, migration and expiry crossing —
        under both validity schemes."""
        constraint = parse_constraint(COUNT_SRC)
        policy = _policy([constraint, None], [5.0, 20.0])
        access = AccessKey.of("exec", "r1", "s1")
        # Decides at 2, 4 and 7 (p0's budget ends at 6 unless a
        # migration renewed it), then deactivate → reactivate, and a
        # decide past every remaining expiry.
        steps = (
            ("decide", 2.0),
            ("notify_migration", 3.0),
            ("decide", 4.0),
            ("decide", 7.0),
            ("deactivate_role", 8.0),
            ("activate_role", 9.0),
            ("notify_migration", 10.0),
            ("decide", 31.0),
        )
        for scheme in (Scheme.WHOLE_EXECUTION, Scheme.PER_SERVER):
            bulk_engine = AccessControlEngine(policy, scheme=scheme)
            scalar_engine = AccessControlEngine(policy, scheme=scheme)
            rows = bulk_engine.open_sessions(["u"] * 8, 1.0, roles=("r",))
            bulk_sessions = [bulk_engine.session_at(r) for r in rows]
            scalar_sessions = []
            for _ in range(8):
                session = scalar_engine.authenticate("u", 1.0)
                scalar_engine.activate_role(session, "r", 1.0)
                scalar_sessions.append(session)
            self._assert_twins(bulk_sessions, scalar_sessions)
            for op, t in steps:
                outcomes = []
                for engine, sessions in (
                    (bulk_engine, bulk_sessions),
                    (scalar_engine, scalar_sessions),
                ):
                    if op == "decide":
                        outcomes.append(
                            [
                                _norm(engine.decide(s, access, t, history=None))
                                for s in sessions
                            ]
                        )
                    elif op == "notify_migration":
                        for s in sessions:
                            engine.notify_migration(s, t)
                    else:
                        for s in sessions:
                            getattr(engine, op)(s, "r", t)
                if outcomes:
                    assert outcomes[0] == outcomes[1]
                self._assert_twins(bulk_sessions, scalar_sessions)
            # The last decide crossed an expiry on every session.
            for session in bulk_sessions:
                assert not any(
                    tracker.is_valid() for tracker in session.trackers.values()
                )

    def test_recycled_bulk_row_implies_no_open_events(self):
        """A bulk-opened row closed and reused by ``authenticate`` (with
        a bumped generation) must not inherit the implied open-time
        events: its timelines are a scalar twin's, and a standalone
        ``ValidityTracker``'s (whose private one-row cells hold no
        implied open events) for the same authentication and activation
        instants."""
        policy = _policy([parse_constraint(COUNT_SRC)], [5.0])
        bulk_engine = AccessControlEngine(policy)
        scalar_engine = AccessControlEngine(policy)
        rows = bulk_engine.open_sessions(["u"] * 3, 1.0, roles=("r",))
        closed = bulk_engine.session_at(rows[1])
        row, gen = closed._row, closed._gen
        bulk_engine.close_session(closed, 2.0)
        recycled = bulk_engine.authenticate("u", 3.0)
        assert (recycled._row, recycled._gen) == (row, gen + 1)
        twin = scalar_engine.authenticate("u", 3.0)
        bulk_engine.activate_role(recycled, "r", 4.0)
        scalar_engine.activate_role(twin, "r", 4.0)
        self._assert_twins([recycled], [twin])
        reference = ValidityTracker(5.0, start_time=3.0)
        reference.activate(4.0)
        (tracker,) = recycled.trackers.values()
        assert tracker.valid_timeline() == reference.valid_timeline()
        assert tracker.active_timeline() == reference.active_timeline()

    def test_bulk_open_rejects_unknown_role_and_user(self):
        policy = _policy([None], [None])
        engine = AccessControlEngine(policy)
        with pytest.raises(RbacError):
            engine.open_sessions(["nobody"], 0.0, roles=("r",))
        assert engine.resident_sessions() == 0


class TestObservedViewMemo:
    """The ``observed`` tuple view must rebuild once per mutation
    batch, not once per appended access — on a plain engine and through
    the shard wrapper alike."""

    def _session(self, sharded: bool, src: str = COUNT_SRC):
        engine = _engine(_policy([parse_constraint(src)], [None]), sharded)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        return engine, session

    @pytest.mark.parametrize("sharded", [True, False])
    def test_view_rebuilds_coalesce_per_batch(self, sharded):
        engine, session = self._session(sharded)
        access = AccessKey.of("exec", "r1", "s1")
        assert session.view_rebuilds == 0
        # Repeated reads of an unchanged history share one rebuild.
        assert session.observed == ()
        assert session.observed == ()
        assert session.view_rebuilds == 1
        # A batch of appended observations is one invalidation: the
        # next read rebuilds once, further reads are free.
        session.record_observations([access] * 50)
        assert len(session.observed) == 50
        assert session.observed is session.observed
        assert session.view_rebuilds == 2
        # Scalar appends never rebuild until somebody actually reads.
        for _ in range(25):
            session.record_observation(access)
        assert session.view_rebuilds == 2
        assert len(session.observed) == 75
        assert session.view_rebuilds == 3

    @pytest.mark.parametrize("sharded", [True, False])
    def test_incremental_decides_never_materialize_view(self, sharded):
        """The subject-scope incremental *grant* path reads only the
        history length — a million-session sweep must not rebuild a
        tuple per session per batch.  (Denial provenance legitimately
        walks the history for its coordination footprint.)"""
        engine, session = self._session(sharded, "count(0, 100, [res = r1])")
        access = AccessKey.of("exec", "r1", "s1")
        for i in range(6):
            assert engine.decide(
                session, access, 1.0 + i, history=None
            ).granted
            engine.observe(session, access)
        assert session.view_rebuilds == 0
        engine.decide_batch(session, [access] * 4, t=10.0, dt=0.5)
        assert session.view_rebuilds == 0


class TestIdleExpiry:
    def _engine(self, sharded: bool):
        engine = _engine(_policy([None], [None]), sharded)
        sessions = []
        for k in range(4):
            if sharded:
                session = engine.authenticate("u", 0.0, shard_key=f"agent-{k}")
            else:
                session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            sessions.append(session)
        return engine, sessions

    @pytest.mark.parametrize("sharded", [True, False])
    def test_idle_sessions_expire(self, sharded):
        engine, sessions = self._engine(sharded)
        access = AccessKey.of("exec", "r1", "s1")
        # Sessions 0 and 1 stay hot; 2 and 3 never decide again.
        for t in (10.0, 20.0, 30.0):
            engine.decide(sessions[0], access, t, history=None)
            engine.decide(sessions[1], access, t + 0.5, history=None)
        # A sharded engine's default "now" is each shard's own latest
        # activity, so it gets the instant explicitly.
        now = 30.5 if sharded else None
        assert engine.expire_sessions(now=now, idle_for=25.0) == 2
        assert engine.resident_sessions() == 2
        # The hot pair survives and keeps deciding.
        decision = engine.decide(sessions[0], access, 40.0, history=None)
        assert decision.granted
        # Everything idles out relative to the latest activity.
        now = 40.0 if sharded else None
        assert engine.expire_sessions(now=now, idle_for=0.0) == 2
        assert engine.resident_sessions() == 0

    @pytest.mark.parametrize("sharded", [True, False])
    def test_expire_nothing_when_fresh(self, sharded):
        engine, _ = self._engine(sharded)
        assert engine.expire_sessions(idle_for=1.0) == 0
        assert engine.resident_sessions() == 4

    def test_service_idle_sweep_counts_expired(self):
        engine = ShardedEngine(_policy([None], [None]), shards=2)
        with DecisionService(
            engine,
            workers=2,
            idle_expiry=5.0,
            idle_sweep_interval_s=0.01,
        ) as service:
            stale = engine.authenticate("u", 0.0)
            engine.activate_role(stale, "r", 0.0)
            hot = engine.authenticate("u", 0.0)
            engine.activate_role(hot, "r", 0.0)
            access = AccessKey.of("exec", "r1", "s1")
            service.submit(hot, access, 100.0).result(timeout=30.0)
            deadline = 100
            while service.service_stats().expired_sessions < 1:
                deadline -= 1
                assert deadline > 0, "idle sweep never fired"
                import time

                time.sleep(0.02)
            stats = service.service_stats()
            assert stats.expired_sessions == 1
            assert engine.resident_sessions() == 1
            assert "expired_sessions" in stats.as_dict()

    def test_service_rejects_bad_idle_config(self):
        from repro.errors import ServiceError

        engine = ShardedEngine(_policy([None], [None]), shards=1)
        with pytest.raises(ServiceError):
            DecisionService(engine, idle_expiry=0.0)
        with pytest.raises(ServiceError):
            DecisionService(engine, idle_sweep_interval_s=0.0)


class TestAccessKeyInterning:
    def test_of_returns_one_instance_per_key(self):
        a = AccessKey.of("read", "r1", "s1")
        b = AccessKey.of(("read", "r1", "s1"))
        c = AccessKey.of(AccessKey("read", "r1", "s1"))
        assert a is b is c
        assert a == ("read", "r1", "s1")
        assert AccessKey.of("read", "r1", "s2") is not a

    def test_record_observation_interns(self):
        engine = AccessControlEngine(_policy([None], [None]))
        session = engine.authenticate("u", 0.0)
        session.record_observation(("exec", "r1", "s1"))
        session.record_observation(AccessKey("exec", "r1", "s1"))
        first, second = session.observed
        assert first is second
        assert first is AccessKey.of("exec", "r1", "s1")


class TestStoreMechanics:
    def _engine(self):
        return AccessControlEngine(
            _policy([parse_constraint(COUNT_SRC)], [4.0])
        )

    def test_handles_are_cached_and_materializable(self):
        engine = self._engine()
        session = engine.authenticate("u", 0.0)
        assert engine.materialize(session.session_id) is session
        assert engine.session_at(session._row) is session
        sid, row = session.session_id, session._row
        del session
        gc.collect()
        # The row is still live; a fresh handle materialises from it.
        revived = engine.materialize(sid)
        assert revived.session_id == sid
        assert revived._row == row

    def test_rows_recycle_with_generation_bump(self):
        engine = self._engine()
        first = engine.authenticate("u", 0.0)
        first.record_observation(("exec", "r1", "s1"))
        row, gen = first._row, first._gen
        sid = first.session_id
        engine.close_session(first, 1.0)
        # Closing frees the row at once, though ``first`` is still held.
        second = engine.authenticate("u", 2.0)
        assert second._row == row
        assert second._gen == gen + 1
        assert second.start_time == 2.0
        assert second.observed == ()
        assert first.observed == ()
        with pytest.raises(RbacError):
            engine.materialize(sid)

    def test_dead_handle_operations_fail_closed(self):
        engine = self._engine()
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        engine.close_session(session, 1.0)
        assert engine.resident_sessions() == 0
        # Double close is a no-op (generation guard).
        engine.close_session(session, 2.0)
        assert engine.resident_sessions() == 0

    def test_closed_session_cannot_be_rearmed(self):
        """A closed handle must not take roles or observations again —
        otherwise it decides ``granted`` while no session is resident."""
        engine = self._engine()
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        access = AccessKey.of("exec", "r1", "s1")
        engine.close_session(session, 1.0)
        with pytest.raises(RbacError):
            engine.activate_role(session, "r", 2.0)
        with pytest.raises(RbacError):
            engine.observe(session, access)
        assert session.observed == ()
        decision = engine.decide(session, access, 3.0, history=None)
        assert not decision.granted
        assert decision.provenance.kind == "no-candidate"
        assert engine.resident_sessions() == 0

    def test_stale_handle_reads_closed_and_cannot_write(self):
        """A closed session's handle and tracker view, held while its
        row is reused: the handle reads as a closed session, each of its
        writes and each method of the view raises, and every decide path
        denies it with no candidate over an empty history — leaving the
        row's new occupant exactly as its twin in a second engine."""
        engine, twin_engine = self._engine(), self._engine()
        access = AccessKey.of("exec", "r1", "s1")
        a = engine.authenticate("u", 0.0)
        engine.activate_role(a, "r", 0.0)
        engine.observe(a, access)
        (key,) = a.trackers
        view = a.trackers[key]
        row, gen = a._row, a._gen
        engine.close_session(a, 1.0)
        b = engine.authenticate("u", 2.0)
        assert (b._row, b._gen) == (row, gen + 1)
        twin = twin_engine.authenticate("u", 2.0)
        for eng, session in ((engine, b), (twin_engine, twin)):
            eng.activate_role(session, "r", 2.0)
            eng.observe(session, access)

        def state(session):
            return (
                session.observed,
                session.role_set(),
                session.last_seen,
                {
                    k: (
                        tracker.state(),
                        tracker.now,
                        tracker.valid_timeline(),
                        tracker.active_timeline(),
                    )
                    for k, tracker in session.trackers.items()
                },
            )

        assert state(b) == state(twin)
        role = engine.policy.role("r")
        writes = [
            lambda: engine.activate_role(a, "r", 3.0),
            lambda: engine.observe(a, access),
            lambda: a.record_observation(access),
            lambda: a.record_observations([access]),
            lambda: setattr(a, "observed", [access]),
            lambda: a.active_roles.add(role),
            lambda: setattr(a, "active_roles", {role}),
            lambda: a.create_tracker(key, 4.0),
        ]
        for write in writes:
            with pytest.raises(RbacError):
                write()
        view_calls = {
            "duration": lambda: view.duration,
            "activate": lambda: view.activate(3.0),
            "deactivate": lambda: view.deactivate(3.0),
            "migrate": lambda: view.migrate(3.0),
            "state": lambda: view.state(3.0),
            "is_valid": lambda: view.is_valid(),
            "remaining_budget": lambda: view.remaining_budget(),
            "expiry_time": lambda: view.expiry_time(),
            "state_codes_at": lambda: view.state_codes_at(np.array([3.0])),
            "valid_timeline": lambda: view.valid_timeline(),
            "active_timeline": lambda: view.active_timeline(),
            "now": lambda: view.now,
        }
        public = {n for n in dir(view) if not n.startswith("_")} - {"scheme"}
        assert public == set(view_calls)
        for name, call in view_calls.items():
            with pytest.raises(RbacError):
                call()
        assert a.observed == () and a.observed_len() == 0
        assert a.role_set() == frozenset() and not a.active_roles
        assert dict(a.trackers) == {} and key not in a.trackers
        a.touch(50.0)
        engine.close_session(a, 3.0)
        assert engine.resident_sessions() == 1
        assert state(b) == state(twin)

        def assert_closed(decisions):
            for decision in decisions:
                assert not decision.granted
                assert decision.provenance.kind == "no-candidate"
                assert decision.provenance.history_len == 0

        assert_closed([engine.decide(a, access, 3.0, history=None)])
        assert_closed(engine.decide_batch(a, [access] * 3, 3.0, dt=0.5))
        many = engine.decide_batch_many(
            [(a, access), (b, access), (a, access), (b, access)], 4.0, dt=0.5
        )
        assert_closed(many[0::2])
        expected = twin_engine.decide_batch_many(
            [(twin, access), (twin, access)], 0.0, times=[4.5, 5.5]
        )
        assert [_norm(d) for d in many[1::2]] == [_norm(d) for d in expected]
        assert [d.granted for d in expected] == [True, True]
        assert [_norm(engine.decide(b, access, 6.5, history=None))] == [
            _norm(twin_engine.decide(twin, access, 6.5, history=None))
        ]
        assert state(b) == state(twin)

    def test_store_invalidation_on_policy_change(self):
        engine = self._engine()
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        access = AccessKey.of("exec", "r1", "s1")
        for t in (1.0, 2.0):
            engine.observe(session, access)
            engine.decide(session, access, t, history=None)
        engine.invalidate_caches()
        # Monitor states rebuild from the observation arena.
        decision = engine.decide(session, access, 3.0, history=None)
        assert decision.granted

    def test_wide_monitor_product_stays_uncached(self, monkeypatch):
        """A monitor product too wide for the int64 cell gets no store
        column; its states are refolded from the row's observations on
        every read.  With the limit at 1 every constraint takes that
        path, and decide, observe and both batch calls still agree with
        the oracle's spatial check — the sweep included."""
        monkeypatch.setattr(session_store, "MAX_MONITOR_PRODUCT", 1)
        constraints = [
            parse_constraint("count(0, 1, [res = r1])"),
            parse_constraint("~(exec r1 @ s2)"),
        ]
        engine = AccessControlEngine(_policy(constraints, [None, None]))
        sessions = []
        for _ in range(2):
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            sessions.append(session)
        histories: list[list[AccessKey]] = [[], []]

        def expected(k, access):
            return any(spatial_ok(c, histories[k], access) for c in constraints)

        accesses = [AccessKey.of("exec", "r1", f"s{i % 3}") for i in range(6)]
        for i, access in enumerate(accesses):
            decision = engine.decide(sessions[0], access, 1.0 + i, history=None)
            assert decision.granted == expected(0, access)
            if decision.granted:
                engine.observe(sessions[0], access)
                histories[0].append(access)
        batch = engine.decide_batch(sessions[0], accesses, 7.0, dt=1.0)
        requests = [(sessions[i % 2], a) for i, a in enumerate(accesses)]
        many = engine.decide_batch_many(requests, 13.0, dt=1.0)
        assert [d.granted for d in batch] == [expected(0, a) for a in accesses]
        assert [d.granted for d in many] == [
            expected(i % 2, a) for i, a in enumerate(accesses)
        ]
        assert {d.granted for d in batch} == {True, False}
        assert not engine._store._monitors
        stats = engine.cache_stats()
        assert (stats.vector_decisions, stats.vector_fallbacks) == (12, 0)


class TestMemoryBudget:
    N = 20_000

    def _bulk_open(self):
        """Bulk-open ``N`` sessions into a reserved store under
        tracemalloc; return the engine, the rows and the marginal
        traced / column bytes per session."""
        from repro.workloads.scale import ScaleSpec, build_policy

        n = self.N
        spec = ScaleSpec(sessions=n, users=100, servers=8, requests=1)
        engine = AccessControlEngine(build_policy(spec))
        names = [f"u{i % spec.users:05d}" for i in range(n)]
        engine._store.reserve(n)
        gc.collect()
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        rows = engine.open_sessions(names, 0.0, roles=("agent",))
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert engine.resident_sessions() == n
        traced = (current - base - rows.nbytes) / n
        columns = engine._store.nbytes() / n
        return engine, rows, traced, columns

    def test_bytes_per_session_within_budget(self):
        """The store gate, in miniature: marginal store overhead for a
        bulk-opened population (capacity reserved so doubling slack is
        excluded) must stay within 200 B/session."""
        _engine, _rows, traced, columns = self._bulk_open()
        assert max(traced, columns) <= 200.0, (traced, columns)

    def test_bytes_per_session_within_budget_with_timelines(self):
        """The same gate, with the timelines it pays for checked: a
        bulk-opened row's open-time timeline events are implied by the
        row, not stored, so the event arenas stay empty and the rows
        still replay their open-time switches."""
        engine, rows, traced, columns = self._bulk_open()
        assert max(traced, columns) <= 200.0, (traced, columns)
        arenas = list(engine._store._trackers.values())
        assert arenas
        assert all(tc.ev_row.count == 0 for tc in arenas)
        for row in (rows[0], rows[-1]):
            session = engine.session_at(row)
            assert session.trackers
            for tracker in session.trackers.values():
                assert tracker.valid_timeline().switches.tolist() == [0.0]
                assert tracker.active_timeline().switches.tolist() == [0.0]
                assert tracker.valid_timeline().value_at(0.0)
