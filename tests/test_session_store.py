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
* bulk opens, the cells bulk-opened rows share until their first
  write (a row holds only its identity; its start and last-seen times,
  role set and observation log live in its cell, beside its trackers
  and monitors), the observed-view memo, idle expiry, ``AccessKey``
  interning, row recycling, closed-handle and refused-close guards and
  the memory budget.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rbac.engine as rbac_engine
import repro.rbac.model as rbac_model
import tests.strategies as strategies
from repro.errors import RbacError, ServiceError, TemporalError
from repro.rbac import session_store
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ShardedEngine
from repro.srac import compiled as srac_compiled
from repro.srac import reachability
from repro.srac.parser import parse_constraint
from repro.temporal.validity import PermissionState, Scheme, ValidityTracker
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

    def test_bulk_open_reuses_expired_rows(self):
        """A bulk open after expiry fills the freed rows, in the order
        ``authenticate`` would take them, before it grows the store:
        capacity and ``nbytes()`` stay put, every reopened row reads as
        a freshly bulk-opened session, and handles to the expired
        occupancies still read as closed."""
        n = 2_000
        policy = _policy([parse_constraint(COUNT_SRC), None], [5.0, 20.0])
        engine = AccessControlEngine(policy)
        store = engine._store
        rows = engine.open_sessions(["u"] * n, 1.0, roles=("r",))
        stale = [engine.session_at(r) for r in rows[::97]]
        engine.decide(stale[0], ACCESS, 2.0, history=None)  # one own cell
        capacity, nbytes = store.capacity, store.nbytes()
        assert engine.expire_sessions(now=5.0, idle_for=0.0) == n
        pop_order = store._free[::-1]
        reopened = engine.open_sessions(["u"] * n, 6.0, roles=("r",))
        assert reopened.tolist() == pop_order
        assert sorted(pop_order) == rows.tolist()
        assert (store.capacity, store.nbytes()) == (capacity, nbytes)
        assert engine.resident_sessions() == n and store.own_cells() == 0
        twin_engine = AccessControlEngine(policy)
        (twin_row,) = twin_engine.open_sessions(["u"], 6.0, roles=("r",))
        twin = twin_engine.session_at(twin_row)
        fresh = [engine.session_at(r) for r in reopened]
        self._assert_twins(fresh, [twin] * n)
        for session in fresh:
            assert (session.start_time, session.last_seen) == (6.0, 6.0)
            assert session.observed == ()
        want = _norm(twin_engine.decide(twin, ACCESS, 7.0, history=None))
        for session in fresh:
            assert _norm(engine.decide(session, ACCESS, 7.0, history=None)) == want
        fresh_ids = {session.session_id for session in fresh}
        for handle in stale:
            assert not handle._is_open() and handle.session_id not in fresh_ids
            assert handle.role_set() == frozenset() and handle.trackers == {}
            assert handle.observed == () and handle.last_seen == -math.inf
            with pytest.raises(RbacError):
                handle.require_open()

    def test_bulk_open_at_nan_is_refused(self):
        """A bulk open that would activate trackers at a NaN instant is
        refused with the error ``activate_role`` gives there, before any
        shard opens a row; one that activates none opens, as
        ``authenticate`` does."""
        policy = _policy([parse_constraint(COUNT_SRC)], [5.0])
        scalar = AccessControlEngine(policy)
        session = scalar.authenticate("u", math.nan)
        with pytest.raises(TemporalError) as scalar_error:
            scalar.activate_role(session, "r", math.nan)
        for engine in (AccessControlEngine(policy), ShardedEngine(policy, shards=4)):
            with pytest.raises(TemporalError) as error:
                engine.open_sessions(["u"] * 8, math.nan, roles=("r",))
            assert str(error.value) == str(scalar_error.value)
            assert engine.resident_sessions() == 0
            engine.open_sessions(["u"] * 2, math.nan)
            assert engine.resident_sessions() == 2

    def test_bulk_open_rejects_unknown_role_and_user(self):
        """A refused bulk open opens nothing — on a sharded engine too,
        where the unentitled user ``h`` routes to the last shard
        opened."""
        policy = _policy([None], [None])
        for name in "abcdefgh":
            policy.add_user(name)
            if name != "h":
                policy.assign_user(name, "r")
        refused = (
            (["nobody"], ("r",)),
            (["u"], ("nobody",)),
            (list("abcdefgh"), ("r",)),
        )
        for engine in (AccessControlEngine(policy), ShardedEngine(policy, shards=4)):
            for names, roles in refused:
                with pytest.raises(RbacError):
                    engine.open_sessions(names, 0.0, roles=roles)
                assert engine.resident_sessions() == 0


ACCESS = AccessKey.of("exec", "r1", "s1")


class TestSharedCells:
    """Bulk-opened rows read one template cell until their first
    tracker or monitor write copies it into a cell of their own."""

    @staticmethod
    def _pair(n, scheme=Scheme.WHOLE_EXECUTION):
        """``n`` bulk-opened sessions and ``n`` scalar twins, role
        ``r`` active from 1.0."""
        policy = _policy([parse_constraint(COUNT_SRC), None], [5.0, 20.0])
        bulk_engine = AccessControlEngine(policy, scheme=scheme)
        scalar_engine = AccessControlEngine(policy, scheme=scheme)
        rows = bulk_engine.open_sessions(["u"] * n, 1.0, roles=("r",))
        bulk = [bulk_engine.session_at(row) for row in rows]
        twins = []
        for _ in range(n):
            session = scalar_engine.authenticate("u", 1.0)
            scalar_engine.activate_role(session, "r", 1.0)
            twins.append(session)
        return bulk_engine, bulk, scalar_engine, twins

    @staticmethod
    def _shared(store, rows) -> list:
        """Every cell column's values at the empty cell and at the
        cells ``rows`` read."""
        cells = sorted({session_store.EMPTY_CELL, *store._cell.data[rows].tolist()})
        return [column.data[cells].tolist() for column in store._cell_columns]

    def test_reading_an_untouched_row_allocates_nothing(self):
        bulk_engine, bulk, _, _ = self._pair(200)
        store = bulk_engine._store
        constraint = bulk_engine.policy.permission("p0").spatial_constraint
        # One decided row gives the constraint a monitor column to read.
        bulk_engine.decide(bulk[0], ACCESS, 2.0, history=None)
        before = (store.nbytes(), store.own_cells())
        assert before[1] == 1
        for session in bulk[1:]:
            trackers = session.trackers
            assert len(trackers) == 2
            for key in trackers:
                tracker = session.tracker(key)
                assert tracker.state() is PermissionState.VALID
                assert tracker.now == 1.0
                assert tracker.valid_timeline().switches.tolist() == [1.0]
                assert tracker.active_timeline().switches.tolist() == [1.0]
                tracker.expiry_time(), tracker.remaining_budget()
                tracker.state_codes_at(np.array([2.0]))
            assert session.monitor_entry(constraint) is None
        assert (store.nbytes(), store.own_cells()) == before
        assert len({store._cell.data[s._row] for s in bulk[1:]}) == 1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_one_write_leaves_block_mates_scalar_twins(self, scheme):
        """One migration on one tracker of one row copies that row's
        cell: views of the row made before the copy read the copy, and
        its block-mates keep the template — states, timelines and next
        decisions equal to their scalar twins'."""
        bulk_engine, bulk, scalar_engine, twins = self._pair(4, scheme)
        views = [bulk[0].trackers["p0"], bulk[0].tracker("p0"), bulk[0].tracker("p1")]
        views[0].migrate(3.0)
        twins[0].tracker("p0").migrate(3.0)
        assert bulk_engine._store.own_cells() == 1
        assert views[1].now == 3.0 and views[2].now == 1.0
        TestBulkOpen._assert_twins(bulk, twins)
        for t in (4.0, 9.0):
            got = [bulk_engine.decide(s, ACCESS, t, history=None) for s in bulk]
            want = [scalar_engine.decide(s, ACCESS, t, history=None) for s in twins]
            assert [_norm(d) for d in got] == [_norm(d) for d in want]
            TestBulkOpen._assert_twins(bulk, twins)

    def test_copies_past_the_cell_capacity_keep_every_row(self):
        """First writes on more rows than the store has cells grow the
        cell columns mid-sweep (a monitor initialisation, then a clock
        advance per row): every row still decides and reads as its
        scalar twin, with no sweep fallback."""
        n = 150
        bulk_engine, bulk, scalar_engine, twins = self._pair(n)
        got = bulk_engine.decide_batch_many([(s, ACCESS) for s in bulk], 2.0, dt=0.0)
        want = scalar_engine.decide_batch_many(
            [(s, ACCESS) for s in twins], 2.0, dt=0.0
        )
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert bulk_engine.cache_stats().vector_fallbacks == 0
        assert bulk_engine._store.own_cells() == n
        TestBulkOpen._assert_twins(bulk, twins)

    def test_cell_columns_grow_by_a_quarter(self):
        """Cell columns grow by at most a quarter (at least 64 cells)
        when the cells run out, so their capacity stays within 1.25
        times the cells in use plus 64, every column alike."""
        n = 1500
        engine = AccessControlEngine(_policy([None], [5.0]))
        store = engine._store
        rows = engine.open_sessions(["u"] * n, 1.0, roles=("r",)).tolist()
        sizes = set()
        for i, row in enumerate(rows):
            store.touch(row, 2.0 + i)
            capacity = store._sc.data.size
            assert capacity <= 1.25 * store._cells + 64, (store._cells, capacity)
            assert {c.data.size for c in store._cell_columns} == {capacity}
            sizes.add(capacity)
        assert store.own_cells() == n and len(sizes) > 5
        assert [store.last_seen(row) for row in rows] == [2.0 + i for i in range(n)]

    def test_rescind_and_clear_write_nothing_shared(self):
        """An observation is a write, so observed rows own their cells;
        ``rescind_server`` emptying their histories and
        ``clear_monitor_row`` clearing them allocate no cell and leave
        the empty cell and the template an unobserved block-mate reads
        unchanged, and every row decides as its scalar twin."""
        bulk_engine, bulk, scalar_engine, twins = self._pair(5)
        store = bulk_engine._store
        rows = [s._row for s in bulk]
        for engine, sessions in ((bulk_engine, bulk), (scalar_engine, twins)):
            for session in sessions[:4]:
                engine.observe(session, ACCESS)
            engine.decide(sessions[3], ACCESS, 2.0, history=None)
        shared = self._shared(store, rows[4:])
        cells = (store._cells, store.own_cells())
        assert cells[1] == 4
        assert bulk_engine.rescind_server("s1") == scalar_engine.rescind_server("s1") == 4
        for row in rows[:3]:
            store.clear_monitor_row(row)
        assert (store._cells, store.own_cells()) == cells
        assert self._shared(store, rows[4:]) == shared
        assert len({store._cell.data[row] for row in rows}) == 5
        got = [bulk_engine.decide(s, ACCESS, 3.0, history=None) for s in bulk]
        want = [scalar_engine.decide(s, ACCESS, 3.0, history=None) for s in twins]
        assert [_norm(d) for d in got] == [_norm(d) for d in want]

    def test_expiring_untouched_rows_keeps_nbytes_flat(self):
        """Expiring 10k untouched bulk rows writes no cell, and a row
        reused afterwards reads ``FREE`` trackers and replays no
        implied open events once activated."""
        policy = _policy([parse_constraint(COUNT_SRC)], [5.0])
        engine = AccessControlEngine(policy)
        rows = engine.open_sessions(["u"] * 10_000, 1.0, roles=("r",))
        store = engine._store
        before = store.nbytes()
        assert engine.expire_sessions(now=5.0, idle_for=0.0) == 10_000
        assert engine.resident_sessions() == 0
        assert store.nbytes() == before and store.own_cells() == 0
        recycled = engine.authenticate("u", 6.0)
        assert recycled._row in set(rows.tolist())
        assert recycled.trackers == {} and recycled.tracker("p0") is None
        engine.activate_role(recycled, "r", 7.0)
        reference = ValidityTracker(5.0, start_time=6.0)
        reference.activate(7.0)
        tracker = recycled.tracker("p0")
        assert tracker.valid_timeline() == reference.valid_timeline()
        assert tracker.active_timeline() == reference.active_timeline()

    def test_reopened_touched_row_replays_no_earlier_events(self):
        """A written row closed and reused replays none of its earlier
        occupancy's events, and closing and reopening it again and
        again reuses one cell: the cell columns do not grow."""
        policy = _policy([parse_constraint(COUNT_SRC)], [5.0])
        engine = AccessControlEngine(policy)
        store = engine._store
        first = engine.authenticate("u", 0.0)
        engine.activate_role(first, "r", 0.0)
        engine.decide(first, ACCESS, 1.0, history=None)
        engine.deactivate_role(first, "r", 2.0)
        engine.activate_role(first, "r", 3.0)
        engine.decide(first, ACCESS, 9.0, history=None)  # past expiry
        row, gen = first._row, first._gen
        engine.close_session(first, 10.0)
        second = engine.authenticate("u", 11.0)
        assert (second._row, second._gen) == (row, gen + 1)
        engine.activate_role(second, "r", 12.0)
        reference = ValidityTracker(5.0, start_time=11.0)
        reference.activate(12.0)
        tracker = second.tracker("p0")
        assert tracker.valid_timeline() == reference.valid_timeline()
        assert tracker.active_timeline() == reference.active_timeline()
        assert tracker.state() is PermissionState.VALID
        def cell_bytes():
            return sum(column.data.nbytes for column in store._cell_columns)

        before = (store._cells, cell_bytes())
        session = second
        for k in range(200):
            t = 20.0 + 2 * k
            engine.close_session(session, t)
            session = engine.authenticate("u", t)
            engine.activate_role(session, "r", t + 1.0)
            assert engine.decide(session, ACCESS, t + 1.0, history=None).granted
        assert store.own_cells() == 1
        assert (store._cells, cell_bytes()) == before


class TestLeanRow:
    """A row holds only who the session is; its start and last-seen
    times, role set and observation log live in the cell it reads, so
    reads resolve the cell and allocate nothing, and every first write
    copies a bulk open's template into a cell the row owns."""

    @staticmethod
    def _reads(session):
        """Everything a session reads beside its identity."""
        return (
            session.start_time,
            session.last_seen,
            session.role_set(),
            session.observed,
            session.observed_len(),
            {
                key: (
                    tracker.state(),
                    tracker.now,
                    tracker.valid_timeline(),
                    tracker.active_timeline(),
                )
                for key, tracker in session.trackers.items()
            },
        )

    @staticmethod
    def _cells(store):
        return (store._cells, store.own_cells(), store.nbytes())

    def test_reads_and_expiry_scans_allocate_nothing(self):
        """Reading untouched rows, and ``idle_rows`` /
        ``latest_activity`` / ``expire_sessions`` over touched and
        untouched rows, allocate no cell and leave every row reading
        the cell it read; the scans find what the rows' scalar twins
        imply."""
        bulk_engine, bulk, scalar_engine, twins = TestSharedCells._pair(60)
        store = bulk_engine._store
        for engine, sessions in ((bulk_engine, bulk), (scalar_engine, twins)):
            for k in range(0, 60, 6):
                engine.decide(sessions[k], ACCESS, 2.0 + k, history=None)
                engine.observe(sessions[k], ACCESS)
        untouched = [s for k, s in enumerate(bulk) if k % 6]
        before = self._cells(store)
        read_cells = store._cell.data[: store._n].copy()
        assert before[1] == 10
        for session, twin in zip(bulk, twins):
            assert self._reads(session) == self._reads(twin)
        for session in untouched:
            assert (session.start_time, session.last_seen) == (1.0, 1.0)
            assert session.observed == () and session.observed_len() == 0
        assert bulk_engine.latest_activity() == scalar_engine.latest_activity() == 56.0
        idle = store.idle_rows(56.0, 30.0)
        assert idle.tolist() == sorted(
            [s._row for s in untouched] + [s._row for s in bulk[:30:6]]
        )
        assert self._cells(store) == before
        assert (store._cell.data[: store._n] == read_cells).all()
        expired = bulk_engine.expire_sessions(idle_for=30.0)
        assert expired == scalar_engine.expire_sessions(idle_for=30.0) == len(idle)
        assert store._cells == before[0] and store.own_cells() == 5
        survivors = range(30, 60, 6)
        for k in survivors:
            assert self._reads(bulk[k]) == self._reads(twins[k])
        got = [bulk_engine.decide(bulk[k], ACCESS, 70.0, history=None) for k in survivors]
        want = [
            scalar_engine.decide(twins[k], ACCESS, 70.0, history=None)
            for k in survivors
        ]
        assert [_norm(d) for d in got] == [_norm(d) for d in want]

    @staticmethod
    def _touch(engine, session):
        session.touch(3.0)

    @staticmethod
    def _observe(engine, session):
        engine.observe(session, ACCESS)

    @staticmethod
    def _set_observed(engine, session):
        session.observed = [ACCESS, AccessKey.of("exec", "r1", "s2")]

    @staticmethod
    def _change_roles(engine, session):
        session.active_roles = ()

    @staticmethod
    def _activate_role(engine, session):
        engine.activate_role(session, "r", 3.0)

    @pytest.mark.parametrize(
        "write",
        ["_touch", "_observe", "_set_observed", "_change_roles", "_activate_role"],
    )
    def test_first_write_copies_the_template(self, write):
        """A first write — ``touch``, ``observe``, the ``observed``
        setter, a role-set change, ``activate_role`` (on rows opened
        with no role, so it writes the role set and allocates trackers)
        — copies the template into a cell the row owns: the template
        is unchanged, the block-mates keep reading it, and every row
        reads, decides and keeps reading as its scalar twin."""
        roles = () if write == "_activate_role" else ("r",)
        policy = _policy([parse_constraint(COUNT_SRC), None], [5.0, 20.0])
        bulk_engine, scalar_engine = AccessControlEngine(policy), AccessControlEngine(policy)
        rows = bulk_engine.open_sessions(["u"] * 4, 1.0, roles=roles)
        bulk = [bulk_engine.session_at(row) for row in rows]
        twins = []
        for _ in range(4):
            twin = scalar_engine.authenticate("u", 1.0)
            for role in roles:
                scalar_engine.activate_role(twin, role, 1.0)
            twins.append(twin)
        store = bulk_engine._store
        (template,) = set(store._cell.data[rows].tolist())
        shared = TestSharedCells._shared(store, rows)
        for engine, session in ((bulk_engine, bulk[0]), (scalar_engine, twins[0])):
            getattr(self, write)(engine, session)
        assert store.own_cells() == 1
        assert store._cell.data[rows[0]] != template
        assert store._cell.data[rows[1:]].tolist() == [template] * 3
        # (``activate_role`` adds the tracker columns it allocates.)
        assert TestSharedCells._shared(store, rows[1:])[: len(shared)] == shared
        for session, twin in zip(bulk, twins):
            assert self._reads(session) == self._reads(twin)
        for t in (4.0, 9.0):
            got = [bulk_engine.decide(s, ACCESS, t, history=None) for s in bulk]
            want = [scalar_engine.decide(s, ACCESS, t, history=None) for s in twins]
            assert [_norm(d) for d in got] == [_norm(d) for d in want]
        for session, twin in zip(bulk, twins):
            assert self._reads(session) == self._reads(twin)

    def test_compaction_keeps_every_live_log(self):
        """Observation compaction relinks the logs held in owned cells:
        observed bulk rows, a replaced history and a touched row with
        an empty log read the same across churn that compacts the
        arena, and as their twins in an engine that never compacted;
        unobserved block-mates keep reading the template."""
        policy = _policy([parse_constraint(COUNT_SRC)], [None])
        engine, twin_engine = AccessControlEngine(policy), AccessControlEngine(policy)

        def populate(eng):
            rows = eng.open_sessions(["u"] * 6, 0.0, roles=("r",))
            sessions = [eng.session_at(row) for row in rows]
            for k, session in enumerate(sessions[:4]):
                for i in range(k + 1):
                    eng.observe(session, AccessKey.of("exec", "r1", f"s{i}"))
            sessions[2].observed = sessions[2].observed[1:]
            sessions[4].touch(1.0)
            return sessions

        live, twins = populate(engine), populate(twin_engine)
        store = engine._store
        template = store._cell.data[live[5]._row]
        before = [TestLeanRow._reads(s) for s in live]
        for k in range(150):
            session = engine.authenticate("u", 10.0 + k)
            engine.observe(session, ACCESS)
            engine.close_session(session, 10.0 + k)
        assert store._obs_sym.kept == sum(s.observed_len() for s in live) == 9
        assert store._obs_sym.count < 2 * session_store.COMPACT_MIN
        assert [TestLeanRow._reads(s) for s in live] == before
        assert before == [TestLeanRow._reads(s) for s in twins]
        assert store._cell.data[live[5]._row] == template
        assert live[4].observed == () and live[5].observed == ()
        for eng, sessions in ((engine, live), (twin_engine, twins)):
            for session in sessions:
                eng.observe(session, AccessKey.of("exec", "r1", "s9"))
        assert [TestLeanRow._reads(s) for s in live] == [
            TestLeanRow._reads(s) for s in twins
        ]


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
        # The default "now" is the engine-wide latest activity (30.5),
        # on a sharded engine too, though sessions 2 and 3 sit on
        # shards that saw no traffic.
        assert engine.expire_sessions(idle_for=25.0) == 2
        assert engine.resident_sessions() == 2
        # The hot pair survives and keeps deciding.
        decision = engine.decide(sessions[0], access, 40.0, history=None)
        assert decision.granted
        # Everything idles out relative to the latest activity.
        assert engine.expire_sessions(idle_for=0.0) == 2
        assert engine.resident_sessions() == 0

    @staticmethod
    def _two_shards():
        """A two-shard engine and one routing key for each shard."""
        engine = ShardedEngine(_policy([None], [None]), shards=2)
        keys = {}
        for k in range(64):
            keys.setdefault(engine.shard_index(f"agent-{k}"), f"agent-{k}")
        return engine, keys[0], keys[1]

    def _open(self, engine, shard_key):
        session = engine.authenticate("u", 0.0, shard_key=shard_key)
        engine.activate_role(session, "r", 0.0)
        return session

    def test_quiet_shard_expires_against_engine_wide_activity(self):
        """A session on a shard that went quiet idles out against the
        newest activity on any shard, not its own shard's."""
        engine, quiet_key, busy_key = self._two_shards()
        quiet = self._open(engine, quiet_key)
        busy = self._open(engine, busy_key)
        assert engine.shard_of(quiet) != engine.shard_of(busy)
        access = AccessKey.of("exec", "r1", "s1")
        engine.decide(quiet, access, 10.0, history=None)
        for t in (40.0, 70.0, 100.0):
            engine.decide(busy, access, t, history=None)
        assert engine.expire_sessions(idle_for=50.0) == 1
        assert engine.resident_sessions() == 1
        assert quiet.last_seen == -math.inf and busy.last_seen == 100.0

    def test_service_idle_sweep_reaches_a_quiet_shard(self):
        engine, quiet_key, busy_key = self._two_shards()
        with DecisionService(
            engine, workers=2, idle_expiry=50.0, idle_sweep_interval_s=0.01
        ) as service:
            quiet = self._open(engine, quiet_key)
            busy = self._open(engine, busy_key)
            access = AccessKey.of("exec", "r1", "s1")
            service.submit(quiet, access, 10.0).result(timeout=30.0)
            service.submit(busy, access, 100.0).result(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while service.service_stats().expired_sessions < 1:
                assert time.monotonic() < deadline, "idle sweep never fired"
                time.sleep(0.02)
            assert service.service_stats().expired_sessions == 1
            assert engine.resident_sessions() == 1
            assert quiet.last_seen == -math.inf and busy.last_seen == 100.0

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

    def test_dropped_handle_leaves_the_cache_by_refcount(self):
        """A handle sits in no reference cycle, so one that has decided
        and been read through its views leaves the store's handle
        cache as soon as it is dropped, with the collector off."""
        engine = self._engine()
        access = AccessKey.of("exec", "r1", "s1")
        gc.disable()
        try:
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            engine.decide(session, access, 1.0, history=None)
            engine.decide_batch(session, [access] * 2, 2.0)
            assert set(session.active_roles) and dict(session.trackers)
            row = session._row
            assert engine._store.handle_for(row) is session
            del session
            assert engine._store.handle_for(row) is None
        finally:
            gc.enable()
        assert engine.session_at(row).role_set()

    def test_registry_sweeps_only_dead_references(self):
        """Dropped handles leave the store's handle registry in a sweep
        once it has doubled since the last, so it stays under twice
        the handles live at a sweep (at least 64): those held and the
        one being made.  Held handles stay registered, so
        ``session_at`` keeps returning them."""
        engine = self._engine()
        store = engine._store
        rows = engine.open_sessions(["u"] * 1000, 0.0).tolist()
        held = [engine.session_at(row) for row in rows[:40]]
        for row in rows[40:]:
            assert engine.session_at(row).subject_id
            assert len(store._handles) < 2 * (len(held) + 1)
        assert [engine.session_at(row) for row in rows[:40]] == held
        assert all(a is b for a, b in zip(map(engine.session_at, rows), held))
        assert [store.handle_for(row) for row in rows[40:]] == [None] * 960

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

    def test_refused_close_leaves_the_session_whole(self):
        """``close_session`` or ``deactivate_role`` at an instant behind
        a tracker clock (or at NaN) is refused before anything is
        written: the session stays resident with its role and trackers
        and keeps deciding.  An accepted close records no events."""
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        for name in ("a", "b"):
            policy.add_permission(
                Permission(name, op="exec", resource=name, validity_duration=100.0)
            )
            policy.assign_permission("r", name)
        policy.assign_user("u", "r")
        access_a = AccessKey.of("exec", "a", "s1")
        access_b = AccessKey.of("exec", "b", "s1")
        engine = AccessControlEngine(policy)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        assert engine.decide(session, access_b, 10.0, history=None).granted
        refused = [
            lambda: engine.close_session(session, 5.0),
            lambda: engine.close_session(session, math.nan),
            lambda: engine.deactivate_role(session, "r", 5.0),
            lambda: engine.deactivate_role(session, "r", math.nan),
        ]
        for call in refused:
            with pytest.raises(TemporalError):
                call()
            assert engine.resident_sessions() == 1
            assert {role.name for role in session.role_set()} == {"r"}
            assert {k: t.now for k, t in session.trackers.items()} == {
                "a": 0.0,
                "b": 10.0,
            }
            for tracker in session.trackers.values():
                assert tracker.active_timeline().switches.tolist() == [0.0]
        assert engine.decide(session, access_a, 11.0, history=None).granted
        arenas = list(engine._store._trackers.values())
        events = [tc.ev_row.count for tc in arenas]
        engine.close_session(session, 11.0)
        assert engine.resident_sessions() == 0
        assert [tc.ev_row.count for tc in arenas] == events

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
        row is reused by another user: the handle keeps the identity it
        opened with and reads as a closed session, each of its writes
        and each method of the view raises, and every decide path
        denies it with no candidate over an empty history — leaving the
        row's new occupant exactly as its twin in a second engine, its
        decisions carrying its own subject id."""
        engine, twin_engine = self._engine(), self._engine()
        for policy in (engine.policy, twin_engine.policy):
            policy.add_user("v")
            policy.assign_user("v", "r")
        access = AccessKey.of("exec", "r1", "s1")
        a = engine.authenticate("u", 0.0)
        engine.activate_role(a, "r", 0.0)
        engine.observe(a, access)
        (key,) = a.trackers
        view = a.trackers[key]
        row, gen = a._row, a._gen
        identity = (a.session_id, a.subject, a.start_time)
        engine.close_session(a, 1.0)
        b = engine.authenticate("v", 2.0)
        assert (b._row, b._gen) == (row, gen + 1)
        assert (a.session_id, a.subject, a.start_time) == identity
        assert a.subject.user.name == "u" and b.subject.user.name == "v"
        assert b.session_id != a.session_id and b.start_time == 2.0
        twin = twin_engine.authenticate("v", 2.0)
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
                assert decision.subject_id == identity[1].subject_id

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
        single = engine.decide(b, access, 6.5, history=None)
        assert [_norm(single)] == [
            _norm(twin_engine.decide(twin, access, 6.5, history=None))
        ]
        batch = engine.decide_batch(b, [access] * 2, 7.5, dt=0.5)
        assert [_norm(d) for d in batch] == [
            _norm(d) for d in twin_engine.decide_batch(twin, [access] * 2, 7.5, dt=0.5)
        ]
        assert state(b) == state(twin)
        assert {d.subject_id for d in [*many[1::2], single, *batch]} == {
            b.subject.subject_id
        }
        assert b.subject.subject_id != identity[1].subject_id

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
        """A monitor product over the state budget has no live mask, so
        its liveness is never cached: each decision runs the bounded
        search from the row's state id, which the store keeps and every
        observation steps as any other.  With the budget at 1 every
        constraint takes that path, and decide, observe and both batch
        calls still agree with the oracle's spatial check; the batches
        fall back to the per-request loop, since the sweep reads live
        masks only."""
        monkeypatch.setattr(srac_compiled, "DEFAULT_STATE_BUDGET", 1)
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
        store = engine._store
        assert store._monitors
        for table in store._monitors:
            state = store.monitor_state_id(sessions[0]._row, table.constraint)
            assert state == table.fold(histories[0])
        entries = engine._extension_cache.values()
        assert all(mask is None for _, _, mask in entries)
        stats = engine.cache_stats()
        assert (stats.vector_decisions, stats.vector_fallbacks) == (0, 12)
        assert stats.live_hits == 0 and stats.live_fallbacks > 0

    def test_one_id_column_per_constraint_across_cache_clears(self):
        """Every table of a constraint numbers its states alike, so the
        store keeps one column per constraint, whichever table made it:
        a dropped table cache adds none, and ``invalidate_caches``
        drops them all, so reload cycles leave one."""
        engine = self._engine()
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        store = engine._store
        constraint = parse_constraint(COUNT_SRC)
        access = AccessKey.of("exec", "r1", "s1")
        other = AccessKey.of("exec", "r1", "s2")
        engine.decide(session, access, 0.5, history=None)
        columns = len(store._cell_columns)
        for t in (1.0, 2.0, 3.0):
            engine.observe(session, access)
            reachability.clear_caches()
            # A new entry after the clear steps through a new table.
            engine.decide(session, other, t, history=None)
            assert len(store._monitors) == 1
            assert len(store._cell_columns) == columns
            (table,) = store._monitors
            assert table.constraint == constraint
            state = store.monitor_state_id(session._row, constraint)
            assert state == table.fold(session.observed)
            engine.invalidate_caches()
            assert not store._monitors
            assert len(store._cell_columns) == columns - 1
            engine.decide(session, access, t + 0.5, history=None)
            assert len(store._monitors) == 1
            assert len(store._cell_columns) == columns
        engine.close()

    def test_ids_past_int32_are_kept_as_python_ints(self):
        """A product past 2**31 states keeps its ids in a column of
        Python ints, stepped by every observation like any other."""
        wide = parse_constraint(
            "count(0, 65536, [res = r1]) & count(0, 40000, [server = s2])"
        )
        engine = AccessControlEngine(_policy([wide], [None]))
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        store = engine._store
        accesses = [AccessKey.of("exec", "r1", f"s{i % 3}") for i in range(5)]
        for i, access in enumerate(accesses):
            assert engine.decide(session, access, 1.0 + i, history=None).granted
            engine.observe(session, access)
        ((table, column),) = store._monitors.items()
        assert table.n_states > 2**31
        assert column.data.dtype == object
        assert store.monitor_state_id(session._row, wide) == table.encode((5, 1))
        assert table.live_mask(()) is None
        engine.close()


class TestArenaCompaction:
    """Closed occupancies' tracker events and observations, and
    histories orphaned by ``set_observations``, leave the arenas at the
    next compaction that falls due; live rows read the same across it."""

    def test_session_churn_keeps_the_arenas_bounded(self):
        """200 authenticate / activate / decide / observe / close cycles
        of one user on one engine: with no session resident, the store
        is no bigger than after the first cycle, and neither arena holds
        what a compaction would drop."""
        engine = AccessControlEngine(_policy([parse_constraint(COUNT_SRC)], [5.0]))
        store = engine._store

        def cycle(t):
            session = engine.authenticate("u", t)
            engine.activate_role(session, "r", t)
            assert engine.decide(session, ACCESS, t + 0.5, history=None).granted
            engine.observe(session, ACCESS)
            engine.close_session(session, t + 1.0)

        cycle(0.0)
        nbytes = store.nbytes()
        for k in range(1, 200):
            cycle(2.0 * k)
        assert engine.resident_sessions() == 0
        assert store.nbytes() == nbytes
        (tc,) = store._trackers.values()
        assert tc.ev_row.count < session_store.COMPACT_MIN
        assert store._obs_sym.count < session_store.COMPACT_MIN

    def test_live_rows_read_the_same_across_compactions(self):
        """Live sessions with tracker events, observations and a
        replaced history: their timelines, ``observed``,
        ``observed_len``, later observations and decisions read the
        same after churn has compacted both arenas, and as their twins'
        in an engine that never compacted."""
        policy = _policy([parse_constraint(COUNT_SRC), None], [5.0, 20.0])
        engine, twin_engine = AccessControlEngine(policy), AccessControlEngine(policy)

        def populate(eng):
            live = []
            for k in range(3):
                session = eng.authenticate("u", 0.0)
                eng.activate_role(session, "r", 0.0)
                for i in range(k + 2):
                    eng.observe(session, AccessKey.of("exec", "r1", f"s{i}"))
                eng.decide(session, ACCESS, 1.0, history=None)
                eng.deactivate_role(session, "r", 2.0)
                eng.activate_role(session, "r", 3.0)
                live.append(session)
            live[1].observed = live[1].observed[1:]
            return live

        def reads(sessions):
            return [
                (
                    session.observed,
                    session.observed_len(),
                    {
                        key: (
                            tracker.valid_timeline(),
                            tracker.active_timeline(),
                            tracker.now,
                            tracker.state(),
                        )
                        for key, tracker in session.trackers.items()
                    },
                )
                for session in sessions
            ]

        live, twins = populate(engine), populate(twin_engine)
        before = reads(live)
        store = engine._store
        for k in range(150):
            t = 10.0 + k
            session = engine.authenticate("u", t)
            engine.activate_role(session, "r", t)
            engine.observe(session, ACCESS)
            engine.close_session(session, t)
        assert store._obs_sym.kept == sum(len(s.observed) for s in live)
        assert all(tc.ev_row.kept > 0 for tc in store._trackers.values())
        assert store._obs_sym.count < 2 * session_store.COMPACT_MIN
        assert reads(live) == before == reads(twins)
        for eng, sessions in ((engine, live), (twin_engine, twins)):
            for session in sessions:
                eng.observe(session, AccessKey.of("exec", "r1", "s9"))
        assert reads(live) == reads(twins)
        got = [_norm(engine.decide(s, ACCESS, 200.0, history=None)) for s in live]
        want = [
            _norm(twin_engine.decide(s, ACCESS, 200.0, history=None)) for s in twins
        ]
        assert got == want
        assert reads(live) == reads(twins)


class TestLeanIdentity:
    """A handle reads its identity from its row when asked; closing a
    session freezes it into the handle before the row can be reused."""

    @staticmethod
    def _engine(sharded=False):
        policy = _policy([parse_constraint(COUNT_SRC)], [5.0])
        policy.add_user("v")
        policy.assign_user("v", "r")
        return _engine(policy, sharded)

    @staticmethod
    def _identity(session):
        return (session.session_id, session.subject, session.start_time)

    def test_unread_identity_survives_close_and_reuse(self):
        """Handles whose identity was never read before their close
        keep it after their rows are reused by a bulk open (which takes
        free rows first) and by ``authenticate``."""
        engine = self._engine()
        store = engine._store
        rows = engine.open_sessions(["u"] * 4, 1.0, roles=("r",))
        handles = [engine.session_at(row) for row in rows]
        # Throwaway handles read the rows; the cached ones stay unread.
        expected = [self._identity(session_store.Session(store, r)) for r in rows]
        assert len({identity[0] for identity in expected}) == 4
        for handle in handles[:2]:
            engine.close_session(handle, 2.0)
        (reopened,) = engine.open_sessions(["v"], 3.0, roles=("r",))
        recycled = engine.authenticate("v", 4.0)
        assert [reopened, recycled._row] == [handles[1]._row, handles[0]._row]
        assert [self._identity(h) for h in handles] == expected
        for handle, new in zip(handles, (recycled, engine.session_at(reopened))):
            assert new is not handle
            assert new.subject.user.name == "v" and handle.subject.user.name == "u"
            assert new.session_id != handle.session_id
            assert new.subject_id != handle.subject_id
            assert new.start_time > handle.start_time == 1.0

    def test_session_at_is_cached_and_a_reused_row_gets_a_new_handle(self):
        engine = self._engine()
        rows = engine.open_sessions(["u"] * 2, 1.0, roles=("r",))
        first = engine.session_at(rows[0])
        assert engine.session_at(rows[0]) is first
        assert engine.materialize(first.session_id) is first
        before = self._identity(first)
        engine.close_session(first, 2.0)
        with pytest.raises(RbacError):
            engine.session_at(rows[0])
        second = engine.authenticate("v", 3.0)
        assert second._row == rows[0]
        assert engine.session_at(rows[0]) is second is not first
        assert self._identity(first) == before
        assert second.start_time == 3.0 and second.subject.user.name == "v"
        assert second.session_id != before[0]
        assert second.subject.subject_id != before[1].subject_id

    def test_session_at_accepts_only_live_rows(self):
        """A row that is negative, past the high-water mark, not an
        integer or not live has no handle, so a row never gets a
        second live handle beside its registered one.  A shard index
        outside ``range(shard_count)`` is refused as well."""
        engine = self._engine()
        rows = engine.open_sessions(["u"] * 64, 1.0, roles=("r",)).tolist()
        last = engine.session_at(rows[-1])
        engine.close_session(engine.session_at(rows[0]), 2.0)
        for row in (-1, -64, 64, 10**6, 2.7, "3", None, rows[0]):
            with pytest.raises(RbacError):
                engine.session_at(row)
        assert engine.session_at(np.int64(rows[1])) is engine.session_at(rows[1])
        assert engine.session_at(rows[-1]) is last
        # The next open takes the closed row, and the last row's
        # registered handle still reads its own session.
        assert engine.authenticate("v", 3.0)._row == rows[0]
        store = engine._store
        assert store.handle_for(rows[-1]) is last
        cell = store._cell.data.item(rows[-1])
        seq = store._sc.sid_base.item(cell) + store._ord.data.item(rows[-1])
        assert last.session_id == f"session-{seq}"

        sharded = ShardedEngine(engine.policy, shards=4)
        by_shard = sharded.open_sessions(["u", "v"] * 8, 1.0, roles=("r",))
        shard, shard_rows = next(iter(by_shard.items()))
        handle = sharded.session_at(shard, int(shard_rows[0]))
        assert sharded.session_at(shard, int(shard_rows[0])) is handle
        for index in (-1, 4, 7, 1.0, None):
            with pytest.raises(ServiceError):
                sharded.session_at(index, int(shard_rows[0]))
        with pytest.raises(RbacError):
            sharded.session_at(shard, -1)
        sharded.close()
        engine.close()

    def test_decisions_share_the_handle_subject_id(self):
        """Scalar, swept and served decisions carry
        ``handle.subject.subject_id``, and one session's decisions share
        one string object."""
        engine = self._engine(sharded=True)
        names = ["u", "v"]
        rows = engine.open_sessions(names, 1.0, roles=("r",))
        a, b = (
            engine.session_at(shard, int(row))
            for shard, shard_rows in rows.items()
            for row in shard_rows
        )
        decisions = [engine.decide(a, ACCESS, 2.0, history=None)]
        decisions += engine.decide_batch(a, [ACCESS] * 3, 3.0, dt=0.5)
        many = engine.decide_batch_many([(a, ACCESS), (b, ACCESS)] * 2, 5.0, dt=0.5)
        decisions += many[0::2]
        assert engine.cache_stats().vector_decisions >= 5
        with DecisionService(engine, workers=1) as service:
            served = service.submit_many([(a, ACCESS, 7.0), (a, ACCESS, 7.5)])
            decisions += [request.result(timeout=10.0) for request in served]
        assert len(decisions) == 8
        assert {id(d.subject_id) for d in decisions} == {id(a.subject.subject_id)}
        assert {d.subject_id for d in many[1::2]} == {b.subject.subject_id}
        assert a.subject_id != b.subject_id


class TestImpliedPrincipal:
    """A row's principals code names only the principals beyond its
    user's own, which :meth:`SessionStore.subject_of` adds back."""

    def test_subject_principals_on_every_open_path(self):
        engine = AccessControlEngine(_policy([None], [None]))
        (row,) = engine.open_sessions(["u"], 0.0, roles=("r",))
        opened = {
            "bulk": engine.session_at(row),
            "plain": engine.authenticate("u", 0.0),
            "extras": engine.authenticate("u", 0.0, {"NapletPrincipal", "x"}),
            "own": engine.authenticate("u", 0.0, ["user:u", "x"]),
        }
        assert {k: s.subject.principals for k, s in opened.items()} == {
            "bulk": frozenset({"user:u"}),
            "plain": frozenset({"user:u"}),
            "extras": frozenset({"NapletPrincipal", "x", "user:u"}),
            "own": frozenset({"user:u", "x"}),
        }
        store = engine._store
        codes = [
            store._sc.principals.item(store._cell.data.item(s._row))
            for s in opened.values()
        ]
        assert codes[:2] == [0, 0]
        assert store._principal_sets[codes[3]] == frozenset({"x"})
        # A frozen identity keeps its principals past the row's reuse.
        extras = opened["extras"]
        engine.close_session(extras, 1.0)
        assert engine.authenticate("u", 2.0)._row == extras._row
        assert extras.subject.principals == {"NapletPrincipal", "x", "user:u"}

    @pytest.mark.parametrize("shards", [0, 4])
    def test_bulk_open_interns_no_principal_set(self, shards):
        policy = _policy([None], [None])
        names = [f"w{i}" for i in range(1000)]
        for name in names:
            policy.add_user(name)
            policy.assign_user(name, "r")
        if shards:
            engine = ShardedEngine(policy, shards=shards)
            stores = [shard.engine._store for shard in engine._shards]
        else:
            engine = AccessControlEngine(policy)
            stores = [engine._store]
        rows = engine.open_sessions(names * 2, 0.0, roles=("r",))
        for store in stores:
            assert store._principal_sets == [frozenset()]
            assert len(store._users) == len(set(store._users))
        assert sum(len(store._users) for store in stores) == 1000
        if shards:
            shard, shard_rows = next(iter(rows.items()))
            session = engine.session_at(shard, int(shard_rows[-1]))
        else:
            session = engine.session_at(rows[-1])
        name = session.subject.user.name
        assert session.subject.principals == {f"user:{name}"}
        engine.close()


class TestIdentityInCell:
    """A row's session and subject numbers are its cell's bases plus
    the row's ``ord``, and its principals its cell's code: identity
    survives a bulk row's first write (the template copy) and the
    reuse of closed rows by either kind of open, in any row order, and
    ``materialize`` finds every session by its canonical id alone."""

    @staticmethod
    def _restart_ids(monkeypatch, first=1):
        """Restart the session and subject counters at ``first``, so
        two engines opening sessions after a restart each draw the
        same ids."""
        monkeypatch.setattr(rbac_model, "_subject_counter", itertools.count(first))
        monkeypatch.setattr(rbac_engine, "_session_counter", itertools.count(first))

    @staticmethod
    def _identity(session):
        subject = session.subject
        return session.session_id, subject.subject_id, subject.principals

    def _assert_twins(self, engine, sessions, twins):
        """Equal identities, and each live session found by its id."""
        assert [self._identity(s) for s in sessions] == [
            self._identity(t) for t in twins
        ]
        for session in sessions:
            if session._is_open():
                assert engine.materialize(session.session_id) is session
            else:
                with pytest.raises(RbacError):
                    engine.materialize(session.session_id)

    def _walk(self, monkeypatch, reopen):
        """Bulk-open six sessions and write to half of them, beside a
        twin engine opening the same sessions one by one; then close
        three of each and open three more on each with
        ``reopen(engine, bulk)``.  Returns the bulk engine, its
        sessions (the reopened three last) and the rows the closes
        freed, last freed first."""
        names = ["u", "v"] * 3
        self._restart_ids(monkeypatch)
        engine = TestLeanIdentity._engine()
        rows = engine.open_sessions(names, 1.0, roles=("r",))
        sessions = [engine.session_at(row) for row in rows]
        self._restart_ids(monkeypatch)
        twin = TestLeanIdentity._engine()
        twins = []
        for name in names:
            session = twin.authenticate(name, 1.0)
            twin.activate_role(session, "r", 1.0)
            twins.append(session)
        store = engine._store
        template = store._cell.data.item(rows[0])
        for k in (0, 3, 4):
            for e, s in ((engine, sessions[k]), (twin, twins[k])):
                e.decide(s, ACCESS, 2.0, history=None)
                e.observe(s, ACCESS)
            # The first write copied the template into the row's own
            # cell.
            assert store._cell.data.item(rows[k]) != template
        self._assert_twins(engine, sessions, twins)
        for k in (1, 3, 4):
            engine.close_session(sessions[k], 3.0)
            twin.close_session(twins[k], 3.0)
        self._assert_twins(engine, sessions, twins)
        free = [sessions[k]._row for k in (4, 3, 1)]
        self._restart_ids(monkeypatch, 7)
        sessions += reopen(engine, True)
        self._restart_ids(monkeypatch, 7)
        twins += reopen(twin, False)
        self._assert_twins(engine, sessions, twins)
        twin.close()
        return engine, sessions, free

    def test_identity_survives_the_first_write_and_reuse_by_authenticate(
        self, monkeypatch
    ):
        def reopen(engine, _bulk):
            return [
                engine.authenticate("v", 4.0, {"NapletPrincipal"}),
                engine.authenticate("u", 4.0),
                engine.authenticate("v", 4.0, ["user:v", "x"]),
            ]

        engine, sessions, free = self._walk(monkeypatch, reopen)
        reopened = sessions[-3:]
        # Each takes the last freed row and owns a cell, at ord 0.
        assert [s._row for s in reopened] == free
        assert engine._store._ord.data[free].tolist() == [0, 0, 0]
        assert [s.subject.principals for s in reopened] == [
            {"NapletPrincipal", "user:v"},
            {"user:u"},
            {"x", "user:v"},
        ]
        engine.close()

    def test_identity_survives_reuse_by_a_bulk_open_in_pop_order(
        self, monkeypatch
    ):
        names = ["v", "u", "v"]

        def reopen(engine, bulk):
            if bulk:
                rows = engine.open_sessions(names, 4.0, roles=("r",))
                return [engine.session_at(row) for row in rows]
            opened = []
            for name in names:
                session = engine.authenticate(name, 4.0)
                engine.activate_role(session, "r", 4.0)
                opened.append(session)
            return opened

        engine, sessions, free = self._walk(monkeypatch, reopen)
        store = engine._store
        rows = [s._row for s in sessions[-3:]]
        # The freed rows, last freed first: not ascending, so the
        # block's numbers follow ord, not the row index.
        assert rows == free != sorted(free)
        assert store._ord.data[rows].tolist() == [0, 1, 2]
        assert len({store._cell.data.item(row) for row in rows}) == 1
        # A write on a reused bulk row copies the identity too.
        reused = sessions[-2]
        before = self._identity(reused)
        engine.decide(reused, ACCESS, 5.0, history=None)
        assert store._cell.data.item(reused._row) != store._cell.data.item(rows[0])
        assert self._identity(session_store.Session(store, reused._row)) == before
        engine.close()

    @pytest.mark.parametrize(
        "alias",
        ["session-01", "session-+1", "session- 1", "session-0_1", "session-\u0661"],
    )
    def test_materialize_takes_only_the_canonical_id(self, monkeypatch, alias):
        """``int`` reads each alias as 1, but none is ``session-1``'s
        id, so none names a session."""
        self._restart_ids(monkeypatch)
        engine = TestLeanIdentity._engine()
        session = engine.authenticate("u", 0.0)
        assert session.session_id == "session-1"
        assert engine.materialize("session-1") is session
        with pytest.raises(RbacError, match="unknown session"):
            engine.materialize(alias)
        engine.close()

    def test_row_columns_hold_16_bytes_a_row(self):
        """A one-block open of 100k rows: four 4-byte row columns, and
        one template cell holding the block's identity."""
        n = 100_000
        engine = TestLeanIdentity._engine()
        store = engine._store
        store.reserve(n)
        rows = engine.open_sessions(["u"] * n, 0.0, roles=("r",))
        assert len(rows) == store.resident == n
        per_row = sum(column.data.nbytes for column in store._row_columns) / n
        assert per_row <= 16.0, per_row
        assert store._cells == 2  # the empty cell and the template
        first, last = (engine.session_at(row) for row in (rows[0], rows[-1]))
        assert int(last.session_id[8:]) - int(first.session_id[8:]) == n - 1
        engine.close()


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
        excluded) must stay within 40 B/session."""
        _engine, _rows, traced, columns = self._bulk_open()
        assert max(traced, columns) <= 40.0, (traced, columns)

    def test_touched_handle_bytes_within_budget(self):
        """What a touched session keeps beside its row: a handle per
        bulk-opened session, each read through every tracker's state
        and its role set, retains at most 256 B — the handle, its weak
        reference and its slot in the store's handle registry.  Its
        identity is read from the row when asked for, and views are
        built per read and dropped."""
        engine, rows, _traced, _columns = self._bulk_open()
        rows = rows.tolist()
        handles = [None] * len(rows)
        gc.collect()
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        for i, row in enumerate(rows):
            handle = engine.session_at(row)
            assert all(
                tracker.state() is PermissionState.VALID
                for tracker in handle.trackers.values()
            )
            assert set(handle.active_roles)
            handles[i] = handle
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_handle = (current - base) / len(rows)
        assert per_handle <= 256.0, per_handle

    def test_bytes_per_session_within_budget_with_timelines(self):
        """The same gate, with the timelines it pays for checked: a
        bulk-opened row's open-time timeline events are implied by the
        row, not stored, so the event arenas stay empty and the rows
        still replay their open-time switches."""
        engine, rows, traced, columns = self._bulk_open()
        assert max(traced, columns) <= 40.0, (traced, columns)
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
