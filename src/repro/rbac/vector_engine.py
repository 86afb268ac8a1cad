"""Batched decision sweeps over compiled tables and validity cells.

The scalar :meth:`~repro.rbac.engine.AccessControlEngine.decide` is
O(1) warm but pays interpreted-Python cost per decision: a candidate
walk, a monitor dict step, a validity-tracker query and a fresh
provenance record each time.  For a *batch* of requests over one
session most of that work is invariant:

* the session's observed history — and with it every cached monitor
  state — is frozen for the whole batch (no ``observe`` happens), so
  the **spatial verdict is a constant per (access, candidate)**:
  one gather into the :class:`~repro.srac.compiled.TransitionTable`
  plus one live-mask read;
* each validity tracker's state function is piecewise constant with at
  most one switch, at its cell's precomputed expiry instant, so the
  **temporal verdicts for a whole time vector** are one ``ts >=
  expiry`` compare per (candidate, access-group)
  (:meth:`~repro.temporal.validity.ValidityTracker.state_codes_at`,
  the compare the scalar query makes);
* provenance records depend only on the access, the candidate index
  and the vector of temporal state codes — a handful of distinct
  values per group — so whole ``Decision`` prototypes are memoised and
  per-element decisions are slot-by-slot clones differing only in
  ``time`` (:func:`_fill`).
  The prototypes are made by the engine's shared constructors
  (``AccessControlEngine._examined`` and ``_build_decision``), the
  same code that makes every scalar decision, so kinds, reasons and
  provenance cannot drift between the two paths.

What a swept decision retains is one slotted ``Decision``; everything
it points at is shared.  The engine interns the candidate records, the
grant's one-record tuple and the denial reasons per policy version, and
one call's prototypes intern their ``DecisionProvenance`` by value, so
the session groups of one :func:`sweep_interleaved` run with equal
outcomes (same kind, candidates, history length and epoch) hold one
record between them.

The sweep is organised **prepare → commit**:

:func:`prepare_sweep` does all the work without mutating any
session-visible state (engine/process caches may warm — they are
semantically invisible) and returns ``None`` whenever the batch is not
eligible for the vector path.  The caller then falls back to the
scalar loop, which reproduces the exact scalar behaviour *including*
mid-batch exceptions.  Ineligible batches: explicit histories,
disclosed programs, ``observe_granted``, owner coordination scope,
non-monotone or NaN instants, query times behind a tracker's clock,
monitor products over the table budgets, or an access outside a
compiled alphabet (:class:`~repro.errors.AlphabetError`).

:func:`commit_sweep` applies the side effects: validity trackers of
every examined candidate are created/advanced exactly as the scalar
candidate loop would have left them (one closed-form advance to the
maximum examined instant replays the same state, the same expiry
switch at the same recorded instant), engine counters tick, and the
decisions are appended to the audit log in stream order.

Decisions and their :class:`~repro.obs.provenance.DecisionProvenance`
are **bit-identical** to the per-request ``decide(..., history=None)``
loop (property-tested against a twin engine in
``tests/test_vector_engine.py``), and every verdict agrees with the
definitions-level oracle of ``tests/test_spec_oracle.py``; the only
observable difference is that batched decisions do not emit sampled
``engine.decide`` tracing spans (``engine.decisions`` metrics still
count them).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import AlphabetError
from repro.obs import OBS
from repro.obs.provenance import DecisionProvenance
from repro.rbac.audit import Decision
from repro.temporal.validity import (
    CODE_INACTIVE,
    CODE_VALID,
    STATE_CODES,
    PermissionState,
)
from repro.traces.trace import AccessKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rbac.engine import AccessControlEngine
    from repro.rbac.session_store import Session

__all__ = [
    "PreparedSweep",
    "prepare_sweep",
    "commit_sweep",
    "sweep_interleaved",
]


#: ``Decision``'s slots other than ``time``: their member-descriptor
#: setters and one C-level getter of their values (see :func:`_fill`).
_SHARED_SLOTS = tuple(name for name in Decision.__slots__ if name != "time")
_SETTERS = tuple(getattr(Decision, name).__set__ for name in _SHARED_SLOTS)
_SHARED_VALUES = attrgetter(*_SHARED_SLOTS)
_SET_TIME = Decision.time.__set__


def _fill(
    decisions: list,
    proto: Decision,
    positions,
    idx_list: Sequence[int],
    times: Sequence[float],
) -> None:
    """Clone ``proto`` into ``decisions`` at each position's instant.

    This loop *is* the vector path's per-decision cost.  ``Decision``
    is a frozen slotted dataclass; a clone writes its ten slots through
    their member descriptors, skipping the keyword ``__init__`` and the
    frozen-setattr guard.  The clones are indistinguishable from
    constructed decisions (same fields, equality and hash), differ from
    the prototype only in ``time``, and point at the prototype's field
    values, so a clone adds one slotted record and nothing else.  The
    prototype is made for this call and seen by no one else, so it
    becomes the first position's decision instead of being cloned.
    """
    new = Decision.__new__
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = _SETTERS
    v0, v1, v2, v3, v4, v5, v6, v7, v8 = _SHARED_VALUES(proto)
    set_time = _SET_TIME
    i = idx_list[positions[0]]
    set_time(proto, times[i])
    decisions[i] = proto
    for p in positions[1:]:
        d = new(Decision)
        s0(d, v0)
        s1(d, v1)
        s2(d, v2)
        s3(d, v3)
        s4(d, v4)
        s5(d, v5)
        s6(d, v6)
        s7(d, v7)
        s8(d, v8)
        i = idx_list[p]
        set_time(d, times[i])
        decisions[i] = d


class PreparedSweep:
    """The pure phase of a batched sweep: the finished decisions plus
    the side effects :func:`commit_sweep` must apply."""

    __slots__ = (
        "engine",
        "session",
        "decisions",
        "advances",
        "live_hits_add",
        "n",
        "granted",
        "t_last",
    )

    def __init__(self, engine: "AccessControlEngine", session: "Session"):
        self.engine = engine
        self.session = session
        self.decisions: list[Decision] = []
        #: tracker key -> (permission, max examined instant)
        self.advances: dict[str, tuple] = {}
        self.live_hits_add = 0
        self.n = 0
        self.granted = 0
        #: Final decision instant of the batch (idle-clock commit).
        self.t_last = 0.0


def prepare_sweep(
    engine: "AccessControlEngine",
    session: "Session",
    accesses: Sequence[AccessKey],
    times: Sequence[float],
    shared: dict[DecisionProvenance, DecisionProvenance] | None = None,
) -> PreparedSweep | None:
    """Decide a request stream for one session without side effects.

    ``accesses`` must already be ``AccessKey`` instances and ``times``
    the per-request decision instants (nondecreasing — the caller built
    them by the same ``clock += dt`` accumulation the scalar loop
    uses).  ``shared`` interns the prototypes' provenance records by
    value; :func:`sweep_interleaved` passes one per call so all its
    session groups share them (default: one for this sweep).  Returns
    ``None`` when any part of the batch needs the scalar path; in that
    case no session state was touched.
    """
    n = len(accesses)
    if n == 0:
        return PreparedSweep(engine, session)
    if engine.coordination_scope != "subject":
        return None
    if not times[0] >= session.start_time:  # a NaN instant too
        return None

    if shared is None:
        shared = {}
    prep = PreparedSweep(engine, session)
    prep.n = n
    prep.t_last = float(times[-1])
    prep.decisions = [None] * n  # type: ignore[list-item]
    decisions = prep.decisions
    times_arr = np.asarray(times, dtype=np.float64)
    # A session's monitor cells *are* table state ids — no tuple
    # decode/encode per candidate.
    store = session._store
    store_row = session._row
    # One epoch read per sweep: the membership epoch cannot change
    # mid-batch under the shard lock, so this matches the scalar loop's
    # per-decision read bit for bit.
    epoch = engine._current_epoch()
    history_len = session.observed_len()

    groups: dict[AccessKey, list[int]] = {}
    for i, access in enumerate(accesses):
        g = groups.get(access)
        if g is None:
            groups[access] = [i]
        else:
            g.append(i)

    for access, idx_list in groups.items():
        candidates = engine._candidates(session, access)
        k = len(candidates)
        m = len(idx_list)
        ts = times_arr if m == n else times_arr[idx_list]

        if k == 0:
            proto = engine._build_decision(
                session, access, 0.0, (), None, "incremental", history_len,
                epoch, shared,
            )
            _fill(decisions, proto, range(m), idx_list, times)
            continue

        # Spatial verdicts: constant per (access, candidate) for the
        # whole batch (the observed history is frozen) — one table
        # gather each.  Bail to scalar when a product is over budget.
        spatial: list[bool] = []
        for _role, permission in candidates:
            constraint = permission.spatial_constraint
            if constraint is None:
                spatial.append(True)
                continue
            _compiled, universe, live = engine._extension_entry(
                constraint, access
            )
            if live is None:
                return None
            table = engine._extension_table(constraint, access, universe)
            if table is None:
                return None
            try:
                symbol = table.intern(access)
            except AlphabetError:
                return None
            state_id = store.monitor_state_id(store_row, constraint, table)
            if state_id is None:
                _, states = engine._cached_monitors(session, constraint)
                state_id = table.encode(states)
            successor = int(table.trans[state_id, symbol])
            spatial.append(bool(table.live[successor]))

        # Temporal state codes per candidate over the group's time
        # vector: one `ts >= expiry` compare, the scalar query's own.
        codes_mat = np.empty((k, m), dtype=np.uint8)
        tracker_keys: list[str] = []
        for j, (_role, permission) in enumerate(candidates):
            key = engine._tracker_key(permission)
            tracker_keys.append(key)
            tracker = session.trackers.get(key)
            if tracker is None:
                # The scalar path would lazily create an INACTIVE
                # tracker; creation is deferred to commit.
                codes_mat[j, :] = CODE_INACTIVE
            else:
                if ts[0] < tracker.now:
                    return None
                codes_mat[j, :] = tracker.state_codes_at(ts)

        # Candidate-major sweep: candidate j grants the still-undecided
        # requests whose spatial verdict holds and whose temporal code
        # is VALID — the scalar first-grant short-circuit, batched.
        undecided = np.ones(m, dtype=bool)
        granted_at = np.full(m, -1, dtype=np.int32)
        for j in range(k):
            if spatial[j]:
                ok = undecided & (codes_mat[j] == CODE_VALID)
                if ok.any():
                    granted_at[ok] = j
                    undecided &= ~ok

        # Commit bookkeeping: candidate j was *examined* by a request
        # unless an earlier candidate granted it, exactly the scalar
        # loop's prefix.  Examined candidates pin their tracker to the
        # latest examined instant and count a live-set hit each.
        # (Plain lists: the groups a micro-batched service drains are
        # small enough that numpy fixed costs dominate masked reductions.)
        granted_list = granted_at.tolist()
        ts_list = ts.tolist()
        for j, (_role, permission) in enumerate(candidates):
            if j == 0:
                # Every request examines the first candidate.
                count = m
                t_max = max(ts_list)
            else:
                examined = [
                    p for p, g in enumerate(granted_list) if g == -1 or g >= j
                ]
                count = len(examined)
                if count == 0:
                    continue
                t_max = max(ts_list[p] for p in examined)
            if permission.spatial_constraint is not None:
                prep.live_hits_add += count
            key = tracker_keys[j]
            previous = prep.advances.get(key)
            if previous is None or t_max > previous[1]:
                prep.advances[key] = (permission, t_max)

        # Grants: one Decision prototype per granting candidate.
        prep.granted += m - granted_list.count(-1)
        for j in sorted(set(granted_list) - {-1}):
            role, permission = candidates[j]
            entry = engine._examined(
                role, permission, True, PermissionState.VALID
            )
            proto = engine._build_decision(
                session, access, 0.0, (entry,), None, "incremental",
                history_len, epoch, shared,
            )
            winners = [p for p, g in enumerate(granted_list) if g == j]
            positions = range(m) if len(winners) == m else winners
            _fill(decisions, proto, positions, idx_list, times)

        # Denials examine every candidate; the provenance depends only
        # on the column of temporal codes, of which a k-candidate group
        # has at most k+1 distinct values — build one prototype per
        # distinct code column and clone the rest.  (Grouped by hand:
        # the service's micro-batches make these groups small, where
        # ``np.unique(axis=0)`` costs more than the whole sweep.)
        denied = [p for p, g in enumerate(granted_list) if g == -1]
        if not denied:
            continue
        by_column: dict[tuple[int, ...], list[int]] = {}
        for p, column in zip(denied, codes_mat.T[denied].tolist()):
            by_column.setdefault(tuple(column), []).append(p)
        for column, positions in by_column.items():
            entries = [
                engine._examined(role, permission, spatial[j], STATE_CODES[code])
                for j, ((role, permission), code) in enumerate(
                    zip(candidates, column)
                )
            ]
            proto = engine._build_decision(
                session, access, 0.0, entries, None, "incremental",
                history_len, epoch, shared,
            )
            _fill(decisions, proto, positions, idx_list, times)

    return prep


def sweep_interleaved(
    engine: "AccessControlEngine",
    entries: Sequence[tuple["Session", AccessKey, float]],
) -> list[Decision] | None:
    """Sweep an arrival-ordered, interleaved multi-session run.

    ``entries`` is a stream of ``(session, access, t)`` triples in
    arrival order, every one already *vector-eligible on its face*
    (incremental history, no disclosed program, no ``observe_granted``
    feedback) — the :class:`~repro.service.service.DecisionService`
    drain loop filters those out before calling, and
    :meth:`~repro.rbac.engine.AccessControlEngine.decide_batch_many`
    only ever passes such entries.  The run is regrouped
    per session preserving per-session order; sessions are independent
    under subject scope, so regrouping cannot change any verdict.  The
    sweeps commit only if **every** group prepares — otherwise no
    session-visible state has been touched, ``None`` is returned and
    the caller replays the run through the scalar loop.  A run that
    returns ``None`` or raises counts one vector fallback per entry;
    a swept run counts one vector decision per entry.  The audit log
    receives the decisions in arrival order, exactly as the scalar
    per-request loop would have recorded them.  The session groups
    share one provenance memo, so equal outcomes across sessions
    retain one ``DecisionProvenance``.
    """
    decisions = None
    shared: dict[DecisionProvenance, DecisionProvenance] = {}
    try:
        by_session: dict[int, tuple["Session", list[int]]] = {}
        for i, (session, _access, _t) in enumerate(entries):
            entry = by_session.get(id(session))
            if entry is None:
                by_session[id(session)] = (session, [i])
            else:
                entry[1].append(i)
        preps: list[tuple[PreparedSweep, list[int]]] = []
        for session, idx_list in by_session.values():
            times = [entries[i][2] for i in idx_list]
            # Per-session monotonicity is all a sweep needs (trackers
            # are per session); the global stream may interleave clocks.
            # `not b >= a` sends a NaN instant to the scalar path too.
            if any(not b >= a for a, b in zip(times, times[1:])):
                return None
            prep = prepare_sweep(
                engine, session, [entries[i][1] for i in idx_list], times,
                shared,
            )
            if prep is None:
                return None
            preps.append((prep, idx_list))
        swept: list[Decision] = [None] * len(entries)  # type: ignore[list-item]
        granted = 0
        for prep, idx_list in preps:
            granted += prep.granted
            for i, decision in zip(idx_list, commit_sweep(prep, record_audit=False)):
                swept[i] = decision
        engine.audit.record_many(swept, granted=granted)
        decisions = swept
    finally:
        if decisions is None:
            engine._vector_fallbacks += len(entries)
        else:
            engine._vector_decisions += len(entries)
    return decisions


def commit_sweep(prep: PreparedSweep, record_audit: bool = True) -> list[Decision]:
    """Apply a prepared sweep's side effects and return its decisions.

    Tracker advancement replays what the scalar candidate loop did:
    each examined tracker is (created if needed and) advanced to the
    latest instant at which it was examined — under closed-form accrual
    the resulting tracker state *and* the recorded validity timeline
    (the expiry switch fires at the same precomputed instant) are
    identical to the scalar query-by-query sequence.

    With ``record_audit=False`` the caller takes over audit recording
    (:func:`sweep_interleaved` interleaves several sessions' decisions
    back into global stream order first).
    """
    engine = prep.engine
    for _key, (permission, t_max) in prep.advances.items():
        engine._tracker(prep.session, permission).state(t_max)
    if prep.n:
        prep.session.touch(prep.t_last)
    engine._live_hits += prep.live_hits_add
    if OBS.enabled:
        # Metrics count every decision; the sampled per-decision spans
        # are a scalar-path feature (documented in the module docstring).
        engine._obs_decisions += prep.n
    if record_audit:
        engine.audit.record_many(prep.decisions, granted=prep.granted)
    return prep.decisions
