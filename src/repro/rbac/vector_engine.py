"""Batched decision sweeps over state tables and validity cells.

The scalar :meth:`~repro.rbac.engine.AccessControlEngine.decide` is
O(1) warm but pays interpreted-Python cost per decision: a candidate
walk, a monitor dict step, a validity-tracker query and an outcome
memo lookup each time.  For a *batch* of requests over one
session most of that work is invariant:

* the observed history the spatial check reads — the session's own,
  or its owner's combined history under owner scope — and with it
  every cached state id is frozen for the whole batch (no ``observe``
  happens), so the **spatial verdict is a constant per (access,
  candidate)**, computed by the scalar path's own expression: one step
  of the id through the constraint's
  :class:`~repro.srac.compiled.StateTable` plus one live-mask read;
* each validity tracker's state function is piecewise constant with at
  most one switch, at its cell's precomputed expiry instant, so the
  **temporal verdicts for a whole time vector** are one ``ts >=
  expiry`` compare per (candidate, access-group)
  (:meth:`~repro.temporal.validity.ValidityTracker.state_codes_at`,
  the compare the scalar query makes);
* so over the group's nondecreasing instants a k-candidate group
  splits into at most k+1 **runs of equal code columns**, and every
  request of a run walks the candidates alike.  Each run is decided by
  the scalar first-grant walk itself — the engine's ``_examined`` per
  candidate until one passes both checks, then ``_build_decision`` —
  and its other decisions are clones of that prototype's request
  slots differing only in ``time`` (:func:`_fill`).  The walk is the
  code that makes every scalar decision, so kinds, reasons and
  provenance cannot drift between the two paths.

What a swept decision retains is one four-slot ``Decision`` (subject,
access, time and outcome); everything it points at is shared.  The
engine interns the candidate records, the grant's one-record tuple,
the denial reasons and whole :class:`~repro.rbac.audit.Outcome`
records (verdicts, reason and ``DecisionProvenance``) per policy
version, so decisions with equal outcomes (same kind, candidates,
history length and epoch) hold one record between them, across
sessions, shards, sweeps and the scalar path.

The sweep is organised **prepare → commit**:

:func:`prepare_sweep` does all the work without mutating any
session-visible state (engine/process caches may warm — they are
semantically invisible) and returns ``None`` whenever the batch is not
eligible for the vector path.  The caller then falls back to the
scalar loop, which reproduces the exact scalar behaviour *including*
mid-batch exceptions.  Ineligible batches: explicit histories,
disclosed programs, ``observe_granted``, non-monotone or NaN instants,
query times behind a tracker's clock, or a monitor product over the
state budget (no live mask).

:func:`commit_sweep` applies the side effects: validity trackers of
every examined candidate are created/advanced exactly as the scalar
candidate loop would have left them (one closed-form advance to the
maximum examined instant replays the same state, the same expiry
switch at the same recorded instant) and engine counters tick; the
caller appends the decisions to the audit log in stream order.

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

from repro.obs import OBS
from repro.rbac.audit import Decision
from repro.temporal.validity import (
    CODE_INACTIVE,
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


#: ``Decision``'s slots other than ``time`` (subject, access and
#: outcome): their member-descriptor setters and one C-level getter of
#: their values (see :func:`_fill`).
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
    is a frozen slotted dataclass; a clone writes its subject, access
    and outcome slots through their member descriptors, skipping the
    ``__init__`` and the frozen-setattr guard, then its ``time``.  The
    clones are indistinguishable from constructed decisions (same
    fields, equality and hash), differ from the prototype only in
    ``time``, and share the prototype's interned outcome, so a clone
    adds one four-slot record and nothing else.  The prototype is made
    for this call and seen by no one else, so it becomes the first
    position's decision instead of being cloned.
    """
    new = Decision.__new__
    s0, s1, s2 = _SETTERS
    v0, v1, v2 = _SHARED_VALUES(proto)
    set_time = _SET_TIME
    i = idx_list[positions[0]]
    set_time(proto, times[i])
    decisions[i] = proto
    for p in positions[1:]:
        d = new(Decision)
        s0(d, v0)
        s1(d, v1)
        s2(d, v2)
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
) -> PreparedSweep | None:
    """Decide a request stream for one session without side effects.

    ``accesses`` must already be ``AccessKey`` instances and ``times``
    the per-request decision instants (nondecreasing — the caller built
    them by the same ``clock += dt`` accumulation the scalar loop
    uses).  Returns ``None`` when any part of the batch needs the
    scalar path; in that case no session state was touched.
    """
    n = len(accesses)
    if n == 0:
        return PreparedSweep(engine, session)
    if not times[0] >= session.start_time:  # a NaN instant too
        return None

    prep = PreparedSweep(engine, session)
    prep.n = n
    prep.t_last = float(times[-1])
    prep.decisions = [None] * n  # type: ignore[list-item]
    decisions = prep.decisions
    times_arr = np.asarray(times, dtype=np.float64)
    # One epoch read per sweep: the membership epoch cannot change
    # mid-batch under the shard lock, so this matches the scalar loop's
    # per-decision read bit for bit.
    epoch = engine._current_epoch()
    history_len = engine._history_len(session, None)

    groups: dict[AccessKey, list[int]] = {}
    for i, access in enumerate(accesses):
        g = groups.get(access)
        if g is None:
            groups[access] = [i]
        else:
            g.append(i)

    for access, idx_list in groups.items():
        candidates = engine._candidates(session, access)
        m = len(idx_list)
        ts = times_arr if m == n else times_arr[idx_list]

        # Spatial verdicts: constant per (access, candidate) for the
        # whole batch (the observed history is frozen) — one column
        # read and one mask read each.  Bail to scalar when a product
        # is over budget.
        spatial: list[bool] = []
        for _role, permission in candidates:
            constraint = permission.spatial_constraint
            if constraint is None:
                spatial.append(True)
                continue
            table, _, mask = engine._extension_entry(constraint, access)
            if mask is None:
                return None
            state = engine._cached_monitors(session, table)
            spatial.append(mask[table.step(state, access)] != 0)

        # Temporal state codes per candidate over the group's time
        # vector: one `ts >= expiry` compare, the scalar query's own.
        codes = np.empty((len(candidates), m), dtype=np.uint8)
        tracker_keys: list[str] = []
        for j, (_role, permission) in enumerate(candidates):
            key = engine._tracker_key(permission)
            tracker_keys.append(key)
            tracker = session.tracker(key)
            if tracker is None:
                # The scalar path would lazily create an INACTIVE
                # tracker; creation is deferred to commit.
                codes[j] = CODE_INACTIVE
            else:
                if ts[0] < tracker.now:
                    return None
                codes[j] = tracker.state_codes_at(ts)

        # Runs of equal code columns decide alike: cut the group
        # wherever any candidate's code changes, and decide each run by
        # the scalar first-grant walk.
        starts = [0]
        if m > 1:
            changed = (codes[:, 1:] != codes[:, :-1]).any(axis=0)
            starts += (np.flatnonzero(changed) + 1).tolist()
        for start, end in zip(starts, starts[1:] + [m]):
            examined = []
            column = codes[:, start].tolist()
            for (role, permission), ok, code in zip(candidates, spatial, column):
                state = STATE_CODES[code]
                examined.append(engine._examined(role, permission, ok, state))
                if ok and state is PermissionState.VALID:
                    break
            proto = engine._build_decision(
                session, access, 0.0, examined, None, "incremental",
                history_len, epoch,
            )
            if proto.granted:
                prep.granted += end - start
            _fill(decisions, proto, range(start, end), idx_list, times)
            # Every examined candidate pins its tracker to the run's
            # last instant and counts a live-mask hit per request.
            t_end = times[idx_list[end - 1]]
            for j in range(len(examined)):
                permission = candidates[j][1]
                if permission.spatial_constraint is not None:
                    prep.live_hits_add += end - start
                previous = prep.advances.get(tracker_keys[j])
                if previous is None or t_end > previous[1]:
                    prep.advances[tracker_keys[j]] = (permission, t_end)

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
    only ever passes such entries.  The run is regrouped per session
    preserving per-session order; no observation happens in a sweep,
    so every session's and owner's history stays frozen, and trackers
    are per session: regrouping cannot change any verdict.  The sweeps
    commit only if **every** group prepares — otherwise no
    session-visible state has been touched, ``None`` is returned and
    the caller replays the run through the scalar loop.  A run that
    returns ``None`` or raises counts one vector fallback per entry;
    a swept run counts one vector decision per entry.  The audit log
    receives the decisions in arrival order, exactly as the scalar
    per-request loop would have recorded them.
    """
    decisions = None
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
                engine, session, [entries[i][1] for i in idx_list], times
            )
            if prep is None:
                return None
            preps.append((prep, idx_list))
        swept: list[Decision] = [None] * len(entries)  # type: ignore[list-item]
        granted = 0
        for prep, idx_list in preps:
            granted += prep.granted
            for i, decision in zip(idx_list, commit_sweep(prep)):
                swept[i] = decision
        engine.audit.record_many(swept, granted=granted)
        decisions = swept
    finally:
        if decisions is None:
            engine._vector_fallbacks += len(entries)
        else:
            engine._vector_decisions += len(entries)
    return decisions


def commit_sweep(prep: PreparedSweep) -> list[Decision]:
    """Apply a prepared sweep's side effects and return its decisions.

    Tracker advancement replays what the scalar candidate loop did:
    each examined tracker is (created if needed and) advanced to the
    latest instant at which it was examined — under closed-form accrual
    the resulting tracker state *and* the recorded validity timeline
    (the expiry switch fires at the same precomputed instant) are
    identical to the scalar query-by-query sequence.

    The caller records the decisions in the audit log
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
    return prep.decisions
