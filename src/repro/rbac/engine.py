"""The coordinated access-control decision engine.

This is the paper's extended RBAC (Eq. 3.1 + Eq. 4.1) as an executable
object: authenticate users into sessions, activate roles (under DSD),
and decide access requests by searching the subject's active roles for
a permission that (a) matches the access, (b) whose spatial constraint
is still satisfiable given the object's proved history — and remaining
program when known — and (c) is temporally **valid** (activation budget
not exhausted, per the configured base-time scheme)::

    active(perm) = true  iff  ∃r ∈ AR(s): perm ∈ RP(r)
                          ∧ check(P, C) = true          (Eq. 3.1)
    valid(perm, t) = 1   iff  active(perm, t) = 1
                          ∧ ∫ valid(perm, u) du ≤ dur(perm)   (Eq. 4.1)

Every decision is recorded in the :class:`~repro.rbac.audit.AuditLog`.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

import repro.rbac.model as rbac_model
from repro.errors import AccessDenied, ConstraintError, RbacError
from repro.obs import OBS, RECORDER, REGISTRY
from repro.obs.provenance import CandidateProvenance, DecisionProvenance
from repro.rbac.audit import AuditLog, Decision, Outcome
from repro.rbac.model import Permission, Role, User
from repro.rbac.policy import Policy
from repro.rbac.session_store import Session, SessionStore
from repro.sral.ast import Program
from repro.srac.ast import Constraint, constraint_alphabet
from repro.srac.checker import check_program
from repro.srac.compiled import StateTable, state_table
from repro.srac.printer import unparse_constraint
from repro.srac.reachability import CacheStats, cache_stats
from repro.temporal.aggregation import PermissionClassifier
from repro.temporal.validity import PermissionState, Scheme, check_clock
from repro.traces.trace import AccessKey, Trace

__all__ = [
    "AccessControlEngine",
    "EngineCacheStats",
    "DECIDE_SPAN_SAMPLE",
]

_session_counter = itertools.count(1)


def _draw_ids(n: int) -> tuple[int, int]:
    """The first of ``n`` consecutive session sequence numbers and the
    first of ``n`` consecutive subject sequence numbers, drawn in one
    step that no other draw interleaves.  The counters are read from
    their modules at each call (tests and benchmarks restart them by
    assignment); a run moves each past itself by replacing it."""
    global _session_counter
    with rbac_model._id_lock:
        sid = next(_session_counter)
        seq = next(rbac_model._subject_counter)
        if n > 1:
            _session_counter = itertools.count(sid + n)
            rbac_model._subject_counter = itertools.count(seq + n)
    return sid, seq


def _factorize(names: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct names in first-appearance order, and each name's
    int32 index among them — one pass at C speed."""
    names = names if isinstance(names, (list, tuple)) else list(names)
    codes: dict[str, int] = collections.defaultdict(itertools.count().__next__)
    index = np.fromiter(map(codes.__getitem__, names), np.int32, len(names))
    return list(codes), index


#: One in this many decisions draws a wall-clock timing sample and
#: records an ``engine.decide`` span when observability is enabled
#: (power of two; sampling keeps the warm decide path inside the ≤5 %
#: instrumentation-overhead budget gated by
#: ``benchmarks/bench_obs_overhead.py`` — unsampled decisions pay two
#: integer increments and one modulo, no clock reads).
DECIDE_SPAN_SAMPLE = 64

# Memoised SRAC source text per constraint (provenance records carry
# the text; rendering is ~µs-scale, far too slow for the warm path).
# Plain dict: get/set are GIL-atomic, a racing duplicate render is
# harmless, and constraints are interned policy objects so the table
# stays small.
_constraint_text: dict[Constraint, str] = {}


def _constraint_source(constraint: Constraint) -> str:
    text = _constraint_text.get(constraint)
    if text is None:
        try:
            text = unparse_constraint(constraint)
        except ConstraintError:
            # Synthesised AST nodes (tests build constraints directly)
            # may not be expressible in SRAC concrete syntax; the repr
            # still names the failing clause.
            text = repr(constraint)
        _constraint_text[constraint] = text
    return text


#: The no-candidate decision's attribution: every field None.
_NO_CANDIDATE = CandidateProvenance(None, None, None, None, None, None)

#: One examined ``(role, permission)`` pair as the engine's memo holds
#: it: the candidate record, the one-record tuple a grant by it
#: carries, and the reason a denial ending on it gives ("" if it
#: passes).
_Examined = tuple[CandidateProvenance, tuple[CandidateProvenance], str]


class _DecisionMemo:
    """The candidates, interned attribution and outcomes of one policy
    version.

    ``candidates`` holds :meth:`AccessControlEngine._candidates`'
    matches per (active-role set, access), ``examined``
    :meth:`AccessControlEngine._examined`'s entries and ``outcomes``
    :meth:`AccessControlEngine._build_decision`'s
    :class:`~repro.rbac.audit.Outcome` records, so retained decisions
    of equal outcome share one record, on every path.  Like the audit
    log, it grows with the distinct outcomes of one policy version.

    A :class:`~repro.service.sharding.ShardedEngine` hands one memo to
    all its shards, which decide under different locks.  An entry is a
    pure function of its key, so shards racing to make one is harmless:
    they insert with ``setdefault`` and all keep the record that won.
    The tables are emptied once when the policy version moves, under
    a lock only that check takes.
    """

    __slots__ = ("version", "candidates", "examined", "outcomes", "_lock")

    def __init__(self, version: int):
        self.version = version
        self.candidates: dict[
            tuple[frozenset[Role], AccessKey], tuple[tuple[Role, Permission], ...]
        ] = {}
        # Keys hold names, a bool and a string, which hash at C speed;
        # the Role / Permission dataclasses or the enum would cost a
        # Python-level __hash__ per lookup.
        self.examined: dict[tuple[str, str, bool, str], _Examined] = {}
        self.outcomes: dict[tuple, Outcome] = {}
        self._lock = threading.Lock()

    def at(self, version: int) -> "_DecisionMemo":
        """The memo, emptied first if it holds another version's."""
        if self.version != version:
            with self._lock:
                if self.version != version:
                    self.clear()
                    self.version = version
        return self

    def clear(self) -> None:
        self.candidates.clear()
        self.examined.clear()
        self.outcomes.clear()


@dataclass(frozen=True)
class EngineCacheStats:
    """Snapshot of the engine's caching layers for one report:
    candidate-permission lookups (hits/misses of the per
    (policy-version, role-set, access) cache) plus the process-level
    SRAC table-cache counters
    (:class:`repro.srac.reachability.CacheStats`)."""

    candidate_hits: int
    candidate_misses: int
    extension_entries: int
    #: Spatial checks answered by a state-table step and a live-mask read.
    live_hits: int
    #: Spatial checks that fell back to the BFS (product over budget).
    live_fallbacks: int
    srac: CacheStats
    #: Batched decisions taken by the vectorized sweep.
    vector_decisions: int = 0
    #: Batched decisions that fell back to the scalar loop.
    vector_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        out = {
            "candidate_hits": self.candidate_hits,
            "candidate_misses": self.candidate_misses,
            "extension_entries": self.extension_entries,
            "live_hits": self.live_hits,
            "live_fallbacks": self.live_fallbacks,
            "vector_decisions": self.vector_decisions,
            "vector_fallbacks": self.vector_fallbacks,
        }
        out.update(self.srac.as_dict())
        return out


class AccessControlEngine:
    """Evaluates access requests against a :class:`Policy` with
    coordinated spatio-temporal constraints.

    Parameters
    ----------
    policy:
        The security officer's declarations.
    scheme:
        Base-time scheme for validity budgets
        (:data:`~repro.temporal.validity.Scheme.WHOLE_EXECUTION` or
        :data:`~repro.temporal.validity.Scheme.PER_SERVER`).
    extension_alphabet:
        Universe of accesses used by the grant-time satisfiability
        search when the requester's remaining program is unknown
        (defaults to the accesses named by the constraint plus the
        requested one).
    classifier:
        Optional :class:`~repro.temporal.aggregation.PermissionClassifier`
        (the paper's future-work extension): permissions in one class
        share a single aggregated validity budget.
    coordination_scope:
        ``"subject"`` (default) — spatial constraints are evaluated
        against the requesting mobile object's own history.
        ``"owner"`` — against the *combined* observed history of every
        session of the same user: "permissions may be granted based not
        only on the requesting subject, but also on the previous access
        actions of the device **and even of its companions**"
        (Section 1).  Owner scope applies to incremental decisions
        (``history=None``), where the engine is the history's source of
        truth; explicit histories are always taken as given.

    The spatial check steps the constraint's state id through its
    interned :class:`~repro.srac.compiled.StateTable` and reads the
    request universe's live mask; a monitor product over the
    reachability budget, which has no mask, runs the bounded search
    from its stepped id instead (counted as ``live_fallbacks``).
    Every validity tracker records its ``valid``/``active`` timeline
    events for the audit; a bulk-opened row stores none — its
    open-time activation is implied — so recording costs
    :meth:`open_sessions` nothing per row.

    Resident session state lives in the columnar
    :class:`~repro.rbac.session_store.SessionStore`: sessions returned
    by :meth:`authenticate` are :class:`~repro.rbac.session_store.Session`
    handles over numpy columns (~70 bytes of store overhead per
    resident session until its first tracker or monitor write, which
    copies its shared cell into one of its own).
    """

    def __init__(
        self,
        policy: Policy,
        scheme: Scheme = Scheme.WHOLE_EXECUTION,
        extension_alphabet: Iterable[AccessKey | tuple[str, str, str]] = (),
        classifier: PermissionClassifier | None = None,
        coordination_scope: str = "subject",
    ):
        if coordination_scope not in ("subject", "owner"):
            raise RbacError(
                f"unknown coordination scope {coordination_scope!r}"
            )
        self.policy = policy
        self.scheme = scheme
        self.extension_alphabet = tuple(
            AccessKey(*a) for a in extension_alphabet
        )
        self.classifier = classifier
        self.coordination_scope = coordination_scope
        self.audit = AuditLog()
        # Handles are views — the columns are the state — so dropping
        # every reference to a session does not lose it (the store
        # registers live handles per row; materialize() finds one by
        # id).
        self._store = SessionStore(scheme)
        # Owner-scope state: combined histories (list-backed, O(1)
        # append) and each owner's state id per table (tables of one
        # constraint are equal).
        self._owner_observed: dict[str, list[AccessKey]] = {}
        self._owner_monitors: dict[str, dict[StateTable, int]] = {}
        # Extension entries: (constraint, access) -> (state table,
        # canonical request universe, its live mask; None over the
        # state budget).  A ShardedEngine hands its shards one copy of
        # this memo.
        self._extension_cache: dict[
            tuple[Constraint, AccessKey],
            tuple[StateTable, tuple[AccessKey, ...], bytes | None],
        ] = {}
        # Candidate, attribution and outcome memo of one policy version
        # (a ShardedEngine replaces it with one its shards share).
        self._memo = _DecisionMemo(policy.version)
        self._candidate_hits = 0
        self._candidate_misses = 0
        self._live_hits = 0
        self._live_fallbacks = 0
        self._vector_decisions = 0
        self._vector_fallbacks = 0
        # Coalition membership epoch source (bind_membership); when
        # set, every DecisionProvenance carries the epoch in force at
        # decision time.
        self._epoch_source = None
        # Observability counters (repro.obs).  Plain attributes, no
        # lock: engine internals are only ever touched single-threaded
        # or under the owning shard's lock, and the registry *pulls*
        # them through the collector below at snapshot time.  Outcome
        # totals come from the audit log's always-on counters (paid
        # identically with obs on or off), so the obs-enabled decide
        # path adds only the sampling tick below — no clock reads off
        # the 1-in-``DECIDE_SPAN_SAMPLE`` sample.
        self._obs_decisions = 0
        self._obs_decide_sampled = 0
        self._obs_decide_sampled_s = 0.0
        self._obs_decide_max_s = 0.0
        # reset_stats() baselines for the audit-derived outcome counts.
        self._obs_granted_base = 0
        self._obs_denied_base = 0
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Leave the metrics registry: the engine's counters fold into
        its totals and its gauges end.  Idempotent.  The engine still
        decides afterwards, but those decisions go uncounted."""
        REGISTRY.unregister_collector(self._collect_obs)

    def _collect_obs(self) -> dict[str, float]:
        """Pull-time metrics source (summed across engines by the
        registry — shards of one :class:`ShardedEngine` aggregate).
        Outcome counts are audit-derived and therefore cover *all*
        decisions since construction (or :meth:`reset_stats`),
        regardless of when observability was switched on;
        ``engine.decide.sampled*`` timing exists only for decisions
        taken while it was enabled."""
        granted, denied = self.decision_counts()
        return {
            "engine.sessions.resident": float(self.resident_sessions()),
            "engine.sessions.store_bytes": float(self._store.nbytes()),
            "engine.sessions.own_cells": float(self._store.own_cells()),
            "engine.decisions": granted + denied,
            "engine.decisions.granted": granted,
            "engine.decisions.denied": denied,
            "engine.decide.sampled": self._obs_decide_sampled,
            "engine.decide.sampled_s": self._obs_decide_sampled_s,
            "engine.decide.max_s": self._obs_decide_max_s,
            "engine.candidate_cache.hits": self._candidate_hits,
            "engine.candidate_cache.misses": self._candidate_misses,
            "engine.live_mask.hits": self._live_hits,
            "engine.live_mask.fallbacks": self._live_fallbacks,
            "engine.vector.decisions": self._vector_decisions,
            "engine.vector.fallbacks": self._vector_fallbacks,
        }

    def _record_decide(self, start: float, decision: Decision) -> None:
        """Sampled decide timing + span (obs enabled only; called for
        the 1-in-``DECIDE_SPAN_SAMPLE`` decisions whose entry drew a
        ``start`` timestamp — outcome counters are updated inline in
        :meth:`decide` so the common enabled path stays a couple of
        integer increments)."""
        duration = time.perf_counter() - start
        self._obs_decide_sampled += 1
        self._obs_decide_sampled_s += duration
        if duration > self._obs_decide_max_s:
            self._obs_decide_max_s = duration
        provenance = decision.provenance
        RECORDER.record(
            "engine.decide",
            start,
            duration,
            {
                "access": str(decision.access),
                "granted": decision.granted,
                "kind": provenance.kind if provenance is not None else "",
                "sampled": DECIDE_SPAN_SAMPLE,
            },
        )

    # -- coalition membership ------------------------------------------------

    def bind_membership(self, coalition) -> None:
        """Stamp every decision's provenance with ``coalition``'s
        membership epoch (duck-typed: anything with a
        ``membership_epoch`` attribute works).  Unbound engines stamp
        ``None`` — the static-topology behaviour."""
        self._epoch_source = lambda: coalition.membership_epoch

    def _current_epoch(self) -> int | None:
        source = self._epoch_source
        return source() if source is not None else None

    def rescind_server(self, server: str) -> int:
        """Drop every observed access issued at ``server`` from all
        session and owner histories and invalidate the affected monitor
        caches — the incremental-mode consequence of a coalition
        eviction (explicit-history callers filter their own trace via
        :meth:`~repro.coalition.Coalition.admissible_trace`).  Returns
        the number of observations removed."""
        removed = self._store.rescind_server(server)
        for owner, observed in self._owner_observed.items():
            kept = [a for a in observed if a.server != server]
            if len(kept) != len(observed):
                removed += len(observed) - len(kept)
                self._owner_observed[owner] = kept
                self._owner_monitors.pop(owner, None)
        return removed

    # -- session management --------------------------------------------------

    def authenticate(
        self,
        user_name: str,
        t: float,
        principals: Iterable[str] = (),
    ) -> Session:
        """Authenticate ``user_name`` and establish a session (the
        paper's subject creation after certificate validation)."""
        user = self.policy.user(user_name)
        sid, seq = _draw_ids(1)
        row = self._store.open(user, principals, t, sid, seq)
        return self._store.handle(row)

    def materialize(self, session_id: str) -> Session:
        """The live session with ``session_id`` — a (possibly fresh)
        handle over its row found by a vectorized id scan; the store
        keeps no per-session Python object, so dropping every handle
        loses nothing.  Raises :class:`RbacError` for unknown or closed
        sessions."""
        row = self._store.row_of_session_id(session_id)
        if row is None:
            raise RbacError(f"unknown session {session_id!r}")
        return self._store.handle(row)

    def session_at(self, row: int) -> Session:
        """The handle for store row ``row`` — the bulk loader's O(1)
        alternative to :meth:`materialize`.  Raises :class:`RbacError`
        unless ``row`` is an integer naming a live row."""
        return self._store.handle(row)

    def resident_sessions(self) -> int:
        """How many sessions are currently resident."""
        return self._store.resident

    def close_session(self, session: Session, t: float) -> None:
        """End a session at ``t``: free its row at once, and
        ``session`` reads as a closed session — no roles, trackers or
        history.  Refused with :class:`~repro.errors.TemporalError`,
        the session left open, when ``t`` is behind a clock that
        deactivating its roles would advance.  Closing writes no
        tracker: the closed occupancy's tracker states and timelines
        are read by no one."""
        if session.role_set():
            for tracker in session.trackers.values():
                check_clock(t, tracker.now)
        if session._store is self._store:
            self._store.close(session._row, session._gen)

    def latest_activity(self) -> float | None:
        """The latest instant a resident session was active at
        (``None`` when no session is resident)."""
        return self._store.latest_activity()

    def expire_sessions(
        self, now: float | None = None, idle_for: float = 0.0
    ) -> int:
        """Close every session idle for at least ``idle_for`` as of
        ``now`` (default: :meth:`latest_activity`) — the long-run guard
        against unbounded session growth.  Each expired session is
        closed as :meth:`close_session` closes it at an instant no
        tracker clock is behind.  Returns the number of sessions
        expired."""
        if now is None:
            now = self.latest_activity()
            if now is None:
                return 0
        store = self._store
        rows = store.idle_rows(float(now), idle_for)
        for row in rows.tolist():
            store.close(row, store._gen.data.item(row))
        return len(rows)

    def open_sessions(
        self,
        user_names: Iterable[str],
        t: float,
        roles: Iterable[str] = (),
    ) -> np.ndarray:
        """Bulk-authenticate ``user_names`` at ``t`` and activate
        ``roles`` on every session — the columnar load path.  The names
        become one int code array; each distinct user is checked and
        interned once, entitlement once per distinct assigned-role set,
        and the rows are column fills.  Equivalent to
        :meth:`authenticate` + :meth:`activate_role` per session — same
        states, timelines and id sequences (checked in
        ``tests/test_session_store.py`` and ``benchmarks/bench_scale.py``)
        — minus the per-session Python objects.  A refused call opens
        nothing.  Returns the opened row indices, in ``user_names``
        order (:meth:`session_at` materialises handles on demand)."""
        distinct, codes = _factorize(user_names)
        role_objs, users, plan = self._check_bulk_open(distinct, roles, t)
        return self._open_block(
            users, range(len(users)), codes, t, role_objs, plan
        )

    def _check_bulk_open(
        self, names: Sequence[str], roles: Iterable[str], t: float
    ) -> tuple[tuple[Role, ...], list[User], dict[str, float]]:
        """Check a bulk open at ``t`` before anything is written: the
        role set against DSD, the instant against the trackers the open
        activates (a NaN is refused as :meth:`activate_role` refuses
        it), each distinct name as a known user, and each distinct
        assigned-role set as entitled to every role.  Returns the
        roles, the users, parallel to ``names``, and the tracker
        plan."""
        role_objs = tuple(self.policy.role(name) for name in roles)
        role_fs = frozenset(role_objs)
        for constraint in self.policy.dsd_constraints:
            if constraint.violated_by(role_fs):
                raise RbacError(
                    f"activating {sorted(r.name for r in role_objs)!r} "
                    f"violates DSD constraint {constraint.name!r}"
                )
        plan = self._tracker_plan(role_objs)
        if plan:
            # A tracker opened at t has its clock at t.
            check_clock(t, t)
        users: list[User] = []
        # Assigned-role set -> the first role it is not entitled to.
        missing: dict[frozenset[Role], Role | None] = {}
        for name in names:
            user = self.policy.user(name)
            if role_objs:
                assigned = self.policy.roles_of_user(user)
                if assigned not in missing:
                    entitled = self.policy.hierarchy.closure(assigned)
                    missing[assigned] = next(
                        (r for r in role_objs if r not in entitled), None
                    )
                role = missing[assigned]
                if role is not None:
                    raise RbacError(
                        f"user {name!r} is not authorized "
                        f"for role {role.name!r}"
                    )
            users.append(user)
        return role_objs, users, plan

    def _tracker_plan(self, role_objs: Iterable[Role]) -> dict[str, float]:
        """A bulk open's trackers, key -> duration, in the first-creation
        order the scalar activation loop uses."""
        plan: dict[str, float] = {}
        for role in role_objs:
            for permission in self.policy.permissions_of_role(role):
                key = self._tracker_key(permission)
                if key not in plan:
                    plan[key] = self._duration_for(permission)
        return plan

    def _open_block(
        self,
        users: Sequence[User],
        members: Iterable[int],
        codes: np.ndarray,
        t: float,
        role_objs: tuple[Role, ...],
        tracker_plan: dict[str, float],
    ) -> np.ndarray:
        """Open a checked bulk open's rows (see :meth:`open_sessions`):
        row ``i`` is user ``users[codes[i]]``, and ``members`` are the
        indices into ``users`` that ``codes`` holds, ascending.
        ``users`` are distinct, in first-appearance order — the order
        one-by-one authentication interns them — and each member is
        interned once."""
        n = len(codes)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        store = self._store
        user_codes = np.zeros(len(users), dtype=np.int32)
        for m in members:
            user_codes[m] = store._intern_user(users[m])
        sid, seq = _draw_ids(n)
        return store.open_block(
            t,
            sid,
            seq,
            user_codes[codes],
            store._intern_role_set(frozenset(role_objs)),
            tracker_plan,
        )

    def activate_role(self, session: Session, role_name: str, t: float) -> None:
        """Activate a role the user is entitled to (checks UA membership
        and DSD), and activate the validity trackers of its permissions.
        Raises :class:`RbacError` on a closed session."""
        session.require_open()
        role = self.policy.role(role_name)
        entitled = self.policy.roles_of_user(session.subject.user)
        # A user may activate any assigned role or one it dominates.
        if role not in self.policy.hierarchy.closure(entitled):
            raise RbacError(
                f"user {session.subject.user.name!r} is not authorized "
                f"for role {role_name!r}"
            )
        # DSD is checked against the *directly activated* role set (the
        # ANSI-RBAC reading); SSD, in the policy, uses the inheritance
        # closure.  Using the closure here would make any DSD pair with
        # an inheritance edge between its members unsatisfiable.
        proposed = session.active_roles | {role}
        for constraint in self.policy.dsd_constraints:
            if constraint.violated_by(proposed):
                raise RbacError(
                    f"activating {role_name!r} violates DSD constraint "
                    f"{constraint.name!r}"
                )
        session.active_roles.add(role)
        for permission in self.policy.permissions_of_role(role):
            self._tracker(session, permission).activate(t)

    def deactivate_role(self, session: Session, role_name: str, t: float) -> None:
        """Deactivate a role; permissions no longer reachable through a
        remaining active role lose their active state.  Refused with
        :class:`~repro.errors.TemporalError`, nothing changed, when
        ``t`` is behind the clock of a tracker it would deactivate."""
        role = self.policy.role(role_name)
        remaining = self.policy.permissions_of_roles(
            self.policy.hierarchy.closure(set(session.active_roles) - {role})
        )
        remaining_keys = {self._tracker_key(p) for p in remaining}
        trackers = [
            tracker
            for key, tracker in session.trackers.items()
            if key not in remaining_keys
        ]
        for tracker in trackers:
            check_clock(t, tracker.now)
        session.active_roles.discard(role)
        for tracker in trackers:
            tracker.deactivate(t)

    def notify_migration(self, session: Session, t: float) -> None:
        """The mobile object arrived at a new server: under the
        per-server scheme this resets validity budgets (Section 4)."""
        for tracker in session.trackers.values():
            tracker.migrate(t)

    def _tracker_key(self, permission: Permission) -> str:
        """Permissions classified together share one tracker (and thus
        one budget); unclassified permissions track individually."""
        if self.classifier is not None:
            cls = self.classifier.class_of(permission.name)
            if cls is not None:
                return f"class:{cls.name}"
        return permission.name

    def _duration_for(self, permission: Permission) -> float:
        if self.classifier is not None:
            cls = self.classifier.class_of(permission.name)
            if cls is not None:
                durations = {
                    name: perm.validity_duration
                    for name, perm in self.policy.permissions.items()
                }
                return cls.aggregate(durations)
        return permission.validity_duration

    def _tracker(self, session: Session, permission: Permission):
        key = self._tracker_key(permission)
        tracker = session.tracker(key)
        if tracker is None:
            tracker = session.create_tracker(key, self._duration_for(permission))
        return tracker

    # -- decisions ---------------------------------------------------------------

    def observe(self, session: Session, access: AccessKey | tuple[str, str, str]) -> None:
        """Record that ``access`` was *actually executed* for this
        session (a proof was issued).  Steps the session's cached state
        ids so that incremental decisions (``history=None``) stay O(1)
        in history length.  Under owner scope the observation also
        counts against every companion session of the same user.
        Raises :class:`RbacError` on a closed session."""
        if type(access) is not AccessKey:
            access = AccessKey.of(access)
        session._store.observe(session.require_open(), access)
        if self.coordination_scope == "owner":
            owner = session.subject.user.name
            self._owner_observed.setdefault(owner, []).append(access)
            states = self._owner_monitors.get(owner)
            if states:
                for table, state in states.items():
                    states[table] = table.step(state, access)

    def _cached_monitors(self, session: Session, table: StateTable) -> int:
        """The state id of ``table``'s constraint over the session's
        observed history — its owner's combined history under owner
        scope — folded on first use and stepped by :meth:`observe`."""
        if self.coordination_scope == "owner":
            owner = session.subject.user.name
            states = self._owner_monitors.setdefault(owner, {})
            state = states.get(table)
            if state is None:
                state = states[table] = table.fold(
                    self._owner_observed.get(owner, ())
                )
            return state
        return session._store.monitor_entry(session.require_open(), table)

    def decide(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = (),
        program: Program | None = None,
    ) -> Decision:
        """Decide one access request.

        ``history`` is the object's *proved* access trace (from its
        :class:`~repro.coalition.proofs.ProofRegistry`); ``program`` is
        the remaining SRAL program when the requester discloses it.
        The spatial check asks whether the history *including this
        access* can still satisfy each candidate permission's
        constraint — through the disclosed program if given, otherwise
        through any future over the constraint-relevant alphabet.

        ``history=None`` selects **incremental mode**: the engine uses
        the session's own observed history (fed by :meth:`observe`) via
        cached monitor states, making the spatial check independent of
        history length.  Decisions are identical to passing
        ``session.observed`` explicitly (property-tested).

        Every decision carries a
        :class:`~repro.obs.provenance.DecisionProvenance` explain
        record; denials always name the failing SRAC clause or the
        Eq. 4.1 temporal state.
        """
        obs_on = OBS.enabled
        start = 0.0
        if obs_on:
            self._obs_decisions += 1
            # Wall-clock timing (and the span) is itself sampled: two
            # ``perf_counter`` calls per decision would alone eat most
            # of the ≤5 % instrumentation budget.
            if self._obs_decisions % DECIDE_SPAN_SAMPLE == 0:
                start = time.perf_counter()
        # The decision keeps its access, so never a fresh key per call.
        if type(access) is not AccessKey:
            access = AccessKey.of(access)
        if program is not None:
            history_mode = "program"
        elif history is None:
            history_mode = "incremental"
        else:
            history_mode = "explicit"
        candidates = self._candidates(session, access)
        return self._decide_core(
            session, access, t, history, program, history_mode, candidates, start
        )

    def _decide_core(
        self,
        session: Session,
        access: AccessKey,
        t: float,
        history: Trace | None,
        program: Program | None,
        history_mode: str,
        candidates: tuple[tuple[Role, Permission], ...],
        start: float,
    ) -> Decision:
        """:meth:`decide` after candidate resolution — split out so the
        batch paths can hoist the candidate lookup per distinct access
        instead of re-resolving it per element."""
        session.touch(t)
        epoch = self._current_epoch()
        examined: list[_Examined] = []
        for role, permission in candidates:
            spatial_ok = self._spatial_ok(
                session, permission, access, history, program
            )
            state = self._tracker(session, permission).state(t)
            examined.append(self._examined(role, permission, spatial_ok, state))
            if spatial_ok and state is PermissionState.VALID:
                break
        decision = self._build_decision(
            session, access, t, examined, history, history_mode,
            self._history_len(session, history), epoch,
        )
        self.audit.record(decision)
        if start:
            self._record_decide(start, decision)
        return decision

    def _examined(
        self,
        role: Role,
        permission: Permission,
        spatial_ok: bool,
        state: PermissionState,
    ) -> _Examined:
        """The interned attribution of one examined ``(role,
        permission)`` pair with these verdicts: one candidate record,
        one grant tuple and one denial reason per distinct value, so
        retained decisions share them.  Every decision path and
        :meth:`explain` get their candidate records here.  The memo,
        :meth:`_build_decision`'s outcomes with it, is emptied whenever
        :attr:`Policy.version` moves, so a replaced permission's old
        constraint text is never served."""
        memo = self._memo.at(self.policy.version).examined
        key = (role.name, permission.name, spatial_ok, state._value_)
        entry = memo.get(key)
        if entry is None:
            constraint = permission.spatial_constraint
            record = CandidateProvenance(
                role=role.name,
                permission=permission.name,
                constraint=(
                    _constraint_source(constraint)
                    if constraint is not None else None
                ),
                spatial_ok=spatial_ok,
                temporal_ok=state is PermissionState.VALID,
                temporal_state=state.value,
            )
            if not spatial_ok:
                reason = (
                    f"spatial constraint of {permission.name!r} cannot be satisfied"
                )
            elif state is not PermissionState.VALID:
                reason = f"permission {permission.name!r} is {state.value}"
            else:
                reason = ""
            entry = memo.setdefault(key, (record, (record,), reason))
        return entry

    def _build_decision(
        self,
        session: Session,
        access: AccessKey,
        t: float,
        examined: Sequence[_Examined],
        history: Trace | None,
        history_mode: str,
        history_len: int,
        epoch: int | None,
    ) -> Decision:
        """The one place a ``Decision`` is made, from the candidates
        examined in order (:meth:`_examined` entries; the scalar loop's
        decisions and the vector sweep's prototypes).  None examined:
        no candidate matched.  A last record passing both checks is the
        grant.  Otherwise the last record's failing check is the
        denial's kind and reason, and only denials pay the
        foreign-server scan.  The outcome, with its provenance record,
        is interned in the engine's memo, keyed by the interned
        candidate records and the other provenance fields (the records
        fix the kind, the last one's verdicts and the reason), so the
        decision itself is the request plus that one shared record."""
        foreign: tuple[str, ...] = ()
        if not examined:
            last, candidates = _NO_CANDIDATE, ()
            kind = "no-candidate"
            reason = "no active role provides a matching permission"
        else:
            last, single, reason = examined[-1]
            if last.spatial_ok and last.temporal_ok:
                kind, candidates = "granted", single
            else:
                kind = "spatial" if not last.spatial_ok else "temporal"
                candidates = (
                    single if len(examined) == 1
                    else tuple(entry[0] for entry in examined)
                )
                foreign = self._foreign_servers(session, access, history)
        key = (candidates, history_mode, history_len, foreign, epoch)
        outcomes = self._memo.outcomes
        outcome = outcomes.get(key)
        if outcome is None:
            outcome = outcomes.setdefault(key, Outcome(
                kind == "granted",
                last.role,
                last.permission,
                last.spatial_ok,
                last.temporal_ok,
                reason,
                DecisionProvenance(
                    kind=kind,
                    candidates=candidates,
                    history_mode=history_mode,
                    history_len=history_len,
                    foreign_servers=foreign,
                    epoch=epoch,
                ),
            ))
        return Decision(session.subject_id, access, t, outcome)

    def _effective_history(
        self, session: Session, history: Trace | None
    ) -> tuple[AccessKey, ...] | Trace:
        """The trace the spatial check effectively ran against (the
        session's observed history in incremental mode, widened to the
        owner's combined history under owner scope)."""
        if history is not None:
            return history
        if self.coordination_scope == "owner":
            return tuple(
                self._owner_observed.get(session.subject.user.name, ())
            )
        return session.observed

    def _history_len(self, session: Session, history: Trace | None) -> int:
        if history is None:
            # Log length reads — no tuple-view materialisation (a batch
            # that records observations must not rebuild the O(n) view
            # once per decision).
            if self.coordination_scope == "owner":
                return len(
                    self._owner_observed.get(session.subject.user.name, ())
                )
            return session.observed_len()
        try:
            return len(history)
        except TypeError:  # pragma: no cover - exotic iterables
            return -1

    def _foreign_servers(
        self, session: Session, access: AccessKey, history: Trace | None
    ) -> tuple[str, ...]:
        """Distinct *other* servers contributing history entries — the
        decision's coordination footprint.  O(history); called on the
        denial path only."""
        servers = {
            AccessKey(*a).server
            for a in self._effective_history(session, history)
        }
        servers.discard(access.server)
        return tuple(sorted(servers))

    def enforce(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = (),
        program: Program | None = None,
    ) -> Decision:
        """Like :meth:`decide` but raises
        :class:`~repro.errors.AccessDenied` on denial."""
        decision = self.decide(session, access, t, history, program)
        if not decision.granted:
            raise AccessDenied(
                f"access {AccessKey(*access)} denied: {decision.reason}",
                decision=decision,
            )
        return decision

    def decide_batch(
        self,
        session: Session,
        accesses: Iterable[AccessKey | tuple[str, str, str]],
        t: float,
        dt: float = 0.0,
        history: Trace | None = None,
        program: Program | None = None,
        observe_granted: bool = False,
    ) -> list[Decision]:
        """Replay a request stream through :meth:`decide`.

        Each access is decided at ``t``, ``t + dt``, ``t + 2·dt``, …
        (validity trackers require monotone time).  The default
        ``history=None`` uses incremental mode — the intended use for
        server-side stream replay, where each decision is a cached
        state-id step plus a live-mask read.  With ``observe_granted``
        every granted access is fed back via :meth:`observe` before the
        next request is decided, modelling a client that performs each
        access it is granted.

        Incremental batches take the **vectorized sweep**
        (:mod:`repro.rbac.vector_engine`): the same decisions and
        provenance as the per-request :meth:`decide` loop, only faster.
        Batches the sweep cannot handle — explicit history, disclosed
        program, ``observe_granted``, products over the state budget,
        non-monotone time — fall back to that loop, with the candidate
        lookup hoisted per distinct access.
        """
        keys = [
            a if type(a) is AccessKey else AccessKey.of(a) for a in accesses
        ]
        if not keys:
            return []
        # Same float sequence as `clock += dt` accumulation, at C speed.
        times: list[float] = list(
            itertools.accumulate(itertools.repeat(dt, len(keys) - 1), initial=t)
        )
        if (
            history is None
            and program is None
            and not observe_granted
            and dt >= 0
        ):
            from repro.rbac.vector_engine import commit_sweep, prepare_sweep

            prepared = prepare_sweep(self, session, keys, times)
            if prepared is not None:
                self._vector_decisions += len(keys)
                decisions = commit_sweep(prepared)
                self.audit.record_many(decisions, granted=prepared.granted)
                return decisions
        self._vector_fallbacks += len(keys)
        return self._decide_each(
            [(session, access, when) for access, when in zip(keys, times)],
            history,
            program,
            observe_granted,
        )

    def decide_batch_many(
        self,
        requests: Iterable[tuple[Session, AccessKey | tuple[str, str, str]]],
        t: float,
        dt: float = 0.0,
        times: Sequence[float] | None = None,
    ) -> list[Decision]:
        """Decide an interleaved request stream across many sessions.

        ``requests`` is a sequence of ``(session, access)`` pairs; the
        i-th request is decided at ``t + i·dt`` on the same global
        clock accumulation as :meth:`decide_batch` (or at ``times[i]``
        when an explicit instant vector is given — the sharded engine
        passes each shard its exact slice of the global clock).
        Incremental mode only (each session's own observed history, no
        program).

        The stream goes through
        :func:`~repro.rbac.vector_engine.sweep_interleaved`, which
        regroups it per session (validity-tracker effects are
        per-session, so regrouping cannot change any verdict) and
        records the decisions in global stream order.  If any session's
        subsequence is ineligible the *whole* stream is decided by the
        per-request loop instead, so decisions are identical either way.
        """
        pairs = [
            (session, a if type(a) is AccessKey else AccessKey.of(a))
            for session, a in requests
        ]
        if times is None:
            times = list(
                itertools.accumulate(
                    itertools.repeat(dt, len(pairs) - 1), initial=t
                )
            ) if pairs else []
        elif len(times) != len(pairs):
            raise RbacError(
                f"times has {len(times)} entries for {len(pairs)} requests"
            )
        from repro.rbac.vector_engine import sweep_interleaved

        entries = [
            (session, access, when)
            for (session, access), when in zip(pairs, times)
        ]
        decisions = sweep_interleaved(self, entries)
        if decisions is not None:
            return decisions
        return self._decide_each(entries, None, None, False)

    def _decide_each(
        self,
        entries: Sequence[tuple[Session, AccessKey, float]],
        history: Trace | None,
        program: Program | None,
        observe_granted: bool,
    ) -> list[Decision]:
        """The per-request loop behind both batch entry points: each
        ``(session, access, t)`` is decided in stream order exactly as
        :meth:`decide` would (with the candidate lookup hoisted per
        distinct session and access), feeding grants back through
        :meth:`observe` when ``observe_granted`` is set."""
        if program is not None:
            history_mode = "program"
        elif history is None:
            history_mode = "incremental"
        else:
            history_mode = "explicit"
        obs_on = OBS.enabled
        memo: dict[
            tuple[int, AccessKey], tuple[tuple[Role, Permission], ...]
        ] = {}
        out: list[Decision] = []
        for session, access, when in entries:
            start = 0.0
            if obs_on:
                self._obs_decisions += 1
                if self._obs_decisions % DECIDE_SPAN_SAMPLE == 0:
                    start = time.perf_counter()
            memo_key = (id(session), access)
            candidates = memo.get(memo_key)
            if candidates is None:
                candidates = self._candidates(session, access)
                memo[memo_key] = candidates
            decision = self._decide_core(
                session, access, when, history, program, history_mode,
                candidates, start,
            )
            if observe_granted and decision.granted:
                self.observe(session, access)
            out.append(decision)
        return out

    def explain(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = (),
        program: Program | None = None,
    ) -> list[dict]:
        """Dry-run every candidate ``(role, permission)`` pair for an
        access and report both verdicts for each — the security
        officer's "why was this denied?" tool.

        Unlike :meth:`decide`, this does not stop at the first passing
        candidate, does not advance validity trackers' clocks beyond
        the query, and records nothing in the audit log.  Returns a
        list of dicts with keys ``role``, ``permission``,
        ``constraint`` (SRAC source text, or None), ``spatial_ok``,
        ``temporal_ok``, ``state``.
        """
        access = AccessKey(*access)
        rows: list[dict] = []
        for role, permission in self._candidates(session, access):
            state = self._tracker(session, permission).state(t)
            spatial_ok = self._spatial_ok(
                session, permission, access, history, program
            )
            row = self._examined(role, permission, spatial_ok, state)[0]._asdict()
            row["state"] = row.pop("temporal_state")
            rows.append(row)
        return rows

    # -- cache management --------------------------------------------------------

    def prewarm(
        self,
        alphabet: Iterable[AccessKey | tuple[str, str, str]] = (),
    ) -> int:
        """Intern every policy constraint's state table and the live
        mask of each (constraint, access) entry's request universe for
        the given request alphabet (e.g. a
        :meth:`~repro.coalition.server.CoalitionServer.access_alphabet`),
        so the first real decision — scalar *or* vectorized batch —
        already takes the warm path.  With no matching access, a
        constraint's own universe is warmed.  Returns the number of
        entries warmed.
        """
        accesses = tuple(dict.fromkeys(AccessKey(*a) for a in alphabet))
        warmed = 0
        for permission in self.policy.permissions.values():
            constraint = permission.spatial_constraint
            if constraint is None:
                continue
            targets = [a for a in accesses if permission.matches(a)]
            if not targets:
                state_table(constraint).live_mask(
                    (*constraint_alphabet(constraint), *self.extension_alphabet)
                )
                warmed += 1
                continue
            for access in targets:
                self._extension_entry(constraint, access)
                warmed += 1
        return warmed

    def cache_stats(self) -> EngineCacheStats:
        """Counters of the decision-path caches — the engine-level
        analogue of :func:`repro.srac.checker.check_program_stats`'s
        configuration report."""
        return EngineCacheStats(
            candidate_hits=self._candidate_hits,
            candidate_misses=self._candidate_misses,
            extension_entries=len(self._extension_cache),
            live_hits=self._live_hits,
            live_fallbacks=self._live_fallbacks,
            srac=cache_stats(),
            vector_decisions=self._vector_decisions,
            vector_fallbacks=self._vector_fallbacks,
        )

    def decision_counts(self) -> tuple[int, int]:
        """``(granted, denied)`` decisions since construction or the
        last :meth:`reset_stats` — audit-derived, so exact on every
        path (scalar, vector sweep, service) with or without
        observability."""
        return (
            self.audit.granted_count - self._obs_granted_base,
            self.audit.denied_count - self._obs_denied_base,
        )

    def reset_stats(self) -> None:
        """Zero the engine's hit/miss counters without touching cache
        *contents* — so benchmarks can measure warm steady-state
        hit-rates without a process restart.  Process-level SRAC
        counters are shared and reset separately
        (:func:`repro.srac.reachability.reset_cache_stats`)."""
        self._candidate_hits = 0
        self._candidate_misses = 0
        self._live_hits = 0
        self._live_fallbacks = 0
        self._vector_decisions = 0
        self._vector_fallbacks = 0
        self._obs_decisions = 0
        self._obs_decide_sampled = 0
        self._obs_decide_sampled_s = 0.0
        self._obs_decide_max_s = 0.0
        self._obs_granted_base = self.audit.granted_count
        self._obs_denied_base = self.audit.denied_count

    def invalidate_caches(self) -> None:
        """Drop the engine's derived caches (candidates, compiled
        universes, owner monitors, per-session monitor states).  Policy
        mutations through :class:`~repro.rbac.policy.Policy` methods
        invalidate the candidate cache automatically via the version
        counter; this is the explicit hammer for out-of-band changes."""
        self._memo.clear()
        self._extension_cache.clear()
        self._owner_monitors.clear()
        self._store.clear_all_monitor_states()

    # -- internals -------------------------------------------------------------

    def _candidates(
        self, session: Session, access: AccessKey
    ) -> tuple[tuple[Role, Permission], ...]:
        """(role, permission) pairs from active roles matching the
        access, deterministic order.  Cached per (active-role set,
        access) in the memo of the policy version: role activation
        changes the key, and a policy mutation empties the memo, so
        stale entries are never served and no older version's are
        kept."""
        memo = self._memo.at(self.policy.version).candidates
        key = (session.role_set(), access)
        cached = memo.get(key)
        if cached is not None:
            self._candidate_hits += 1
            return cached
        self._candidate_misses += 1
        out: list[tuple[Role, Permission]] = []
        seen: set[str] = set()
        for role in sorted(session.active_roles, key=lambda r: r.name):
            for permission in sorted(
                self.policy.permissions_of_role(role), key=lambda p: p.name
            ):
                if permission.name in seen:
                    continue
                if permission.matches(access):
                    seen.add(permission.name)
                    out.append((role, permission))
        return memo.setdefault(key, tuple(out))

    def _extension_entry(
        self, constraint: Constraint, access: AccessKey
    ) -> tuple[StateTable, tuple[AccessKey, ...], bytes | None]:
        """State table, canonical request universe and the universe's
        live mask (``None`` over the state budget) for one
        (constraint, access) pair, computed once per engine, or once
        for all the shards of a
        :class:`~repro.service.sharding.ShardedEngine`, which share the
        memo (an entry is a pure function of its key, inserted with
        ``setdefault``, so racing shards keep one), so a warm decision
        reduces the spatial check to a column read and a mask read."""
        key = (constraint, access)
        entry = self._extension_cache.get(key)
        if entry is None:
            universe = tuple(
                dict.fromkeys(
                    (
                        *constraint_alphabet(constraint),
                        *self.extension_alphabet,
                        access,
                    )
                )
            )
            table = state_table(constraint)
            entry = self._extension_cache.setdefault(
                key, (table, universe, table.live_mask(universe))
            )
        return entry

    def _spatial_ok(
        self,
        session: Session,
        permission: Permission,
        access: AccessKey,
        history: Trace | None,
        program: Program | None,
    ) -> bool:
        constraint = permission.spatial_constraint
        if constraint is None:
            return True
        table, universe, mask = self._extension_entry(constraint, access)
        if program is not None:
            hypothetical = tuple(
                AccessKey(*a) for a in self._effective_history(session, history)
            ) + (access,)
            return check_program(
                program, constraint, history=hypothetical, mode="exists"
            )
        # Incremental mode steps the cached id by one access instead of
        # replaying the whole history.
        if history is None:
            state = self._cached_monitors(session, table)
        else:
            state = table.fold(history)
        state = table.step(state, access)
        if mask is not None:
            self._live_hits += 1
            return mask[state] != 0
        # Over the state budget: the bounded search.
        self._live_fallbacks += 1
        return table.searches_to_acceptance(state, universe)
