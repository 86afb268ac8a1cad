"""Columnar struct-of-arrays session store.

A resident session's hot state — validity-tracker accrual, compiled
monitor states, the active role set and the observation log — lives in
per-engine **numpy columns** indexed by row instead of per-session
Python objects.  A per-session object graph costs hundreds of bytes to
kilobytes (dict headers, list over-allocation, tracker instances,
recorder lists); at the ROADMAP's "millions of users" scale that
overhead *is* the memory bill.  The columnar layout brings a resident
session down to a fixed set of scalar cells:

::

    row columns (one entry per session row)
      start_time   f64   last_seen   f64   alive  u8   gen  i32
      sid_seq      i64   subj_seq    i64
      user_id      i32   principals_id i32  role_set_id i32
      obs_head/obs_tail/obs_len/obs_ver     i32 (observation list)

    per tracker key (lazily created, one cell per row; a
    repro.temporal.validity.TrackerCells)
      alloc u8  active u8  anchor f64  consumed0 f64  expiry f64
      now f64   dur i16 (index into the key's distinct durations)
      + an append-only timeline event arena (row, gen, time, kind)
      alloc: 0 free, 1 allocated, 2 activated when the row was opened
      (its active-on / valid-on events at start_time are implied)

    per compiled constraint (lazily created, one cell per row; none
    for a product over MAX_MONITOR_PRODUCT)
      state i64  — the mixed-radix monitor-product encoding of
      :class:`repro.srac.compiled.TransitionTable` (same strides), so
      the vectorized sweep reads a ready-made table state id

    observation arena (append-only, shared by all rows)
      sym i32 (interned AccessKey id)   nxt i32 (linked list)

Scalar callers never see the columns: a :class:`Session` is a lazy
**handle** over one row — its ``trackers`` mapping yields
:class:`ColumnTracker` views, which are
:class:`repro.temporal.validity.ValidityTracker` itself over the row's
tracker cells (checked step by step against the definitions-level
oracle's Eq. 4.1 integral in ``tests/test_session_store.py``, and
decisions against the same oracle in ``tests/test_spec_oracle.py``).
Handles are cached per row in a
``WeakValueDictionary`` — a cache only: dropping every handle loses
nothing.  Closing a session frees its row at once: the row's
generation is bumped and its cached handle evicted, and the next open
may reuse the row.  A handle or tracker view keeps the generation it
was made for, and each accessor compares it with the row's once: a
handle of an earlier generation reads as a closed session (no roles,
trackers or history) and raises :class:`~repro.errors.RbacError` on
every write, and a tracker view of an earlier generation raises on
every method.

Timeline recording (the audit ``valid``/``active`` state functions) is
columnar too: events append to a per-tracker-key arena and are replayed
through a real :class:`~repro.temporal.timeline.TimelineRecorder` only
when a timeline is actually requested.  A cell activated by a bulk
open (:meth:`SessionStore.open_block`) stores no events: its
active-on / valid-on pair at the row's start time is implied by
``alloc == TrackerCells.OPEN_ACTIVE`` and replayed ahead of the stored
events, so recording timelines costs a bulk-opened row nothing.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, MutableSet

import numpy as np

from repro.errors import RbacError
from repro.rbac.model import Role, Subject, User
from repro.temporal.timeline import TimelineRecorder
from repro.temporal.validity import (
    Arena,
    Column,
    Scheme,
    TrackerCells,
    ValidityTracker,
    check_duration,
)
from repro.traces.trace import AccessKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.srac.compiled import TransitionTable
    from repro.srac.monitors import CompiledConstraint

__all__ = ["SessionStore", "Session", "ColumnTracker"]

_INITIAL_ROWS = 64

#: Widest monitor product a store column encodes: every state id must
#: fit the int64 cell.  A wider product keeps no column; its states are
#: refolded from the row's observations whenever they are read.
MAX_MONITOR_PRODUCT = 2**62


class _MonitorColumn:
    """Per-constraint monitor-product states, one mixed-radix encoded
    int64 per row (``-1`` = not initialised for that row).  The strides
    are the same MSB-first mixed radix as
    :class:`repro.srac.compiled.TransitionTable`, so an initialised
    cell *is* a valid table state id for any table compiled from the
    same constraint."""

    __slots__ = ("compiled", "sizes", "strides", "col")

    def __init__(self, compiled: "CompiledConstraint", capacity: int):
        self.compiled = compiled
        self.sizes = tuple(m.size() for m in compiled.monitors)
        strides = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        self.col = Column(capacity, np.int64, fill=-1)

    def encode(self, states: tuple[int, ...]) -> int:
        return int(sum(s * stride for s, stride in zip(states, self.strides)))

    def decode(self, state_id: int) -> tuple[int, ...]:
        return tuple(
            (state_id // stride) % size
            for stride, size in zip(self.strides, self.sizes)
        )


class ColumnTracker(ValidityTracker):
    """The :class:`~repro.temporal.validity.ValidityTracker` of one
    store row: the same accrual code, over the row's cell in the
    store's :class:`~repro.temporal.validity.TrackerCells` for its
    tracker key.  The view holds its store, not its session handle, so
    it pins nothing; once the session is closed, every method raises
    :class:`~repro.errors.RbacError`."""

    __slots__ = ("_store",)

    def __init__(
        self, tc: TrackerCells, store: "SessionStore", row: int, gen: int
    ):
        self._tc = tc
        self._store = store
        self._row = row
        self._gen = gen
        self.scheme = store.scheme

    def _cell(self) -> tuple[TrackerCells, int]:
        """The view's cells and row, while its session is open."""
        if self._store._gen.data.item(self._row) != self._gen:
            raise RbacError("tracker of a closed session")
        return self._tc, self._row

    def _replay(self) -> tuple[TimelineRecorder, TimelineRecorder]:
        """A row opened in bulk replays its implied open events first."""
        tc, row = self._cell()
        return tc.replay(row, self._gen, float(self._store._start_time.data[row]))

    # Bound here too: the ``benchmarks/e2e`` layer tracer wraps each
    # class's own entries, and an override calling ``super()`` would
    # count each call twice.
    state = ValidityTracker.state
    state_codes_at = ValidityTracker.state_codes_at


class _RoleSetView(MutableSet):
    """``session.active_roles`` over the interned role-set column.
    Mutations re-intern (role sets are tiny and shared by construction:
    a coalition has a handful of distinct activation profiles)."""

    __slots__ = ("_session",)

    def __init__(self, session: "Session"):
        self._session = session

    @classmethod
    def _from_iterable(cls, it) -> set:
        # Set algebra on the view (``roles | {r}``) yields plain sets.
        return set(it)

    def _current(self) -> frozenset:
        return self._session.role_set()

    def __contains__(self, role: object) -> bool:
        return role in self._current()

    def __iter__(self) -> Iterator[Role]:
        return iter(self._current())

    def __len__(self) -> int:
        return len(self._current())

    def add(self, role: Role) -> None:
        current = self._current()
        if role not in current:
            session = self._session
            session._store.set_role_set(session.require_open(), current | {role})

    def discard(self, role: Role) -> None:
        current = self._current()
        if role in current:
            session = self._session
            session._store.set_role_set(session.require_open(), current - {role})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{set(self._current())!r}"


class _TrackerMap(Mapping):
    """``session.trackers``: tracker keys allocated for this row,
    yielding cached :class:`ColumnTracker` views (none once the session
    is closed)."""

    __slots__ = ("_session", "_views")

    def __init__(self, session: "Session"):
        self._session = session
        self._views: dict[str, ColumnTracker] = {}

    def get(self, key: str, default=None):
        session = self._session
        tc = session._store._trackers.get(key)
        if tc is None or not session._is_open() or not tc.alloc.data[session._row]:
            return default
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = ColumnTracker(
                tc, session._store, session._row, session._gen
            )
        return view

    def __getitem__(self, key: str) -> ColumnTracker:
        view = self.get(key)
        if view is None:
            raise KeyError(key)
        return view

    def __iter__(self) -> Iterator[str]:
        session = self._session
        if not session._is_open():
            return
        row = session._row
        for key, tc in session._store._trackers.items():
            if tc.alloc.data[row]:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)


class Session:
    """A subject's login session: a handle to one store row, with its
    activated roles, per-permission validity trackers and observed
    history.

    Handles are *views*: all state reads and writes go to the columns,
    so any number of materialisations of the same session observe the
    same state (the store caches one handle per row while referenced).
    Once the session is closed, the handle reads as a closed session —
    no roles, trackers or history, and :meth:`touch` does nothing — and
    every write raises :class:`~repro.errors.RbacError`, even after the
    row has been reused.  ``view_rebuilds`` counts ``observed``
    tuple-view materialisations — the regression meter for the
    memo-churn fix."""

    __slots__ = (
        "_store",
        "_row",
        "_gen",
        "subject",
        "session_id",
        "start_time",
        "_observed_view",
        "_view_ver",
        "view_rebuilds",
        "_tracker_map",
        "_role_view",
        "_shard_index",
        "_router",
        "__weakref__",
    )

    def __init__(
        self, store: "SessionStore", row: int, subject: Subject | None = None
    ):
        self._store = store
        self._row = row
        self._gen = int(store._gen.data[row])
        self.start_time = float(store._start_time.data[row])
        self.session_id = f"session-{int(store._sid_seq.data[row])}"
        self.subject = subject if subject is not None else store.subject_of(row)
        self._observed_view: tuple[AccessKey, ...] | None = None
        self._view_ver = -1
        self.view_rebuilds = 0
        self._tracker_map: _TrackerMap | None = None
        self._role_view: _RoleSetView | None = None
        self._shard_index: int | None = None
        self._router: object | None = None

    def _is_open(self) -> bool:
        """Does the handle's generation still own its row?  Closing a
        session bumps the row's generation.  (``item`` reads a Python
        int, which compares faster than a numpy scalar.)"""
        return self._store._gen.data.item(self._row) == self._gen

    def require_open(self) -> int:
        """The session's store row; raises
        :class:`~repro.errors.RbacError` once the session has been
        closed: a closed session must not be re-armed with roles or fed
        observations."""
        if not self._is_open():
            raise RbacError(f"session {self.session_id!r} is closed")
        return self._row

    @property
    def active_roles(self) -> _RoleSetView:
        view = self._role_view
        if view is None:
            view = self._role_view = _RoleSetView(self)
        return view

    @active_roles.setter
    def active_roles(self, roles: Iterable[Role]) -> None:
        self._store.set_role_set(self.require_open(), frozenset(roles))

    @property
    def trackers(self) -> _TrackerMap:
        view = self._tracker_map
        if view is None:
            view = self._tracker_map = _TrackerMap(self)
        return view

    @property
    def observed(self) -> tuple[AccessKey, ...]:
        """Accesses the engine has observed for this session (fed by
        :meth:`~repro.rbac.engine.AccessControlEngine.observe`) — the
        basis of incremental spatial checking."""
        if not self._is_open():
            return ()
        ver = int(self._store._obs_ver.data[self._row])
        if self._observed_view is None or self._view_ver != ver:
            self._observed_view = tuple(self._store.observed_list(self._row))
            self._view_ver = ver
            self.view_rebuilds += 1
        return self._observed_view

    @observed.setter
    def observed(self, value: Iterable[AccessKey | tuple[str, str, str]]) -> None:
        self._store.set_observations(self.require_open(), value)

    def observed_len(self) -> int:
        if not self._is_open():
            return 0
        return int(self._store._obs_len.data[self._row])

    def record_observation(self, access: AccessKey) -> None:
        self._store.append_observation(self.require_open(), access)

    def record_observations(self, accesses: Iterable[AccessKey]) -> None:
        self._store.extend_observations(self.require_open(), accesses)

    @property
    def last_seen(self) -> float:
        if not self._is_open():
            return -math.inf
        return float(self._store._last_seen.data[self._row])

    def touch(self, t: float) -> None:
        cells = self._store._last_seen.data
        if self._is_open() and t > cells[self._row]:
            cells[self._row] = t

    def role_set(self) -> frozenset:
        """The interned active-role frozenset (no per-call copy)."""
        if not self._is_open():
            return frozenset()
        return self._store.role_set(self._row)

    def create_tracker(self, key: str, duration: float) -> ColumnTracker:
        self._store.alloc_tracker(self.require_open(), key, duration)
        return self.trackers[key]

    def advance_monitors(self, access: AccessKey) -> None:
        self._store.step_monitors_row(self.require_open(), access)

    def monitor_entry(self, constraint):
        return self._store.monitor_entry(self.require_open(), constraint)

    def init_monitor(self, constraint, compiled):
        return self._store.init_monitor(self.require_open(), constraint, compiled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(session_id={self.session_id!r}, "
            f"subject={self.subject!r}, row={self._row})"
        )


class SessionStore:
    """The columnar backing of one engine's resident sessions.

    All mutation happens on the owning engine's thread (under the shard
    lock in sharded deployments) — the store inherits the engine's
    threading contract, and needs no lock of its own.

    ``set_observations`` (the ``observed`` setter / churn rescind path)
    rebuilds a row's log at the arena tail and orphans the old nodes:
    the arena is append-only by design — rescinds are rare relative to
    observations, and compaction would invalidate live row links.
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        capacity = _INITIAL_ROWS
        self._start_time = Column(capacity, np.float64)
        self._last_seen = Column(capacity, np.float64, fill=-math.inf)
        self._alive = Column(capacity, np.uint8)
        self._gen = Column(capacity, np.int32)
        self._sid_seq = Column(capacity, np.int64, fill=-1)
        self._subj_seq = Column(capacity, np.int64, fill=-1)
        self._user_id = Column(capacity, np.int32, fill=-1)
        self._principals_id = Column(capacity, np.int32, fill=-1)
        self._role_set_id = Column(capacity, np.int32)
        self._obs_head = Column(capacity, np.int32, fill=-1)
        self._obs_tail = Column(capacity, np.int32, fill=-1)
        self._obs_len = Column(capacity, np.int32)
        self._obs_ver = Column(capacity, np.int32)
        self._row_columns: list[Column] = [
            self._start_time,
            self._last_seen,
            self._alive,
            self._gen,
            self._sid_seq,
            self._subj_seq,
            self._user_id,
            self._principals_id,
            self._role_set_id,
            self._obs_head,
            self._obs_tail,
            self._obs_len,
            self._obs_ver,
        ]
        # Interning tables.  Index 0 of the role sets is the empty set
        # (every fresh row's default).
        self._users: list[User] = []
        self._user_codes: dict[User, int] = {}
        self._principal_sets: list[frozenset] = []
        self._principal_codes: dict[frozenset, int] = {}
        self._role_sets: list[frozenset] = [frozenset()]
        self._role_set_codes: dict[frozenset, int] = {frozenset(): 0}
        self._symbols: list[AccessKey] = []
        self._symbol_codes: dict[AccessKey, int] = {}
        # Observation arena: linked list of interned symbol ids.
        self._obs_sym = Arena(np.int32, fill=-1)
        self._obs_next = Arena(np.int32, fill=-1)
        # Lazy column families.
        self._trackers: dict[str, TrackerCells] = {}
        self._monitors: dict[object, _MonitorColumn] = {}
        self._handles: "weakref.WeakValueDictionary[int, Session]" = (
            weakref.WeakValueDictionary()
        )
        self._free: list[int] = []
        self._n = 0  # high-water row mark
        self._resident = 0

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._alive.data.size

    def _grow_to(self, capacity: int) -> None:
        for column in self._row_columns:
            column.grow(capacity)
        for tc in self._trackers.values():
            for column in tc.columns():
                column.grow(capacity)
        for mc in self._monitors.values():
            mc.col.grow(capacity)

    def reserve(self, n: int) -> None:
        """Presize every column for ``n`` rows (so bulk loads measure
        their true footprint instead of doubling slack)."""
        if n > self.capacity:
            self._grow_to(n)

    def nbytes(self) -> int:
        """Bytes held by the columns and arenas (the store overhead the
        scale benchmark's per-session gate divides by residency)."""
        total = sum(c.data.nbytes for c in self._row_columns)
        for tc in self._trackers.values():
            total += sum(c.data.nbytes for c in tc.columns())
            total += (
                tc.ev_row.data.nbytes
                + tc.ev_gen.data.nbytes
                + tc.ev_time.data.nbytes
                + tc.ev_kind.data.nbytes
            )
        for mc in self._monitors.values():
            total += mc.col.data.nbytes
        total += self._obs_sym.data.nbytes + self._obs_next.data.nbytes
        return total

    @property
    def resident(self) -> int:
        return self._resident

    # -- interning ----------------------------------------------------------

    def _intern_user(self, user: User) -> int:
        code = self._user_codes.get(user)
        if code is None:
            code = len(self._users)
            self._users.append(user)
            self._user_codes[user] = code
        return code

    def _intern_principals(self, principals: frozenset) -> int:
        code = self._principal_codes.get(principals)
        if code is None:
            code = len(self._principal_sets)
            self._principal_sets.append(principals)
            self._principal_codes[principals] = code
        return code

    def _intern_role_set(self, roles: frozenset) -> int:
        code = self._role_set_codes.get(roles)
        if code is None:
            code = len(self._role_sets)
            self._role_sets.append(roles)
            self._role_set_codes[roles] = code
        return code

    def _symbol_code(self, access: AccessKey) -> int:
        code = self._symbol_codes.get(access)
        if code is None:
            access = AccessKey.of(access)
            code = len(self._symbols)
            self._symbols.append(access)
            self._symbol_codes[access] = code
        return code

    def role_set(self, row: int) -> frozenset:
        return self._role_sets[int(self._role_set_id.data[row])]

    def set_role_set(self, row: int, roles: frozenset) -> None:
        self._role_set_id.data[row] = self._intern_role_set(frozenset(roles))

    # -- rows ----------------------------------------------------------------

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        row = self._n
        if row >= self.capacity:
            self._grow_to(max(row + 1, self.capacity * 2))
        self._n = row + 1
        return row

    def open(
        self,
        subject: Subject,
        t: float,
        sid_seq: int,
        subj_seq: int,
    ) -> int:
        """Open a session row for ``subject`` at ``t``; returns the row.
        ``subject.subject_id`` must be ``f"subject-{subj_seq}"``: the row
        keeps only the number, and :meth:`subject_of` rebuilds the id."""
        row = self._alloc_row()
        self._start_time.data[row] = t
        self._last_seen.data[row] = t
        self._alive.data[row] = 1
        self._sid_seq.data[row] = sid_seq
        self._user_id.data[row] = self._intern_user(subject.user)
        self._principals_id.data[row] = self._intern_principals(
            subject.principals
        )
        self._role_set_id.data[row] = 0
        self._obs_head.data[row] = -1
        self._obs_tail.data[row] = -1
        self._obs_len.data[row] = 0
        self._obs_ver.data[row] = 0
        self._subj_seq.data[row] = subj_seq
        self._resident += 1
        return row

    def open_block(
        self,
        t: float,
        sid_seqs,
        subj_seqs,
        user_codes,
        principal_codes,
        role_set_code: int,
        trackers: Mapping[str, float],
    ) -> np.ndarray:
        """Bulk-open ``len(sid_seqs)`` rows at the high-water mark with
        vectorized column fills (the bulk load path), each with the
        ``trackers`` cells (key → duration) allocated and activated at
        ``t`` — what ``create_tracker`` + ``activate(t)`` leaves, minus
        the two timeline events, which ``OPEN_ACTIVE`` implies.  All
        other inputs are parallel integer sequences; interning codes
        come from the scalar helpers.  Returns the opened row indices."""
        for duration in trackers.values():
            check_duration(duration)
        n = len(sid_seqs)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        first = self._n
        if first + n > self.capacity:
            self._grow_to(max(first + n, self.capacity * 2))
        rows = np.arange(first, first + n, dtype=np.int64)
        self._n = first + n
        sl = slice(first, first + n)
        self._start_time.data[sl] = t
        self._last_seen.data[sl] = t
        self._alive.data[sl] = 1
        self._sid_seq.data[sl] = sid_seqs
        self._subj_seq.data[sl] = subj_seqs
        self._user_id.data[sl] = user_codes
        self._principals_id.data[sl] = principal_codes
        self._role_set_id.data[sl] = role_set_code
        self._obs_head.data[sl] = -1
        self._obs_tail.data[sl] = -1
        self._obs_len.data[sl] = 0
        self._obs_ver.data[sl] = 0
        for key, duration in trackers.items():
            tc = self._tracker_columns(key)
            tc.alloc.data[sl] = TrackerCells.OPEN_ACTIVE
            tc.active.data[sl] = 1
            tc.anchor.data[sl] = t
            tc.consumed0.data[sl] = 0.0
            tc.now.data[sl] = t
            tc.expiry.data[sl] = math.inf if math.isinf(duration) else t + duration
            tc.dur.data[sl] = tc.dur_code(duration)
        self._resident += n
        return rows

    def close(self, row: int, gen: int) -> None:
        """Close the row's ``gen`` occupancy and free the row at once:
        the generation bump turns every handle and tracker view of the
        occupancy into a closed session's, and the cached handle is
        evicted so the row's next occupant gets a fresh one.  The row
        columns keep their values until :meth:`open` rewrites them all;
        tracker and monitor cells are freed here.  A stale ``gen`` (the
        session is already closed) is a no-op."""
        if int(self._gen.data[row]) != gen:
            return
        self._handles.pop(row, None)
        self._resident -= 1
        self._alive.data[row] = 0
        self._gen.data[row] += 1
        for tc in self._trackers.values():
            tc.alloc.data[row] = TrackerCells.FREE
        for mc in self._monitors.values():
            mc.col.data[row] = -1
        self._free.append(row)

    def register_handle(self, row: int, handle: Session) -> None:
        self._handles[row] = handle

    def handle_for(self, row: int) -> Session | None:
        return self._handles.get(row)

    def subject_of(self, row: int) -> Subject:
        return Subject(
            self._users[int(self._user_id.data[row])],
            self._principal_sets[int(self._principals_id.data[row])],
            subject_id=f"subject-{int(self._subj_seq.data[row])}",
        )

    def row_of_session_id(self, session_id: str) -> int | None:
        """Row of a live session by id — a vectorized scan (no reverse
        index: materialisation by id is an administrative operation,
        and an id→row dict would be the store's single biggest cell)."""
        prefix = "session-"
        if not session_id.startswith(prefix):
            return None
        try:
            seq = int(session_id[len(prefix):])
        except ValueError:
            return None
        n = self._n
        hits = np.nonzero(
            (self._sid_seq.data[:n] == seq) & (self._alive.data[:n] == 1)
        )[0]
        if hits.size == 0:
            return None
        return int(hits[0])

    def alive_rows(self) -> np.ndarray:
        return np.nonzero(self._alive.data[: self._n] == 1)[0]

    def idle_rows(self, now: float | None, idle_for: float) -> tuple[float, np.ndarray]:
        """Live rows idle for at least ``idle_for`` as of ``now``
        (default: the store's own latest activity instant), plus the
        effective ``now`` used."""
        n = self._n
        alive = self._alive.data[:n] == 1
        if not alive.any():
            return (0.0, np.empty(0, dtype=np.int64))
        seen = self._last_seen.data[:n]
        eff_now = float(seen[alive].max()) if now is None else float(now)
        idle = alive & (eff_now - seen >= idle_for)
        return (eff_now, np.nonzero(idle)[0])

    # -- observations --------------------------------------------------------

    def append_observation(self, row: int, access: AccessKey) -> None:
        index = self._obs_sym.append(self._symbol_code(access))
        self._obs_next.append(-1)
        tail = int(self._obs_tail.data[row])
        if tail >= 0:
            self._obs_next.data[tail] = index
        else:
            self._obs_head.data[row] = index
        self._obs_tail.data[row] = index
        self._obs_len.data[row] += 1
        self._obs_ver.data[row] += 1

    def extend_observations(self, row: int, accesses: Iterable[AccessKey]) -> None:
        """Append many observations with one version bump (the
        per-commit-batch invalidation of the memo-churn fix)."""
        appended = 0
        tail = int(self._obs_tail.data[row])
        for access in accesses:
            index = self._obs_sym.append(self._symbol_code(access))
            self._obs_next.append(-1)
            if tail >= 0:
                self._obs_next.data[tail] = index
            else:
                self._obs_head.data[row] = index
            tail = index
            appended += 1
        if appended:
            self._obs_tail.data[row] = tail
            self._obs_len.data[row] += appended
            self._obs_ver.data[row] += 1

    def set_observations(
        self, row: int, accesses: Iterable[AccessKey | tuple[str, str, str]]
    ) -> None:
        """Replace the row's log (the ``observed`` setter / rescind
        path).  Clears the row's monitor states — they were advanced
        over the old history."""
        self._obs_head.data[row] = -1
        self._obs_tail.data[row] = -1
        self._obs_len.data[row] = 0
        self._obs_ver.data[row] += 1
        self.extend_observations(
            row,
            (a if type(a) is AccessKey else AccessKey.of(a) for a in accesses),
        )
        self.clear_monitor_row(row)

    def observed_list(self, row: int) -> list[AccessKey]:
        out: list[AccessKey] = []
        symbols = self._symbols
        sym = self._obs_sym.data
        nxt = self._obs_next.data
        index = int(self._obs_head.data[row])
        while index >= 0:
            out.append(symbols[sym[index]])
            index = int(nxt[index])
        return out

    def rescind_server(self, server: str) -> int:
        """Drop every observation at ``server`` from every live row
        (the coalition-eviction path).  Returns observations removed."""
        removed = 0
        for row in self.alive_rows().tolist():
            if not self._obs_len.data[row]:
                continue
            log = self.observed_list(row)
            kept = [a for a in log if a.server != server]
            if len(kept) != len(log):
                removed += len(log) - len(kept)
                self.set_observations(row, kept)
        return removed

    # -- monitor states ------------------------------------------------------

    def monitor_entry(self, row: int, constraint) -> tuple | None:
        mc = self._monitors.get(constraint)
        if mc is not None:
            value = int(mc.col.data[row])
            if value >= 0:
                return (mc.compiled, mc.decode(value))
        return None

    def init_monitor(self, row: int, constraint, compiled) -> tuple:
        """Initialise a row's monitor cell by folding its observed
        history.  A product over :data:`MAX_MONITOR_PRODUCT` gets no
        column: the folded states are returned without being stored."""
        states = compiled.run(self.observed_list(row))
        mc = self._monitors.get(constraint)
        if mc is None:
            if compiled.state_space() > MAX_MONITOR_PRODUCT:
                return (compiled, states)
            mc = _MonitorColumn(compiled, self.capacity)
            self._monitors[constraint] = mc
        mc.col.data[row] = mc.encode(states)
        return (mc.compiled, states)

    def monitor_state_id(self, row: int, constraint, table: "TransitionTable") -> int | None:
        """The row's ready-made table state id for ``constraint`` —
        the vector sweep's fast path (no tuple decode/encode).  ``None``
        when the cell is uninitialised or its radix disagrees with the
        table's (then the caller takes the compiled-monitor path)."""
        mc = self._monitors.get(constraint)
        if mc is None or mc.sizes != table.sizes:
            return None
        value = int(mc.col.data[row])
        return value if value >= 0 else None

    def step_monitors_row(self, row: int, access: AccessKey) -> None:
        """Advance every initialised monitor cell of ``row`` by one
        access (the ``observe`` hot path)."""
        for mc in self._monitors.values():
            value = int(mc.col.data[row])
            if value >= 0:
                mc.col.data[row] = mc.encode(
                    mc.compiled.step(mc.decode(value), access)
                )

    def clear_monitor_row(self, row: int) -> None:
        for mc in self._monitors.values():
            mc.col.data[row] = -1

    def clear_all_monitor_states(self) -> None:
        for mc in self._monitors.values():
            mc.col.data[:] = -1

    # -- trackers ------------------------------------------------------------

    def _tracker_columns(self, key: str) -> TrackerCells:
        tc = self._trackers.get(key)
        if tc is None:
            tc = TrackerCells(self.capacity)
            self._trackers[key] = tc
        return tc

    def alloc_tracker(self, row: int, key: str, duration: float) -> None:
        """Allocate one tracker cell in the fresh (inactive) state a
        standalone tracker's constructor produces."""
        self._tracker_columns(key).allocate(
            row, duration, float(self._start_time.data[row])
        )
