"""Columnar struct-of-arrays session store.

A resident session's hot state — validity-tracker accrual, constraint
state ids, the active role set and the observation log — lives in
per-engine **numpy columns** instead of per-session Python objects.  A
per-session object graph costs hundreds of bytes to kilobytes (dict
headers, list over-allocation, tracker instances, recorder lists); at
the ROADMAP's "millions of users" scale that overhead *is* the memory
bill.  A store row holds its user, its generation, its place in the
open that made it and the index of the **cell** holding who the
session is and what it has done:

::

    row columns (one entry per session row, 16 B)
      gen          i32   user_id       i32
      cell         i32   (the cell the row reads; the empty cell: no
                          live session)
      ord          i32   (the row's place in the open that made it)

    cells (one entry per cell id; cell 0 is the empty cell)
      session record (60 B; _SessionCells)
        owner        i32   the row that owns the cell, or -1
        sid_base     i64   subj_base  i64   (a row's session and subject
                           numbers are these plus the row's ord)
        principals   i32   (the principals beyond the user's own;
                            0: none)
        start_time   f64   last_seen  f64   role_set i32 (interned)
        obs_head/obs_tail/obs_len i32 (observation list)
        obs_ver      i32   (times the log was replaced)
      per tracker key (lazily created; a
      repro.temporal.validity.TrackerCells: one 36 B record per cell)
        alloc u8  active u8  dur i16 (index into the key's distinct
        durations)  anchor f64  consumed0 f64  expiry f64  now f64
        + a timeline event arena keyed by the occupancy that
          recorded the event (row, gen, time, kind)
        alloc: 0 free, 1 allocated, 2 activated when the row was opened
        (its active-on / valid-on events at start_time are implied)
      per constraint (lazily created; stepped by its
      repro.srac.compiled.StateTable)
        state i32  — the row's state id (-1: not yet read), folded
        from the row's observations on its first read and stepped by
        every later observation, one column read each (a Python int
        for a product past 2**31 states)

    observation arena (shared by all rows)
      sym i32 (interned AccessKey id)   nxt i32 (linked list)

Both arenas are appended to.  Closing a session leaves its occupancy's
tracker events and observations behind, and replacing a row's history
(:meth:`SessionStore.set_observations`) orphans its old nodes.  At
such a close or replacement, an arena that holds at least
:data:`COMPACT_MIN` entries and twice what its last compaction kept is
compacted: tracker events whose (row, generation) is a live occupancy
are kept in order, and each owned cell's observations are relinked in
order at the front.  A compaction scans the arena once and follows a
doubling of it, so it costs O(1) per entry amortised, and the decide
and observe paths do no work for it.

Rows that only restate their open state share one cell.  The rows of
one bulk open (:meth:`SessionStore.open_block`) read one **template**
cell holding their first session and subject numbers, start time,
role set and the trackers that open activated, and the row at place
``ord`` in the open holds numbers ``base + ord``; a closed row reads
the **empty cell**, so a row is live exactly when its cell is not the
empty cell.  Reads resolve the row's current cell and never allocate.
**Every write** to a row's cell — a last-seen advance
(:meth:`SessionStore.touch`), a role-set change, an observation, a
tracker event or clock advance, a tracker allocation, a state id's
first fold — goes through :meth:`SessionStore._own_cell`: the row's
first write copies the shared cell into a cell the row owns, one
element copy per cell column, and the row points at its copy from then
on; the copy holds the bases, so the row's numbers do not change.  A
scalar :meth:`SessionStore.open` owns a cell from the start, with its
numbers in it and ``ord`` 0.  Closing a row frees the cell it owns,
and a template with the last row reading it, for reuse.  Cell columns
grow with the cells in use, not with the rows, and by a quarter at a
time: a million bulk-opened rows of which a few thousand are ever
written hold a few thousand cells.

Every subject holds its user's own principal, ``user:<name>``, so a
cell's principals code names only the principals beyond it, and
:meth:`SessionStore.subject_of` adds it back; a bulk open's subjects
have no others, and intern nothing beyond their user.

Scalar callers never see the columns: a :class:`Session` is a
**handle**, a reference into one row.  It holds the store, the row and
the generation it was made for and the ``observed`` memo.  Its
identity (``session_id``, ``subject``) and ``start_time`` are read
from the row and its cell when asked for; the
:class:`~repro.rbac.model.Subject` is built on
its first read and kept, and deciding reads only the subject id string,
cached on the handle.  Its ``trackers``, :meth:`Session.tracker` and
``active_roles`` build their views when read, and the caller drops
them: a :class:`ColumnTracker` is
:class:`repro.temporal.validity.ValidityTracker` itself over the row's
tracker cells (checked step by step against the definitions-level
oracle's Eq. 4.1 integral in ``tests/test_session_store.py``, and
decisions against the same oracle in ``tests/test_spec_oracle.py``).
A view points at the store or the handle, and no handle points at a
view, so no handle sits in a reference cycle.
:meth:`SessionStore.handle` finds or makes a live row's handle in one
call, and registers it in a plain dict of weak references, one per row
— a registry only: dropping every handle loses nothing, and a dropped
handle is freed by reference count, not at a collection.  Its dead
reference leaves the registry when the row is closed or materialised
again, or in a sweep once the registry has doubled since the last one,
so the registry holds fewer than twice the handles live at that sweep
(at least 64).  No weak-reference callback writes it: only the
engine's thread does (a sharded engine's under the shard lock),
whichever thread drops a handle.  Closing a session frees its row at
once: the registered handle's identity is frozen into it, the row's
generation is bumped and its registry entry dropped, and the next open
may reuse the row.  A handle or tracker view keeps the generation it
was made for, and each accessor compares it with the row's once: a
handle of an earlier generation reads as a closed session (no roles,
trackers or history) under the identity it opened with, and raises
:class:`~repro.errors.RbacError` on every write, and a tracker view of
an earlier generation raises on every method.

Timeline recording (the audit ``valid``/``active`` state functions) is
columnar too: events append to a per-tracker-key arena and are replayed
through a real :class:`~repro.temporal.timeline.TimelineRecorder` only
when a timeline is actually requested.  A cell activated by a bulk
open stores no events: its active-on / valid-on pair at the row's
start time is implied by ``alloc == TrackerCells.OPEN_ACTIVE`` and
replayed ahead of the stored events, so recording timelines costs a
bulk-opened row nothing.
"""

from __future__ import annotations

import math
import operator
import weakref
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, MutableSet

import numpy as np

from repro.errors import RbacError
from repro.rbac.model import Role, Subject, User
from repro.temporal.timeline import TimelineRecorder
from repro.temporal.validity import (
    Arena,
    Column,
    Records,
    Scheme,
    TrackerCells,
    ValidityTracker,
    check_duration,
)
from repro.traces.trace import AccessKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.srac.compiled import StateTable

__all__ = ["SessionStore", "Session", "ColumnTracker"]

_INITIAL_ROWS = 64
_INITIAL_CELLS = 64

#: The fewest entries the handle registry holds before a sweep drops
#: its dead references (it must also have doubled since the last one).
_SWEEP_MIN = 64

#: The shared empty cell: every tracker ``FREE``, every monitor -1.
EMPTY_CELL = 0

#: The fewest entries an arena holds before a close or a history
#: replacement compacts it (it must also hold twice what it kept at its
#: last compaction).
COMPACT_MIN = 128


def _compaction_due(arena: Arena) -> bool:
    return arena.count >= max(COMPACT_MIN, 2 * arena.kept)


def _user_principal(user: User) -> str:
    """The principal every subject of ``user`` holds."""
    return f"user:{user.name}"


#: One cell's session record: the row that owns the cell (-1 for the
#: empty cell, a template or a free cell), who its session is and what
#: it has done beside its trackers and monitors.  60 bytes, so that
#: copying a cell is one element copy per cell column.
_SESSION_CELL = np.dtype(
    [
        ("owner", np.int32),
        ("sid_base", np.int64),
        ("subj_base", np.int64),
        ("principals", np.int32),
        ("start_time", np.float64),
        ("last_seen", np.float64),
        ("role_set", np.int32),
        ("obs_head", np.int32),
        ("obs_tail", np.int32),
        ("obs_len", np.int32),
        ("obs_ver", np.int32),
    ]
)


class _SessionCells(Records):
    """The session records of the store's cells (the empty cell's:
    no owner, no session, no activity, the empty role set and an empty
    log)."""

    __slots__ = _SESSION_CELL.names

    def __init__(self, capacity: int):
        super().__init__(
            capacity,
            _SESSION_CELL,
            (-1, -1, -1, 0, 0.0, -math.inf, 0, -1, -1, 0, 0),
        )


class ColumnTracker(ValidityTracker):
    """The :class:`~repro.temporal.validity.ValidityTracker` of one
    store row: the same accrual code, over the row's cell in the
    store's :class:`~repro.temporal.validity.TrackerCells` for its
    tracker key.  Each call resolves the row's current cell, so a view
    made before the row's first write reads the copy that write made.
    The view holds its store, not its session handle, so it pins
    nothing; once the session is closed, every method raises
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

    def _cell(self) -> int:
        """The row's current cell, while its session is open."""
        store, row = self._store, self._row
        if store._gen.data.item(row) != self._gen:
            raise RbacError("tracker of a closed session")
        return store._cell.data.item(row)

    def _own_cell(self) -> int:
        """The row's own cell (see :meth:`SessionStore._own_cell`),
        while its session is open."""
        store, row = self._store, self._row
        if store._gen.data.item(row) != self._gen:
            raise RbacError("tracker of a closed session")
        return store._own_cell(row)

    def _replay(self) -> tuple[TimelineRecorder, TimelineRecorder]:
        """A row opened in bulk replays its implied open events first."""
        cell = self._cell()
        return self._tc.replay(
            cell, self._row, self._gen, self._store._sc.start_time.item(cell)
        )

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


class Session:
    """A subject's login session: a reference to one store row, with
    its activated roles, per-permission validity trackers and observed
    history.

    A handle holds its store, row and generation and the ``observed``
    memo.  ``session_id``, ``subject`` and ``start_time`` are read
    from the row's cell and ``ord`` when asked for; the ``subject``
    is built on its first read and kept, and :attr:`subject_id` caches
    its id string without building it.  All state reads and writes go
    to the columns, so any
    number of materialisations of the same session observe the same
    state (the store registers one handle per row while referenced).
    ``active_roles``, ``trackers`` and :meth:`tracker` build their views
    when read; the handle keeps none, so it sits in no reference cycle.
    Once the session is closed, the handle reads as a closed session —
    no roles, trackers or history, and :meth:`touch` does nothing — and
    every write raises :class:`~repro.errors.RbacError`, even after the
    row has been reused.  Its identity stays that of the session it
    opened: :meth:`SessionStore.close` freezes it into the registered
    handle before the row can be reused.  ``view_rebuilds`` counts
    ``observed`` tuple-view materialisations — the regression meter for
    the memo-churn fix."""

    __slots__ = (
        "_store",
        "_row",
        "_gen",
        "_subject",
        "_subject_id",
        "_frozen",
        "_observed_view",
        "_view_key",
        "view_rebuilds",
        "__weakref__",
    )

    def __init__(self, store: "SessionStore", row: int):
        self._store = store
        self._row = row
        self._gen = store._gen.data.item(row)
        self._subject = self._subject_id = self._frozen = None
        self._observed_view: tuple[AccessKey, ...] | None = None
        self._view_key: tuple[int, int] | None = None
        self.view_rebuilds = 0

    @property
    def session_id(self) -> str:
        if self._frozen is not None:
            return self._frozen[0]
        return f"session-{self._store.session_seq(self._row)}"

    @property
    def start_time(self) -> float:
        if self._frozen is not None:
            return self._frozen[1]
        return self._store.start_time(self._row)

    @property
    def subject_id(self) -> str:
        """``subject.subject_id``, without building the subject: one
        string per handle, which all its decisions share."""
        subject_id = self._subject_id
        if subject_id is None:
            subject_id = self._subject_id = (
                f"subject-{self._store.subject_seq(self._row)}"
            )
        return subject_id

    @property
    def subject(self) -> Subject:
        subject = self._subject
        if subject is None:
            subject = self._subject = self._store.subject_of(
                self._row, self.subject_id
            )
        return subject

    def _freeze(self) -> None:
        """Keep the identity past the row's reuse (see
        :meth:`SessionStore.close`); the subject is built now, while
        the row still holds it."""
        self._frozen = (self.session_id, self.start_time)
        self._subject = self.subject

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
        row = self._row
        if self._store._gen.data.item(row) != self._gen:
            raise RbacError(f"session {self.session_id!r} is closed")
        return row

    @property
    def active_roles(self) -> _RoleSetView:
        return _RoleSetView(self)

    @active_roles.setter
    def active_roles(self, roles: Iterable[Role]) -> None:
        self._store.set_role_set(self.require_open(), frozenset(roles))

    @property
    def trackers(self) -> dict[str, ColumnTracker]:
        """Views of the trackers allocated for this row, by key (none
        once the session is closed)."""
        if not self._is_open():
            return {}
        store, row, gen = self._store, self._row, self._gen
        cell = store._cell.data.item(row)
        return {
            key: ColumnTracker(tc, store, row, gen)
            for key, tc in store._trackers.items()
            if tc.alloc.item(cell)
        }

    def tracker(self, key: str) -> ColumnTracker | None:
        """A view of tracker ``key`` — the lookup's one new object — or
        ``None`` when the row has no such tracker or the session is
        closed."""
        store, row = self._store, self._row
        tc = store._trackers.get(key)
        if (
            tc is None
            or not tc.alloc.item(store._cell.data.item(row))
            or not self._is_open()
        ):
            return None
        return ColumnTracker(tc, store, row, self._gen)

    @property
    def observed(self) -> tuple[AccessKey, ...]:
        """Accesses the engine has observed for this session (fed by
        :meth:`~repro.rbac.engine.AccessControlEngine.observe`) — the
        basis of incremental spatial checking."""
        if not self._is_open():
            return ()
        key = self._store.observed_key(self._row)
        if self._view_key != key:
            self._observed_view = tuple(self._store.observed_list(self._row))
            self._view_key = key
            self.view_rebuilds += 1
        return self._observed_view

    @observed.setter
    def observed(self, value: Iterable[AccessKey | tuple[str, str, str]]) -> None:
        self._store.set_observations(self.require_open(), value)

    def observed_len(self) -> int:
        if not self._is_open():
            return 0
        return self._store.observed_len(self._row)

    def record_observation(self, access: AccessKey) -> None:
        self._store.extend_observations(self.require_open(), (access,))

    def record_observations(self, accesses: Iterable[AccessKey]) -> None:
        self._store.extend_observations(self.require_open(), accesses)

    @property
    def last_seen(self) -> float:
        if not self._is_open():
            return -math.inf
        return self._store.last_seen(self._row)

    def touch(self, t: float) -> None:
        if self._is_open():
            self._store.touch(self._row, t)

    def role_set(self) -> frozenset:
        """The interned active-role frozenset (no per-call copy)."""
        if not self._is_open():
            return frozenset()
        return self._store.role_set(self._row)

    def create_tracker(self, key: str, duration: float) -> ColumnTracker:
        self._store.alloc_tracker(self.require_open(), key, duration)
        return self.tracker(key)

    def monitor_entry(self, constraint) -> int | None:
        """The session's state id for ``constraint``, or ``None`` until
        a decision has read it."""
        return self._store.monitor_state_id(self.require_open(), constraint)

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
    rebuilds a row's log at the arena tail and orphans the old nodes;
    they, and a closed occupancy's nodes and tracker events, go at the
    next compaction that falls due (see the module docstring).
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        capacity = _INITIAL_ROWS
        self._gen = Column(capacity, np.int32)
        self._user_id = Column(capacity, np.int32, fill=-1)
        self._cell = Column(capacity, np.int32, fill=EMPTY_CELL)
        self._ord = Column(capacity, np.int32)
        self._row_columns: list[Column] = [
            self._gen,
            self._user_id,
            self._cell,
            self._ord,
        ]
        # Interning tables.  Index 0 of the principal sets is the empty
        # set (no principal beyond the user's own), and index 0 of the
        # role sets the empty set (the empty cell's).
        self._users: list[User] = []
        self._user_codes: dict[User, int] = {}
        self._principal_sets: list[frozenset] = [frozenset()]
        self._principal_codes: dict[frozenset, int] = {frozenset(): 0}
        self._role_sets: list[frozenset] = [frozenset()]
        self._role_set_codes: dict[frozenset, int] = {frozenset(): 0}
        self._symbols: list[AccessKey] = []
        self._symbol_codes: dict[AccessKey, int] = {}
        # Observation arena: linked list of interned symbol ids.
        self._obs_sym = Arena(np.int32, fill=-1)
        self._obs_next = Arena(np.int32, fill=-1)
        # Cells: the session records, and every tracker key's and state
        # table's columns, created lazily.  Cell 0 is the empty cell.
        self._sc = _SessionCells(_INITIAL_CELLS)
        self._cell_columns: list[Column] = [self._sc]
        self._trackers: dict[str, TrackerCells] = {}
        # State table (one entry per constraint: tables of one
        # constraint are equal) -> its state-id column.
        self._monitors: dict[StateTable, Column] = {}
        self._cells = 1  # high-water cell mark
        self._free_cells: list[int] = []
        # Template cell -> rows still reading it.
        self._template_rows: dict[int, int] = {}
        # Handle registry: row -> weak reference to its handle.
        self._handles: dict[int, weakref.ref] = {}
        self._sweep_at = _SWEEP_MIN
        self._free: list[int] = []
        self._n = 0  # high-water row mark
        self._resident = 0

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._gen.data.size

    def _grow_to(self, capacity: int) -> None:
        for column in self._row_columns:
            column.grow(capacity)

    def reserve(self, n: int) -> None:
        """Presize every row column for ``n`` rows (so bulk loads
        measure their true footprint instead of doubling slack)."""
        if n > self.capacity:
            self._grow_to(n)

    def nbytes(self) -> int:
        """Bytes held by the columns and arenas (the store overhead the
        scale benchmark's per-session gate divides by residency)."""
        total = sum(c.data.nbytes for c in self._row_columns)
        total += sum(c.data.nbytes for c in self._cell_columns)
        for tc in self._trackers.values():
            total += (
                tc.ev_row.data.nbytes
                + tc.ev_gen.data.nbytes
                + tc.ev_time.data.nbytes
                + tc.ev_kind.data.nbytes
            )
        total += self._obs_sym.data.nbytes + self._obs_next.data.nbytes
        return total

    @property
    def resident(self) -> int:
        return self._resident

    def own_cells(self) -> int:
        """Rows that own a cell: written since they were opened."""
        return int(np.count_nonzero(self._sc.owner[: self._cells] >= 0))

    # -- cells ---------------------------------------------------------------

    def _new_cell(self, source: int) -> int:
        """A free cell holding a copy of cell ``source``."""
        if self._free_cells:
            cell = self._free_cells.pop()
        else:
            cell = self._cells
            if cell == self._sc.data.size:
                # By a quarter, not double: at most a fifth of the cell
                # bytes is slack, and copies stay O(1) per cell amortised.
                for column in self._cell_columns:
                    column.grow(cell + max(_INITIAL_CELLS, cell // 4))
            self._cells = cell + 1
        for column in self._cell_columns:
            raw = column.raw
            raw[cell] = raw[source]
        return cell

    def _own_cell(self, row: int) -> int:
        """The cell ``row`` writes: its own, or — on its first write —
        a copy of the shared cell it has read until now, which the row
        then points at.  Every write to a row's cell comes through
        here, so no write reaches a shared cell.  Resolve it before
        reading a field view or a column's ``.data``: the copy may grow,
        and so replace, the arrays."""
        shared = self._cell.data.item(row)
        if self._sc.owner.item(shared) == row:
            return shared
        cell = self._new_cell(shared)
        self._sc.owner[cell] = row
        self._cell.data[row] = cell
        self._leave_shared(shared)
        return cell

    def _release(self, row: int, cell: int) -> None:
        """Drop ``row``'s hold on ``cell``: a cell the row owns is
        freed, and a template with the last row reading it."""
        if self._sc.owner.item(cell) == row:
            self._sc.owner[cell] = -1
            self._free_cells.append(cell)
        else:
            self._leave_shared(cell)

    def _leave_shared(self, cell: int) -> None:
        """One row less reads the shared ``cell``: a template with no
        row left is freed (the empty cell never is)."""
        rows = self._template_rows.get(cell)
        if rows is None:  # the empty cell
            return
        if rows > 1:
            self._template_rows[cell] = rows - 1
        else:
            del self._template_rows[cell]
            self._free_cells.append(cell)

    # -- per-row reads (the row's current cell; nothing allocated) -----------

    def session_seq(self, row: int) -> int:
        """The number in the row's session id: its open's first plus
        the row's place in that open."""
        cell = self._cell.data.item(row)
        return self._sc.sid_base.item(cell) + self._ord.data.item(row)

    def subject_seq(self, row: int) -> int:
        """The number in the row's subject id, as :meth:`session_seq`."""
        cell = self._cell.data.item(row)
        return self._sc.subj_base.item(cell) + self._ord.data.item(row)

    def start_time(self, row: int) -> float:
        return self._sc.start_time.item(self._cell.data.item(row))

    def last_seen(self, row: int) -> float:
        return self._sc.last_seen.item(self._cell.data.item(row))

    def observed_len(self, row: int) -> int:
        return self._sc.obs_len.item(self._cell.data.item(row))

    def observed_key(self, row: int) -> tuple[int, int]:
        """The row's log replacements and length: logs of equal keys
        are equal, since between replacements a log only grows."""
        cell = self._cell.data.item(row)
        return self._sc.obs_ver.item(cell), self._sc.obs_len.item(cell)

    def touch(self, row: int, t: float) -> None:
        """Advance the row's last-seen instant to ``t`` if ``t`` is
        later (a NaN never is)."""
        sc = self._sc
        cell = self._cell.data.item(row)
        if t > sc.last_seen.item(cell):
            if sc.owner.item(cell) != row:
                cell = self._own_cell(row)
            sc.last_seen[cell] = t

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
        return self._role_sets[self._sc.role_set.item(self._cell.data.item(row))]

    def set_role_set(self, row: int, roles: frozenset) -> None:
        code = self._intern_role_set(frozenset(roles))
        cell = self._own_cell(row)
        self._sc.role_set[cell] = code

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
        user: User,
        principals: Iterable[str],
        t: float,
        sid_seq: int,
        subj_seq: int,
    ) -> int:
        """Open a session row for ``user`` at ``t``; returns the row.
        It owns a copy of the empty cell holding the numbers of its
        session and subject ids (its ``ord`` is 0), the code of
        ``principals`` beyond the user's own and its start time, and
        :meth:`subject_of` builds the subject from them."""
        extras = frozenset(principals) - {_user_principal(user)}
        row = self._alloc_row()
        self._user_id.data[row] = self._intern_user(user)
        self._ord.data[row] = 0
        cell = self._own_cell(row)  # a free row reads the empty cell
        sc = self._sc
        sc.sid_base[cell] = sid_seq
        sc.subj_base[cell] = subj_seq
        sc.principals[cell] = self._intern_principals(extras)
        sc.start_time[cell] = sc.last_seen[cell] = t
        self._resident += 1
        return row

    def open_block(
        self,
        t: float,
        sid_seq: int,
        subj_seq: int,
        user_codes,
        role_set_code: int,
        trackers: Mapping[str, float],
    ) -> np.ndarray:
        """Bulk-open ``len(user_codes)`` rows with vectorized column
        fills (the bulk load path), all reading one template cell that
        holds ``sid_seq`` and ``subj_seq``, the first of the block's
        consecutive session and subject numbers, ``t`` as start and
        last-seen time, the role set and the ``trackers`` (key →
        duration) allocated and activated at ``t`` — what
        ``create_tracker`` + ``activate(t)`` leaves, minus the two
        timeline events, which ``OPEN_ACTIVE`` implies.  Row ``i`` of
        the block has ``ord`` ``i``, so its numbers are the firsts plus
        ``i``.  A row copies the template on its first write.  The user
        codes come from the scalar interning helper.  Each subject's
        principals are its user's own alone.  Free rows are taken
        first, in the order :meth:`open` would take them, then rows
        from the high-water mark.  Returns the opened row indices,
        parallel to ``user_codes``."""
        for duration in trackers.values():
            check_duration(duration)
        n = len(user_codes)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        reused = min(n, len(self._free))
        first = self._n
        end = first + n - reused
        if end > self.capacity:
            self._grow_to(max(end, self.capacity * 2))
        self._n = end
        rows = np.arange(first - reused, end, dtype=np.int64)
        if reused:
            rows[:reused] = self._free[-reused:][::-1]
            del self._free[-reused:]
            sl = rows
        else:
            sl = slice(first, end)
        self._user_id.data[sl] = user_codes
        self._ord.data[sl] = np.arange(n, dtype=np.int32)
        cell = self._new_cell(EMPTY_CELL)
        self._template_rows[cell] = n
        sc = self._sc
        sc.sid_base[cell] = sid_seq
        sc.subj_base[cell] = subj_seq
        sc.start_time[cell] = sc.last_seen[cell] = t
        sc.role_set[cell] = role_set_code
        for key, duration in trackers.items():
            tc = self._tracker_columns(key)
            tc.allocate(cell, duration, t)
            tc.alloc[cell] = TrackerCells.OPEN_ACTIVE
            tc.active[cell] = 1
            tc.expiry[cell] = math.inf if math.isinf(duration) else t + duration
        self._cell.data[sl] = cell
        self._resident += n
        return rows

    def close(self, row: int, gen: int) -> None:
        """Close the row's ``gen`` occupancy and free the row at once:
        the live handle's identity is frozen into it, the generation
        bump turns every handle and tracker view of the occupancy into a
        closed session's, and the row leaves the handle registry, so its
        next occupant gets a fresh handle.  The row's hold on its cell
        is released here, and it reads the empty cell, so nothing reads
        the closed session's identity from the store again.  An arena
        the close leaves due is compacted.  A stale ``gen`` (the session
        is already closed) is a no-op."""
        if self._gen.data.item(row) != gen:
            return
        ref = self._handles.pop(row, None)
        handle = ref() if ref is not None else None
        if handle is not None:
            handle._freeze()
        self._resident -= 1
        self._gen.data[row] += 1
        cell = self._cell.data.item(row)
        # Only a row that owns a cell has recorded tracker events or
        # observations.
        wrote = self._sc.owner.item(cell) == row
        observed = self._sc.obs_len.item(cell)
        self._release(row, cell)
        self._cell.data[row] = EMPTY_CELL
        self._free.append(row)
        if wrote:
            for tc in self._trackers.values():
                if _compaction_due(tc.ev_row):
                    self._compact_events(tc)
            if observed and _compaction_due(self._obs_sym):
                self._compact_observations()

    def handle(self, row: int) -> Session:
        """The handle of live row ``row``: the registered one while it
        is referenced, else a new one, registered.  Raises
        :class:`~repro.errors.RbacError` unless ``row`` is an integer
        naming a live row.  A registered row is live (a close drops its
        entry), so the hit path checks nothing more."""
        try:
            row = operator.index(row)
        except TypeError:
            raise RbacError(f"store row {row!r} is not an integer") from None
        handles = self._handles
        ref = handles.get(row)
        if ref is not None:
            handle = ref()
            if handle is not None:
                return handle
        if not 0 <= row < self._n or self._cell.data.item(row) == EMPTY_CELL:
            raise RbacError(f"no live session at store row {row}")
        handle = Session(self, row)
        handles[row] = weakref.ref(handle)
        if len(handles) >= self._sweep_at:
            self._sweep_handles()
        return handle

    def _sweep_handles(self) -> None:
        """Drop the registry's dead references.  The next sweep falls
        due once the registry has doubled (and holds at least
        :data:`_SWEEP_MIN`), so between calls it holds fewer than
        ``max(_SWEEP_MIN, 2 * live)`` entries, ``live`` being the
        handles referenced at the last sweep, and sweeping costs O(1)
        per registration amortised."""
        handles = self._handles
        for row in [row for row, ref in handles.items() if ref() is None]:
            del handles[row]
        self._sweep_at = max(_SWEEP_MIN, 2 * len(handles))

    def handle_for(self, row: int) -> Session | None:
        """Row ``row``'s registered handle, while it is referenced."""
        ref = self._handles.get(row)
        return ref() if ref is not None else None

    def subject_of(self, row: int, subject_id: str) -> Subject:
        """The subject of the row's occupancy, whose id is
        ``subject_id``: its user's own principal and those its cell's
        principals code names."""
        user = self._users[self._user_id.data.item(row)]
        extras = self._principal_sets[
            self._sc.principals.item(self._cell.data.item(row))
        ]
        return Subject(
            user, extras | {_user_principal(user)}, subject_id=subject_id
        )

    def row_of_session_id(self, session_id: str) -> int | None:
        """Row of a live session by its canonical id ``session-<n>`` —
        a vectorized scan of every live row's number, its cell's base
        plus its ``ord`` (no reverse index: materialisation by id is an
        administrative operation, and an id→row dict would be the
        store's single biggest cell).  Any other spelling of a number
        names no session."""
        prefix = "session-"
        if not session_id.startswith(prefix):
            return None
        try:
            seq = int(session_id[len(prefix):])
        except ValueError:
            return None
        if session_id != f"{prefix}{seq}":
            return None
        n = self._n
        cells = self._cell.data[:n]
        hits = np.flatnonzero(
            (self._sc.sid_base[cells] + self._ord.data[:n] == seq)
            & (cells != EMPTY_CELL)
        )
        if hits.size == 0:
            return None
        return int(hits[0])

    def alive_rows(self) -> np.ndarray:
        return np.flatnonzero(self._cell.data[: self._n] != EMPTY_CELL)

    def latest_activity(self) -> float | None:
        """The latest ``last_seen`` over live rows (``None`` when no
        row is live), read from the cells they read: the owned cells
        and the templates (a live row never reads the empty cell)."""
        if not self._resident:
            return None
        sc, m = self._sc, self._cells
        live = sc.owner[:m] >= 0
        live[list(self._template_rows)] = True
        return float(sc.last_seen[:m][live].max())

    def idle_rows(self, now: float, idle_for: float) -> np.ndarray:
        """Live rows idle for at least ``idle_for`` as of ``now``:
        the idle cells, then the live rows reading one."""
        idle = now - self._sc.last_seen[: self._cells] >= idle_for
        idle[EMPTY_CELL] = False  # the cell of no live row
        return np.flatnonzero(idle[self._cell.data[: self._n]])

    # -- observations --------------------------------------------------------

    def observe(self, row: int, access: AccessKey) -> None:
        """Append ``access`` to the row's log and step its read state
        ids by it: the engine's ``observe``, with the row's cell
        resolved once."""
        sc = self._sc
        cell = self._cell.data.item(row)
        if sc.owner.item(cell) != row:
            cell = self._own_cell(row)
        code = self._symbol_codes.get(access)
        if code is None:
            code = self._symbol_code(access)
        # Both arenas' appends in one step: the successor slot past the
        # count already holds the fill, -1.
        sym, nxt = self._obs_sym, self._obs_next
        index = sym.count
        if index == sym.data.size:
            sym.reserve(1)
            nxt.reserve(1)
        sym.data[index] = code
        sym.count = nxt.count = index + 1
        tail = sc.obs_tail.item(cell)
        if tail >= 0:
            nxt.data[tail] = index
        else:
            sc.obs_head[cell] = index
        sc.obs_tail[cell] = index
        sc.obs_len[cell] = sc.obs_len.item(cell) + 1
        # Only an owned cell holds read state ids: monitor_entry writes
        # through _own_cell.
        for table, column in self._monitors.items():
            data = column.data
            state = data.item(cell)
            if state >= 0:
                data[cell] = table.step(state, access)

    def extend_observations(self, row: int, accesses: Iterable[AccessKey]) -> None:
        """Append observations to the row's log.  The nodes are linked
        first, from the log's tail in the cell the row reads, and the
        cell written last, through :meth:`_own_cell`, if anything was
        appended."""
        tail = self._sc.obs_tail.item(self._cell.data.item(row))
        appended = 0
        for access in accesses:
            index = self._obs_sym.append(self._symbol_code(access))
            self._obs_next.append(-1)
            if tail >= 0:
                self._obs_next.data[tail] = index
            tail = index
            appended += 1
        if appended:
            cell = self._own_cell(row)
            sc = self._sc
            if sc.obs_head.item(cell) < 0:
                sc.obs_head[cell] = self._obs_sym.count - appended
            sc.obs_tail[cell] = tail
            sc.obs_len[cell] = sc.obs_len.item(cell) + appended

    def set_observations(
        self, row: int, accesses: Iterable[AccessKey | tuple[str, str, str]]
    ) -> None:
        """Replace the row's log (the ``observed`` setter / rescind
        path), bumping its replacement count.  Clears the row's state
        ids — they were stepped over the old history."""
        cell = self._own_cell(row)
        sc = self._sc
        sc.obs_head[cell] = sc.obs_tail[cell] = -1
        sc.obs_len[cell] = 0
        sc.obs_ver[cell] = sc.obs_ver.item(cell) + 1
        self.extend_observations(
            row,
            (a if type(a) is AccessKey else AccessKey.of(a) for a in accesses),
        )
        self.clear_monitor_row(row)
        if _compaction_due(self._obs_sym):
            self._compact_observations()

    def _compact_observations(self) -> None:
        """Relink every owned cell's observations, in order, at the
        front of the arena, and drop every other node (a shared cell
        holds no log)."""
        nxt = self._obs_next.data[: self._obs_next.count].tolist()
        sc = self._sc
        m = self._cells
        cells = np.flatnonzero((sc.owner[:m] >= 0) & (sc.obs_head[:m] >= 0))
        order: list[int] = []
        firsts: list[int] = []
        lasts: list[int] = []
        for index in sc.obs_head[cells].tolist():
            firsts.append(len(order))
            while index >= 0:
                order.append(index)
                index = nxt[index]
            lasts.append(len(order) - 1)
        self._obs_sym.assign(self._obs_sym.data[order])
        links = np.arange(1, len(order) + 1, dtype=np.int32)
        links[lasts] = -1
        self._obs_next.assign(links)
        sc.obs_head[cells] = firsts
        sc.obs_tail[cells] = lasts

    def observed_list(self, row: int) -> list[AccessKey]:
        out: list[AccessKey] = []
        symbols = self._symbols
        sym = self._obs_sym.data
        nxt = self._obs_next.data
        index = self._sc.obs_head.item(self._cell.data.item(row))
        while index >= 0:
            out.append(symbols[sym[index]])
            index = int(nxt[index])
        return out

    def rescind_server(self, server: str) -> int:
        """Drop every observation at ``server`` from every live row
        (the coalition-eviction path).  Returns observations removed.
        Only a row that owns its cell has observations."""
        sc = self._sc
        m = self._cells
        owned = (sc.owner[:m] >= 0) & (sc.obs_len[:m] > 0)
        removed = 0
        for row in np.sort(sc.owner[:m][owned]).tolist():
            log = self.observed_list(row)
            kept = [a for a in log if a.server != server]
            if len(kept) != len(log):
                removed += len(log) - len(kept)
                self.set_observations(row, kept)
        return removed

    # -- constraint state ids ------------------------------------------------

    def monitor_state_id(self, row: int, constraint) -> int | None:
        """The row's stored state id for ``constraint``, or ``None``
        when no decision has read it since the row's history last
        changed.  Allocates nothing."""
        cell = self._cell.data.item(row)
        for table, column in self._monitors.items():
            if table.constraint == constraint:
                state = column.data.item(cell)
                if state >= 0:
                    return state
        return None

    def monitor_entry(self, row: int, table: "StateTable") -> int:
        """The row's state id in ``table``: read from its constraint's
        column, or on the first read folded from the row's observations
        and stored (decisions read a constraint's state only through
        here).  Tables of one constraint are equal, so the column is
        the constraint's, whichever of its tables made it."""
        column = self._monitors.get(table)
        if column is not None:
            state = column.data.item(self._cell.data.item(row))
            if state >= 0:
                return state
        else:
            # Ids past int32 are kept as Python ints.
            dtype = np.int32 if table.n_states <= 2**31 else object
            column = self._monitors[table] = Column(
                self._sc.data.size, dtype, fill=-1
            )
            self._cell_columns.append(column)
        state = table.fold(self.observed_list(row))
        # Resolved first: the copy may grow (replace) the column arrays.
        cell = self._own_cell(row)
        column.data[cell] = state
        return state

    def clear_monitor_row(self, row: int) -> None:
        """Forget the row's state ids; a row reading a shared cell has
        none to forget."""
        cell = self._cell.data.item(row)
        if self._sc.owner.item(cell) == row:
            for column in self._monitors.values():
                column.data[cell] = -1

    def clear_all_monitor_states(self) -> None:
        """Forget every state id: the columns go, and with them the
        tables they were stepped by."""
        dropped = list(self._monitors.values())
        self._cell_columns = [
            c for c in self._cell_columns if not any(c is d for d in dropped)
        ]
        self._monitors.clear()

    # -- trackers ------------------------------------------------------------

    def _compact_events(self, tc: TrackerCells) -> None:
        """Keep the tracker events of live occupancies, in order."""
        n = tc.ev_row.count
        live = tc.ev_gen.data[:n] == self._gen.data[tc.ev_row.data[:n]]
        tc.keep_events(np.flatnonzero(live))

    def _tracker_columns(self, key: str) -> TrackerCells:
        tc = self._trackers.get(key)
        if tc is None:
            tc = TrackerCells(self._sc.data.size)
            self._trackers[key] = tc
            self._cell_columns.append(tc)
        return tc

    def alloc_tracker(self, row: int, key: str, duration: float) -> None:
        """Allocate one tracker cell in the fresh (inactive) state a
        standalone tracker's constructor produces."""
        tc = self._tracker_columns(key)
        cell = self._own_cell(row)
        tc.allocate(cell, duration, self._sc.start_time.item(cell))
