"""Permission validity tracking (paper Section 4, Eq. 4.1).

Each permission carries a *validity duration* ``dur(perm)`` — the total
time it may spend in the *valid* state.  A permission is, for a given
mobile object, in one of three states:

* ``INACTIVE`` — not assigned to any active role of the subject;
* ``VALID`` — active and with validity budget remaining;
* ``ACTIVE_INVALID`` — active, but the accumulated valid time has
  reached ``dur(perm)`` (Eq. 4.1's integral condition fails).

Two base-time schemes choose where the integral's lower limit ``t_b``
sits (Section 4):

* :data:`Scheme.PER_SERVER` — ``t_b = t_i``, the arrival time at the
  *current* server: the budget is per-visit and resets on migration;
* :data:`Scheme.WHOLE_EXECUTION` — ``t_b = t_1``, the start of the
  object's life-cycle: one budget across all servers.

:class:`ValidityTracker` is the event-driven realisation: feed it
``activate`` / ``deactivate`` / ``migrate`` events in time order and
query the state at any time; it also exposes the exact expiry instant
and records the ``valid`` state function as a
:class:`~repro.temporal.timeline.BooleanTimeline` for audit and for
cross-checking against the declarative integral (tests do both).

A tracker is a view of one cell of :class:`TrackerCells` (a numpy
column of accrual records plus an arena of timeline events): the one
cell of a private set when it stands alone, its row's cell in the
session store's set for its tracker key as a
:class:`~repro.rbac.session_store.ColumnTracker`.  Reads resolve the
cell through :meth:`ValidityTracker._cell` and writes through
:meth:`ValidityTracker._own_cell`: a standalone tracker owns the cell
it reads, and a store row's view copies a cell it shares with other
rows into one of its own on its first write.  Accrual is
closed-form — ``consumed(t) = consumed₀ + (t − anchor)`` against an
expiry instant precomputed at the last event — and every query answers
``t >= expiry``: :meth:`ValidityTracker.state` one instant at a time,
:meth:`ValidityTracker.state_codes_at` a vector of instants in one
numpy compare, so the scalar path and the batched sweep of
:mod:`repro.rbac.vector_engine` agree bit-for-bit, exactly at the
expiry instant too.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.errors import TemporalError
from repro.temporal.timeline import BooleanTimeline, TimelineRecorder

__all__ = [
    "PermissionState",
    "Scheme",
    "ValidityTracker",
    "TrackerCells",
    "Column",
    "Records",
    "Arena",
    "check_duration",
    "check_clock",
    "STATE_CODES",
    "CODE_INACTIVE",
    "CODE_ACTIVE_INVALID",
    "CODE_VALID",
]


class PermissionState(enum.Enum):
    """The three permission states of Section 4."""

    INACTIVE = "inactive"
    ACTIVE_INVALID = "active-but-invalid"
    VALID = "valid"


#: Small-integer encodings of :class:`PermissionState` for packed
#: (numpy) sweeps; ``STATE_CODES[code]`` recovers the enum member.
CODE_INACTIVE = 0
CODE_ACTIVE_INVALID = 1
CODE_VALID = 2
STATE_CODES = (
    PermissionState.INACTIVE,
    PermissionState.ACTIVE_INVALID,
    PermissionState.VALID,
)


class Scheme(enum.Enum):
    """Base-time schemes for the validity integral."""

    PER_SERVER = "per-server"  # t_b = arrival at current server
    WHOLE_EXECUTION = "whole-execution"  # t_b = start of execution


_INITIAL_ARENA = 256

# Timeline event kinds (a TrackerCells event arena).
_EV_ACTIVE_OFF = 0
_EV_ACTIVE_ON = 1
_EV_VALID_OFF = 2
_EV_VALID_ON = 3


def check_duration(duration: float) -> None:
    """Refuse a validity budget that is not positive (NaN included)."""
    if not duration > 0:
        raise TemporalError(f"validity duration must be positive, got {duration}")


def check_clock(t: float, now: float) -> None:
    """Refuse an event at ``t`` behind a tracker clock at ``now`` (a
    NaN instant included)."""
    if not t >= now:
        raise TemporalError(f"event at {t} is not at or after current time {now}")


class Column:
    """One growable numpy column (capacity doubling, stable dtype).
    ``raw`` is ``data`` as opaque elements, for copying one
    (``raw[j] = raw[i]``)."""

    __slots__ = ("data", "fill", "raw")

    def __init__(self, capacity: int, dtype, fill=0):
        self.fill = fill
        self.data = np.full(capacity, fill, dtype=dtype)
        self._bind()

    def _bind(self) -> None:
        """Point the views at the current array."""
        self.raw = self.data

    def grow(self, capacity: int) -> None:
        old = self.data
        if capacity <= old.size:
            return
        new = np.full(capacity, self.fill, dtype=old.dtype)
        new[: old.size] = old
        self.data = new
        self._bind()


class Arena:
    """A growable numpy array with an element count, appended to one
    element at a time; the elements past the count hold ``fill``.
    ``kept`` is the count its last :meth:`assign` left (the owner's
    compaction policy reads it)."""

    __slots__ = ("data", "count", "fill", "kept")

    def __init__(self, dtype, fill=0, capacity: int = _INITIAL_ARENA):
        self.data = np.full(capacity, fill, dtype=dtype)
        self.count = 0
        self.fill = fill
        self.kept = 0

    def assign(self, values: np.ndarray) -> None:
        """Replace the elements with ``values`` (at most the current
        count of them): a compaction, which keeps the capacity."""
        n = len(values)
        self.data[:n] = values
        self.data[n : self.count] = self.fill
        self.count = self.kept = n

    def reserve(self, extra: int) -> None:
        """Grow, if need be, so that ``extra`` more elements fit."""
        need = self.count + extra
        if need > self.data.size:
            capacity = max(need, self.data.size * 2)
            new = np.full(capacity, self.fill, dtype=self.data.dtype)
            new[: self.count] = self.data[: self.count]
            self.data = new

    def append(self, value) -> int:
        index = self.count
        if index == self.data.size:
            self.reserve(1)
        self.data[index] = value
        self.count = index + 1
        return index


class Records(Column):
    """A :class:`Column` of structured records with one view per field
    (``records.anchor[i]``), rebound when the column grows.  A subclass
    names its fields in ``__slots__``.  ``raw`` views each record as
    unstructured bytes, which copy in half the time of a record."""

    __slots__ = ()

    def __init__(self, capacity: int, dtype: np.dtype, fill: tuple):
        super().__init__(capacity, dtype, fill=np.array(fill, dtype=dtype)[()])

    def _bind(self) -> None:
        data = self.data
        self.raw = data.view(np.dtype((np.void, data.dtype.itemsize)))
        for name in data.dtype.names:
            setattr(self, name, data[name])


#: One tracker cell: the closed-form accrual state of one tracker, a
#: 36-byte record so that copying a cell is one element copy.
_CELL = np.dtype(
    [
        ("alloc", np.uint8),
        ("active", np.uint8),
        ("dur", np.int16),
        ("anchor", np.float64),
        ("consumed0", np.float64),
        ("expiry", np.float64),
        ("now", np.float64),
    ]
)


class TrackerCells(Records):
    """Tracker cells for one tracker key: :class:`Records` of cell
    records (``tc.anchor[cell]``), plus the timeline event arena.
    Events are keyed by the occupancy that recorded them (row and
    generation), not by cell; the session store drops closed
    occupancies' events with :meth:`keep_events`.  ``dur``
    indirects through the key's distinct durations so it stays 2 bytes
    instead of a float.  ``alloc`` is :attr:`FREE`, :attr:`ALLOCATED` or
    :attr:`OPEN_ACTIVE` — activated when its row was opened in bulk,
    with the active-on / valid-on pair at the row's start time implied
    instead of stored."""

    FREE = 0
    ALLOCATED = 1
    OPEN_ACTIVE = 2

    __slots__ = (
        *_CELL.names,
        "durations",
        "_dur_codes",
        "ev_row",
        "ev_gen",
        "ev_time",
        "ev_kind",
    )

    def __init__(self, capacity: int):
        super().__init__(
            capacity, _CELL, (self.FREE, 0, -1, 0.0, 0.0, math.inf, 0.0)
        )
        self.durations: list[float] = []
        self._dur_codes: dict[float, int] = {}
        self.ev_row = Arena(np.int32)
        self.ev_gen = Arena(np.int32)
        self.ev_time = Arena(np.float64)
        self.ev_kind = Arena(np.int8)

    def dur_code(self, duration: float) -> int:
        duration = float(duration)
        code = self._dur_codes.get(duration)
        if code is None:
            code = len(self.durations)
            if code > 32000:  # pragma: no cover - pathological policies
                raise TemporalError(
                    "too many distinct validity durations for one tracker key"
                )
            self.durations.append(duration)
            self._dur_codes[duration] = code
        return code

    def allocate(self, cell: int, duration: float, start: float) -> None:
        """Set ``cell`` to a fresh, inactive tracker of budget
        ``duration`` with its clock at ``start``."""
        check_duration(duration)
        self.alloc[cell] = self.ALLOCATED
        self.active[cell] = 0
        self.anchor[cell] = start
        self.consumed0[cell] = 0.0
        self.expiry[cell] = math.inf
        self.now[cell] = start
        self.dur[cell] = self.dur_code(duration)

    def record(self, row: int, gen: int, kind: int, t: float) -> None:
        self.ev_row.append(row)
        self.ev_gen.append(gen)
        self.ev_time.append(t)
        self.ev_kind.append(kind)

    def keep_events(self, index: np.ndarray) -> None:
        """Keep only the events at ``index`` (ascending), in order."""
        for arena in (self.ev_row, self.ev_gen, self.ev_time, self.ev_kind):
            arena.assign(arena.data[index])

    def replay(
        self, cell: int, row: int, gen: int, start: float = 0.0
    ) -> tuple[TimelineRecorder, TimelineRecorder]:
        """Re-run the events ``row`` recorded in generation ``gen``
        through fresh ``(valid, active)`` recorders.  When its ``cell``
        is :attr:`OPEN_ACTIVE`, the active-on / valid-on pair at the
        row's ``start`` time goes first, in
        :meth:`ValidityTracker.activate`'s order."""
        valid = TimelineRecorder(initial=False)
        active = TimelineRecorder(initial=False)
        if self.alloc[cell] == self.OPEN_ACTIVE:
            active.set(start, True)
            valid.set(start, True)
        n = self.ev_row.count
        rows = self.ev_row.data[:n]
        gens = self.ev_gen.data[:n]
        mask = (rows == row) & (gens == gen)
        for i in np.nonzero(mask)[0].tolist():
            kind = int(self.ev_kind.data[i])
            t = float(self.ev_time.data[i])
            if kind == _EV_VALID_ON:
                valid.set(t, True)
            elif kind == _EV_VALID_OFF:
                valid.set(t, False)
            elif kind == _EV_ACTIVE_ON:
                active.set(t, True)
            else:
                active.set(t, False)
        return valid, active


class ValidityTracker:
    """Event-driven tracker of one permission's validity for one
    mobile object.

    Parameters
    ----------
    duration:
        ``dur(perm)`` — the validity budget; ``math.inf`` makes the
        permission time-insensitive (the paper allows "even infinity").
    scheme:
        Which base time the budget is metered from.
    start_time:
        ``t_1``, the start of the object's execution (arrival at the
        first server).

    The tracker reads and writes one :class:`TrackerCells` cell — here
    the one cell of a private set, which it owns.  While the permission
    is active and unexpired, ``consumed(t) = consumed0 + (t - anchor)``
    and the cell's ``expiry = anchor + (duration - consumed0)`` is
    precomputed at the last event.  Every query answers ``t >= expiry``;
    there is no per-query accumulation, so query *order* cannot drift
    the floating-point state.  Each public method resolves its cell
    once, through :meth:`_cell` to read or :meth:`_own_cell` to write.
    """

    __slots__ = ("_tc", "_row", "_gen", "scheme")

    def __init__(
        self,
        duration: float,
        scheme: Scheme = Scheme.WHOLE_EXECUTION,
        start_time: float = 0.0,
    ):
        self._tc = TrackerCells(1)
        self._tc.allocate(0, duration, float(start_time))
        self._row = self._gen = 0
        self.scheme = scheme

    def _cell(self) -> int:
        """The cell the tracker reads; every read's one entry check.
        A standalone tracker's row and cell are both 0."""
        return self._row

    def _own_cell(self) -> int:
        """The cell the tracker writes; every write's one entry check.
        A standalone tracker owns the cell it reads."""
        return self._cell()

    @property
    def duration(self) -> float:
        return self._duration(self._cell())

    def _duration(self, c: int) -> float:
        tc = self._tc
        return tc.durations[tc.dur.item(c)]

    # -- internal clock ----------------------------------------------------

    def _pending_expiry(self, c: int) -> float:
        """The expiry instant assuming the permission stays active from
        the current accrual anchor; ``inf`` when it cannot expire."""
        tc = self._tc
        duration = self._duration(c)
        consumed0 = float(tc.consumed0[c])
        if math.isinf(duration) or consumed0 >= duration:
            return math.inf
        return float(tc.anchor[c]) + (duration - consumed0)

    def _consumed_at(self, c: int, t: float) -> float:
        """``∫ valid du`` accrued by time ``t`` (t >= last event)."""
        tc = self._tc
        duration = self._duration(c)
        consumed0 = float(tc.consumed0[c])
        if not tc.active[c] or consumed0 >= duration:
            return consumed0
        if t >= float(tc.expiry[c]):
            return duration
        return consumed0 + (t - float(tc.anchor[c]))

    def _advance(self, c: int, t: float) -> None:
        tc = self._tc
        check_clock(t, tc.now.item(c))
        if tc.active.item(c) and t >= tc.expiry.item(c):
            # The budget ran out before t: emit the expiry switch at
            # the precomputed instant and consolidate.
            expiry = float(tc.expiry[c])
            tc.record(self._row, self._gen, _EV_VALID_OFF, expiry)
            tc.consumed0[c] = self._duration(c)
            tc.anchor[c] = expiry
            tc.expiry[c] = math.inf
        tc.now[c] = t

    def _consolidate(self, c: int, t: float) -> None:
        """Fold the accrual run into ``consumed0`` at instant ``t``
        (called on events that stop or restart accrual)."""
        tc = self._tc
        tc.consumed0[c] = self._consumed_at(c, t)
        tc.anchor[c] = t

    # -- events ------------------------------------------------------------

    def activate(self, t: float) -> None:
        """The permission's role was activated for the subject at ``t``."""
        tc, c = self._tc, self._own_cell()
        self._advance(c, t)
        if tc.active[c]:
            return
        tc.active[c] = 1
        tc.record(self._row, self._gen, _EV_ACTIVE_ON, t)
        tc.anchor[c] = t
        if float(tc.consumed0[c]) < self._duration(c):
            tc.record(self._row, self._gen, _EV_VALID_ON, t)
        tc.expiry[c] = self._pending_expiry(c)

    def deactivate(self, t: float) -> None:
        """The role was deactivated (session ended) at ``t``."""
        tc, c = self._tc, self._own_cell()
        self._advance(c, t)
        if not tc.active[c]:
            return
        self._consolidate(c, t)
        tc.active[c] = 0
        tc.expiry[c] = math.inf
        tc.record(self._row, self._gen, _EV_ACTIVE_OFF, t)
        tc.record(self._row, self._gen, _EV_VALID_OFF, t)

    def migrate(self, t: float) -> None:
        """The mobile object arrived at a new server at ``t``.

        Under :data:`Scheme.PER_SERVER` the base time becomes ``t`` and
        the consumed budget resets; under
        :data:`Scheme.WHOLE_EXECUTION` migration is irrelevant to the
        budget."""
        tc, c = self._tc, self._own_cell()
        self._advance(c, t)
        if self.scheme is Scheme.PER_SERVER:
            tc.consumed0[c] = 0.0
            tc.anchor[c] = t
            if tc.active[c]:
                tc.record(self._row, self._gen, _EV_VALID_ON, t)
                tc.expiry[c] = self._pending_expiry(c)

    # -- queries ------------------------------------------------------------

    def state(self, t: float | None = None) -> PermissionState:
        """The permission state at ``t`` (default: the current time).
        Querying at an instant advances the internal clock (a write)."""
        if t is None:
            c = self._cell()
        else:
            c = self._own_cell()
            self._advance(c, t)
        tc = self._tc
        if not tc.active.item(c):
            return PermissionState.INACTIVE
        if tc.consumed0.item(c) >= self._duration(c):
            return PermissionState.ACTIVE_INVALID
        return PermissionState.VALID

    def is_valid(self, t: float | None = None) -> bool:
        """``valid(perm, t)`` as a boolean."""
        return self.state(t) is PermissionState.VALID

    def remaining_budget(self, t: float | None = None) -> float:
        """Validity time left before expiry (``inf`` for time-insensitive
        permissions)."""
        if t is None:
            c = self._cell()
        else:
            c = self._own_cell()
            self._advance(c, t)
        duration = self._duration(c)
        if math.isinf(duration):
            return math.inf
        return max(0.0, duration - self._consumed_at(c, float(self._tc.now[c])))

    def expiry_time(self) -> float | None:
        """If the permission is currently valid, the instant its budget
        will be exhausted (assuming it stays active); ``None`` when
        inactive, already expired, or time-insensitive."""
        tc, c = self._tc, self._cell()
        duration = self._duration(c)
        if not tc.active[c] or float(tc.consumed0[c]) >= duration:
            return None
        if math.isinf(duration):
            return None
        return float(tc.expiry[c])

    def state_codes_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state` for a sorted batch of query instants
        (all ``>= now``): a ``uint8`` array of state codes, from the
        same ``ts >= expiry`` compare :meth:`state` makes one instant
        at a time.  Read-only — callers advance the clock once
        afterwards with ``state(ts[-1])``, which leaves the tracker
        exactly as a per-instant query sequence would have
        (property-tested)."""
        tc, c = self._tc, self._cell()
        if not tc.active[c]:
            return np.full(len(ts), CODE_INACTIVE, dtype=np.uint8)
        if float(tc.consumed0[c]) >= self._duration(c):
            return np.full(len(ts), CODE_ACTIVE_INVALID, dtype=np.uint8)
        codes = np.full(len(ts), CODE_VALID, dtype=np.uint8)
        codes[ts >= float(tc.expiry[c])] = CODE_ACTIVE_INVALID
        return codes

    # -- audit ---------------------------------------------------------------

    def _replay(self) -> tuple[TimelineRecorder, TimelineRecorder]:
        return self._tc.replay(self._cell(), self._row, self._gen)

    def valid_timeline(self) -> BooleanTimeline:
        """The recorded ``valid(perm, ·)`` state function up to the
        current time."""
        return self._replay()[0].freeze()

    def active_timeline(self) -> BooleanTimeline:
        """The recorded ``active(perm, ·)`` state function."""
        return self._replay()[1].freeze()

    @property
    def now(self) -> float:
        return float(self._tc.now[self._cell()])
