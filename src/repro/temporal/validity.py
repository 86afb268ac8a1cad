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

A tracker is a view of one row of :class:`TrackerCells` (numpy columns
of accrual state plus an arena of timeline events): a private one-row
set when it stands alone, the session store's set for its tracker key
as a :class:`~repro.rbac.session_store.ColumnTracker`.  Accrual is
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
    "Arena",
    "check_duration",
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


class Column:
    """One growable numpy column (capacity doubling, stable dtype)."""

    __slots__ = ("data", "fill")

    def __init__(self, capacity: int, dtype, fill=0):
        self.fill = fill
        self.data = np.full(capacity, fill, dtype=dtype)

    def grow(self, capacity: int) -> None:
        old = self.data
        if capacity <= old.size:
            return
        new = np.full(capacity, self.fill, dtype=old.dtype)
        new[: old.size] = old
        self.data = new


class Arena:
    """An append-only growable numpy array with an element count."""

    __slots__ = ("data", "count", "fill")

    def __init__(self, dtype, fill=0, capacity: int = _INITIAL_ARENA):
        self.data = np.full(capacity, fill, dtype=dtype)
        self.count = 0
        self.fill = fill

    def _ensure(self, extra: int) -> None:
        need = self.count + extra
        if need > self.data.size:
            capacity = max(need, self.data.size * 2)
            new = np.full(capacity, self.fill, dtype=self.data.dtype)
            new[: self.count] = self.data[: self.count]
            self.data = new

    def append(self, value) -> int:
        self._ensure(1)
        index = self.count
        self.data[index] = value
        self.count = index + 1
        return index


class TrackerCells:
    """Tracker cells for one tracker key, one per row: the closed-form
    accrual columns plus the timeline event arena.  ``dur`` indirects
    through the key's distinct durations so a cell stays 2 bytes
    instead of a float column.  ``alloc`` is :attr:`FREE`,
    :attr:`ALLOCATED` or :attr:`OPEN_ACTIVE` — activated when its row
    was opened in bulk, with the active-on / valid-on pair at the row's
    start time implied instead of stored."""

    FREE = 0
    ALLOCATED = 1
    OPEN_ACTIVE = 2

    __slots__ = (
        "alloc",
        "active",
        "anchor",
        "consumed0",
        "expiry",
        "now",
        "dur",
        "durations",
        "_dur_codes",
        "ev_row",
        "ev_gen",
        "ev_time",
        "ev_kind",
    )

    def __init__(self, capacity: int):
        self.alloc = Column(capacity, np.uint8)
        self.active = Column(capacity, np.uint8)
        self.anchor = Column(capacity, np.float64)
        self.consumed0 = Column(capacity, np.float64)
        self.expiry = Column(capacity, np.float64, fill=math.inf)
        self.now = Column(capacity, np.float64)
        self.dur = Column(capacity, np.int16, fill=-1)
        self.durations: list[float] = []
        self._dur_codes: dict[float, int] = {}
        self.ev_row = Arena(np.int32)
        self.ev_gen = Arena(np.int32)
        self.ev_time = Arena(np.float64)
        self.ev_kind = Arena(np.int8)

    def columns(self) -> tuple[Column, ...]:
        return (
            self.alloc,
            self.active,
            self.anchor,
            self.consumed0,
            self.expiry,
            self.now,
            self.dur,
        )

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

    def allocate(self, row: int, duration: float, start: float) -> None:
        """Set ``row``'s cell to a fresh, inactive tracker of budget
        ``duration`` with its clock at ``start``."""
        check_duration(duration)
        self.alloc.data[row] = self.ALLOCATED
        self.active.data[row] = 0
        self.anchor.data[row] = start
        self.consumed0.data[row] = 0.0
        self.expiry.data[row] = math.inf
        self.now.data[row] = start
        self.dur.data[row] = self.dur_code(duration)

    def record(self, row: int, gen: int, kind: int, t: float) -> None:
        self.ev_row.append(row)
        self.ev_gen.append(gen)
        self.ev_time.append(t)
        self.ev_kind.append(kind)

    def replay(
        self, row: int, gen: int, start: float = 0.0
    ) -> tuple[TimelineRecorder, TimelineRecorder]:
        """Re-run ``row``'s recorded events of generation ``gen``
        through fresh ``(valid, active)`` recorders.  An
        :attr:`OPEN_ACTIVE` cell first replays the active-on / valid-on
        pair at its row's ``start`` time, in
        :meth:`ValidityTracker.activate`'s order."""
        valid = TimelineRecorder(initial=False)
        active = TimelineRecorder(initial=False)
        if self.alloc.data[row] == self.OPEN_ACTIVE:
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

    The tracker reads and writes one :class:`TrackerCells` row — here
    row 0 of a private one-row set.  While the permission is active
    and unexpired, ``consumed(t) = consumed0 + (t - anchor)`` and the
    cell's ``expiry = anchor + (duration - consumed0)`` is precomputed
    at the last event.  Every query answers ``t >= expiry``; there is
    no per-query accumulation, so query *order* cannot drift the
    floating-point state.
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

    def _cell(self) -> tuple[TrackerCells, int]:
        """The cells and row; every public method's one entry check."""
        return self._tc, self._row

    @property
    def duration(self) -> float:
        self._cell()
        return self._duration()

    def _duration(self) -> float:
        tc = self._tc
        return tc.durations[int(tc.dur.data[self._row])]

    # -- internal clock ----------------------------------------------------

    def _pending_expiry(self) -> float:
        """The expiry instant assuming the permission stays active from
        the current accrual anchor; ``inf`` when it cannot expire."""
        tc, row = self._tc, self._row
        duration = self._duration()
        consumed0 = float(tc.consumed0.data[row])
        if math.isinf(duration) or consumed0 >= duration:
            return math.inf
        return float(tc.anchor.data[row]) + (duration - consumed0)

    def _consumed_at(self, t: float) -> float:
        """``∫ valid du`` accrued by time ``t`` (t >= last event)."""
        tc, row = self._tc, self._row
        duration = self._duration()
        consumed0 = float(tc.consumed0.data[row])
        if not tc.active.data[row] or consumed0 >= duration:
            return consumed0
        if t >= float(tc.expiry.data[row]):
            return duration
        return consumed0 + (t - float(tc.anchor.data[row]))

    def _advance(self, t: float) -> None:
        tc, row = self._tc, self._row
        now = float(tc.now.data[row])
        # Written so that a NaN instant is refused too.
        if not t >= now:
            raise TemporalError(f"event at {t} is not at or after current time {now}")
        if tc.active.data[row] and t >= float(tc.expiry.data[row]):
            # The budget ran out before t: emit the expiry switch at
            # the precomputed instant and consolidate.
            expiry = float(tc.expiry.data[row])
            tc.record(row, self._gen, _EV_VALID_OFF, expiry)
            tc.consumed0.data[row] = self._duration()
            tc.anchor.data[row] = expiry
            tc.expiry.data[row] = math.inf
        tc.now.data[row] = t

    def _consolidate(self, t: float) -> None:
        """Fold the accrual run into ``consumed0`` at instant ``t``
        (called on events that stop or restart accrual)."""
        tc, row = self._tc, self._row
        tc.consumed0.data[row] = self._consumed_at(t)
        tc.anchor.data[row] = t

    # -- events ------------------------------------------------------------

    def activate(self, t: float) -> None:
        """The permission's role was activated for the subject at ``t``."""
        tc, row = self._cell()
        self._advance(t)
        if tc.active.data[row]:
            return
        tc.active.data[row] = 1
        tc.record(row, self._gen, _EV_ACTIVE_ON, t)
        tc.anchor.data[row] = t
        if float(tc.consumed0.data[row]) < self._duration():
            tc.record(row, self._gen, _EV_VALID_ON, t)
        tc.expiry.data[row] = self._pending_expiry()

    def deactivate(self, t: float) -> None:
        """The role was deactivated (session ended) at ``t``."""
        tc, row = self._cell()
        self._advance(t)
        if not tc.active.data[row]:
            return
        self._consolidate(t)
        tc.active.data[row] = 0
        tc.expiry.data[row] = math.inf
        tc.record(row, self._gen, _EV_ACTIVE_OFF, t)
        tc.record(row, self._gen, _EV_VALID_OFF, t)

    def migrate(self, t: float) -> None:
        """The mobile object arrived at a new server at ``t``.

        Under :data:`Scheme.PER_SERVER` the base time becomes ``t`` and
        the consumed budget resets; under
        :data:`Scheme.WHOLE_EXECUTION` migration is irrelevant to the
        budget."""
        tc, row = self._cell()
        self._advance(t)
        if self.scheme is Scheme.PER_SERVER:
            tc.consumed0.data[row] = 0.0
            tc.anchor.data[row] = t
            if tc.active.data[row]:
                tc.record(row, self._gen, _EV_VALID_ON, t)
                tc.expiry.data[row] = self._pending_expiry()

    # -- queries ------------------------------------------------------------

    def state(self, t: float | None = None) -> PermissionState:
        """The permission state at ``t`` (default: the current time).
        Querying advances the internal clock."""
        tc, row = self._cell()
        if t is not None:
            self._advance(t)
        if not tc.active.data[row]:
            return PermissionState.INACTIVE
        if float(tc.consumed0.data[row]) >= self._duration():
            return PermissionState.ACTIVE_INVALID
        return PermissionState.VALID

    def is_valid(self, t: float | None = None) -> bool:
        """``valid(perm, t)`` as a boolean."""
        return self.state(t) is PermissionState.VALID

    def remaining_budget(self, t: float | None = None) -> float:
        """Validity time left before expiry (``inf`` for time-insensitive
        permissions)."""
        tc, row = self._cell()
        if t is not None:
            self._advance(t)
        duration = self._duration()
        if math.isinf(duration):
            return math.inf
        return max(0.0, duration - self._consumed_at(float(tc.now.data[row])))

    def expiry_time(self) -> float | None:
        """If the permission is currently valid, the instant its budget
        will be exhausted (assuming it stays active); ``None`` when
        inactive, already expired, or time-insensitive."""
        tc, row = self._cell()
        duration = self._duration()
        if not tc.active.data[row] or float(tc.consumed0.data[row]) >= duration:
            return None
        if math.isinf(duration):
            return None
        return float(tc.expiry.data[row])

    def state_codes_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state` for a sorted batch of query instants
        (all ``>= now``): a ``uint8`` array of state codes, from the
        same ``ts >= expiry`` compare :meth:`state` makes one instant
        at a time.  Read-only — callers advance the clock once
        afterwards with ``state(ts[-1])``, which leaves the tracker
        exactly as a per-instant query sequence would have
        (property-tested)."""
        tc, row = self._cell()
        if not tc.active.data[row]:
            return np.full(len(ts), CODE_INACTIVE, dtype=np.uint8)
        if float(tc.consumed0.data[row]) >= self._duration():
            return np.full(len(ts), CODE_ACTIVE_INVALID, dtype=np.uint8)
        codes = np.full(len(ts), CODE_VALID, dtype=np.uint8)
        codes[ts >= float(tc.expiry.data[row])] = CODE_ACTIVE_INVALID
        return codes

    # -- audit ---------------------------------------------------------------

    def _replay(self) -> tuple[TimelineRecorder, TimelineRecorder]:
        tc, row = self._cell()
        return tc.replay(row, self._gen)

    def valid_timeline(self) -> BooleanTimeline:
        """The recorded ``valid(perm, ·)`` state function up to the
        current time."""
        return self._replay()[0].freeze()

    def active_timeline(self) -> BooleanTimeline:
        """The recorded ``active(perm, ·)`` state function."""
        return self._replay()[1].freeze()

    @property
    def now(self) -> float:
        tc, row = self._cell()
        return float(tc.now.data[row])
