"""Per-constraint state tables: the one stepped form of a monitor product,
and the one SRAC cache.

:class:`~repro.srac.monitors.CompiledConstraint` holds a constraint's
product state as a tuple of small monitor states and advances it in
interpreted Python.  Outside this package the product state has one
form instead, an ``int`` **state id**: the tuple's mixed-radix code,
MSB first (``id = ((s_0·n_1 + s_1)·n_2 + s_2)…``, so monitor ``i`` has
stride ``Π_{j>i} n_j``).  A :class:`StateTable`, one per constraint,
steps ids and says which of them can still reach acceptance:

* :meth:`StateTable.step` reads the successor **column** of the
  access's class.  An access's class is the tuple of its monitors'
  labels (:meth:`~repro.srac.monitors.Monitor.label`: equal exactly
  when the monitor steps the accesses alike), so accesses of one class
  share one column, built from the monitors on first use and holding
  one 4-byte id per state.  Every access steps — there is no alphabet
  to fall out of.  A table keeps at most :data:`DEFAULT_CELL_BUDGET`
  column cells; past that (and for every access of a product wider
  than the budget) an access is stepped through the tuple monitors
  without a column.
* :meth:`StateTable.live_mask` is one byte per id, 1 where some word
  over the given universe drives the id to acceptance.  It is one
  backward search over the table's own columns, from the accepting
  ids, and it is interned per *set of classes* the universe steps
  through: universes no monitor tells apart share one mask.  A product
  over :data:`DEFAULT_STATE_BUDGET` states has no mask (``None``):
  callers step its id as any other and ask
  :meth:`StateTable.searches_to_acceptance`, the bounded search from
  the id's monitor vector, remembered per (class set, id).

Tables are interned process-wide per constraint by :func:`state_table`,
the only interning of a constraint in the process; one lock guards the
table cache and its counters (:func:`cache_stats`, :func:`clear_caches`,
also importable from :mod:`repro.srac.reachability`).  Two tables of
one constraint number its states alike, so they compare equal.  Every entry of a table's memos steps or answers correctly for
its key, and entries are inserted with ``setdefault``, so the shards of
a service share tables without a lock of their own.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from repro.srac.ast import Constraint
from repro.srac.monitors import CompiledConstraint, compile_constraint
from repro.traces.trace import AccessKey

__all__ = [
    "DEFAULT_CELL_BUDGET",
    "DEFAULT_STATE_BUDGET",
    "CacheStats",
    "StateTable",
    "cache_stats",
    "clear_caches",
    "reset_cache_stats",
    "state_table",
]

#: Products with more states than this get no live mask; their ids
#: are answered by the bounded search instead.
DEFAULT_STATE_BUDGET = 100_000

#: The most column cells (4 bytes each) one table keeps: 16 MB.
DEFAULT_CELL_BUDGET = 4_000_000

# Accesses a table remembers the column of, and over-budget verdicts it
# remembers; past it either memo is cleared wholesale (the columns
# stay, keyed by class).
_ACCESSES_MAX = 4096


class StateTable:
    """The state ids of one constraint's monitor product.

    Attributes
    ----------
    constraint, compiled:
        The source constraint and its monitor-vector form.
    sizes, strides:
        Each monitor's state count and its stride in the mixed radix.
    n_states:
        ``Π sizes``: every id in ``range(n_states)`` is a state (the
        full Cartesian product, which the live masks answer whole,
        since history-induced states need not be reachable over a
        request universe).
    initial:
        The id of the all-initial monitor vector.

    Tables hash as their constraint (computed once), so a dict keyed by
    tables keeps one entry per constraint, whichever table made it.
    """

    __slots__ = (
        "constraint",
        "compiled",
        "sizes",
        "strides",
        "n_states",
        "initial",
        "_hash",
        "_columns",
        "_classes",
        "_masks",
        "_accepting",
        "_searched",
    )

    def __init__(self, compiled: CompiledConstraint):
        self.constraint = compiled.constraint
        self.compiled = compiled
        self.sizes = tuple(m.size() for m in compiled.monitors)
        strides = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        self.n_states = compiled.state_space()
        self.initial = self.encode(compiled.initial())
        self._hash = hash(self.constraint)
        # access -> its class's column, or () once the cell budget is
        # spent; class (per-monitor labels) -> column; class set -> live
        # mask; (class set, id) -> over-budget verdict.
        self._columns: dict[AccessKey, array | tuple] = {}
        self._classes: dict[tuple, array] = {}
        self._masks: dict[frozenset[tuple], bytes] = {}
        self._accepting: np.ndarray | None = None
        self._searched: dict[tuple[frozenset[tuple], int], bool] = {}

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, StateTable) and self.constraint == other.constraint
        )

    def __hash__(self) -> int:
        return self._hash

    # -- the tuple codec ----------------------------------------------------

    def encode(self, states: tuple[int, ...]) -> int:
        """The id of a monitor-state vector."""
        return sum(s * stride for s, stride in zip(states, self.strides))

    def decode(self, state_id: int) -> tuple[int, ...]:
        """The monitor-state vector of an id."""
        return tuple(
            (state_id // stride) % size
            for stride, size in zip(self.strides, self.sizes)
        )

    # -- stepping -------------------------------------------------------------

    def step(self, state: int, access: AccessKey) -> int:
        """The id after ``access``: one read of the access's column."""
        column = self._columns.get(access)
        if column is None:
            column = self._column(access)
        if column:
            return column[state]
        return self.encode(
            self.compiled.step(self.decode(state), AccessKey(*access))
        )

    def fold(self, trace: Iterable[AccessKey]) -> int:
        """The id after ``trace`` from the initial id."""
        state = self.initial
        step = self.step
        for access in trace:
            state = step(state, access)
        return state

    def _label(self, access: AccessKey) -> tuple:
        """``access``'s class: its monitors' labels."""
        return tuple(monitor.label(access) for monitor in self.compiled.monitors)

    def _classes_of(self, universe: Iterable[AccessKey]) -> dict[tuple, AccessKey]:
        """An access of each class ``universe`` steps through."""
        return {self._label(key): key for key in map(AccessKey._make, universe)}

    def _column(self, access: AccessKey) -> array | tuple:
        """The column of ``access``'s class, built if no access of the
        class has been stepped yet, or ``()`` when the table's cells are
        spent."""
        key = AccessKey(*access)
        label = self._label(key)
        column = self._classes.get(label)
        if column is None:
            # Racing shards may each add one column past the budget.
            if (len(self._classes) + 1) * self.n_states > DEFAULT_CELL_BUDGET:
                column = ()
            else:
                column = self._classes.setdefault(label, self._new_column(key))
        if len(self._columns) >= _ACCESSES_MAX:
            self._columns.clear()
        return self._columns.setdefault(access, column)

    def _new_column(self, access: AccessKey) -> array:
        """Every id's successor under ``access``, monitor by monitor,
        MSB first: position prev·n_i + s holds the successor code
        prev_code + step_i(s)·stride_i."""
        ids = np.zeros(1, dtype=np.int64)
        for monitor, size, stride in zip(
            self.compiled.monitors, self.sizes, self.strides
        ):
            moved = np.fromiter(
                (monitor.step(s, access) for s in range(size)), np.int64, size
            )
            ids = (ids[:, None] + moved * stride).ravel()
        return array("i", ids.astype(np.int32).tobytes())

    # -- liveness -------------------------------------------------------------

    def live_mask(self, universe: Iterable[AccessKey]) -> bytes | None:
        """One byte per id: 1 where some word over ``universe`` drives
        the id to acceptance.  Interned per set of classes the universe
        steps through; ``None`` over the state budget."""
        if self.n_states > DEFAULT_STATE_BUDGET:
            _count("fallbacks")
            return None
        classes = self._classes_of(universe)
        key = frozenset(classes)
        mask = self._masks.get(key)
        if mask is not None:
            _count("reachability_hits")
            return mask
        _count("reachability_misses")
        return self._masks.setdefault(key, self._build_mask(classes))

    def searches_to_acceptance(
        self, state: int, universe: Iterable[AccessKey]
    ) -> bool:
        """The bounded search from ``state``'s monitor vector: the
        liveness of an id over the state budget, which has no mask.
        Remembered per (class set, id), since accesses of one class
        step every vector alike."""
        classes = self._classes_of(universe)
        key = (frozenset(classes), state)
        verdict = self._searched.get(key)
        if verdict is None:
            verdict = self.compiled.reaches_acceptance(
                self.decode(state), classes.values()
            )
            if len(self._searched) >= _ACCESSES_MAX:
                self._searched.clear()
            verdict = self._searched.setdefault(key, verdict)
        return verdict

    def _build_mask(self, classes: dict[tuple, AccessKey]) -> bytes:
        """The live mask over ``classes``' columns: a backward search
        from the accepting ids over each id's predecessors.  A column
        past the cell budget is built for the search and not kept."""
        n = self.n_states
        if self._accepting is None:
            self._accepting = self._accepting_ids()
        marks = np.zeros(n, dtype=np.uint8)
        marks[self._accepting] = 1
        live = bytearray(marks)
        frontier = self._accepting.tolist()
        if classes:
            # Predecessor lists as CSR: the (predecessor, successor)
            # edges of every column, self-loops dropped, sorted by
            # successor.
            successors = np.concatenate(
                [
                    np.frombuffer(self._column(a) or self._new_column(a), np.int32)
                    for a in classes.values()
                ]
            )
            predecessors = np.tile(np.arange(n, dtype=np.int32), len(classes))
            moved = successors != predecessors
            successors, predecessors = successors[moved], predecessors[moved]
            order = np.argsort(successors)
            starts = np.searchsorted(successors[order], np.arange(n + 1)).tolist()
            before = predecessors[order].tolist()
            while frontier:
                state = frontier.pop()
                for predecessor in before[starts[state] : starts[state + 1]]:
                    if not live[predecessor]:
                        live[predecessor] = 1
                        frontier.append(predecessor)
        return bytes(live)

    def _accepting_ids(self) -> np.ndarray:
        """Every id whose monitor vector satisfies the constraint: each
        monitor's acceptance bit gathered over the ids, and the
        skeleton decided on the bit arrays."""
        ids = np.arange(self.n_states)
        bits = [
            np.fromiter(map(monitor.accepting, range(size)), bool, size)[
                ids // stride % size
            ]
            for monitor, size, stride in zip(
                self.compiled.monitors, self.sizes, self.strides
            )
        ]
        verdicts = self.compiled.holds(bits)
        return np.flatnonzero(np.broadcast_to(verdicts, (self.n_states,)))


# -- the process-wide cache ---------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the SRAC cache: ``compile_*`` counts state tables
    served from / built into the cache, ``reachability_*`` live masks
    served / built, ``fallbacks`` live masks refused over the state
    budget, and ``live_sets`` the masks the interned tables hold."""

    compile_hits: int
    compile_misses: int
    reachability_hits: int
    reachability_misses: int
    fallbacks: int
    live_sets: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


# Keyed by constraint, cleared wholesale past the cap.  One lock guards
# the dict and the counters (named as the CacheStats fields they feed);
# tables are built outside it, and the first insert wins a race.
_TABLE_CACHE_MAX = 1024
_cache_lock = threading.Lock()
_tables: dict[Constraint, StateTable] = {}
_counts: Counter[str] = Counter()


def _count(name: str) -> None:
    with _cache_lock:
        _counts[name] += 1


def state_table(constraint: Constraint) -> StateTable:
    """The interned :class:`StateTable` of ``constraint``."""
    with _cache_lock:
        table = _tables.get(constraint)
        _counts["compile_misses" if table is None else "compile_hits"] += 1
    if table is not None:
        return table
    fresh = StateTable(compile_constraint(constraint))
    with _cache_lock:
        if len(_tables) >= _TABLE_CACHE_MAX:
            _tables.clear()
        return _tables.setdefault(constraint, fresh)


def cache_stats() -> CacheStats:
    """The counters, and the live masks the interned tables hold."""
    with _cache_lock:
        counts = {field.name: _counts[field.name] for field in fields(CacheStats)}
        counts["live_sets"] = sum(len(table._masks) for table in _tables.values())
        return CacheStats(**counts)


def reset_cache_stats() -> None:
    """Zero the counters; the tables and their masks stay."""
    with _cache_lock:
        _counts.clear()


def clear_caches() -> None:
    """Drop every interned table, with its columns and masks, and zero
    the counters: the big hammer for tests and policy hot-reloads."""
    with _cache_lock:
        _tables.clear()
        _counts.clear()
