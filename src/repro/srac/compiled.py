"""Per-constraint state tables: the one stepped form of a monitor product.

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
  over the given universe drives the id to acceptance.  It is built
  from the :mod:`repro.srac.reachability` coreachability fixpoint — no
  second liveness algorithm — and interned per universe on the table.
  A product over :data:`~repro.srac.reachability.DEFAULT_STATE_BUDGET`
  states has no mask (``None``): callers step its id as any other and
  ask :meth:`StateTable.searches_to_acceptance`, the bounded search
  from the id's monitor vector.

Tables are interned process-wide per constraint by :func:`state_table`,
like the compile cache they build on, and
:func:`repro.srac.reachability.clear_caches` drops them.  Two tables of
one constraint number its states alike, so they compare equal.  Every
entry of a table's memos steps or answers correctly for its key, and
entries are inserted with ``setdefault``, so the shards of a service
share tables without a lock of their own.
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable

import numpy as np

from repro.srac.ast import Constraint
from repro.srac.checker import satisfiable_extension_states
from repro.srac.monitors import CompiledConstraint, compile_constraint
from repro.srac.reachability import DEFAULT_STATE_BUDGET, _compute_live
from repro.traces.trace import AccessKey

__all__ = [
    "DEFAULT_CELL_BUDGET",
    "StateTable",
    "state_table",
    "clear_table_cache",
    "table_cache_counters",
]

#: The most column cells (4 bytes each) one table keeps: 16 MB.
DEFAULT_CELL_BUDGET = 4_000_000

# Accesses a table remembers the column of; past it the index is
# cleared wholesale (the columns stay, keyed by class).
_ACCESSES_MAX = 4096


class StateTable:
    """The state ids of one constraint's monitor product.

    Attributes
    ----------
    constraint, compiled:
        The source constraint and its interned monitor-vector form.
    sizes, strides:
        Each monitor's state count and its stride in the mixed radix.
    n_states:
        ``Π sizes``: every id in ``range(n_states)`` is a state (the
        full Cartesian product, as the coreachability fixpoint
        enumerates it, since history-induced states need not be
        reachable over a request universe).
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
        # spent; class (per-monitor labels) -> column.
        self._columns: dict[AccessKey, array | tuple] = {}
        self._classes: dict[tuple, array] = {}
        self._masks: dict[frozenset[AccessKey], bytes] = {}

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

    def _column(self, access: AccessKey) -> array | tuple:
        """The column of ``access``'s class, built if no access of the
        class has been stepped yet, or ``()`` when the table's cells are
        spent."""
        key = AccessKey(*access)
        monitors = self.compiled.monitors
        label = tuple(monitor.label(key) for monitor in monitors)
        column = self._classes.get(label)
        if column is None:
            # Racing shards may each add one column past the budget.
            if (len(self._classes) + 1) * self.n_states > DEFAULT_CELL_BUDGET:
                column = ()
            else:
                # Monitor by monitor, MSB first: position prev·n_i + s
                # holds the successor code prev_code + step_i(s)·stride_i.
                ids = np.zeros(1, dtype=np.int64)
                for monitor, size, stride in zip(
                    monitors, self.sizes, self.strides
                ):
                    moved = np.fromiter(
                        (monitor.step(s, key) for s in range(size)),
                        np.int64,
                        size,
                    )
                    ids = (ids[:, None] + moved * stride).ravel()
                column = self._classes.setdefault(
                    label, array("i", ids.astype(np.int32).tobytes())
                )
        if len(self._columns) >= _ACCESSES_MAX:
            self._columns.clear()
        return self._columns.setdefault(access, column)

    # -- liveness -------------------------------------------------------------

    def live_mask(self, universe: Iterable[AccessKey]) -> bytes | None:
        """One byte per id: 1 where some word over ``universe`` drives
        the id to acceptance.  Interned per universe; ``None`` over the
        state budget."""
        global _table_hits, _table_misses, _table_fallbacks
        if self.n_states > DEFAULT_STATE_BUDGET:
            with _cache_lock:
                _table_fallbacks += 1
            return None
        key = frozenset(universe)
        mask = self._masks.get(key)
        if mask is not None:
            with _cache_lock:
                _table_hits += 1
            return mask
        with _cache_lock:
            _table_misses += 1
        return self._masks.setdefault(key, self._build_mask(key))

    def searches_to_acceptance(
        self, state: int, universe: Iterable[AccessKey]
    ) -> bool:
        """The bounded search from ``state``'s monitor vector: the
        liveness of an id over the state budget, which has no mask."""
        return satisfiable_extension_states(
            self.compiled, self.decode(state), tuple(universe), use_cache=False
        )

    def _build_mask(self, universe: Iterable[AccessKey]) -> bytes:
        """The live mask, from one run of the coreachability fixpoint;
        only the mask is kept."""
        live = _compute_live(self.compiled, [AccessKey(*a) for a in universe])
        mask = np.zeros(self.n_states, dtype=np.uint8)
        if live:
            vectors = np.array(list(live), dtype=np.int64)
            mask[vectors @ np.asarray(self.strides, dtype=np.int64)] = 1
        return mask.tobytes()


# Process-level table cache, same discipline as the compile and
# live-set caches: keyed by constraint, guarded by a lock, cleared
# wholesale past the cap.
_TABLE_CACHE_MAX = 1024
_cache_lock = threading.Lock()
_table_cache: dict[Constraint, StateTable] = {}
_table_hits = 0
_table_misses = 0
_table_fallbacks = 0


def state_table(constraint: Constraint) -> StateTable:
    """The interned :class:`StateTable` of ``constraint``."""
    global _table_hits, _table_misses
    with _cache_lock:
        table = _table_cache.get(constraint)
        if table is not None:
            _table_hits += 1
            return table
        _table_misses += 1
    fresh = StateTable(compile_constraint(constraint))
    with _cache_lock:
        if len(_table_cache) >= _TABLE_CACHE_MAX:
            _table_cache.clear()
        return _table_cache.setdefault(constraint, fresh)


def clear_table_cache() -> None:
    """Drop every interned table and zero the counters."""
    global _table_hits, _table_misses, _table_fallbacks
    with _cache_lock:
        _table_cache.clear()
        _table_hits = 0
        _table_misses = 0
        _table_fallbacks = 0


def table_cache_counters() -> tuple[int, int, int, int]:
    """``(hits, misses, fallbacks, entries)``: tables and live masks
    served from / added to the cache, live masks refused over the state
    budget, and interned tables."""
    with _cache_lock:
        return _table_hits, _table_misses, _table_fallbacks, len(_table_cache)
