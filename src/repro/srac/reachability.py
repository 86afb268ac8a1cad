"""Coreachability — which monitor-product states can still reach
acceptance — and the report of the one SRAC cache that answers it.

The engine's grant-time test (``satisfiable_extension``: Eq. 3.1's
``check(P, C)`` with an undisclosed remaining program) asks whether any
word over the request alphabet drives a monitor-state vector to
acceptance.  :meth:`repro.srac.compiled.StateTable.live_mask` answers
it for every id of the full product at once (history-induced states
need not be reachable over the alphabet): one backward search from the
accepting ids over the table's columns of the alphabet's classes.  A
product over :data:`DEFAULT_STATE_BUDGET` states has no mask; callers
run the bounded BFS
(:meth:`~repro.srac.monitors.CompiledConstraint.reaches_acceptance`)
instead.

The state tables are that cache (:mod:`repro.srac.compiled`); its
report and reset are imported here, where the engine, the service and
the benchmarks read them.
"""

from repro.srac.compiled import (
    DEFAULT_STATE_BUDGET,
    CacheStats,
    cache_stats,
    clear_caches,
    reset_cache_stats,
)

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "CacheStats",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
]
