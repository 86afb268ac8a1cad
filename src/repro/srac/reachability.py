"""Coreachability precomputation over the monitor product.

The engine's grant-time test (``satisfiable_extension`` — Eq. 3.1's
``check(P, C)`` with an undisclosed remaining program) asks: *from this
monitor-state vector, can any word over the request alphabet reach an
accepting vector?*  The baseline answers with a fresh BFS per decision.
This module answers it once per ``(constraint, alphabet)``:

1. **Forward pass** — enumerate the monitor product's state graph.  The
   full Cartesian product ``Π range(monitor_i.size())`` is used rather
   than only the states forward-reachable from the initial vector,
   because queries start from *history-induced* states: an observed
   history may contain accesses outside the request alphabet (e.g. a
   counting selection matches servers the constraint never names), so
   the query state need not be alphabet-reachable from the start.
2. **Backward pass** — a fixpoint over the reversed transition relation
   from the accepting vectors yields the **coreachable ("live") set**:
   exactly the states from which some word over the alphabet reaches
   acceptance.

The engine reads that set as a byte mask over state ids
(:meth:`repro.srac.compiled.StateTable.live_mask`), built from one run
of the same fixpoint and kept as the mask alone;
``satisfiable_states(compiled, states, alphabet)`` is the library's
membership form of the set, served from :func:`live_set`'s cache.
Products larger than ``state_budget`` are not enumerated; the call
returns ``None`` and the caller falls back to the bounded BFS
(``repro.srac.checker.satisfiable_extension_states`` with
``use_cache=False``), preserving the polynomial-fragment safety valve.
The budget is checked before the cache and an over-budget answer is
never cached, so each caller's budget decides for that caller alone.

Live sets are cached process-wide per ``(constraint, alphabet)``; the
:class:`CacheStats` counters (compile hits/misses, reachability
hits/misses, fallbacks) feed the engine's ``cache_stats()`` report and
``benchmarks/bench_decision_cache.py``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.srac.ast import Constraint
from repro.srac.monitors import (
    CompiledConstraint,
    clear_compile_cache,
    compile_cache_counters,
)
from repro.traces.trace import AccessKey

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "CacheStats",
    "live_set",
    "satisfiable_states",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
]

#: Products with more monitor-state vectors than this are not
#: precomputed; queries fall back to the per-decision BFS.
DEFAULT_STATE_BUDGET = 100_000

_LIVE_CACHE_MAX = 4096

# (constraint, frozenset(alphabet)) -> live frozenset.  Shared by every
# engine shard in the process (repro.service), so lookups, insertions
# and counter updates are guarded by _cache_lock; the fixpoint itself
# runs outside the lock (it is a pure function of its key, so a racing
# duplicate computation is wasted work, never wrong).
_cache_lock = threading.Lock()
_live_cache: dict[
    tuple[Constraint, frozenset[AccessKey]], frozenset[tuple[int, ...]]
] = {}
_reach_hits = 0
_reach_misses = 0
_fallbacks = 0


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the SRAC caching layers.

    ``compile_*`` counts the interned ``compile_constraint`` cache;
    ``reachability_hits``/``misses`` count live-set queries answered
    from / freshly added to the live cache; ``fallbacks`` counts
    queries whose product exceeded the state budget (answered by BFS);
    ``live_sets`` is the number of cached ``(constraint, alphabet)``
    entries.
    """

    compile_hits: int
    compile_misses: int
    reachability_hits: int
    reachability_misses: int
    fallbacks: int
    live_sets: int

    def as_dict(self) -> dict[str, int]:
        return {
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "reachability_hits": self.reachability_hits,
            "reachability_misses": self.reachability_misses,
            "fallbacks": self.fallbacks,
            "live_sets": self.live_sets,
        }


def _canonical(alphabet: Iterable[AccessKey | tuple[str, str, str]]) -> tuple[AccessKey, ...]:
    return tuple(dict.fromkeys(AccessKey(*a) for a in alphabet))


def _compute_live(
    compiled: CompiledConstraint, symbols: Sequence[AccessKey]
) -> frozenset[tuple[int, ...]]:
    """One forward + backward fixpoint over the full monitor product."""
    states = list(
        itertools.product(*(range(m.size()) for m in compiled.monitors))
    )
    # Forward: materialise the transition graph, reversed as we go.
    predecessors: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    accepting: list[tuple[int, ...]] = []
    for state in states:
        if compiled.evaluate(state):
            accepting.append(state)
        for symbol in symbols:
            successor = compiled.step(state, symbol)
            predecessors.setdefault(successor, []).append(state)
    # Backward: coreachability fixpoint from the accepting vectors.
    live: set[tuple[int, ...]] = set(accepting)
    frontier = list(accepting)
    while frontier:
        state = frontier.pop()
        for predecessor in predecessors.get(state, ()):
            if predecessor not in live:
                live.add(predecessor)
                frontier.append(predecessor)
    return frozenset(live)


def live_set(
    compiled: CompiledConstraint,
    alphabet: Sequence[AccessKey | tuple[str, str, str]],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> frozenset[tuple[int, ...]] | None:
    """The coreachable-to-acceptance set of ``compiled`` over
    ``alphabet``, or ``None`` when the product exceeds ``state_budget``
    (callers must then fall back to the BFS).  Cached per
    ``(constraint, alphabet)``.
    """
    global _reach_hits, _reach_misses, _fallbacks
    if compiled.state_space() > state_budget:
        with _cache_lock:
            _fallbacks += 1
        return None
    symbols = _canonical(alphabet)
    key = (compiled.constraint, frozenset(symbols))
    with _cache_lock:
        cached = _live_cache.get(key)
        if cached is not None:
            _reach_hits += 1
            return cached
        _reach_misses += 1
    live = _compute_live(compiled, symbols)
    with _cache_lock:
        if len(_live_cache) >= _LIVE_CACHE_MAX:
            _live_cache.clear()
        return _live_cache.setdefault(key, live)


def satisfiable_states(
    compiled: CompiledConstraint,
    states: tuple[int, ...],
    alphabet: Sequence[AccessKey | tuple[str, str, str]],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool | None:
    """Membership-lookup form of the extension-satisfiability test:
    ``True``/``False`` when the live set is (or can be) precomputed,
    ``None`` when the product exceeds the budget — identical verdicts
    to the BFS wherever it answers (property-tested).
    """
    live = live_set(compiled, alphabet, state_budget)
    return None if live is None else states in live


def cache_stats() -> CacheStats:
    """Combined snapshot of the compile and reachability caches."""
    hits, misses, _entries = compile_cache_counters()
    with _cache_lock:
        return CacheStats(
            compile_hits=hits,
            compile_misses=misses,
            reachability_hits=_reach_hits,
            reachability_misses=_reach_misses,
            fallbacks=_fallbacks,
            live_sets=len(_live_cache),
        )


def reset_cache_stats() -> None:
    """Zero the reachability counters (cache contents are kept)."""
    global _reach_hits, _reach_misses, _fallbacks
    with _cache_lock:
        _reach_hits = 0
        _reach_misses = 0
        _fallbacks = 0


def clear_caches() -> None:
    """Drop every process-level cache (compile, live sets, state
    tables) and all counters — the big hammer for tests and policy
    hot-reloads."""
    with _cache_lock:
        _live_cache.clear()
    reset_cache_stats()
    clear_compile_cache()
    # Local import: repro.srac.compiled builds on this module, so the
    # table cache is cleared through it rather than imported at the top.
    from repro.srac.compiled import clear_table_cache

    clear_table_cache()
