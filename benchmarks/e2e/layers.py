"""Per-layer timing for the ``--trace`` run, measured from outside.

:class:`Tracer` replaces public functions of the program's layers with
timing wrappers (and restores them on :meth:`Tracer.uninstall`); the
program itself is unchanged.  Each wrapped call adds to per-thread
counters — calls, busy seconds, self seconds (busy minus the time its
wrapped children took), items and session groups — and the calls at a
layer boundary also record a span: id, name, start, end, thread,
parent (a thread-local stack) and the logical-time range of the work,
from which the request ids of the batch are recovered.  Spans stay in
memory and are written once, at exit.

:class:`Segments` adds the program's own counters (``service_stats``,
``shard_stats``, ``cache_stats``, the ``repro.obs`` registry) over the
traced stretches of a run and turns everything into the named
per-layer metrics.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
import repro.rbac.vector_engine as vector_engine
import repro.service.service as service_module
from repro.rbac.audit import AuditLog
from repro.rbac.engine import AccessControlEngine
from repro.rbac.session_store import ColumnTracker, SessionStore
from repro.service import ShardedEngine
from repro.temporal.validity import ValidityTracker

__all__ = ["Tracer", "Segments", "LAYERS"]

#: Spans kept in memory; later ones are counted, not stored (the
#: per-layer totals always cover every call).
MAX_SPANS = 200_000

#: Every per-layer metric: (unit, which direction is better), in report
#: order.  ``BENCHMARK.json`` lists the same names.
LAYERS = {
    "service.submit_us_per_req": ("us", "lower"),
    "service.mean_batch_size": ("count", "higher"),
    "service.batches": ("count", "lower"),
    "service.queue_wait_mean_ms": ("ms", "lower"),
    "service.queue_wait_max_ms": ("ms", "lower"),
    "service.decide_busy_s": ("s", "lower"),
    "service.worker_busy_share": ("fraction", "lower"),
    "service.rejected": ("count", "lower"),
    "service.errors": ("count", "lower"),
    "sharding.shard_imbalance": ("ratio", "lower"),
    "vector.sweep_calls": ("count", "lower"),
    "vector.sweep_busy_s": ("s", "lower"),
    "vector.sweep_self_s": ("s", "lower"),
    "vector.items_per_sweep": ("count", "higher"),
    "vector.sessions_per_sweep": ("count", "higher"),
    "vector.items_per_session_group": ("count", "higher"),
    "vector.prepare_busy_s": ("s", "lower"),
    "vector.commit_busy_s": ("s", "lower"),
    "vector.us_per_item": ("us", "lower"),
    "vector.fallback_share": ("fraction", "lower"),
    "engine.decide_calls": ("count", "lower"),
    "engine.decide_busy_s": ("s", "lower"),
    "engine.decide_explicit_share": ("fraction", "lower"),
    "engine.us_per_decide": ("us", "lower"),
    "engine.observe_calls": ("count", "lower"),
    "engine.observe_share": ("fraction", "lower"),
    "engine.candidate_hit_share": ("fraction", "higher"),
    "engine.live_hit_share": ("fraction", "higher"),
    "engine.open_sessions_s": ("s", "lower"),
    "session_store.bytes_per_session": ("B", "lower"),
    "session_store.resident": ("count", "higher"),
    "session_store.open_rate": ("1/s", "higher"),
    "session_store.monitor_reads": ("count", "lower"),
    "session_store.monitor_read_busy_s": ("s", "lower"),
    "srac.prewarm_s": ("s", "lower"),
    "srac.compile_misses": ("count", "lower"),
    "srac.reachability_misses": ("count", "lower"),
    "temporal.state_codes_calls": ("count", "lower"),
    "temporal.state_codes_busy_s": ("s", "lower"),
    "temporal.state_calls": ("count", "lower"),
    "temporal.state_busy_s": ("s", "lower"),
    "audit.record_busy_s": ("s", "lower"),
    "audit.retained": ("count", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "gc.pause_total_s": ("s", "lower"),
    "gc.pause_max_ms": ("ms", "lower"),
    "driver.late_p99_ms": ("ms", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}


# -- what each wrapper measures ----------------------------------------------
# An extent returns (items, session groups, first t, last t) of a call.


def _sweep_extent(args, kwargs):
    entries = args[1]
    if not entries:
        return 0, 0, None, None
    return (
        len(entries),
        len({id(entry[0]) for entry in entries}),
        entries[0][2],
        entries[-1][2],
    )


def _prepare_extent(args, kwargs):
    times = args[3]
    if not len(times):
        return 0, 0, None, None
    return len(times), 1, times[0], times[-1]


def _decide_extent(args, kwargs):
    t = args[3] if len(args) > 3 else kwargs["t"]
    return 1, 0, t, t


def _sized_extent(args, kwargs):
    try:
        return len(args[1]), 0, None, None
    except TypeError:
        return 0, 0, None, None


def _decide_name(args, kwargs):
    history = args[4] if len(args) > 4 else kwargs.get("history", ())
    return "engine.decide" if history is None else "engine.decide_explicit"


#: (owner, attribute, name or namer, records spans, extent)
TARGETS = (
    (service_module, "sweep_interleaved", "vector.sweep", True, _sweep_extent),
    (vector_engine, "prepare_sweep", "vector.prepare", False, _prepare_extent),
    (vector_engine, "commit_sweep", "vector.commit", False, None),
    (AccessControlEngine, "decide", _decide_name, True, _decide_extent),
    (AccessControlEngine, "observe", "engine.observe", True, None),
    (ShardedEngine, "open_sessions", "engine.open_sessions", True, _sized_extent),
    (ShardedEngine, "prewarm", "srac.prewarm", True, None),
    (SessionStore, "monitor_state_id", "session_store.monitor_read", False, None),
    (SessionStore, "monitor_entry", "session_store.monitor_read", False, None),
    (ValidityTracker, "state", "temporal.state", False, None),
    (ColumnTracker, "state", "temporal.state", False, None),
    (ValidityTracker, "state_codes_at", "temporal.state_codes", False, None),
    (ColumnTracker, "state_codes_at", "temporal.state_codes", False, None),
    (AuditLog, "record", "audit.record", False, None),
    (AuditLog, "record_many", "audit.record", False, None),
)


class Tracer:
    """Timing wrappers around the program's layer functions."""

    def __init__(self, times: np.ndarray):
        #: The stream's logical instants (request id = position).
        self.times = times
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.origin = time.perf_counter()
        self._gc_started = 0.0
        self.gc = {"gen2": 0, "pause_s": 0.0, "pause_max_s": 0.0}

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, span, extent in TARGETS:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, span, extent))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        self.gc["pause_s"] += pause
        self.gc["pause_max_s"] = max(self.gc["pause_max_s"], pause)
        if info["generation"] == 2:
            self.gc["gen2"] += 1

    # -- the wrapper -----------------------------------------------------

    def _thread_state(self) -> None:
        local = self._local
        local.stack = []
        local.stats = {}
        with self._lock:
            self._thread_stats.append(local.stats)

    def _wrap(self, name, fn, records_span: bool, extent):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            if not hasattr(local, "stack"):
                tracer._thread_state()
            stack = local.stack
            # frame: [seconds covered by wrapped children, span id]
            frame = [0.0, next(tracer._ids) if records_span else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][0] += busy
                label = name(args, kwargs) if callable(name) else name
                stat = local.stats.get(label)
                if stat is None:
                    # calls, busy, self, items, groups
                    stat = local.stats[label] = [0, 0.0, 0.0, 0, 0]
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[0]
                t_lo = t_hi = None
                if extent is not None:
                    items, groups, t_lo, t_hi = extent(args, kwargs)
                    stat[3] += items
                    stat[4] += groups
                if records_span:
                    tracer._record(frame, label, start, end, stack, t_lo, t_hi)

        return wrapper

    def _record(self, frame, label, start, end, stack, t_lo, t_hi) -> None:
        if len(self.spans) >= MAX_SPANS:
            with self._lock:
                self.dropped_spans += 1
            return
        parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
        self.spans.append(
            (
                frame[1], label, start, end, threading.get_ident(), parent,
                end - start - frame[0], t_lo, t_hi,
            )
        )

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (call only while no wrapped code runs)."""
        with self._lock:
            for stats in self._thread_stats:
                stats.clear()
        self.gc = {"gen2": 0, "pause_s": 0.0, "pause_max_s": 0.0}

    def totals(self) -> dict[str, list]:
        """Per-name ``[calls, busy_s, self_s, items, groups]`` summed
        over threads."""
        out: dict[str, list] = {}
        with self._lock:
            snapshot = [dict(stats) for stats in self._thread_stats]
        for stats in snapshot:
            for label, stat in stats.items():
                acc = out.setdefault(label, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(stat):
                    acc[i] += value
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as rows (times in ms from tracer creation), with the
        request-id range each covers."""
        times = self.times
        rows = []
        for sid, label, start, end, thread, parent, self_s, t_lo, t_hi in self.spans:
            req = (
                [int(np.searchsorted(times, t_lo)), int(np.searchsorted(times, t_hi))]
                if t_lo is not None
                else None
            )
            rows.append(
                [
                    sid, label,
                    round((start - self.origin) * 1e3, 6),
                    round((end - self.origin) * 1e3, 6),
                    round(self_s * 1e3, 6),
                    thread, parent, req,
                ]
            )
        path.write_text(
            json.dumps(
                {
                    "fields": [
                        "id", "name", "start_ms", "end_ms", "self_ms",
                        "thread", "parent", "requests",
                    ],
                    "dropped": self.dropped_spans,
                    "spans": rows,
                }
            )
        )


class Segments:
    """The program's own counters over the traced stretches of a run."""

    def __init__(self, stack, client, tracer: Tracer):
        self.stack = stack
        self.client = client
        self.tracer = tracer
        self.sums: dict[str, float] = {}
        self.wall_s = 0.0
        self._before: dict | None = None
        self._started = 0.0

    def _counters(self) -> dict[str, float]:
        stats = self.stack.service.service_stats()
        cache = self.stack.engine.cache_stats()
        out = {
            "batches": stats.batches,
            "batched_requests": stats.batched_requests,
            "rejected": stats.rejected,
            "errors": stats.errors,
            "vector_decisions": stats.vector_decisions,
            "vector_fallbacks": stats.vector_fallbacks,
            "candidate_hits": cache.candidate_hits,
            "candidate_misses": cache.candidate_misses,
            "live_hits": cache.live_hits,
            "live_fallbacks": cache.live_fallbacks,
            "compile_misses": cache.srac.compile_misses,
            "reachability_misses": cache.srac.reachability_misses,
            "submit_s": self.client.submit_s,
            "submitted": self.client.submitted,
        }
        for row in self.stack.engine.shard_stats():
            out[f"shard.{row['shard']}"] = row["decisions"]
        return out

    def begin(self) -> None:
        """Start a traced stretch (the service must be drained)."""
        self._before = self._counters()
        self.tracer.install()
        obs.enable()
        self._started = time.perf_counter()

    def end(self) -> None:
        self.wall_s += time.perf_counter() - self._started
        obs.disable()
        self.tracer.uninstall()
        after = self._counters()
        for key, value in after.items():
            self.sums[key] = self.sums.get(key, 0) + value - self._before[key]
        self._before = None

    def metrics(self, setup: dict[str, list], late_p99_ms: float, overhead: float) -> dict:
        """Every :data:`LAYERS` metric; ``setup`` holds the tracer
        totals from before the traced stretches (set-up, warm-up)."""
        s = self.sums
        t = self.tracer.totals()
        zero = [0, 0.0, 0.0, 0, 0]

        def calls(name, source=t):
            return source.get(name, zero)[0]

        def busy(name, source=t):
            return source.get(name, zero)[1]

        def ratio(num, den):
            return num / den if den else 0.0

        snapshot = obs.REGISTRY.snapshot()
        queue_count = queue_sum = queue_max = decide_s = 0.0
        for key, hist in snapshot["histograms"].items():
            if key.startswith("service.queue_wait_s{") and hist["count"]:
                queue_count += hist["count"]
                queue_sum += hist["sum"]
                queue_max = max(queue_max, hist["max"])
            elif key.startswith("service.decide_s{"):
                decide_s += hist["sum"]
        collected = snapshot.get("collected", {})
        resident = collected.get("engine.sessions.resident", 0.0)
        shards = np.array(
            [v for k, v in s.items() if k.startswith("shard.")], dtype=float
        )
        sweep = t.get("vector.sweep", zero)
        decide = [a + b for a, b in zip(
            t.get("engine.decide", zero), t.get("engine.decide_explicit", zero)
        )]
        opened = setup.get("engine.open_sessions", zero)
        workers = self.stack.service.workers
        retained = sum(row["decisions"] for row in self.stack.engine.shard_stats())
        return {
            "service.submit_us_per_req": ratio(s["submit_s"], s["submitted"]) * 1e6,
            "service.mean_batch_size": ratio(s["batched_requests"], s["batches"]),
            "service.batches": s["batches"],
            "service.queue_wait_mean_ms": ratio(queue_sum, queue_count) * 1e3,
            "service.queue_wait_max_ms": queue_max * 1e3,
            "service.decide_busy_s": decide_s,
            "service.worker_busy_share": ratio(decide_s, workers * self.wall_s),
            "service.rejected": s["rejected"],
            "service.errors": s["errors"],
            "sharding.shard_imbalance": ratio(shards.max(), shards.mean()) if len(shards) else 0.0,
            "vector.sweep_calls": sweep[0],
            "vector.sweep_busy_s": sweep[1],
            "vector.sweep_self_s": sweep[2],
            "vector.items_per_sweep": ratio(sweep[3], sweep[0]),
            "vector.sessions_per_sweep": ratio(sweep[4], sweep[0]),
            "vector.items_per_session_group": ratio(sweep[3], sweep[4]),
            "vector.prepare_busy_s": busy("vector.prepare"),
            "vector.commit_busy_s": busy("vector.commit"),
            "vector.us_per_item": ratio(sweep[1], sweep[3]) * 1e6,
            "vector.fallback_share": ratio(
                s["vector_fallbacks"], s["vector_decisions"] + s["vector_fallbacks"]
            ),
            "engine.decide_calls": decide[0],
            "engine.decide_busy_s": decide[1],
            # Shares, not busy seconds: a workload without explicit
            # histories or executions would read a constant 0 s.
            "engine.decide_explicit_share": ratio(
                busy("engine.decide_explicit"), decide[1]
            ),
            "engine.us_per_decide": ratio(decide[1], decide[0]) * 1e6,
            "engine.observe_calls": calls("engine.observe"),
            "engine.observe_share": ratio(
                busy("engine.observe"), decide[1] + busy("engine.observe")
            ),
            "engine.candidate_hit_share": ratio(
                s["candidate_hits"], s["candidate_hits"] + s["candidate_misses"]
            ),
            "engine.live_hit_share": ratio(
                s["live_hits"], s["live_hits"] + s["live_fallbacks"]
            ),
            "engine.open_sessions_s": opened[1],
            "session_store.bytes_per_session": ratio(
                collected.get("engine.sessions.store_bytes", 0.0), resident
            ),
            "session_store.resident": resident,
            "session_store.open_rate": ratio(opened[3], opened[1]),
            "session_store.monitor_reads": calls("session_store.monitor_read"),
            "session_store.monitor_read_busy_s": busy("session_store.monitor_read"),
            "srac.prewarm_s": busy("srac.prewarm", setup),
            "srac.compile_misses": s["compile_misses"],
            "srac.reachability_misses": s["reachability_misses"],
            "temporal.state_codes_calls": calls("temporal.state_codes"),
            "temporal.state_codes_busy_s": busy("temporal.state_codes"),
            "temporal.state_calls": calls("temporal.state"),
            "temporal.state_busy_s": busy("temporal.state"),
            "audit.record_busy_s": busy("audit.record"),
            "audit.retained": retained,
            "gc.gen2_collections": self.tracer.gc["gen2"],
            "gc.pause_total_s": self.tracer.gc["pause_s"],
            "gc.pause_max_ms": self.tracer.gc["pause_max_s"] * 1e3,
            "driver.late_p99_ms": late_p99_ms,
            "trace.overhead_share": overhead,
        }
