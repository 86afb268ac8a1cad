"""The process-global metrics registry.

Three instrument kinds, Prometheus-flavoured but dependency-free:

* :class:`Counter` — monotone ``inc``;
* :class:`Gauge` — ``set`` / ``add`` of a current value;
* :class:`Histogram` — ``observe`` with count/sum/min/max and optional
  fixed bucket bounds (omit the bounds on hot paths — the bucketless
  histogram is a handful of float updates under one lock).

Instruments are keyed by ``(name, labels)`` and created on demand;
**call sites are expected to pre-bind the instrument handle** (one
registry lookup at construction time) so the per-event cost is a
single ``inc``/``observe`` — one striped lock plus a few arithmetic
ops.  The lock array is a :class:`~repro.concurrency.LockStripe`
indexed by instrument name, so unrelated subsystems never serialise on
each other.

Components whose counters are already mutated under an exclusive lock
of their own (the access-control engine runs under its shard lock) can
avoid even that by registering a **collector** — a zero-argument
callable returning ``{metric_name: value}`` that the registry invokes
at :meth:`~MetricsRegistry.snapshot` time.  The registry holds each
collector, and so its owner, until the owner's ``close()`` calls
:meth:`~MetricsRegistry.unregister_collector`, which folds the final
values in: counters keep counting in later snapshots, while the names
in :data:`COLLECTED_GAUGES` (current values) end with their owner.
Collected values of one name are summed across collectors, except the
names in :data:`COLLECTED_MAXIMA` (combined by ``max``).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Mapping

from repro.concurrency import LockStripe

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY"]

#: Default histogram bucket upper bounds (seconds-flavoured latencies).
DEFAULT_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


#: Collected names that are current values of their owner (resident
#: sessions and those owning a store cell, queued proofs, the
#: membership epoch): combined over registered collectors only, never
#: kept from an unregistered one.
COLLECTED_GAUGES = frozenset({
    "engine.sessions.resident", "engine.sessions.store_bytes",
    "engine.sessions.own_cells", "proofbatch.pending", "proofbatch.parked",
    "coalition.membership_epoch",
})

#: Collected names combined by ``max`` rather than summed.
COLLECTED_MAXIMA = frozenset({"engine.decide.max_s", "coalition.membership_epoch"})


def _combine(into: dict[str, float], name: str, value: float) -> None:
    """Fold one collected value into ``into`` (max or sum by name)."""
    if name in into and name in COLLECTED_MAXIMA:
        into[name] = max(into[name], value)
    else:
        into[name] = into.get(name, 0) + value


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotone counter."""

    __slots__ = ("name", "labels", "_lock", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...], lock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self.value += n

    def _reset(self) -> None:
        self.value = 0

    def _export(self) -> int | float:
        return self.value


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "labels", "_lock", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...], lock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def _reset(self) -> None:
        self.value = 0.0

    def _export(self) -> float:
        return self.value


class Histogram:
    """Count / sum / min / max plus optional cumulative buckets.

    ``buckets=()`` (the default through
    :meth:`MetricsRegistry.histogram` with ``buckets=None``… passing an
    explicit tuple opts in) skips the bisect entirely — the right
    choice on hot paths where only the moment statistics are wanted.
    """

    __slots__ = (
        "name", "labels", "_lock", "bounds", "bucket_counts",
        "count", "total", "min", "max",
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        lock,
        bounds: tuple[float, ...] = (),
    ):
        self.name = name
        self.labels = labels
        self._lock = lock
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self.bounds:
                self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def _reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _export(self) -> dict:
        out: dict = {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        if self.bounds:
            out["buckets"] = {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
            }
        return out


class MetricsRegistry:
    """Instrument factory + snapshot surface.

    One process-global instance (:data:`REGISTRY`) serves the whole
    tree; tests that want isolation construct their own.
    """

    def __init__(self, stripes: int = 16):
        self._stripe = LockStripe(stripes)
        self._table_lock = threading.Lock()
        self._instruments: dict[tuple[str, str, tuple], object] = {}
        self._collectors: list[Callable[[], Mapping[str, float]]] = []
        # Final values of unregistered collectors, so snapshots stay
        # monotone across short-lived engines/batchers/simulations.
        self._absorbed: dict[str, float] = {}

    # -- instrument factories ----------------------------------------------

    def _get(self, kind: str, cls, name: str, labels: Mapping[str, str], *args):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._table_lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(
                        name, key[2], self._stripe.lock_for(name), *args
                    )
                    self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: str,
    ) -> Histogram:
        bounds = () if buckets is None else tuple(sorted(buckets))
        return self._get("histogram", Histogram, name, labels, bounds)

    # -- collectors ---------------------------------------------------------

    def register_collector(self, fn: Callable[[], Mapping[str, float]]) -> None:
        """Register a pull-time metrics source.  The registry holds
        ``fn`` (and a bound method's owner) until
        :meth:`unregister_collector`."""
        with self._table_lock:
            self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[[], Mapping[str, float]]) -> None:
        """Stop pulling ``fn`` and fold its final values into the
        registry's totals, so the counters it contributed survive it;
        its gauges (:data:`COLLECTED_GAUGES`) end with it.  A collector
        that is not registered is ignored, so an owner's ``close()``
        may run twice."""
        final = fn()
        with self._table_lock:
            if fn not in self._collectors:
                return
            self._collectors.remove(fn)
            for k, v in final.items():
                if k not in COLLECTED_GAUGES:
                    _combine(self._absorbed, k, v)

    def collectors(self) -> list[Callable[[], Mapping[str, float]]]:
        """The registered collectors, oldest first (a copy)."""
        with self._table_lock:
            return list(self._collectors)

    # -- snapshot / reset -----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict export: ``counters`` / ``gauges`` / ``histograms``
        keyed by ``name{label=value,…}``, plus every collector's pulled
        values under ``collected``."""
        with self._table_lock:
            items = list(self._instruments.items())
            collectors = list(self._collectors)
            collected: dict[str, float] = dict(self._absorbed)
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (kind, name, labels), instrument in sorted(
            items, key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            out[kind + "s"][_render(name, labels)] = instrument._export()
        for fn in collectors:
            try:
                pulled = fn()
            except Exception:  # pragma: no cover - defensive
                continue
            # Every shard of a ShardedEngine exports the same names, and
            # the fleet-wide total (or maximum) is wanted.
            for k, v in pulled.items():
                _combine(collected, k, v)
        if collected:
            out["collected"] = dict(sorted(collected.items()))
        return out

    def reset(self) -> None:
        """Zero every instrument (instances stay bound at call sites)
        and drop the totals of unregistered collectors; registered
        collectors are pull-time views and stay registered (their
        owners' counters are theirs to reset)."""
        with self._table_lock:
            items = list(self._instruments.values())
            self._absorbed.clear()
        for instrument in items:
            with instrument._lock:
                instrument._reset()


#: The process-global registry all built-in instrumentation binds to.
REGISTRY = MetricsRegistry()
