"""Batched cross-server execution-proof propagation.

"When an access request to a shared resource is executed by a
coalition server, a execution proof will be issued to the mobile
object" (Section 2) — and authorization at the *next* server depends on
proofs of what the agent did elsewhere.  The naive realisation
announces every proof to every other server with one synchronous call
per access; under heavy traffic that is O(accesses × servers) delivery
calls on the hot path.

:class:`ProofBatch` coalesces announcements per destination server and
flushes them **latency-model-aware**: a batch destined for server *d*
becomes deliverable only once the coalition's migration latency from
its earliest entry's source has elapsed — proofs cannot outrun the
network that carries them — and until then further proofs pile into
the same batch for free.  A full batch (``max_batch``) flushes
immediately; an explicit :meth:`flush` delivers everything outstanding
(tests and simulation shutdown).

Deliveries travel through a **transport**.  The default
(:class:`~repro.faults.transport.DirectTransport`) always succeeds and
lands the batch in the destination's announced-proof ledger
(:meth:`repro.coalition.server.CoalitionServer.receive_proofs`).  A
:class:`~repro.faults.transport.FaultyTransport` can drop deliveries
or find the destination down; the batcher then re-queues the batch and
retries it on the :class:`~repro.faults.retry.RetryPolicy`'s
deterministic backoff schedule.  A batch whose retries are exhausted
(or whose per-delivery deadline has passed) is **parked**: it stays
pending but is no longer retried by :meth:`flush_due` — only an
explicit :meth:`flush` (the post-heal drain) gives it a fresh round of
attempts, so a dead destination cannot consume retry bandwidth
forever, yet no proof is ever silently discarded.

The batcher tracks **dynamic membership**: it subscribes to the
coalition's membership events instead of freezing the topology.  A
join adds a destination slot (the joiner's proof state is bootstrapped
by the coalition's sync handshake, so only post-join proofs flow
through the batcher), a graceful leave gets one final hand-off
delivery attempt before its remaining batch is dropped, and an
eviction drops the evictee's batch unattempted *and* purges every
pending proof the evictee issued — stale proofs must not reach the
survivors' ledgers.
"""

from __future__ import annotations

import threading
import time

from repro.coalition.network import Coalition, MembershipEvent
from repro.coalition.proofs import ExecutionProof
from repro.errors import ServiceError
from repro.faults.retry import RetryPolicy
from repro.obs import OBS, RECORDER, REGISTRY

__all__ = ["ProofBatch"]


class ProofBatch:
    """Coalesced, latency-aware proof announcement for one coalition.

    Parameters
    ----------
    coalition:
        The batcher subscribes to its membership events, so the cached
        destination list follows joins/leaves/evictions/merges; the
        coalition may stay mutable (``Coalition.freeze`` remains
        available for static deployments but is no longer required).
    max_batch:
        A destination's pending batch flushes as soon as it reaches
        this many proofs, regardless of latency (unless the
        destination is mid-backoff — overflow never preempts the retry
        schedule).
    transport:
        The delivery hop; default is the always-successful
        :class:`~repro.faults.transport.DirectTransport`.
    retry:
        Backoff schedule for failed deliveries; defaults to
        ``RetryPolicy()`` when a custom transport is supplied.
    """

    def __init__(
        self,
        coalition: Coalition,
        max_batch: int = 32,
        transport=None,
        retry: RetryPolicy | None = None,
    ):
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.coalition = coalition
        self.max_batch = max_batch
        if transport is None:
            from repro.faults.transport import DirectTransport

            transport = DirectTransport(coalition)
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self._servers = tuple(coalition.server_names())
        self._lock = threading.Lock()
        self._pending: dict[str, list[ExecutionProof]] = {
            name: [] for name in self._servers
        }
        #: Virtual time at which a destination's batch becomes
        #: deliverable (earliest entry's enqueue time + its latency;
        #: pushed back by in-flight delay and retry backoff).
        self._due: dict[str, float] = {}
        #: Failed attempts for the destination's current head batch.
        self._attempts: dict[str, int] = {}
        #: Virtual time of the current head batch's first failure.
        self._first_failure: dict[str, float] = {}
        #: Destinations whose next attempt already drew its in-flight
        #: delay (so the reordering draw happens once per delivery).
        self._delayed: set[str] = set()
        #: Destinations whose retries are exhausted; only an explicit
        #: flush re-arms them.
        self._parked: set[str] = set()
        #: Latest virtual time this batcher has observed (the default
        #: ``now`` of an un-timed ``flush()``).
        self._clock = 0.0
        self.enqueued = 0
        self.delivered = 0
        self.delivery_calls = 0
        self.overflow_flushes = 0
        self.failed_deliveries = 0
        self.retries_scheduled = 0
        self.abandoned_batches = 0
        self.membership_events = 0
        self.destinations_added = 0
        self.handoff_delivered = 0
        self.handoff_dropped = 0
        self.dropped_stale = 0
        self.purged_stale = 0
        coalition.subscribe(self._on_membership)
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Unsubscribe from the coalition's membership events and leave
        the metrics registry (counters fold into its totals, gauges
        end).  Idempotent.  Pending proofs are not flushed."""
        self.coalition.unsubscribe(self._on_membership)
        REGISTRY.unregister_collector(self._collect_obs)

    def _collect_obs(self) -> dict[str, float]:
        """Pull-time metrics source (the counters above are mutated
        under ``self._lock``; the registry sums across batchers)."""
        return {
            "proofbatch.enqueued": self.enqueued,
            "proofbatch.delivered": self.delivered,
            "proofbatch.delivery_calls": self.delivery_calls,
            "proofbatch.overflow_flushes": self.overflow_flushes,
            "proofbatch.failed_deliveries": self.failed_deliveries,
            "proofbatch.retries_scheduled": self.retries_scheduled,
            "proofbatch.abandoned_batches": self.abandoned_batches,
            "proofbatch.parked": len(self._parked),
            "proofbatch.pending": sum(len(b) for b in self._pending.values()),
            "proofbatch.membership_events": self.membership_events,
            "proofbatch.handoff_delivered": self.handoff_delivered,
            "proofbatch.handoff_dropped": self.handoff_dropped,
            "proofbatch.dropped_stale": self.dropped_stale,
            "proofbatch.purged_stale": self.purged_stale,
        }

    # -- membership ------------------------------------------------------------

    def _on_membership(self, event: MembershipEvent) -> None:
        """React to a coalition membership change (called synchronously
        by the coalition while its membership lock is held; we only take
        our own lock here, never the coalition's, so the lock order
        stays acyclic)."""
        self.membership_events += 1
        if event.kind in ("join", "merge"):
            with self._lock:
                for name in event.servers:
                    if name in self._pending:
                        continue
                    self._pending[name] = []
                    self._servers = tuple(
                        sorted((*self._servers, name))
                    )
                    self.destinations_added += 1
        elif event.kind == "leave":
            # Graceful departure: one final hand-off attempt delivers
            # what we owe the leaver (it drained its own work; we drain
            # ours), then the slot disappears.  Whatever the attempt
            # could not place is dropped — the leaver is gone.
            for name in event.servers:
                self.handoff_delivered += self.flush(name, now=event.at)
                with self._lock:
                    remainder = self._pending.pop(name, [])
                    self.handoff_dropped += len(remainder)
                    self._drop_destination_state(name)
        elif event.kind == "evict":
            with self._lock:
                for name in event.servers:
                    # No delivery attempt: the evictee is gone and owed
                    # nothing.  Its batch is dropped...
                    dropped = self._pending.pop(name, [])
                    self.dropped_stale += len(dropped)
                    self._drop_destination_state(name)
                    # ...and every pending proof it *issued* is purged:
                    # from this epoch on those proofs are inadmissible
                    # and must not reach the survivors' ledgers.
                    for destination, batch in self._pending.items():
                        kept = [
                            p for p in batch if p.access.server != name
                        ]
                        if len(kept) != len(batch):
                            self.purged_stale += len(batch) - len(kept)
                            self._pending[destination] = kept
                            if not kept and not self._attempts.get(destination):
                                self._due.pop(destination, None)

    def _drop_destination_state(self, name: str) -> None:
        """Remove every per-destination bookkeeping entry for ``name``
        (caller holds ``self._lock``)."""
        self._servers = tuple(s for s in self._servers if s != name)
        self._due.pop(name, None)
        self._attempts.pop(name, None)
        self._first_failure.pop(name, None)
        self._delayed.discard(name)
        self._parked.discard(name)

    # -- producing -------------------------------------------------------------

    def enqueue(self, source: str, proof: ExecutionProof, now: float = 0.0) -> int:
        """Announce ``proof`` (executed at ``source`` at virtual time
        ``now``) to every other coalition server.  Returns the number
        of proofs delivered by overflow flushes triggered here."""
        if source not in self.coalition:
            raise ServiceError(f"unknown source server {source!r}")
        overflowing: list[str] = []
        with self._lock:
            self._clock = max(self._clock, now)
            for destination in self._servers:
                if destination == source:
                    continue
                batch = self._pending[destination]
                batch.append(proof)
                self.enqueued += 1
                deliverable_at = now + self.coalition.migration_latency(
                    source, destination
                )
                if destination not in self._due:
                    if destination not in self._parked:
                        self._due[destination] = deliverable_at
                elif self._attempts.get(destination, 0) == 0:
                    # Coalescing may pull the batch earlier — but never
                    # mid-backoff: a failed destination's next attempt
                    # stays on the retry schedule.
                    self._due[destination] = min(
                        self._due[destination], deliverable_at
                    )
                if (
                    len(batch) >= self.max_batch
                    and self._attempts.get(destination, 0) == 0
                    and destination not in self._parked
                ):
                    overflowing.append(destination)
                    self.overflow_flushes += 1
        delivered = 0
        for destination in overflowing:
            delivered += self._attempt(destination, now)
        return delivered

    # -- delivery --------------------------------------------------------------

    def _attempt(self, destination: str, now: float) -> int:
        """One delivery attempt for ``destination``'s pending batch at
        virtual time ``now``; returns the number of proofs delivered
        (0 on failure or postponement)."""
        with self._lock:
            batch = self._pending.get(destination)
            if not batch:
                # Empty — or the destination left/was evicted between
                # the caller's snapshot and this attempt.
                self._due.pop(destination, None)
                return 0
            if destination not in self._delayed:
                delay = self.transport.delivery_delay(destination, now)
                if delay > 0:
                    # In flight: the batch is committed to the wire but
                    # arrives later — postpone, and don't redraw.
                    self._delayed.add(destination)
                    self._due[destination] = now + delay
                    return 0
            self._pending[destination] = []
        if OBS.enabled:
            wall_start = time.perf_counter()
            ok = self.transport.deliver(destination, batch, now)
            RECORDER.record(
                "proofbatch.deliver",
                wall_start,
                time.perf_counter() - wall_start,
                {"destination": destination, "size": len(batch), "ok": ok},
            )
        else:
            ok = self.transport.deliver(destination, batch, now)
        with self._lock:
            self._delayed.discard(destination)
            if ok:
                self.delivery_calls += 1
                self.delivered += len(batch)
                self._attempts.pop(destination, None)
                self._first_failure.pop(destination, None)
                self._parked.discard(destination)
                # New proofs may have been enqueued while delivering:
                # their due entry (set by enqueue) stays; ours is spent.
                if not self._pending.get(destination):
                    self._due.pop(destination, None)
                return len(batch)
            # Failure: the batch goes back to the head of the queue and
            # the retry schedule decides when (whether) to try again.
            self.failed_deliveries += 1
            if destination not in self._pending:
                # The destination left the coalition while the delivery
                # was in flight; nothing to requeue.
                self.abandoned_batches += 1
                return 0
            self._pending[destination][:0] = batch
            attempt = self._attempts.get(destination, 0)
            first = self._first_failure.setdefault(destination, now)
            if self.retry.exhausted(attempt, first, now):
                self._parked.add(destination)
                self.abandoned_batches += 1
                self._due.pop(destination, None)
                if OBS.enabled:
                    RECORDER.record(
                        "proofbatch.park",
                        time.perf_counter(),
                        0.0,
                        {
                            "destination": destination,
                            "size": len(batch),
                            "attempts": attempt,
                        },
                    )
            else:
                self._attempts[destination] = attempt + 1
                self.retries_scheduled += 1
                self._due[destination] = now + self.retry.delay(attempt)
                if OBS.enabled:
                    RECORDER.record(
                        "proofbatch.retry",
                        time.perf_counter(),
                        0.0,
                        {
                            "destination": destination,
                            "attempt": attempt + 1,
                            "due": self._due[destination],
                        },
                    )
            return 0

    # -- flushing -------------------------------------------------------------

    def flush(self, destination: str | None = None, now: float | None = None) -> int:
        """Attempt delivery of everything pending (for ``destination``,
        or for all destinations) regardless of due times, re-arming
        parked destinations with a fresh retry budget.  Returns the
        number of proofs delivered.  This is the explicit
        synchronisation point for tests, shutdown, and the post-heal
        drain; with the default transport it always delivers
        everything."""
        targets = (destination,) if destination is not None else self._servers
        with self._lock:
            if now is None:
                now = self._clock
            else:
                self._clock = max(self._clock, now)
            for target in targets:
                self._attempts.pop(target, None)
                self._first_failure.pop(target, None)
                self._parked.discard(target)
                self._delayed.discard(target)
        delivered = 0
        for target in targets:
            delivered += self._attempt(target, now)
        return delivered

    def flush_due(self, now: float) -> int:
        """Attempt every batch whose latency window (or retry backoff)
        has elapsed at virtual time ``now``; later batches keep
        coalescing, parked batches stay parked."""
        with self._lock:
            self._clock = max(self._clock, now)
            ready = [d for d, due in self._due.items() if due <= now]
        delivered = 0
        for destination in ready:
            delivered += self._attempt(destination, now)
        return delivered

    def next_due(self) -> float | None:
        """Earliest due time of any pending batch (None when nothing is
        scheduled) — lets a driver advance virtual time straight to the
        next retry instead of polling."""
        with self._lock:
            return min(self._due.values()) if self._due else None

    # -- introspection -----------------------------------------------------------

    def pending_count(self, destination: str | None = None) -> int:
        with self._lock:
            if destination is not None:
                return len(self._pending[destination])
            return sum(len(b) for b in self._pending.values())

    def parked_destinations(self) -> tuple[str, ...]:
        """Destinations whose retries are exhausted (awaiting an
        explicit flush)."""
        with self._lock:
            return tuple(sorted(self._parked))

    def stats(self) -> dict[str, int | float]:
        """Counters for reports: enqueued/delivered proof entries, how
        many delivery calls carried them (the batching win is
        ``delivered / delivery_calls``), overflow flushes, and the
        fault-path counters (failed attempts, scheduled retries,
        batches parked after retry exhaustion)."""
        with self._lock:
            pending = sum(len(b) for b in self._pending.values())
            return {
                "enqueued": self.enqueued,
                "delivered": self.delivered,
                "pending": pending,
                "delivery_calls": self.delivery_calls,
                "overflow_flushes": self.overflow_flushes,
                "failed_deliveries": self.failed_deliveries,
                "retries_scheduled": self.retries_scheduled,
                "abandoned_batches": self.abandoned_batches,
                "parked": len(self._parked),
                "membership_events": self.membership_events,
                "destinations_added": self.destinations_added,
                "handoff_delivered": self.handoff_delivered,
                "handoff_dropped": self.handoff_dropped,
                "dropped_stale": self.dropped_stale,
                "purged_stale": self.purged_stale,
                "mean_batch_size": (
                    self.delivered / self.delivery_calls
                    if self.delivery_calls
                    else 0.0
                ),
            }
