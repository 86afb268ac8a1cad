"""The fault-aware delivery hop for proof propagation.

:class:`~repro.service.batching.ProofBatch` talks to its destination
servers through a *transport*.  The default (no faults) transport
always succeeds; :class:`FaultyTransport` interposes the link policy
and the server lifecycle, so a delivery attempt can fail — the batcher
then re-queues the batch on its retry schedule.

The transport is a DES-side object: fault draws consume the link's
seeded rng stream, so calls must happen in a deterministic order
(single-threaded simulation).  Do not share one transport between
concurrently flushing threads if replayability matters.
"""

from __future__ import annotations

from typing import Iterable

from repro.coalition.network import Coalition
from repro.coalition.proofs import ExecutionProof
from repro.errors import ServerUnavailable
from repro.faults.lifecycle import ServerLifecycle
from repro.faults.link import FaultyLink
from repro.obs import REGISTRY

__all__ = ["DirectTransport", "FaultyTransport"]


class DirectTransport:
    """The fault-free hop: hand the batch straight to the ledger."""

    def __init__(self, coalition: Coalition):
        self.coalition = coalition

    def deliver(
        self, destination: str, proofs: list[ExecutionProof], now: float
    ) -> bool:
        self.coalition.server(destination).receive_proofs(proofs, now=now)
        return True

    def delivery_delay(self, destination: str, now: float) -> float:
        return 0.0


class FaultyTransport:
    """Delivery subject to link drops/duplication and server downtime.

    ``deliver`` returns ``False`` on failure (message dropped, or the
    destination cannot receive) — the caller owns the retry schedule.
    ``delivery_delay`` reports the extra in-flight delay (fixed link
    delay plus the reordering draw) the *next* successful delivery to
    ``destination`` should experience; the batcher turns it into a
    postponed due time, which is how batches overtake each other.
    """

    def __init__(
        self,
        coalition: Coalition,
        link: FaultyLink | None = None,
        lifecycle: ServerLifecycle | None = None,
    ):
        self.coalition = coalition
        self.link = link
        self.lifecycle = lifecycle
        self.attempts = 0
        self.failures = 0
        self.unavailable = 0
        self.drops = 0
        self.duplicates = 0
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Leave the metrics registry (the transport's counters fold
        into its totals).  Idempotent."""
        REGISTRY.unregister_collector(self._collect_obs)

    def _collect_obs(self) -> dict[str, float]:
        """Pull-time metrics source (fault draws are single-threaded by
        contract — see the module docstring)."""
        return {
            "transport.attempts": self.attempts,
            "transport.failures": self.failures,
            "transport.unavailable": self.unavailable,
            "transport.drops": self.drops,
            "transport.duplicates": self.duplicates,
        }

    def deliver(
        self, destination: str, proofs: list[ExecutionProof], now: float
    ) -> bool:
        self.attempts += 1
        if self.lifecycle is not None and not self.lifecycle.can_receive(
            destination, now
        ):
            self.unavailable += 1
            self.failures += 1
            return False
        if self.link is not None and self.link.dropped("*", destination):
            self.drops += 1
            self.failures += 1
            return False
        server = self.coalition.server(destination)
        try:
            server.receive_proofs(proofs, now=now)
            if self.link is not None and self.link.duplicated("*", destination):
                # The duplicate lands in the same ledger; digest
                # deduplication must make it invisible.
                self.duplicates += 1
                server.receive_proofs(proofs, now=now)
        except ServerUnavailable:
            self.unavailable += 1
            self.failures += 1
            return False
        return True

    def delivery_delay(self, destination: str, now: float) -> float:
        if self.link is None:
            return 0.0
        return self.link.delivery_delay("*", destination)

    def stats(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "failures": self.failures,
            "unavailable": self.unavailable,
        }
