"""Coalition servers.

A :class:`CoalitionServer` hosts shared resources behind its own clock.
Executing an access validates the resource and operation, stamps the
server's *local* time and issues the execution proof into the mobile
object's registry.  Authorization is interposed a layer above (the
Naplet security manager in :mod:`repro.agent.security`), mirroring the
paper's design where the Java ``SecurityManager`` guards the service
call and the server merely executes it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.coalition.clock import ServerClock
from repro.coalition.proofs import ExecutionProof, ProofRegistry
from repro.coalition.resource import Resource, ResourceRegistry
from repro.errors import CoalitionError, ServerUnavailable
from repro.obs import REGISTRY
from repro.traces.trace import AccessKey

__all__ = ["CoalitionServer", "AccessOutcome"]


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a successfully executed access: the issued proof plus
    the resource payload (digest for exec/read of content resources)."""

    proof: ExecutionProof
    value: object


class CoalitionServer:
    """One cooperating server of the coalition environment.

    Thread-safe: the per-server lock guards the execution counters,
    resource touch accounting and the announced-proof ledger, so
    concurrent agents executing on *different* servers never contend —
    each server is its own lock stripe of the coalition.  (The clock is
    an immutable ``ServerClock`` and needs no guarding.)
    """

    def __init__(
        self,
        name: str,
        resources: Iterable[Resource] = (),
        clock: ServerClock | None = None,
    ):
        if not name:
            raise CoalitionError("server name must be non-empty")
        self.name = name
        self.clock = clock if clock is not None else ServerClock()
        self.resources = ResourceRegistry(resources)
        self.executed_accesses = 0
        self.arrivals = 0
        #: Optional :class:`~repro.faults.lifecycle.ServerLifecycle`;
        #: when attached (``FaultPlan.install``), time-stamped
        #: operations refuse service while this server is down.
        self.lifecycle = None
        #: Back-reference to the owning :class:`~repro.coalition.network.
        #: Coalition` (set by the coalition on add/join/merge, cleared
        #: on leave/evict).  Duck-typed to avoid a circular import;
        #: supplies the membership epoch stamped into issued proofs and
        #: the admissibility check applied to received ones.
        self.membership = None
        self.rejected_unavailable = 0
        self._lock = threading.Lock()
        # Proofs announced by *other* servers (the batched propagation
        # layer's destination): object_id -> set of proof digests.
        self._announced: dict[str, set[str]] = {}
        self.announced_batches = 0
        self.proofs_learned = 0
        self.proofs_rejected_stale = 0
        self.bootstrap_syncs = 0
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Leave the metrics registry (the server's counters fold into
        its totals).  Idempotent."""
        REGISTRY.unregister_collector(self._collect_obs)

    def _collect_obs(self) -> dict[str, float]:
        """Pull-time metrics source (all counters below are mutated
        under ``self._lock``; the registry sums across servers)."""
        return {
            "server.executed_accesses": self.executed_accesses,
            "server.arrivals": self.arrivals,
            "server.rejected_unavailable": self.rejected_unavailable,
            "server.announced_batches": self.announced_batches,
            "server.proofs_learned": self.proofs_learned,
            "server.proofs_rejected_stale": self.proofs_rejected_stale,
            "server.bootstrap_syncs": self.bootstrap_syncs,
        }

    # -- hosting -----------------------------------------------------------

    def note_arrival(self) -> None:
        """Book-keeping: a mobile object arrived here."""
        with self._lock:
            self.arrivals += 1

    def access_alphabet(self) -> tuple[AccessKey, ...]:
        """Every access this server can execute — one
        ``(op, resource, server)`` key per supported operation of each
        hosted resource, in deterministic order.  Feed this to
        :meth:`~repro.rbac.engine.AccessControlEngine.prewarm` so the
        state tables and their live masks are built before the first
        request arrives."""
        return tuple(
            AccessKey(op, resource.name, self.name)
            for resource in sorted(self.resources, key=lambda r: r.name)
            for op in sorted(resource.operations)
        )

    # -- execution ------------------------------------------------------------

    def execute_access(
        self,
        registry: ProofRegistry,
        op: str,
        resource_name: str,
        global_time: float,
    ) -> AccessOutcome:
        """Execute ``op`` on ``resource_name`` for the mobile object that
        owns ``registry`` and issue the execution proof.

        The caller (the security manager) must have authorised the
        access already.  Raises :class:`~repro.errors.CoalitionError`
        for unknown resources or unsupported operations, and
        :class:`~repro.errors.ServerUnavailable` when an attached
        lifecycle says this server is not up at ``global_time``.
        """
        if self.lifecycle is not None and not self.lifecycle.can_execute(
            self.name, global_time
        ):
            with self._lock:
                self.rejected_unavailable += 1
            raise ServerUnavailable(
                f"server {self.name!r} is "
                f"{self.lifecycle.state(self.name, global_time).value} "
                f"at t={global_time} and cannot execute accesses"
            )
        resource = self.resources.get(resource_name)
        if not resource.supports(op):
            raise CoalitionError(
                f"resource {resource_name!r} at {self.name!r} does not support {op!r}"
            )
        access = AccessKey(op, resource_name, self.name)
        membership = self.membership
        epoch = membership.membership_epoch if membership is not None else 0
        proof = registry.record(
            access, self.clock.local_time(global_time), epoch=epoch
        )
        with self._lock:
            resource.touch()
            self.executed_accesses += 1
        value: object = None
        if op in ("read", "exec") and resource.content:
            # Reading returns the content; executing a content-bearing
            # module returns its digest (what the integrity auditor needs).
            value = resource.content if op == "read" else resource.digest()
        return AccessOutcome(proof=proof, value=value)

    # -- proof propagation ------------------------------------------------------

    def receive_proofs(
        self, proofs: Iterable[ExecutionProof], now: float | None = None
    ) -> int:
        """Adopt a batch of execution proofs announced by other
        coalition servers (:class:`repro.service.ProofBatch` delivery).
        The ledger lets this server answer ``Pr_x(a)`` for roaming
        objects without replaying their full carried chain.  Returns
        the number of proofs newly learned.

        With a time-stamped delivery (``now``) and an attached
        lifecycle, a DOWN server refuses the batch with
        :class:`~repro.errors.ServerUnavailable` (a RECOVERING server
        accepts — catching up on propagation precedes serving).
        """
        if (
            now is not None
            and self.lifecycle is not None
            and not self.lifecycle.can_receive(self.name, now)
        ):
            with self._lock:
                self.rejected_unavailable += 1
            raise ServerUnavailable(
                f"server {self.name!r} is down at t={now} and cannot "
                f"receive proof deliveries"
            )
        learned = 0
        membership = self.membership
        with self._lock:
            self.announced_batches += 1
            for proof in proofs:
                # Acceptance check: never adopt a proof issued at a
                # server that has been evicted from the coalition — it
                # could otherwise corroborate a decision the current
                # membership no longer justifies.
                if membership is not None and not membership.is_admissible(
                    proof.access.server
                ):
                    self.proofs_rejected_stale += 1
                    continue
                digests = self._announced.setdefault(proof.object_id, set())
                if proof.digest not in digests:
                    digests.add(proof.digest)
                    learned += 1
            self.proofs_learned += learned
        return learned

    def bootstrap_announced(self, peer: "CoalitionServer") -> int:
        """Join-time sync handshake: copy ``peer``'s announced-proof
        ledger so a freshly joined server starts with the coalition's
        propagated state instead of an empty view (it would otherwise
        fail-closed on every roaming object until propagation caught
        up).  Returns the number of proofs learned."""
        snapshot = {
            object_id: set(digests)
            for object_id, digests in peer._snapshot_announced().items()
        }
        learned = 0
        with self._lock:
            self.bootstrap_syncs += 1
            for object_id, digests in snapshot.items():
                known = self._announced.setdefault(object_id, set())
                learned += len(digests - known)
                known |= digests
            self.proofs_learned += learned
        return learned

    def _snapshot_announced(self) -> dict[str, set[str]]:
        with self._lock:
            return {k: set(v) for k, v in self._announced.items()}

    def knows_proof(self, proof: ExecutionProof) -> bool:
        """Has this server learned ``proof`` through propagation?"""
        with self._lock:
            return proof.digest in self._announced.get(proof.object_id, ())

    def announced_proof_count(self) -> int:
        """Total proofs learned from other servers."""
        with self._lock:
            return sum(len(d) for d in self._announced.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CoalitionServer({self.name!r}, resources={len(self.resources)}, "
            f"executed={self.executed_accesses})"
        )
