"""The coalition: a set of cooperating servers plus a latency model.

Multiple organisations "must cooperate to share the subset of their
protected resources necessary to the coalition" (Section 2).  The
:class:`Coalition` owns the server namespace, the shared channel and
signal tables (coalition-wide, so agents on different servers can
synchronise) and the migration latency model.

Membership is *dynamic*: the coalition carries a monotonically
increasing **membership epoch**, bumped by every :meth:`Coalition.join`,
:meth:`Coalition.leave`, :meth:`Coalition.evict` and
:meth:`Coalition.merge`.  Execution proofs are stamped with the epoch
in force when they were issued, and an eviction records the epoch at
which the departed server's proofs stop being admissible — decisions
never consume proofs originating from a server evicted before the
current epoch.  Components that cache topology (the proof-propagation
batcher, the decision service) subscribe to membership events, and
unsubscribe when they are closed, instead of freezing the coalition;
:meth:`Coalition.freeze` remains available as an explicit permanent
pin for static deployments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.coalition.channels import ChannelTable, SignalTable
from repro.coalition.server import CoalitionServer
from repro.errors import CoalitionError, MigrationError
from repro.obs import REGISTRY
from repro.traces.trace import AccessKey

__all__ = [
    "Coalition",
    "LatencyModel",
    "MembershipEvent",
    "constant_latency",
    "uniform_latency",
]

#: Maps an ordered server-name pair to a migration latency.
LatencyModel = Callable[[str, str], float]


def constant_latency(value: float = 1.0) -> LatencyModel:
    """Every migration takes ``value`` time units."""
    if value < 0:
        raise CoalitionError(f"latency must be non-negative, got {value}")

    def model(src: str, dst: str) -> float:
        return 0.0 if src == dst else value

    return model


def uniform_latency(table: dict[tuple[str, str], float], default: float = 1.0) -> LatencyModel:
    """Latencies from an explicit symmetric table with a default."""
    if default < 0:
        raise CoalitionError(f"default latency must be non-negative, got {default}")
    for (a, b), value in table.items():
        if value < 0:
            raise CoalitionError(f"latency {a}->{b} must be non-negative")

    def model(src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return table.get((src, dst), table.get((dst, src), default))

    return model


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change, delivered to subscribed listeners.

    ``epoch`` is the coalition epoch *after* the change took effect,
    ``servers`` the affected server names (one for join/leave/evict,
    all adopted names for a merge) and ``at`` the simulation/global
    time the change happened."""

    kind: str  # "join" | "leave" | "evict" | "merge"
    epoch: int
    servers: tuple[str, ...]
    at: float


class Coalition:
    """A coalition environment: servers, channels, signals, latencies.

    Membership mutations (:meth:`join` / :meth:`leave` / :meth:`evict`
    / :meth:`merge`) are serialised under an internal lock and notify
    subscribed listeners *inside* that lock, so a listener always
    observes the membership state the event describes.  Reads
    (:meth:`server`, :meth:`migration_latency`, containment) are
    deliberately lock-free: membership changes swap/insert dict entries
    atomically under the GIL, and listeners such as the proof batcher
    take their own locks — never the coalition's — which keeps the
    lock order ``coalition → listener`` acyclic.
    """

    def __init__(
        self,
        servers: Iterable[CoalitionServer] = (),
        latency: LatencyModel | None = None,
    ):
        self._servers: dict[str, CoalitionServer] = {}
        self._frozen = False
        self._epoch = 0
        #: name -> epoch at which the server was evicted; its proofs are
        #: inadmissible from that epoch on (graceful leavers are *not*
        #: recorded here — their proofs stay valid forever).
        self._evicted: dict[str, int] = {}
        #: names that departed gracefully (drained + handed off).
        self._departed: set[str] = set()
        #: membership listeners, held until they unsubscribe.
        self._listeners: list[Callable[[MembershipEvent], None]] = []
        self._membership_lock = threading.RLock()
        self.joins = 0
        self.leaves = 0
        self.evictions = 0
        self.merges = 0
        for server in servers:
            self.add_server(server)
        self.latency_model = latency if latency is not None else constant_latency()
        self.channels = ChannelTable()
        self.signals = SignalTable()
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Leave the metrics registry, with every member server (their
        counters fold into its totals; the epoch gauge ends).
        Idempotent."""
        REGISTRY.unregister_collector(self._collect_obs)
        for server in self._servers.values():
            server.close()

    def _collect_obs(self) -> dict[str, float]:
        return {
            "coalition.membership_epoch": self._epoch,
            "coalition.joins": self.joins,
            "coalition.leaves": self.leaves,
            "coalition.evictions": self.evictions,
            "coalition.merges": self.merges,
        }

    # -- membership -----------------------------------------------------------

    def add_server(self, server: CoalitionServer) -> None:
        """Found-time membership: add a server *before* traffic starts.

        Once the membership is live — frozen, past epoch 0, or watched
        by a listener such as :class:`~repro.service.ProofBatch` — this
        raises; use :meth:`join` instead, which bumps the epoch and
        notifies every subscriber.  (The old freeze-then-mutate footgun
        is now impossible: nothing can slip a server past a component
        that cached the topology.)
        """
        if self._frozen:
            raise CoalitionError(
                f"coalition membership is frozen; cannot add {server.name!r}"
            )
        if self._epoch > 0 or self._listeners:
            raise CoalitionError(
                f"coalition membership is live; use join() to add {server.name!r}"
            )
        if server.name in self._servers:
            raise CoalitionError(f"duplicate server {server.name!r}")
        self._servers[server.name] = server
        server.membership = self

    def subscribe(self, listener: Callable[[MembershipEvent], None]) -> None:
        """Register a membership listener.  Listeners are called in
        subscription order, synchronously, while the membership lock is
        held — they must not call back into membership mutation.  The
        coalition holds ``listener`` until :meth:`unsubscribe`."""
        with self._membership_lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[MembershipEvent], None]) -> None:
        """Remove a listener added by :meth:`subscribe`; one that is
        not subscribed is ignored."""
        with self._membership_lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, event: MembershipEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    def _check_mutable(self, action: str) -> None:
        if self._frozen:
            raise CoalitionError(
                f"coalition membership is frozen; cannot {action}"
            )

    def join(
        self,
        server: CoalitionServer,
        now: float = 0.0,
        bootstrap_from: str | None = None,
    ) -> int:
        """A new server joins the live coalition.

        Bumps the membership epoch, bootstraps the joiner's announced
        proof ledger via a sync handshake with an existing member
        (``bootstrap_from`` or the first member in name order), and
        notifies listeners.  An evicted name can never rejoin — epoch
        admissibility is keyed by name, so name reuse would resurrect
        dead proofs.  Returns the new epoch."""
        with self._membership_lock:
            self._check_mutable(f"join {server.name!r}")
            if server.name in self._servers:
                raise CoalitionError(f"duplicate server {server.name!r}")
            if server.name in self._evicted:
                raise CoalitionError(
                    f"server name {server.name!r} was evicted at epoch "
                    f"{self._evicted[server.name]} and cannot rejoin"
                )
            if bootstrap_from is not None and bootstrap_from not in self._servers:
                raise CoalitionError(
                    f"cannot bootstrap from unknown server {bootstrap_from!r}"
                )
            source = bootstrap_from
            if source is None and self._servers:
                source = min(self._servers)
            if source is not None:
                server.bootstrap_announced(self._servers[source])
            self._servers[server.name] = server
            server.membership = self
            self._departed.discard(server.name)
            self._epoch += 1
            self.joins += 1
            self._notify(
                MembershipEvent("join", self._epoch, (server.name,), now)
            )
            return self._epoch

    def leave(self, name: str, now: float = 0.0) -> int:
        """A member departs *gracefully*: it drained its work and its
        issued proofs remain admissible forever.  Listeners (the proof
        batcher) get a chance to hand off parked/pending batches before
        the slot disappears.  Returns the new epoch."""
        with self._membership_lock:
            self._check_mutable(f"remove {name!r}")
            server = self.server(name)
            self._epoch += 1
            self.leaves += 1
            event = MembershipEvent("leave", self._epoch, (name,), now)
            self._notify(event)
            del self._servers[name]
            server.membership = None
            self._departed.add(name)
            return self._epoch

    def evict(self, name: str, now: float = 0.0) -> int:
        """A member departs *abruptly* and is evicted: from the new
        epoch on, **every** proof it ever issued is inadmissible —
        coalition decisions must never again be justified by it.
        Returns the new epoch."""
        with self._membership_lock:
            self._check_mutable(f"evict {name!r}")
            server = self.server(name)
            self._epoch += 1
            self.evictions += 1
            self._evicted[name] = self._epoch
            event = MembershipEvent("evict", self._epoch, (name,), now)
            self._notify(event)
            del self._servers[name]
            server.membership = None
            return self._epoch

    def merge(self, other: "Coalition", now: float = 0.0) -> int:
        """Absorb ``other``'s membership in a single epoch bump.

        The surviving coalition's latency model, channel and signal
        tables govern from here on.  The new epoch is
        ``max(self.epoch, other.epoch) + 1`` so every proof either side
        issued pre-merge carries an epoch strictly below it, and
        ``other``'s eviction table is adopted (its dead servers stay
        dead).  ``other`` is marked absorbed and refuses further
        membership operations.  Returns the new epoch."""
        if other is self:
            raise CoalitionError("cannot merge a coalition with itself")
        with self._membership_lock:
            self._check_mutable("merge")
            if other.frozen:
                raise CoalitionError("cannot merge a frozen coalition")
            overlap = self._servers.keys() & other._servers.keys()
            if overlap:
                raise CoalitionError(
                    f"cannot merge: duplicate server names {sorted(overlap)}"
                )
            revived = other._servers.keys() & self._evicted.keys()
            if revived:
                raise CoalitionError(
                    f"cannot merge: names {sorted(revived)} were evicted here"
                )
            adopted = tuple(sorted(other._servers))
            self._epoch = max(self._epoch, other._epoch) + 1
            self.merges += 1
            for name in adopted:
                server = other._servers[name]
                self._servers[name] = server
                server.membership = self
            # Their evicted servers stay inadmissible on this side too.
            for name in other._evicted:
                self._evicted.setdefault(name, self._epoch)
            self._departed |= other._departed
            other._servers.clear()
            other._frozen = True  # absorbed: no further membership ops
            self._notify(MembershipEvent("merge", self._epoch, adopted, now))
            return self._epoch

    def freeze(self) -> None:
        """Pin the membership permanently: any later :meth:`join`,
        :meth:`leave`, :meth:`evict` or :meth:`merge` raises.  Static
        deployments use this to rule dynamic membership out by
        construction.  Idempotent."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- epochs & admissibility ------------------------------------------------

    @property
    def membership_epoch(self) -> int:
        """The current membership epoch (0 = founding membership)."""
        return self._epoch

    def evicted_epoch(self, name: str) -> int | None:
        """The epoch at which ``name`` was evicted, or ``None`` if it
        never was (members and graceful leavers)."""
        return self._evicted.get(name)

    def evictions_table(self) -> dict[str, int]:
        """Snapshot of ``name -> eviction epoch`` (the oracle's input)."""
        return dict(self._evicted)

    def is_admissible(self, server_name: str) -> bool:
        """May proofs issued at ``server_name`` justify decisions *now*?
        True for members and graceful alumni, False once evicted."""
        return server_name not in self._evicted

    def admissible_trace(
        self, accesses: Iterable[AccessKey]
    ) -> tuple[AccessKey, ...]:
        """Filter an access history down to admissible issuers — what
        the security manager feeds the decision engine in place of the
        raw carried chain."""
        if not self._evicted:
            return tuple(accesses)
        evicted = self._evicted
        return tuple(a for a in accesses if a.server not in evicted)

    def server(self, name: str) -> CoalitionServer:
        try:
            return self._servers[name]
        except KeyError:
            raise CoalitionError(f"unknown server {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._servers

    def __iter__(self) -> Iterator[CoalitionServer]:
        return iter(self._servers.values())

    def __len__(self) -> int:
        return len(self._servers)

    def server_names(self) -> list[str]:
        return sorted(self._servers)

    # -- migration --------------------------------------------------------------

    def migration_latency(self, src: str, dst: str) -> float:
        """Time for a mobile object to travel ``src → dst``."""
        if dst not in self._servers:
            raise MigrationError(f"cannot migrate to unknown server {dst!r}")
        if src not in self._servers:
            raise MigrationError(f"cannot migrate from unknown server {src!r}")
        value = self.latency_model(src, dst)
        if value < 0:
            raise MigrationError(f"latency model returned negative value {value}")
        return value
