"""Session-sharded access-control engines.

The paper's coalition serves authorization at *every* cooperating
server, but one :class:`~repro.rbac.engine.AccessControlEngine` is a
single-threaded object: its session table, validity trackers and
audit log are mutated on every decision.  :class:`ShardedEngine` partitions
sessions across N engine shards by a **stable hash of the routing
key** (the owner's user name by default), so:

* requests of different agents land on different shards and proceed in
  parallel — each shard is guarded by its own lock;
* every session of one user lands on the *same* shard, which keeps the
  owner-coordination scope (combined companion histories, Section 1)
  correct without cross-shard synchronisation;
* the expensive read-mostly artifacts — the interned state tables and
  their live masks (:mod:`repro.srac.compiled`) — remain
  **process-global**: every entry is a pure function of its key and
  the table cache is lock-guarded, so all shards share one copy and
  one warm-up;
* the candidate lookups and the interned decision attribution and
  outcomes are one memo per policy version that every shard shares,
  so equal outcomes decided on different shards are one record.  Its entries are pure functions of
  their keys, inserted with ``setdefault``, so racing shards agree;
* so are the ``(constraint, access)`` extension entries — each a
  process-wide state table and a live mask: the shards share one
  copy of the memo, and one prewarm fills it.

Per-shard state (sessions, validity trackers, audit log) is touched
only under the shard lock, so the engine internals
need no locks of their own.
"""

from __future__ import annotations

import operator
import threading
from typing import Iterable

import numpy as np

from repro.concurrency import stripe_index
from repro.errors import ServiceError
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine, EngineCacheStats, _factorize
from repro.rbac.policy import Policy
from repro.rbac.session_store import Session
from repro.srac.reachability import cache_stats as srac_cache_stats
from repro.srac.reachability import reset_cache_stats
from repro.sral.ast import Program
from repro.traces.trace import AccessKey, Trace

__all__ = ["ShardedEngine"]


class _Shard:
    """One engine plus its guard lock."""

    __slots__ = ("index", "engine", "lock")

    def __init__(self, index: int, engine: AccessControlEngine):
        self.index = index
        self.engine = engine
        self.lock = threading.Lock()


class ShardedEngine:
    """N engine shards behind stable-hash session routing.

    Parameters
    ----------
    policy:
        Shared by every shard (policies are read-mostly; mutations bump
        the version counter, which empties the shards' shared memo).
    shards:
        Number of engine shards.
    engine_kwargs:
        Forwarded to every :class:`AccessControlEngine` (scheme,
        extension alphabet, coordination scope, ...), so all shards
        decide identically.
    """

    def __init__(self, policy: Policy, shards: int = 4, **engine_kwargs):
        if shards < 1:
            raise ServiceError(f"shard count must be >= 1, got {shards}")
        self._shards = [
            _Shard(i, AccessControlEngine(policy, **engine_kwargs))
            for i in range(shards)
        ]
        # One candidate, attribution and outcome memo, and one
        # extension entry memo, for every shard: a value decided on several shards is
        # one record, and one prewarm warms every shard.
        first = self._shards[0].engine
        for shard in self._shards[1:]:
            shard.engine._memo = first._memo
            shard.engine._extension_cache = first._extension_cache
        self.policy = policy
        # Routing by store: every handle references its shard's store,
        # so ``shard_of`` is one lookup — no per-session route stamp or
        # route dict to grow (and leak) beside a million-session store.
        self._shard_of_store = {
            shard.engine._store: shard.index for shard in self._shards
        }

    def close(self) -> None:
        """Close every shard engine.  Idempotent."""
        for shard in self._shards:
            shard.engine.close()

    # -- routing --------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_index(self, key: str) -> int:
        """The shard a routing key maps to (stable across processes)."""
        return stripe_index(key, len(self._shards))

    def shard_of(self, session: Session) -> int:
        """The shard that owns ``session`` (the one holding its row)."""
        index = self._shard_of_store.get(getattr(session, "_store", None))
        if index is not None:
            return index
        raise ServiceError(
            f"session {session.session_id!r} is not routed through this "
            f"sharded engine"
        )

    def _shard_for(self, session: Session) -> _Shard:
        return self._shards[self.shard_of(session)]

    # -- session management ----------------------------------------------------

    def authenticate(
        self,
        user_name: str,
        t: float,
        principals: Iterable[str] = (),
        shard_key: str | None = None,
    ) -> Session:
        """Authenticate on the shard chosen by ``shard_key`` (default:
        the user name, so companion sessions of one owner co-locate and
        owner-scope coordination stays shard-local)."""
        index = self.shard_index(shard_key if shard_key is not None else user_name)
        shard = self._shards[index]
        with shard.lock:
            return shard.engine.authenticate(user_name, t, principals)

    def open_sessions(
        self,
        user_names: Iterable[str],
        t: float,
        roles: Iterable[str] = (),
    ) -> dict[int, np.ndarray]:
        """Bulk-open sessions across shards.  The names become one int
        code array; each distinct user is routed as :meth:`authenticate`
        would route it, checked and interned once, and entitlement is
        checked once per distinct assigned-role set, before any shard
        opens a row, so a refused call opens nothing.  The rows are
        split by shard with one stable sort, and each shard bulk-loads
        its share in arrival order under its lock
        (:meth:`AccessControlEngine.open_sessions`), drawing its block's
        session and subject ids in one step, shards in index order.
        Returns ``{shard_index: row_indices}``; :meth:`session_at`
        materialises handles on demand."""
        distinct, codes = _factorize(user_names)
        # Shards share the policy and engine settings: any one checks.
        role_objs, users, plan = self._shards[0].engine._check_bulk_open(
            distinct, roles, t
        )
        # The narrowest shard index type: a stable sort of 8- or 16-bit
        # keys is a radix sort.
        user_shard = np.fromiter(
            map(self.shard_index, distinct),
            np.min_scalar_type(len(self._shards) - 1),
            len(distinct),
        )
        row_shard = user_shard[codes]
        ends = np.cumsum(np.bincount(row_shard, minlength=len(self._shards)))
        codes = codes[np.argsort(row_shard, kind="stable")]
        del row_shard  # freed before the shards open their rows
        out: dict[int, np.ndarray] = {}
        lo = 0
        for index, hi in enumerate(ends.tolist()):
            if hi > lo:
                shard = self._shards[index]
                members = np.flatnonzero(user_shard == index).tolist()
                with shard.lock:
                    out[index] = shard.engine._open_block(
                        users, members, codes[lo:hi], t, role_objs, plan
                    )
            lo = hi
        return out

    def session_at(self, shard_index: int, row: int) -> Session:
        """The session handle at ``row`` of shard ``shard_index``.
        Raises :class:`ServiceError` for a shard index outside
        ``range(shard_count)``, and
        :class:`~repro.errors.RbacError` unless ``row`` names a live
        row of that shard."""
        try:
            index = operator.index(shard_index)
        except TypeError:
            index = -1
        if not 0 <= index < len(self._shards):
            raise ServiceError(
                f"shard index {shard_index!r} is not in "
                f"range({len(self._shards)})"
            )
        shard = self._shards[index]
        with shard.lock:
            return shard.engine.session_at(row)

    def close_session(self, session: Session, t: float) -> None:
        shard = self._shard_for(session)
        with shard.lock:
            shard.engine.close_session(session, t)

    def expire_sessions(
        self, now: float | None = None, idle_for: float = 0.0
    ) -> int:
        """Expire idle sessions on every shard (see
        :meth:`AccessControlEngine.expire_sessions`).  ``now`` defaults
        to the engine-wide latest activity, so a shard that has gone
        quiet is measured against the others' traffic too."""
        if now is None:
            latest = []
            for shard in self._shards:
                with shard.lock:
                    latest.append(shard.engine.latest_activity())
            now = max((t for t in latest if t is not None), default=None)
            if now is None:
                return 0
        expired = 0
        for shard in self._shards:
            with shard.lock:
                expired += shard.engine.expire_sessions(now, idle_for)
        return expired

    def resident_sessions(self) -> int:
        """Resident sessions summed across shards."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += shard.engine.resident_sessions()
        return total

    def activate_role(self, session: Session, role_name: str, t: float) -> None:
        shard = self._shard_for(session)
        with shard.lock:
            shard.engine.activate_role(session, role_name, t)

    def deactivate_role(self, session: Session, role_name: str, t: float) -> None:
        shard = self._shard_for(session)
        with shard.lock:
            shard.engine.deactivate_role(session, role_name, t)

    def notify_migration(self, session: Session, t: float) -> None:
        shard = self._shard_for(session)
        with shard.lock:
            shard.engine.notify_migration(session, t)

    def observe(
        self, session: Session, access: AccessKey | tuple[str, str, str]
    ) -> None:
        shard = self._shard_for(session)
        with shard.lock:
            shard.engine.observe(session, access)

    # -- decisions ---------------------------------------------------------------

    def decide(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = (),
        program: Program | None = None,
    ) -> Decision:
        shard = self._shard_for(session)
        with shard.lock:
            return shard.engine.decide(session, access, t, history, program)

    def enforce(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = (),
        program: Program | None = None,
    ) -> Decision:
        shard = self._shard_for(session)
        with shard.lock:
            return shard.engine.enforce(session, access, t, history, program)

    def decide_batch(
        self,
        session: Session,
        accesses: Iterable[AccessKey | tuple[str, str, str]],
        t: float,
        dt: float = 0.0,
        history: Trace | None = None,
        program: Program | None = None,
        observe_granted: bool = False,
    ) -> list[Decision]:
        shard = self._shard_for(session)
        with shard.lock:
            return shard.engine.decide_batch(
                session, accesses, t, dt, history, program, observe_granted
            )

    def decide_batch_many(
        self,
        requests: Iterable[tuple[Session, AccessKey | tuple[str, str, str]]],
        t: float,
        dt: float = 0.0,
    ) -> list[Decision]:
        """Decide an interleaved multi-session request stream: the i-th
        request is decided at ``t + i·dt`` on a global clock, requests
        are regrouped per owning shard (preserving per-session order —
        what the routing invariant guarantees a client anyway), and
        each shard sweeps its share with the vectorized
        :meth:`AccessControlEngine.decide_batch_many` under its own
        lock.  Returns decisions in request order."""
        pairs = [(session, access) for session, access in requests]
        times: list[float] = []
        clock = t
        for _ in pairs:
            times.append(clock)
            clock += dt
        by_shard: dict[int, list[int]] = {}
        for i, (session, _access) in enumerate(pairs):
            by_shard.setdefault(self.shard_of(session), []).append(i)
        decisions: list[Decision] = [None] * len(pairs)  # type: ignore[list-item]
        for index, indices in by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                swept = shard.engine.decide_batch_many(
                    [pairs[i] for i in indices],
                    t,
                    dt,
                    times=[times[i] for i in indices],
                )
            for local, i in enumerate(indices):
                decisions[i] = swept[local]
        return decisions

    # -- coalition membership -----------------------------------------------------

    def bind_membership(self, coalition) -> None:
        """Bind every shard engine to ``coalition``'s membership epoch
        (see :meth:`AccessControlEngine.bind_membership`): decisions on
        all shards stamp their provenance with the epoch in force."""
        for shard in self._shards:
            with shard.lock:
                shard.engine.bind_membership(coalition)

    def rescind_server(self, server: str) -> int:
        """Propagate a coalition eviction to every shard: drop the
        evicted server's accesses from all incremental histories (see
        :meth:`AccessControlEngine.rescind_server`).  Session-to-shard
        routing is a stable hash of the owner, independent of coalition
        size, so membership changes never rebalance sessions — routes
        stay *pinned* and only the histories need repair."""
        removed = 0
        for shard in self._shards:
            with shard.lock:
                removed += shard.engine.rescind_server(server)
        return removed

    # -- cache + stats management ------------------------------------------------

    def prewarm(
        self, alphabet: Iterable[AccessKey | tuple[str, str, str]] = ()
    ) -> int:
        """Prewarm every shard at once: the shards share their
        extension entry memo, so one engine fills it (see
        :meth:`AccessControlEngine.prewarm`), and the state tables and
        live masks behind it are process-global.  Returns the
        number of (constraint, access) entries warmed."""
        shard = self._shards[0]
        with shard.lock:
            return shard.engine.prewarm(alphabet)

    def invalidate_caches(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.engine.invalidate_caches()

    def cache_stats(self) -> EngineCacheStats:
        """Engine counters summed across shards; the extension entries
        and the SRAC portion are shared by all shards and counted once
        (the SRAC portion is the process-global snapshot)."""
        totals = dict(
            candidate_hits=0,
            candidate_misses=0,
            extension_entries=len(self._shards[0].engine._extension_cache),
            live_hits=0,
            live_fallbacks=0,
            vector_decisions=0,
            vector_fallbacks=0,
        )
        for shard in self._shards:
            with shard.lock:
                stats = shard.engine.cache_stats()
            totals["candidate_hits"] += stats.candidate_hits
            totals["candidate_misses"] += stats.candidate_misses
            totals["live_hits"] += stats.live_hits
            totals["live_fallbacks"] += stats.live_fallbacks
            totals["vector_decisions"] += stats.vector_decisions
            totals["vector_fallbacks"] += stats.vector_fallbacks
        return EngineCacheStats(srac=srac_cache_stats(), **totals)

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard decision/grant/session counts (load-balance view),
        plus each shard engine's vectorized-sweep accounting — how many
        of the shard's decisions went through the batched path vs. the
        scalar fallback (the per-shard batching-efficacy view).
        Decision and grant counts are the engine's audit-derived
        :meth:`~AccessControlEngine.decision_counts` since the last
        :meth:`reset_stats`."""
        out = []
        for shard in self._shards:
            with shard.lock:
                granted, denied = shard.engine.decision_counts()
                stats = shard.engine.cache_stats()
                out.append(
                    {
                        "shard": shard.index,
                        "decisions": granted + denied,
                        "granted": granted,
                        "sessions": shard.engine.resident_sessions(),
                        "vector_decisions": stats.vector_decisions,
                        "vector_fallbacks": stats.vector_fallbacks,
                    }
                )
        return out

    def reset_stats(self) -> None:
        """Zero every shard engine's decision and hit/miss counters and
        the process-level SRAC counters — cache *contents* are kept, so
        benchmarks measure warm steady-state."""
        for shard in self._shards:
            with shard.lock:
                shard.engine.reset_stats()
        reset_cache_stats()
