"""The concurrent decision service front door.

:class:`DecisionService` turns a :class:`~repro.service.sharding.ShardedEngine`
into a throughput-oriented authorization service:

* a ``ThreadPoolExecutor`` worker pool serves requests;
* each shard has a **bounded FIFO queue** — submission applies
  backpressure when a shard falls behind (or rejects immediately with
  ``block=False``), so a hot shard cannot grow unbounded memory;
* at most one worker drains a shard at a time (a per-shard drain flag),
  draining the queue in **adaptive micro-batches**: everything pending
  up to ``max_batch``, optionally after a short coalescing wait bounded
  by ``max_wait_s``.  Contiguous vector-eligible stretches of a drained
  batch are dispatched through the vectorized
  :func:`~repro.rbac.vector_engine.sweep_interleaved` under the shard
  lock; everything else (explicit histories, disclosed programs,
  ``observe_granted`` feedback, sessions the sweep cannot handle) is
  decided by the scalar per-request loop in exactly its arrival slot,
  so decisions, provenance and per-shard audit order are bit-identical
  to a scalar-per-request service;
* throughput, latency and batching counters are exposed as a
  :meth:`~DecisionService.service_stats` snapshot, resettable for
  warm steady-state benchmarking.

The **adaptive controller** keeps low-load latency flat: each shard
tracks an EWMA of its drained batch sizes, and the coalescing wait
window grows from 0 toward ``max_wait_s`` only while drains actually
come up deep.  A shard serving a trickle drains immediately (p50 is
one queue hop plus one decision); a shard under pressure waits a
bounded moment so the vector sweep amortises the per-decision cost.

An optional ``post_decision_hook`` runs *outside* the shard lock after
each decision — the integration point for downstream effects such as
handing granted proofs to a :class:`~repro.service.batching.ProofBatch`
or emulating the network round trip that delivers the grant (the
concurrent-service benchmark uses it for its latency model).
"""

from __future__ import annotations

import collections
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import _base as _future_base
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ServiceError
from repro.faults.retry import RetryPolicy
from repro.obs import OBS, RECORDER, REGISTRY
from repro.rbac.audit import Decision
from repro.rbac.session_store import Session
from repro.rbac.vector_engine import sweep_interleaved
from repro.service.sharding import ShardedEngine
from repro.sral.ast import Program
from repro.traces.trace import AccessKey, Trace

__all__ = ["DecisionService", "ServiceStats"]

#: Record one ``service.request`` span per this many completed requests
#: (histogram observations are unsampled; spans carry the per-phase
#: breakdown and only need to be representative).
REQUEST_SPAN_SAMPLE = 16

#: A contiguous vector-eligible stretch shorter than this is decided by
#: the scalar loop — ``prepare_sweep`` has per-session fixed costs that
#: only pay off once a run actually amortises them.
MIN_VECTOR_RUN = 2

#: Decay of the per-shard drained-batch-size EWMA steering the
#: coalescing window (≈ the last dozen drains dominate).
BATCH_EWMA_DECAY = 0.8

#: Bucket bounds for the ``service.batch_size`` / ``queue_occupancy``
#: histograms (requests per drain, not seconds).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


# Future state constants (plain strings, stable since Python 3.2).
_PENDING = _future_base.PENDING
_RUNNING = _future_base.RUNNING
_CANCELLED = _future_base.CANCELLED
_CANCELLED_AND_NOTIFIED = _future_base.CANCELLED_AND_NOTIFIED
_FINISHED = _future_base.FINISHED


class _ShardFuture(Future):
    """A :class:`Future` sharing one condition with its shard siblings.

    ``Future.__init__`` allocates a fresh ``Condition`` (and its RLock)
    per instance — at micro-batching rates that allocation is the
    single largest submission cost.  All futures of one shard share the
    shard's condition instead: state transitions still serialise on it,
    and since a shard's decisions resolve on that shard's single active
    drainer, the shared lock sees no cross-shard contention.

    ``result``/``exception`` are re-implemented as wait *loops*: the
    inherited single-``wait`` versions assume a private condition where
    one wakeup means completion, which a sibling's broadcast would
    violate (a spurious ``TimeoutError`` with no timeout set).
    """

    def __init__(self, condition: threading.Condition):
        self._condition = condition
        self._state = _PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []

    def _wait_done(self, timeout: float | None) -> str:
        """Wait (condition held by caller) until done or timeout;
        returns the final state, raising on cancellation/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            state = self._state
            if state == _FINISHED:
                return state
            if state in (_CANCELLED, _CANCELLED_AND_NOTIFIED):
                raise CancelledError()
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError()
            self._condition.wait(remaining)

    def result(self, timeout: float | None = None):
        with self._condition:
            self._wait_done(timeout)
            if self._exception is not None:
                raise self._exception
            return self._result

    def exception(self, timeout: float | None = None):
        with self._condition:
            self._wait_done(timeout)
            return self._exception


class _ShardQueue:
    """Bounded FIFO request queue for one shard.

    ``queue.Queue`` pays one lock acquisition per item on both sides;
    the micro-batched service moves whole slices instead —
    :meth:`put_many` appends a pre-sliced submission batch and
    :meth:`pop_upto` hands the drain loop everything pending, each
    under a single lock acquisition.
    """

    __slots__ = ("maxsize", "_items", "_not_full")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._items: collections.deque = collections.deque()
        self._not_full = threading.Condition(threading.Lock())

    def qsize(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def put_many(
        self,
        items: Sequence,
        block: bool = True,
        timeout: float | None = None,
    ) -> int:
        """Append ``items`` in order; returns how many were accepted.
        ``block=True`` waits for queue room (backpressure), up to
        ``timeout``; ``block=False`` accepts what fits and returns."""
        done = 0
        n = len(items)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while done < n:
                room = self.maxsize - len(self._items)
                if room <= 0:
                    if not block:
                        break
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    self._not_full.wait(remaining)
                    continue
                take = min(room, n - done)
                self._items.extend(items[done:done + take])
                done += take
        return done

    def pop_upto(self, n: int) -> list:
        """Pop up to ``n`` items (arrival order) and release waiting
        producers.  Only the shard's single active drainer calls this,
        which is what preserves FIFO processing order."""
        with self._not_full:
            items = self._items
            out = []
            while items and len(out) < n:
                out.append(items.popleft())
            if out:
                self._not_full.notify_all()
            return out


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of the service counters (one benchmark report row)."""

    submitted: int
    completed: int
    granted: int
    denied: int
    errors: int
    rejected: int
    total_latency_s: float
    max_latency_s: float
    queue_depths: tuple[int, ...]
    shard_decisions: tuple[int, ...]
    workers: int
    shards: int
    hook_retries: int = 0
    #: Requests whose future was cancelled before a worker picked them
    #: up (they are popped, never decided, and count toward drain()).
    cancelled: int = 0
    #: Drained micro-batches and the requests they carried — their
    #: ratio is the realised batching factor.
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    #: Engine-side sweep accounting summed across shards: decisions
    #: served by the vectorized path vs. scalar fallbacks.
    vector_decisions: int = 0
    vector_fallbacks: int = 0
    #: Sessions closed by the opt-in idle-expiry sweep (see the
    #: ``idle_expiry`` constructor parameter).
    expired_sessions: int = 0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "granted": self.granted,
            "denied": self.denied,
            "errors": self.errors,
            "rejected": self.rejected,
            "mean_latency_ms": self.mean_latency_s * 1e3,
            "max_latency_ms": self.max_latency_s * 1e3,
            "queue_depths": list(self.queue_depths),
            "shard_decisions": list(self.shard_decisions),
            "workers": self.workers,
            "shards": self.shards,
            "hook_retries": self.hook_retries,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "vector_decisions": self.vector_decisions,
            "vector_fallbacks": self.vector_fallbacks,
            "expired_sessions": self.expired_sessions,
        }


class DecisionService:
    """Worker pool + micro-batched per-shard queues over a sharded
    engine.

    Parameters
    ----------
    engine:
        The sharded engine (or a plain policy is *not* accepted — build
        the :class:`ShardedEngine` explicitly so its shard count and
        engine configuration are visible at the call site).
    workers:
        Thread-pool size.  Each shard is drained by at most one worker
        at a time, so useful values are ≤ the shard count for CPU-bound
        decision mixes (the GIL serialises pure-Python compute anyway)
        and larger when the post-decision hook blocks on I/O or
        emulated network latency.
    queue_depth:
        Bound of each shard's request queue (backpressure threshold).
    post_decision_hook:
        ``Callable[[Decision], None]`` run outside the shard lock after
        every decision, before the future resolves.
    hook_retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` for the
        post-decision hook.  The hook is the delivery edge of the
        service (it typically feeds a
        :class:`~repro.service.batching.ProofBatch` or an emulated
        network); with a policy attached, a raising hook is re-invoked
        on the deterministic backoff schedule (real ``time.sleep`` —
        size the delays for the deployment) before the error is
        surfaced on the future.
    max_batch:
        Largest number of requests one drain pops from a shard queue.
        ``1`` disables micro-batching entirely — the scalar
        one-request-per-wakeup service, kept as the differential
        baseline of ``tests/test_service_batching.py``.
    max_wait_s:
        Upper bound of the adaptive coalescing window (the latency
        budget batching may spend at full pressure).  The realised wait
        is adaptive — near zero while drains come up shallow — so p50
        at low load does not regress; ``0`` disables coalescing waits
        altogether (drains still batch whatever is already queued).
    prewarm:
        ``True`` (or a request alphabet iterable) compiles every policy
        constraint, its live sets *and its SRAC transition tables* at
        construction via :meth:`ShardedEngine.prewarm`, eliminating the
        cold-start spike on the first batch.  Pass the expected request
        alphabet for full coverage — with ``True`` alone, only the
        constraints' own universes are warmed.
    coalition:
        Optional :class:`~repro.coalition.Coalition` to track: every
        shard engine stamps decisions with its membership epoch, and
        the service subscribes to membership events — an eviction
        rescinds the evicted server's accesses from every shard's
        incremental histories (:meth:`ShardedEngine.rescind_server`),
        so in-flight sessions can no longer be granted on the strength
        of an evicted server's proofs.  Shard routing is a stable
        owner hash independent of coalition size, so membership
        changes never rebalance sessions (routes stay pinned).
    idle_expiry:
        Opt-in idle-session reclamation: when set (logical seconds), a
        daemon thread periodically calls
        :meth:`ShardedEngine.expire_sessions` with this ``idle_for``,
        closing every session whose ``last_seen`` has fallen that far
        behind the shard's newest activity.  The sweep runs on the
        engines' *logical* clock (the ``t`` of decided requests), so a
        quiet service never expires anything — idleness is relative to
        traffic actually flowing.  Expired sessions count toward
        :attr:`ServiceStats.expired_sessions`.  ``None`` (default)
        disables the sweep entirely.
    idle_sweep_interval_s:
        Wall-clock period of the idle-expiry daemon (only meaningful
        with ``idle_expiry`` set).
    """

    def __init__(
        self,
        engine: ShardedEngine,
        workers: int = 4,
        queue_depth: int = 1024,
        post_decision_hook: Callable[[Decision], None] | None = None,
        hook_retry: RetryPolicy | None = None,
        max_batch: int = 128,
        max_wait_s: float = 0.002,
        prewarm: bool | Iterable[AccessKey | tuple[str, str, str]] = False,
        coalition=None,
        idle_expiry: float | None = None,
        idle_sweep_interval_s: float = 0.05,
    ):
        if workers < 1:
            raise ServiceError(f"worker count must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ServiceError(f"queue depth must be >= 1, got {queue_depth}")
        if max_batch < 1:
            raise ServiceError(f"max batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ServiceError(f"max wait must be >= 0, got {max_wait_s}")
        if idle_expiry is not None and idle_expiry <= 0:
            raise ServiceError(
                f"idle expiry must be > 0, got {idle_expiry}"
            )
        if idle_sweep_interval_s <= 0:
            raise ServiceError(
                f"idle sweep interval must be > 0, got {idle_sweep_interval_s}"
            )
        self.engine = engine
        self.workers = workers
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._hook = post_decision_hook
        self._hook_retry = hook_retry
        self._queues: list[_ShardQueue] = [
            _ShardQueue(maxsize=queue_depth)
            for _ in range(engine.shard_count)
        ]
        # One shared future condition per shard (see _ShardFuture).
        self._future_conditions = [
            threading.Condition() for _ in range(engine.shard_count)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="decision-worker"
        )
        self._closed = False
        self._stats_lock = threading.Lock()
        self._idle = threading.Condition(self._stats_lock)
        self._submitted = 0
        self._completed = 0
        self._granted = 0
        self._denied = 0
        self._errors = 0
        self._rejected = 0
        self._total_latency = 0.0
        self._max_latency = 0.0
        self._hook_retries = 0
        self._cancelled = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_seen = 0
        self._expired_sessions = 0
        # Drain scheduling: at most one drainer per shard at a time.
        # The flag is only read/written under its shard's drain lock,
        # which closes the submit-vs-drainer-exit race (an item is
        # enqueued before the kick, so either the exiting drainer's
        # emptiness check sees it or the kick sees the cleared flag).
        self._drain_locks = [
            threading.Lock() for _ in range(engine.shard_count)
        ]
        self._drain_active = [False] * engine.shard_count
        # Adaptive controller state — touched only by the shard's
        # single active drainer.
        self._batch_goal = max(2, max_batch // 4)
        self._windows = [0.0] * engine.shard_count
        self._batch_ewma = [0.0] * engine.shard_count
        # Pre-bound per-shard instruments (one registry lookup here, a
        # single striped-lock observe per event) — recorded only while
        # repro.obs is enabled.
        self._obs_queue_wait = [
            REGISTRY.histogram("service.queue_wait_s", shard=str(i))
            for i in range(engine.shard_count)
        ]
        self._obs_decide = [
            REGISTRY.histogram("service.decide_s", shard=str(i))
            for i in range(engine.shard_count)
        ]
        self._obs_hook = [
            REGISTRY.histogram("service.hook_s", shard=str(i))
            for i in range(engine.shard_count)
        ]
        self._obs_batch_size = [
            REGISTRY.histogram(
                "service.batch_size", buckets=BATCH_BUCKETS, shard=str(i)
            )
            for i in range(engine.shard_count)
        ]
        self._obs_occupancy = [
            REGISTRY.histogram(
                "service.queue_occupancy", buckets=BATCH_BUCKETS, shard=str(i)
            )
            for i in range(engine.shard_count)
        ]
        self._obs_cancelled = REGISTRY.counter("service.cancelled")
        self._obs_rejected = REGISTRY.counter("service.rejected")
        self._obs_membership = REGISTRY.counter("service.membership_events")
        self.coalition = coalition
        self.membership_events = 0
        if coalition is not None:
            engine.bind_membership(coalition)
            coalition.subscribe(self._on_membership)
        if prewarm:
            engine.prewarm(() if prewarm is True else prewarm)
        self.idle_expiry = idle_expiry
        self._idle_stop = threading.Event()
        self._idle_thread: threading.Thread | None = None
        if idle_expiry is not None:
            self._idle_thread = threading.Thread(
                target=self._idle_sweep_loop,
                args=(idle_expiry, idle_sweep_interval_s),
                name="idle-expiry",
                daemon=True,
            )
            self._idle_thread.start()

    def _idle_sweep_loop(
        self, idle_for: float, interval_s: float
    ) -> None:
        """Daemon body of the opt-in idle-expiry sweep: every
        ``interval_s`` of wall time, close sessions idle for more than
        ``idle_for`` logical seconds on every shard (under the shard
        locks, so the sweep never races a drain's decisions)."""
        while not self._idle_stop.wait(interval_s):
            expired = self.engine.expire_sessions(idle_for=idle_for)
            if expired:
                with self._stats_lock:
                    self._expired_sessions += expired

    def _on_membership(self, event) -> None:
        """Coalition membership listener: count the change and, on an
        eviction, repair every shard's incremental histories so no
        session keeps deciding on the evictee's proofs.  Runs
        synchronously under the coalition's membership lock; shard
        locks nest inside it (the drain path never takes the
        coalition's lock, so the order stays acyclic)."""
        self.membership_events += 1
        self._obs_membership.inc()
        if event.kind == "evict":
            for name in event.servers:
                self.engine.rescind_server(name)

    @property
    def membership_epoch(self) -> int | None:
        """The bound coalition's current membership epoch (None when
        the service is not coalition-bound)."""
        return (
            self.coalition.membership_epoch
            if self.coalition is not None
            else None
        )

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = None,
        program: Program | None = None,
        observe_granted: bool = False,
        block: bool = True,
        timeout: float | None = None,
    ) -> "Future[Decision]":
        """Enqueue one request; returns a future for its
        :class:`~repro.rbac.audit.Decision`.

        ``history=None`` (the default) selects the engine's
        **incremental mode**: the spatial check runs against the
        session's own observed history via cached monitor states.  Pass
        an explicit trace — ``()`` for "no proved history" — to check
        against exactly that trace instead.  The default is ``None`` on
        :meth:`submit`, :meth:`decide` and :meth:`submit_many` alike,
        so single and batched submission of the same request decide
        identically.

        ``block=True`` (default) applies backpressure when the owning
        shard's queue is full; ``block=False`` raises
        :class:`~repro.errors.ServiceError` instead.  With
        ``observe_granted`` a granted access is fed back through
        :meth:`~repro.rbac.engine.AccessControlEngine.observe` in the
        same critical section (the executing-client pattern).
        """
        if self._closed:
            raise ServiceError("service is shut down")
        index = self.engine.shard_of(session)
        future: Future[Decision] = _ShardFuture(self._future_conditions[index])
        item = (
            future,
            session,
            access if type(access) is AccessKey else AccessKey(*access),
            t,
            history,
            program,
            observe_granted,
            time.perf_counter(),
        )
        # Count the submission *before* the queue put: a worker can
        # complete the request between the put and any later increment,
        # which would let observers see completed > submitted.  On
        # rejection the reservation is rolled back.
        with self._stats_lock:
            self._submitted += 1
        if not self._queues[index].put_many(
            (item,), block=block, timeout=timeout
        ):
            with self._stats_lock:
                self._submitted -= 1
                self._rejected += 1
            if OBS.enabled:
                self._obs_rejected.inc()
            raise ServiceError(
                f"shard {index} queue is full "
                f"({self._queues[index].maxsize} pending)"
            )
        self._kick(index)
        return future

    def decide(
        self,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None = None,
        program: Program | None = None,
    ) -> Decision:
        """Synchronous convenience: submit and wait (incremental-mode
        history by default, like :meth:`submit`)."""
        return self.submit(session, access, t, history, program).result()

    def submit_many(
        self,
        requests: Iterable[
            tuple[Session, AccessKey | tuple[str, str, str], float]
        ],
        observe_granted: bool = False,
        block: bool = True,
        timeout: float | None = None,
    ) -> "list[Future[Decision]]":
        """Submit a batch of ``(session, access, t)`` requests, each in
        incremental-history mode — the same default as :meth:`submit`,
        so batch and single submission decide identically.

        The batch is pre-sliced per shard and appended to each shard
        queue in one lock acquisition, then every touched shard gets a
        single drain kick — heavy traffic pays per-batch overheads, not
        per-request ones.  ``block=True`` (default) applies
        backpressure per shard; with ``block=False`` (or an elapsed
        ``timeout``) requests that find no queue room are rejected by
        resolving **their own futures** with
        :class:`~repro.errors.ServiceError` — accepted requests in the
        same call proceed normally, and rejections count toward the
        ``rejected`` stat exactly as for :meth:`submit`.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        now = time.perf_counter()
        futures: list[Future[Decision]] = []
        shard_of = self.engine.shard_of
        conditions = self._future_conditions
        per_shard: dict[int, list] = {}
        for session, access, t in requests:
            index = shard_of(session)
            future: Future[Decision] = _ShardFuture(conditions[index])
            futures.append(future)
            items = per_shard.get(index)
            if items is None:
                items = per_shard[index] = []
            items.append(
                (
                    future,
                    session,
                    access if type(access) is AccessKey else AccessKey(*access),
                    t,
                    None,
                    None,
                    observe_granted,
                    now,
                )
            )
        with self._stats_lock:
            self._submitted += len(futures)
        rejected = 0
        for index, items in per_shard.items():
            accepted = self._queues[index].put_many(
                items, block=block, timeout=timeout
            )
            if accepted:
                self._kick(index)
            if accepted < len(items):
                rejected += len(items) - accepted
                error = ServiceError(
                    f"shard {index} queue is full "
                    f"({self._queues[index].maxsize} pending)"
                )
                for item in items[accepted:]:
                    item[0].set_exception(error)
        if rejected:
            with self._stats_lock:
                self._submitted -= rejected
                self._rejected += rejected
            if OBS.enabled:
                self._obs_rejected.inc(rejected)
        return futures

    # -- worker side ------------------------------------------------------------

    def _kick(self, index: int) -> None:
        """Schedule a drainer for a shard unless one is already active
        (or already scheduled)."""
        with self._drain_locks[index]:
            if self._drain_active[index]:
                return
            self._drain_active[index] = True
        try:
            self._executor.submit(self._drain_shard, index)
        except RuntimeError:
            with self._drain_locks[index]:
                self._drain_active[index] = False
            raise

    def _drain_shard(self, index: int) -> None:
        """The per-shard drain task: coalesce, pop a micro-batch,
        process it, then either hand the shard back to the pool (more
        work pending — requeue so one hot shard cannot starve the
        others when ``workers < shards``) or clear the drain flag."""
        q = self._queues[index]
        while True:
            window = self._windows[index]
            if window > 0.0 and 0 < q.qsize() < self._batch_goal:
                # Coalesce outside every lock: let a shallow queue fill
                # for up to the adaptive window before sweeping.
                time.sleep(window)
            items = q.pop_upto(self.max_batch)
            if items:
                self._process_batch(index, items)
            with self._drain_locks[index]:
                if q.empty():
                    self._drain_active[index] = False
                    return
            if not self._closed:
                try:
                    self._executor.submit(self._drain_shard, index)
                    return
                except RuntimeError:
                    # Executor shutting down mid-drain: finish inline so
                    # no accepted request is stranded.
                    pass

    def _process_batch(self, index: int, items: list) -> None:
        obs_on = OBS.enabled
        occupancy = len(items) + self._queues[index].qsize()
        shard = self.engine._shards[index]
        # Honour cancellation before anything can enter a sweep: only a
        # future that transitions to RUNNING here gets decided.
        # cancel() returns False from now on, so the future resolution
        # below cannot race a concurrent cancel.  The whole scan runs
        # under one acquisition of the shard's shared future condition
        # (equivalent to per-item ``set_running_or_notify_cancel`` —
        # ``cancel()`` already notified waiters and ran callbacks, so
        # the cancelled branch only records the terminal state).
        live = []
        cancelled = 0
        condition = self._future_conditions[index]
        with condition:
            for item in items:
                future = item[0]
                if future._state == _PENDING:
                    future._state = _RUNNING
                    live.append(item)
                else:  # CANCELLED (the only other pre-decision state)
                    future._state = _CANCELLED_AND_NOTIFIED
                    for waiter in future._waiters:
                        waiter.add_cancelled(future)
                    cancelled += 1
        popped_at = time.perf_counter()
        results: list[tuple] = []
        if live:
            with shard.lock:
                self._decide_batch_locked(shard, live, results)
        decided_at = time.perf_counter()

        # Outside the shard lock: downstream effects, per-item
        # accounting and prompt future resolution (each future resolves
        # right after its own hook, not after the whole batch's).
        granted = denied = errors = 0
        total_latency = 0.0
        max_latency = 0.0
        hook = self._hook
        if hook is not None:
            for item, decision, error in results:
                if error is None:
                    error = self._run_hook(decision)
                latency = time.perf_counter() - item[7]
                total_latency += latency
                if latency > max_latency:
                    max_latency = latency
                if error is not None:
                    errors += 1
                    item[0].set_exception(error)
                else:
                    if decision.granted:
                        granted += 1
                    else:
                        denied += 1
                    item[0].set_result(decision)
        elif results:
            # Hookless fast path: resolve the whole batch under one
            # acquisition of the shared condition with one broadcast
            # (``decided_at`` *is* each item's completion time), then
            # run any registered done-callbacks outside it — the same
            # transitions ``set_result``/``set_exception`` make, minus
            # a lock cycle and a wakeup per item.
            callbacks = None
            with condition:
                for item, decision, error in results:
                    latency = decided_at - item[7]
                    total_latency += latency
                    if latency > max_latency:
                        max_latency = latency
                    future = item[0]
                    if error is not None:
                        errors += 1
                        future._exception = error
                    else:
                        if decision.granted:
                            granted += 1
                        else:
                            denied += 1
                        future._result = decision
                    future._state = _FINISHED
                    for waiter in future._waiters:
                        if error is not None:
                            waiter.add_exception(future)
                        else:
                            waiter.add_result(future)
                    if future._done_callbacks:
                        if callbacks is None:
                            callbacks = []
                        callbacks.append(future)
                condition.notify_all()
            if callbacks is not None:
                for future in callbacks:
                    future._invoke_callbacks()
        done_at = time.perf_counter()

        batch_n = len(items)
        with self._stats_lock:
            self._completed += len(results)
            completed = self._completed
            self._granted += granted
            self._denied += denied
            self._errors += errors
            self._total_latency += total_latency
            if max_latency > self._max_latency:
                self._max_latency = max_latency
            self._cancelled += cancelled
            self._batches += 1
            self._batched_requests += batch_n
            if batch_n > self._max_batch_seen:
                self._max_batch_seen = batch_n
            self._idle.notify_all()

        # Adaptive window: deep drains grow the coalescing wait toward
        # max_wait_s; shallow ones collapse it so an idle or trickling
        # shard pays (near) zero added latency.
        ewma = (
            BATCH_EWMA_DECAY * self._batch_ewma[index]
            + (1.0 - BATCH_EWMA_DECAY) * batch_n
        )
        self._batch_ewma[index] = ewma
        if self.max_wait_s > 0.0 and self.max_batch > 1:
            if ewma <= 1.5:
                self._windows[index] = 0.0
            else:
                self._windows[index] = self.max_wait_s * min(
                    1.0, ewma / self._batch_goal
                )

        if obs_on:
            if cancelled:
                self._obs_cancelled.inc(cancelled)
            self._obs_batch_size[index].observe(batch_n)
            self._obs_occupancy[index].observe(occupancy)
            decide_s = decided_at - popped_at
            hook_s = done_at - decided_at
            self._obs_decide[index].observe(decide_s)
            if hook is not None:
                self._obs_hook[index].observe(hook_s)
            queue_wait_obs = self._obs_queue_wait[index]
            for item, _decision, _error in results:
                queue_wait_obs.observe(popped_at - item[7])
            if results and completed % REQUEST_SPAN_SAMPLE < len(results):
                enqueued_at = results[0][0][7]
                RECORDER.record(
                    "service.request",
                    enqueued_at,
                    done_at - enqueued_at,
                    {
                        "shard": index,
                        "batch": batch_n,
                        "occupancy": occupancy,
                        "queue_wait_s": popped_at - enqueued_at,
                        "decide_s": decide_s,
                        "hook_s": hook_s,
                        "sampled": REQUEST_SPAN_SAMPLE,
                    },
                    error=(
                        type(results[-1][2]).__name__
                        if results[-1][2] is not None
                        else None
                    ),
                )

    def _decide_batch_locked(
        self, shard, live: list, results: list
    ) -> None:
        """Decide a drained batch under the shard lock, appending
        ``(item, decision, error)`` triples to ``results`` in arrival
        order.

        Contiguous vector-eligible stretches (incremental history, no
        program, no ``observe_granted``) are swept through
        :func:`~repro.rbac.vector_engine.sweep_interleaved`; any other
        request is decided scalar **in its arrival slot**, so
        ``observe_granted`` feedback is replayed in stream order and
        the per-shard audit log is identical to the scalar service's.
        Every scalar decision is exception-isolated: a poisoned request
        fails only its own future.
        """
        run: list = []
        for item in live:
            if item[4] is None and item[5] is None and not item[6]:
                run.append(item)
                continue
            if run:
                self._flush_run(shard, run, results)
                run = []
            _future, session, access, t, history, program, observe, _enq = item
            try:
                decision = self.engine._decide_on(
                    shard, session, access, t, history, program
                )
                if observe and decision.granted:
                    shard.engine.observe(session, access)
                results.append((item, decision, None))
            except BaseException as exc:
                results.append((item, None, exc))
        if run:
            self._flush_run(shard, run, results)

    def _flush_run(self, shard, run: list, results: list) -> None:
        """Dispatch one vector-eligible run: the batched sweep when it
        is long enough and every session group prepares, the scalar
        per-request loop (with per-item exception isolation) otherwise."""
        if len(run) >= MIN_VECTOR_RUN:
            decisions = None
            try:
                decisions = sweep_interleaved(
                    shard.engine,
                    [(item[1], item[2], item[3]) for item in run],
                )
            except BaseException:
                # A poisoned request must fail only its own future:
                # replay the run item-by-item below so the failure is
                # isolated to the request that caused it.
                shard.engine._vector_fallbacks += len(run)
            if decisions is not None:
                shard.decisions += len(run)
                granted = 0
                for item, decision in zip(run, decisions):
                    if decision.granted:
                        granted += 1
                    results.append((item, decision, None))
                shard.granted += granted
                return
        for item in run:
            try:
                decision = self.engine._decide_on(
                    shard, item[1], item[2], item[3], None, None
                )
                results.append((item, decision, None))
            except BaseException as exc:
                results.append((item, None, exc))

    def _run_hook(self, decision: Decision) -> BaseException | None:
        """Invoke the post-decision hook, retrying per ``hook_retry``.
        Returns the final exception, or None on success."""
        attempt = 0
        first_failure: float | None = None
        while True:
            try:
                self._hook(decision)
                return None
            except BaseException as exc:
                now = time.monotonic()
                if first_failure is None:
                    first_failure = now
                if self._hook_retry is None or self._hook_retry.exhausted(
                    attempt, first_failure, now
                ):
                    return exc
                time.sleep(self._hook_retry.delay(attempt))
                attempt += 1
                with self._stats_lock:
                    self._hook_retries += 1

    # -- synchronisation ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has completed (the
        service-level ``flush()``).  Returns ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._completed + self._cancelled < self._submitted:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- stats ------------------------------------------------------------------

    def service_stats(self) -> ServiceStats:
        shard_rows = self.engine.shard_stats()
        with self._stats_lock:
            return ServiceStats(
                submitted=self._submitted,
                completed=self._completed,
                granted=self._granted,
                denied=self._denied,
                errors=self._errors,
                rejected=self._rejected,
                total_latency_s=self._total_latency,
                max_latency_s=self._max_latency,
                queue_depths=tuple(q.qsize() for q in self._queues),
                shard_decisions=tuple(row["decisions"] for row in shard_rows),
                workers=self.workers,
                shards=self.engine.shard_count,
                hook_retries=self._hook_retries,
                cancelled=self._cancelled,
                batches=self._batches,
                batched_requests=self._batched_requests,
                max_batch_size=self._max_batch_seen,
                vector_decisions=sum(
                    row["vector_decisions"] for row in shard_rows
                ),
                vector_fallbacks=sum(
                    row["vector_fallbacks"] for row in shard_rows
                ),
                expired_sessions=self._expired_sessions,
            )

    def reset_stats(self) -> None:
        """Zero the service counters and the engine-side counters so a
        benchmark can measure warm steady-state without restarting."""
        with self._stats_lock:
            self._submitted -= self._completed + self._cancelled
            self._completed = 0
            self._granted = 0
            self._denied = 0
            self._errors = 0
            self._rejected = 0
            self._total_latency = 0.0
            self._max_latency = 0.0
            self._hook_retries = 0
            self._cancelled = 0
            self._batches = 0
            self._batched_requests = 0
            self._max_batch_seen = 0
            self._expired_sessions = 0
        self.engine.reset_stats()

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._idle_stop.set()
        if self._idle_thread is not None and wait:
            self._idle_thread.join()
            self._idle_thread = None
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "DecisionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
