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
import logging
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ServiceError
from repro.faults.retry import RetryPolicy
from repro.obs import OBS, RECORDER, REGISTRY
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine
from repro.rbac.session_store import Session
from repro.rbac.vector_engine import sweep_interleaved
from repro.service.sharding import ShardedEngine
from repro.sral.ast import Program
from repro.traces.trace import AccessKey, Trace

__all__ = ["DecisionService", "ServiceStats"]

_log = logging.getLogger(__name__)

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

# Request states, in lifecycle order (done means >= _CANCELLED).
_PENDING, _RUNNING, _CANCELLED, _FINISHED = range(4)


class _Request:
    """One submitted request, from :meth:`DecisionService.submit` to its
    resolution: the request fields plus a result slot.

    The future-style surface — :meth:`result`, :meth:`exception`,
    :meth:`cancel`, :meth:`cancelled`, :meth:`running`, :meth:`done`
    and :meth:`add_done_callback` — is guarded by the condition its
    shard shares among all its requests: a lock per request would be
    the largest submission cost at micro-batching rates, and a shard's
    requests resolve on its single active drainer anyway.  Waits loop,
    because one request's broadcast also wakes its siblings.
    """

    __slots__ = (
        "session", "access", "t", "history", "program", "observe",
        "enqueued_at", "_condition", "_state", "_result", "_exception",
        "_callbacks",
    )

    def __init__(
        self,
        condition: threading.Condition,
        session: Session,
        access: AccessKey | tuple[str, str, str],
        t: float,
        history: Trace | None,
        program: Program | None,
        observe: bool,
        enqueued_at: float,
    ):
        self.session = session
        self.access = access if type(access) is AccessKey else AccessKey.of(access)
        self.t = t
        self.history = history
        self.program = program
        self.observe = observe
        self.enqueued_at = enqueued_at
        self._condition = condition
        self._state = _PENDING
        self._result: Decision | None = None
        self._exception: BaseException | None = None
        self._callbacks: list | None = None

    def _wait(self, timeout: float | None) -> None:
        """Wait (condition held) until resolved; raises
        :class:`CancelledError` or, once ``timeout`` has elapsed,
        :class:`TimeoutError`."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._state < _CANCELLED:
            if deadline is None:
                self._condition.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError()
            self._condition.wait(remaining)
        if self._state == _CANCELLED:
            raise CancelledError()

    def result(self, timeout: float | None = None) -> Decision:
        """The decision; re-raises the request's exception."""
        with self._condition:
            self._wait(timeout)
            if self._exception is not None:
                raise self._exception
            return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The exception the request failed with, or ``None``."""
        with self._condition:
            self._wait(timeout)
            return self._exception

    def cancel(self) -> bool:
        """Cancel the request while it waits in its shard queue.
        Returns ``False`` once a drainer has taken it or it finished."""
        with self._condition:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
            callbacks, self._callbacks = self._callbacks, None
            self._condition.notify_all()
        _run_callbacks(self, callbacks)
        return True

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def running(self) -> bool:
        return self._state == _RUNNING

    def done(self) -> bool:
        return self._state >= _CANCELLED

    def add_done_callback(self, fn: Callable[["_Request"], object]) -> None:
        """Call ``fn(request)`` once the request is done — at once if
        it already is."""
        with self._condition:
            if self._state < _CANCELLED:
                if self._callbacks is None:
                    self._callbacks = [fn]
                else:
                    self._callbacks.append(fn)
                return
        _run_callbacks(self, (fn,))


def _run_callbacks(request: _Request, callbacks) -> None:
    """Run done-callbacks outside every lock; a raising callback is
    logged and the rest still run (as with ``Future``)."""
    for fn in callbacks or ():
        try:
            fn(request)
        except Exception:
            _log.exception("exception calling callback for %r", request)


def _resolve(condition: threading.Condition, outcomes) -> None:
    """Finish ``(request, decision, error)`` outcomes of one shard under
    one acquisition of its condition with one broadcast, then run their
    done-callbacks outside it."""
    pending = []
    with condition:
        for request, decision, error in outcomes:
            request._result = decision
            request._exception = error
            request._state = _FINISHED
            if request._callbacks is not None:
                pending.append((request, request._callbacks))
                request._callbacks = None
        condition.notify_all()
    for request, callbacks in pending:
        _run_callbacks(request, callbacks)


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
    #: Requests cancelled before a worker picked them up (they are
    #: popped, never decided, and count toward drain()).
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
        every decision, before its request resolves.
    hook_retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` for the
        post-decision hook.  The hook is the delivery edge of the
        service (it typically feeds a
        :class:`~repro.service.batching.ProofBatch` or an emulated
        network); with a policy attached, a raising hook is re-invoked
        on the deterministic backoff schedule (real ``time.sleep`` —
        size the delays for the deployment) before the error is
        surfaced on the request.
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
        ``True`` (or a request alphabet iterable) interns every policy
        constraint's state table and the live masks of its request
        universes at construction via :meth:`ShardedEngine.prewarm`,
        eliminating the cold-start spike on the first batch.  Pass the
        expected request alphabet for full coverage — with ``True``
        alone, only the constraints' own universes are warmed.
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
        behind the newest activity on any shard.  The sweep runs on the
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
        # One condition per shard, shared by its requests (see _Request).
        self._conditions = [
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
    ) -> _Request:
        """Enqueue one request; returns a request object that resolves
        to its :class:`~repro.rbac.audit.Decision`.

        The returned object offers ``result(timeout)``,
        ``exception(timeout)``, ``cancel()``, ``cancelled()``,
        ``running()``, ``done()`` and ``add_done_callback(fn)``, raising
        :class:`~concurrent.futures.CancelledError` and
        :class:`TimeoutError` as a :class:`~concurrent.futures.Future`
        does.  It is not a ``Future``: ``concurrent.futures.wait`` and
        ``as_completed`` do not accept it.  ``cancel()`` succeeds only
        while the request still waits in its shard queue.

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
        request = _Request(
            self._conditions[index], session, access, t, history, program,
            observe_granted, time.perf_counter(),
        )
        error = self._enqueue(index, [request], block, timeout)
        if error is not None:
            raise error
        return request

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
    ) -> list[_Request]:
        """Submit a batch of ``(session, access, t)`` requests, each in
        incremental-history mode — the same default as :meth:`submit`,
        so batch and single submission decide identically.  Returns one
        request object per request, in order, with the methods listed
        under :meth:`submit`.

        The batch is pre-sliced per shard and appended to each shard
        queue in one lock acquisition, then every touched shard gets a
        single drain kick — heavy traffic pays per-batch overheads, not
        per-request ones.  ``block=True`` (default) applies
        backpressure per shard; with ``block=False`` (or an elapsed
        ``timeout``) requests that find no queue room are rejected by
        resolving **their own request objects** with
        :class:`~repro.errors.ServiceError` — accepted requests in the
        same call proceed normally, and rejections count toward the
        ``rejected`` stat exactly as for :meth:`submit`.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        now = time.perf_counter()
        shard_of = self.engine.shard_of
        conditions = self._conditions
        out: list[_Request] = []
        per_shard: dict[int, list[_Request]] = {}
        for session, access, t in requests:
            index = shard_of(session)
            request = _Request(
                conditions[index], session, access, t, None, None,
                observe_granted, now,
            )
            out.append(request)
            batch = per_shard.get(index)
            if batch is None:
                per_shard[index] = [request]
            else:
                batch.append(request)
        for index, batch in per_shard.items():
            self._enqueue(index, batch, block, timeout)
        return out

    def _enqueue(
        self,
        index: int,
        requests: list[_Request],
        block: bool,
        timeout: float | None,
    ) -> ServiceError | None:
        """Append one shard's requests to its queue and kick its
        drainer — the one enqueue path of :meth:`submit` and
        :meth:`submit_many`.  The requests count as submitted *before*
        the put: a worker can complete one between the put and any
        later increment, which would let observers see completed >
        submitted.  Requests that find no room are rolled back, counted
        as rejected and resolved with the returned
        :class:`~repro.errors.ServiceError` (``None`` when all fit)."""
        queue = self._queues[index]
        with self._stats_lock:
            self._submitted += len(requests)
        accepted = queue.put_many(requests, block=block, timeout=timeout)
        if accepted:
            self._kick(index)
        rejected = len(requests) - accepted
        if not rejected:
            return None
        with self._stats_lock:
            self._submitted -= rejected
            self._rejected += rejected
        if OBS.enabled:
            self._obs_rejected.inc(rejected)
        error = ServiceError(
            f"shard {index} queue is full ({queue.maxsize} pending)"
        )
        _resolve(
            self._conditions[index],
            [(request, None, error) for request in requests[accepted:]],
        )
        return error

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

    def _process_batch(self, index: int, items: list[_Request]) -> None:
        obs_on = OBS.enabled
        occupancy = len(items) + self._queues[index].qsize()
        shard = self.engine._shards[index]
        condition = self._conditions[index]
        # Honour cancellation before anything can enter a sweep: only a
        # request that turns RUNNING here gets decided, and cancel()
        # returns False from then on, so the resolution below cannot
        # race a concurrent cancel.  Anything not PENDING was cancelled
        # (rejected requests never reach a queue).
        live = []
        with condition:
            for request in items:
                if request._state == _PENDING:
                    request._state = _RUNNING
                    live.append(request)
        cancelled = len(items) - len(live)
        popped_at = time.perf_counter()
        results: list[tuple] = []
        if live:
            with shard.lock:
                self._decide_batch_locked(shard.engine, live, results)
        decided_at = time.perf_counter()

        # Outside the shard lock: downstream effects, per-item
        # accounting and prompt resolution.  Without a hook the whole
        # batch resolves in one broadcast (``decided_at`` *is* each
        # request's completion time); with one, each request resolves
        # right after its own hook, not after the whole batch's.
        hook = self._hook
        if hook is None and results:
            _resolve(condition, results)
        granted = denied = errors = 0
        total_latency = 0.0
        max_latency = 0.0
        finished_at = decided_at
        for request, decision, error in results:
            if hook is not None:
                if error is None:
                    error = self._run_hook(decision)
                _resolve(condition, ((request, decision, error),))
                finished_at = time.perf_counter()
            latency = finished_at - request.enqueued_at
            total_latency += latency
            if latency > max_latency:
                max_latency = latency
            if error is not None:
                errors += 1
            elif decision.granted:
                granted += 1
            else:
                denied += 1
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
            for request, _decision, _error in results:
                queue_wait_obs.observe(popped_at - request.enqueued_at)
            if results and completed % REQUEST_SPAN_SAMPLE < len(results):
                enqueued_at = results[0][0].enqueued_at
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
        self,
        engine: AccessControlEngine,
        live: list[_Request],
        results: list,
    ) -> None:
        """Decide a drained batch under the shard lock, appending
        ``(request, decision, error)`` triples to ``results`` in
        arrival order.

        Contiguous vector-eligible stretches (incremental history, no
        program, no ``observe_granted``) are swept through
        :func:`~repro.rbac.vector_engine.sweep_interleaved`; any other
        request is decided scalar **in its arrival slot**, so
        ``observe_granted`` feedback is replayed in stream order and
        the per-shard audit log is identical to the scalar service's.
        """
        run: list[_Request] = []
        for request in live:
            if (
                request.history is None
                and request.program is None
                and not request.observe
            ):
                run.append(request)
                continue
            if run:
                self._flush_run(engine, run, results)
                run = []
            self._decide_scalar(engine, (request,), results)
        if run:
            self._flush_run(engine, run, results)

    def _flush_run(
        self, engine: AccessControlEngine, run: list[_Request], results: list
    ) -> None:
        """Dispatch one vector-eligible run: the batched sweep when it
        is long enough and every session group prepares, the scalar
        loop otherwise."""
        if len(run) >= MIN_VECTOR_RUN:
            try:
                decisions = sweep_interleaved(
                    engine, [(r.session, r.access, r.t) for r in run]
                )
            except BaseException:
                # A poisoned request must fail only its own request:
                # the scalar loop below replays the run one by one.
                decisions = None
            if decisions is not None:
                results.extend(
                    (request, decision, None)
                    for request, decision in zip(run, decisions)
                )
                return
        self._decide_scalar(engine, run, results)

    @staticmethod
    def _decide_scalar(
        engine: AccessControlEngine,
        requests: Sequence[_Request],
        results: list,
    ) -> None:
        """The one scalar loop: decide each request in order, feeding
        ``observe_granted`` grants back.  Every exception, BaseException
        included, is stored on its own request — one escaping here
        would leave the shard's drain flag set and stall the shard."""
        for request in requests:
            try:
                decision = engine.decide(
                    request.session,
                    request.access,
                    request.t,
                    request.history,
                    request.program,
                )
                if request.observe and decision.granted:
                    engine.observe(request.session, request.access)
                results.append((request, decision, None))
            except BaseException as exc:
                results.append((request, None, exc))

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
        """Refuse new requests, stop the workers and unsubscribe from
        the coalition; with ``wait``, once the workers have finished,
        close the engine too.  Idempotent."""
        self._closed = True
        if self.coalition is not None:
            self.coalition.unsubscribe(self._on_membership)
        self._idle_stop.set()
        if self._idle_thread is not None and wait:
            self._idle_thread.join()
            self._idle_thread = None
        self._executor.shutdown(wait=wait)
        if wait:
            self.engine.close()

    def __enter__(self) -> "DecisionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
