"""The benchmark's client side: builds the service stack for a stream
and drives it open-loop or closed-loop.

Only public ``repro`` entry points are used: ``Policy``,
``ShardedEngine`` (bulk ``open_sessions``, ``session_at``,
``observe``), and ``DecisionService`` (``submit``, ``submit_many``,
``drain``, ``shutdown``).  Completion of every request is stamped by a
future done-callback; open-loop latency runs from the request's *due*
time on the seeded schedule, so a stalled generator (a GC pause, a
held GIL) adds to the latency of every request it delays instead of
silently lowering the offered load.
"""

from __future__ import annotations

import bisect
import collections
import functools
import gc
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServiceError
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ShardedEngine
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey
from workloads import COUNT_BOUND, DAY_S, EXEC, EXPLICIT, Stream, user_name

__all__ = [
    "ROLE",
    "Stack",
    "Client",
    "build_policy",
    "build_stack",
    "rss_mb",
]

ROLE = "agent"
COUNT_SRC = "count(0, {bound}, [res = rsw])"
ORDER_SRC = "exec rsw @ s0 >> exec rsw @ s1"
#: The count-gated permission outlives every stream (activation is at
#: most one day before it), so its denials are spatial only.
EXEC_BUDGET = 4.0 * DAY_S
#: The access pre-seeded histories repeat past the count bound.
PRESEED_ACCESS = ("exec", "rsw", "s0")
#: Head start of an open-loop schedule over the first due time, so
#: the first requests are not late by the loop's own set-up.
LEAD_S = 0.005
#: An open-loop phase is invalid when the generator, by itself, sent
#: more than 1 % of its requests later than this.
LATE_LIMIT_MS = 5.0


def build_policy(stream: Stream) -> Policy:
    """One role over three permissions: ``exec rsw`` gated by a
    counting constraint, ``read rsw`` gated by an ordering constraint,
    and ``write log`` (finite budget only in expiry workloads)."""
    policy = Policy()
    policy.add_role(ROLE)
    policy.add_permission(
        Permission(
            "exec-rsw",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint(COUNT_SRC.format(bound=COUNT_BOUND)),
            validity_duration=EXEC_BUDGET,
        )
    )
    policy.add_permission(
        Permission(
            "read-rsw",
            op="read",
            resource="rsw",
            spatial_constraint=parse_constraint(ORDER_SRC),
        )
    )
    policy.add_permission(
        Permission(
            "write-log",
            op="write",
            resource="log",
            validity_duration=stream.write_log_budget,
        )
    )
    for user in range(stream.shape.users):
        policy.add_user(user_name(user))
        policy.assign_user(user_name(user), ROLE)
    for permission in ("exec-rsw", "read-rsw", "write-log"):
        policy.assign_permission(ROLE, permission)
    return policy


@dataclass
class Stack:
    """The program under test, set up for one stream."""

    engine: ShardedEngine
    service: DecisionService
    #: ``handles[i]`` is session ``i``'s handle (touched sessions only).
    handles: list

    def close(self) -> None:
        self.service.shutdown(wait=True)


def build_stack(stream: Stream, service_cfg: dict) -> Stack:
    """Set-up, as a deployment would do it: policy, sharded engine,
    bulk-opened session population (one ``open_sessions`` call per
    activation cohort), handles for the sessions that will be
    addressed, pre-seeded histories, and the service with its SRAC
    tables prewarmed for the request alphabet."""
    shape = stream.shape
    engine = ShardedEngine(build_policy(stream), shards=service_cfg["shards"])
    names = [user_name(user) for user in range(shape.users)]
    user_shard = np.array([engine.shard_index(name) for name in names])
    sessions = np.arange(shape.sessions)
    shard_of = user_shard[sessions % shape.users]
    row_of = np.empty(shape.sessions, dtype=np.int64)
    cohorts = len(stream.activation)
    for cohort in range(cohorts):
        members = sessions[cohort::cohorts]
        rows_by_shard = engine.open_sessions(
            [names[user] for user in (members % shape.users).tolist()],
            float(stream.activation[cohort]),
            roles=(ROLE,),
        )
        # open_sessions keeps arrival order within each shard.
        member_shard = shard_of[members]
        for shard, rows in rows_by_shard.items():
            row_of[members[member_shard == shard]] = rows
    handles: list = [None] * shape.sessions
    for session in stream.touched.tolist():
        handles[session] = engine.session_at(
            int(shard_of[session]), int(row_of[session])
        )
    seed_access = AccessKey.of(*PRESEED_ACCESS)
    for session in stream.preseed.tolist():
        for _ in range(COUNT_BOUND + 1):
            engine.observe(handles[session], seed_access)
    service = DecisionService(
        engine,
        workers=service_cfg["workers"],
        queue_depth=service_cfg["queue_depth"],
        max_batch=service_cfg["max_batch"],
        max_wait_s=service_cfg["max_wait_s"],
        prewarm=[AccessKey.of(*a) for a in stream.alphabet],
    )
    return Stack(engine=engine, service=service, handles=handles)


def _complete(done_at: list, outcome: list, k: int, future) -> None:
    """Done-callback: stamp completion and keep the outcome (a
    ``Decision`` or the exception the request failed with)."""
    done_at[k] = time.perf_counter()
    try:
        outcome[k] = future.result()
    except Exception as exc:
        outcome[k] = exc


class Client:
    """Submits slices of a stream to a stack in stream order.

    Consecutive requests of one kind go out together: incremental
    checks and executions through ``submit_many`` (executions with
    ``observe_granted=True``), proof-carrying checks through ``submit``
    with their explicit history.  Stream order is kept exactly, so each
    session's requests reach its shard in increasing logical time."""

    def __init__(self, stack: Stack, stream: Stream):
        self.service = stack.service
        keys = [AccessKey.of(*a) for a in stream.alphabet]
        histories = [tuple(keys[a] for a in h) for h in stream.histories]
        n = len(stream.t)
        self.sessions = [stack.handles[s] for s in stream.session.tolist()]
        self.accesses = [keys[a] for a in stream.access.tolist()]
        self.times = stream.t.tolist()
        self.kinds = stream.kind.tolist()
        self.histories = [
            histories[h] if h >= 0 else None for h in stream.history.tolist()
        ]
        # run_end[k]: end of the same-kind run holding request k.
        starts = np.flatnonzero(np.diff(stream.kind)) + 1
        ends = np.append(starts, n)
        self.run_end = ends[np.searchsorted(starts, np.arange(n), side="right")].tolist()
        self.done_at = [0.0] * n
        self.outcome: list = [None] * n
        #: Generator-side time spent inside submit calls, and requests.
        self.submit_s = 0.0
        self.submitted = 0

    def submit(self, lo: int, hi: int, block: bool) -> list:
        """Submit ``[lo, hi)``; returns the futures of the accepted
        requests."""
        service = self.service
        done_at, outcome = self.done_at, self.outcome
        accepted = []
        started = time.perf_counter()
        i = lo
        while i < hi:
            j = min(self.run_end[i], hi)
            kind = self.kinds[i]
            if kind == EXPLICIT:
                for k in range(i, j):
                    try:
                        future = service.submit(
                            self.sessions[k],
                            self.accesses[k],
                            self.times[k],
                            history=self.histories[k],
                            block=block,
                        )
                    except ServiceError as exc:  # queue full: rejected
                        done_at[k] = time.perf_counter()
                        outcome[k] = exc
                        continue
                    future.add_done_callback(
                        functools.partial(_complete, done_at, outcome, k)
                    )
                    accepted.append(future)
            else:
                futures = service.submit_many(
                    zip(self.sessions[i:j], self.accesses[i:j], self.times[i:j]),
                    observe_granted=kind == EXEC,
                    block=block,
                )
                for k, future in enumerate(futures, i):
                    future.add_done_callback(
                        functools.partial(_complete, done_at, outcome, k)
                    )
                accepted.extend(futures)
            i = j
        self.submit_s += time.perf_counter() - started
        self.submitted += hi - lo
        return accepted

    def failed(self, lo: int, hi: int) -> int:
        return sum(isinstance(o, Exception) for o in self.outcome[lo:hi])

    def open_loop(self, lo: int, hi: int, due: np.ndarray, slo_ms: float) -> dict:
        """Send ``[lo, hi)`` on the ``due`` schedule (offsets from the
        phase start), never waiting for replies; everything due is
        sent at once, with ``block=False`` so a full queue rejects
        instead of throttling the generator.

        Besides the latencies it reports how late the generator sent:
        ``late_p99_ms`` over every request, and ``own_late_p99_ms`` over
        the requests no long collector pause backlogged."""
        due_list = due.tolist()
        n = hi - lo
        sent = np.empty(n)
        idle: list[float] = []
        collections_before = gc_collections()
        clock = time.perf_counter
        with Pauses() as pauses:
            start = clock() + LEAD_S
            i = 0
            while i < n:
                now = clock() - start
                if due_list[i] > now:
                    idle.append(now)
                    time.sleep(due_list[i] - now)
                    continue
                j = bisect.bisect_right(due_list, now, i)
                self.submit(lo + i, lo + j, block=False)
                sent[i:j] = now
                i = j
            self.service.drain()
        wall = clock() - start
        latency = np.array(self.done_at[lo:hi]) - (start + due)
        ok = np.array([not isinstance(o, Exception) for o in self.outcome[lo:hi]])
        out = latency_summary(latency, ok, slo_ms)
        late = sent - due
        own = ~pauses.backlog(start + due, start + np.array(idle), LATE_LIMIT_MS / 1e3)
        out["late_p99_ms"] = float(np.percentile(late, 99) * 1e3)
        out["own_late_p99_ms"] = (
            float(np.percentile(late[own], 99) * 1e3) if own.any() else 0.0
        )
        out["backlogged"] = int(n - own.sum())
        out["wall_s"] = wall
        out["offered_rps"] = n / float(due[-1])
        out["gc_collections"] = _since(collections_before)
        return out

    def closed_loop(self, lo: int, hi: int, chunk: int) -> dict:
        """Submit ``[lo, hi)`` in ``chunk``-request batches, each only
        once the batch before the previous one has been answered (at
        most two in flight: the queues never run dry, and never hold
        the whole slice), then drain."""
        collections_before = gc_collections()
        start = time.perf_counter()
        in_flight: collections.deque = collections.deque()
        for c in range(lo, hi, chunk):
            in_flight.append(self.submit(c, min(c + chunk, hi), block=True))
            if len(in_flight) > 1:
                for future in in_flight.popleft():
                    future.exception()
        self.service.drain()
        wall = time.perf_counter() - start
        return {
            "requests": hi - lo,
            "failed": self.failed(lo, hi),
            "wall_s": wall,
            "rps": (hi - lo) / wall,
            "gc_collections": _since(collections_before),
        }


def gc_collections() -> list[int]:
    """Collections run so far, per generation (interpreter counters;
    reading them costs nothing on the measured path)."""
    return [generation["collections"] for generation in gc.get_stats()]


def _since(before: list[int]) -> list[int]:
    return [after - b for after, b in zip(gc_collections(), before)]


class Pauses:
    """Collector pauses while the context is open, from ``gc.callbacks``.

    A collection holds the interpreter lock, so it stalls the generator
    as it stalls the service, and the generator then spends a while
    sending the backlog while the workers compete for the lock.  The
    requests so delayed count in the latencies; they are left out of
    the generator's own lateness, which then shows only the generator
    falling behind by itself."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _on_gc(self, phase: str, info: dict) -> None:
        (self.starts if phase == "start" else self.ends).append(time.perf_counter())

    def __enter__(self) -> "Pauses":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def backlog(self, due: np.ndarray, idle: np.ndarray, longer_than: float) -> np.ndarray:
        """Mask of the requests (``due`` sorted) due from the start of a
        pause longer than ``longer_than`` to the generator's first idle
        moment (sorted ``idle``) after its end."""
        mask = np.zeros(len(due), dtype=bool)
        for start, end in zip(self.starts, self.ends):
            if end - start > longer_than:
                k = np.searchsorted(idle, end)
                caught_up = idle[k] if k < len(idle) else np.inf
                lo, hi = np.searchsorted(due, [start, caught_up])
                mask[lo:hi] = True
        return mask


def latency_summary(latency_s: np.ndarray, ok: np.ndarray, slo_ms: float) -> dict:
    """Percentiles over the requests that completed; the SLO share
    counts failed requests as misses."""
    n = len(latency_s)
    done_ms = latency_s[ok] * 1e3
    if len(done_ms):
        p50, p99, p999 = np.percentile(done_ms, [50, 99, 99.9]).tolist()
    else:
        p50 = p99 = p999 = float("nan")
    return {
        "requests": n,
        "failed": int(n - ok.sum()),
        "p50_ms": p50,
        "p99_ms": p99,
        "p999_ms": p999,
        "slo_share": float((done_ms <= slo_ms).sum() / n) if n else float("nan"),
    }


def rss_mb() -> float:
    """Current resident set size (MB = 10**6 bytes)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
