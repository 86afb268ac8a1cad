"""Discrete-event simulation of mobile agents roaming a coalition.

This is the emulation substrate the paper builds with the Naplet Java
system, reduced to its essentials: agents are cooperative coroutines
(the SRAL interpreter's request generators), the scheduler owns a
virtual global clock and an event heap, and every effect — resource
access, migration with latency, channel I/O, signal synchronisation,
cloning for ``||`` — is an event.

Key behaviours:

* **Implicit migration** — an access ``op r @ s`` from an agent located
  elsewhere first migrates the agent to ``s`` (taking the coalition's
  latency), then performs the access.  The itinerary thus *emerges*
  from the program, as in the paper's model where computation "spreads
  across several hosting sites".
* **Security interposition** — on first arrival the agent is
  authenticated (certificate + RBAC session + role activation); every
  access then passes ``check_permission`` (spatial + temporal
  constraint checks); migrations notify the engine so per-server
  validity budgets reset under Scheme A.
* **Cloned parallelism** — ``p1 || p2`` spawns child agents with copies
  of the environment (the paper's ``ApplAgentProg`` cloned naplets);
  the parent resumes when all clones finish.
* **Blocking semantics** — ``ch ? x`` blocks on empty channels,
  ``wait(ξ)`` blocks until ``signal(ξ)``; wake-ups re-attempt the
  operation, so racing receivers are handled correctly.  If the event
  heap drains while agents are still blocked, the simulation reports a
  deadlock.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Literal

from repro.agent.interpreter import (
    DoAccess,
    DoReceive,
    DoSend,
    DoSignal,
    DoSpawn,
    DoWait,
    Request,
    interpret,
)
from repro.agent.naplet import Naplet, NapletStatus
from repro.agent.security import PermissiveSecurityManager, SecurityManager
from repro.coalition.channels import EMPTY
from repro.coalition.network import Coalition
from repro.errors import (
    AccessDenied,
    AgentError,
    AuthenticationError,
    CoalitionError,
    MigrationError,
    RbacError,
    ServerUnavailable,
    SimulationError,
)
from repro.faults.plan import FaultPlan
from repro.obs import OBS, RECORDER, REGISTRY
from repro.obs.provenance import DecisionProvenance
from repro.rbac.audit import Decision, Outcome
from repro.traces.trace import AccessKey

__all__ = ["Simulation", "SimulationReport"]

DeniedPolicy = Literal["abort", "skip"]


@dataclass
class _Task:
    """Scheduler-side state of one agent coroutine."""

    naplet: Naplet
    generator: Any
    inbox: Any = None  # value to send into the generator on resume
    pending: Request | None = None  # request to re-attempt on resume
    parent: "_Task | None" = None
    children_remaining: int = 0
    started: bool = False
    migrating_to: str | None = None  # destination of an in-flight migration
    fault_attempts: int = 0  # consecutive retries against a down server
    fault_since: float | None = None  # first failure time of that streak


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of a simulation run."""

    end_time: float
    events_processed: int
    naplets: tuple[Naplet, ...]
    deadlocked: tuple[str, ...]

    def by_id(self, naplet_id: str) -> Naplet:
        for naplet in self.naplets:
            if naplet.naplet_id == naplet_id:
                return naplet
        raise SimulationError(f"no naplet {naplet_id!r} in report")

    def statuses(self) -> dict[str, str]:
        return {n.naplet_id: n.status.value for n in self.naplets}

    def all_finished(self) -> bool:
        return all(n.status is NapletStatus.FINISHED for n in self.naplets)


class Simulation:
    """A coalition-wide discrete-event simulation.

    Parameters
    ----------
    coalition:
        Servers, latency model, channels, signals.
    security:
        The security manager interposed on every access (default:
        permissive).
    access_cost:
        Virtual time one access takes (or a callable
        ``(AccessKey) -> float``).
    on_denied:
        ``"abort"`` — a denied access terminates the agent with status
        ``DENIED`` (the paper's ``SecurityException``); ``"skip"`` — the
        denial is recorded and the program continues (the access is not
        performed).
    proof_propagation:
        ``None`` (default) — proofs live only in each object's carried
        registry, the paper's baseline.  ``"eager"`` — every executed
        access is announced to every other server immediately (one
        delivery call per access per destination).  ``"batched"`` —
        announcements coalesce in a
        :class:`~repro.service.batching.ProofBatch` and flush when
        their migration-latency window elapses (or on overflow /
        end-of-run), modelling the service's batched propagation.
        Either mode subscribes the batcher to the coalition's
        membership events, so the destination set follows churn.  The
        batcher is exposed as :attr:`proof_batch` for stats and
        explicit flushes.
    proof_batch_size:
        Overflow threshold of the batched mode.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Installing it
        (done here) attaches the server lifecycle to every coalition
        server and composes the link's extra delay into the latency
        model; proof deliveries then travel through a
        :class:`~repro.faults.transport.FaultyTransport` and retry on
        the plan's backoff schedule, agents re-attempt migrations and
        accesses against down servers on ``migration_retry``, and the
        plan's :class:`~repro.faults.plan.DegradationPolicy` (if any)
        gates decisions on proof-propagation corroboration.  The plan's
        :class:`~repro.faults.churn.MembershipSchedule` (if any) is
        applied by the run loop: joins, graceful leaves, abrupt
        evictions and coalition merges take effect at their scheduled
        virtual times, before any agent event at or after that time.
    """

    def __init__(
        self,
        coalition: Coalition,
        security: SecurityManager | None = None,
        access_cost: float | Callable[[AccessKey], float] = 1.0,
        on_denied: DeniedPolicy = "abort",
        max_loop_iterations: int = 100_000,
        proof_propagation: Literal["eager", "batched"] | None = None,
        proof_batch_size: int = 32,
        faults: FaultPlan | None = None,
    ):
        if on_denied not in ("abort", "skip"):
            raise SimulationError(f"unknown on_denied policy {on_denied!r}")
        self.coalition = coalition
        self.security = security if security is not None else PermissiveSecurityManager()
        self._access_cost = access_cost
        self.on_denied: DeniedPolicy = on_denied
        self.max_loop_iterations = max_loop_iterations
        if proof_propagation not in (None, "eager", "batched"):
            raise SimulationError(
                f"unknown proof_propagation mode {proof_propagation!r}"
            )
        self.proof_propagation = proof_propagation
        self.faults = faults
        if faults is not None:
            if faults.degradation is not None and proof_propagation is None:
                raise SimulationError(
                    "a degradation mode needs proof propagation enabled "
                    "(proof_propagation='eager' or 'batched')"
                )
            faults.install(coalition)
        self.degraded_denials = 0
        self.proof_batch = None
        if proof_propagation is not None:
            # Imported here so the agent layer has no hard dependency
            # on the service layer when propagation is not requested.
            from repro.service.batching import ProofBatch

            transport = faults.transport(coalition) if faults is not None else None
            retry = faults.retry if faults is not None else None
            self.proof_batch = ProofBatch(
                coalition,
                max_batch=proof_batch_size,
                transport=transport,
                retry=retry,
            )

        self._churn = faults.churn if faults is not None else None
        self.churn_applied = 0
        self._tasks: dict[str, _Task] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._events = 0
        self.migrations = 0
        self.unavailable_retries = 0
        REGISTRY.register_collector(self._collect_obs)

    def close(self) -> None:
        """Leave the metrics registry and close what the simulation
        built: its proof batcher and, under a fault plan, the batcher's
        transport (not the caller's coalition).  Idempotent."""
        REGISTRY.unregister_collector(self._collect_obs)
        if self.proof_batch is not None:
            self.proof_batch.close()
            if self.faults is not None:
                self.proof_batch.transport.close()

    def _collect_obs(self) -> dict[str, float]:
        """Pull-time metrics source (the scheduler is single-threaded;
        the registry sums across concurrent simulations)."""
        return {
            "sim.events": self._events,
            "sim.migrations": self.migrations,
            "sim.unavailable_retries": self.unavailable_retries,
            "sim.degraded_denials": self.degraded_denials,
            "sim.churn_applied": self.churn_applied,
        }

    @property
    def now(self) -> float:
        """Current virtual time (end time after :meth:`run` returns,
        advanced further by :meth:`drain_propagation`)."""
        return self._now

    # -- setup -------------------------------------------------------------

    def add_naplet(
        self, naplet: Naplet, start_server: str, at: float = 0.0
    ) -> None:
        """Dispatch ``naplet`` to ``start_server`` at time ``at``."""
        if naplet.naplet_id in self._tasks:
            raise SimulationError(f"duplicate naplet {naplet.naplet_id!r}")
        if start_server not in self.coalition:
            raise SimulationError(f"unknown start server {start_server!r}")
        naplet.location = start_server
        task = _Task(
            naplet=naplet,
            generator=interpret(
                naplet.program, naplet.env, self.max_loop_iterations
            ),
        )
        self._tasks[naplet.naplet_id] = task
        self._schedule(at, naplet.naplet_id)

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, t: float, task_id: str) -> None:
        heapq.heappush(self._heap, (t, next(self._counter), task_id))

    def _cost_of(self, access: AccessKey) -> float:
        if callable(self._access_cost):
            return float(self._access_cost(access))
        return float(self._access_cost)

    # -- main loop ----------------------------------------------------------------

    def run(self, until: float | None = None) -> SimulationReport:
        """Run until the event heap drains (or past ``until``)."""
        while self._heap:
            t, _, task_id = heapq.heappop(self._heap)
            if until is not None and t > until:
                heapq.heappush(self._heap, (t, next(self._counter), task_id))
                break
            self._now = t
            self._events += 1
            # Membership churn scheduled at or before this instant takes
            # effect before the agent event does — an agent can never
            # act on a topology older than its own timestamp.
            self._apply_churn(t)
            task = self._tasks[task_id]
            if task.naplet.status in (
                NapletStatus.FINISHED,
                NapletStatus.DENIED,
                NapletStatus.FAILED,
            ):
                continue
            self._resume(task, t)
        # The topology keeps moving after traffic stops: any remaining
        # scheduled churn is applied (advancing virtual time) so the
        # post-run membership state matches the full schedule.
        if self._churn is not None and (until is None or not self._heap):
            for event in self._churn.due(float("inf")):
                self._now = max(self._now, event.at)
                self._apply_one_churn(event)
        if self.proof_batch is not None:
            # End of run: everything still coalescing is attempted.
            # Under faults the attempt can fail — the batch stays
            # pending for drain_propagation / a post-heal flush.
            self.proof_batch.flush(now=self._now)
        deadlocked = tuple(
            sorted(
                task_id
                for task_id, task in self._tasks.items()
                if task.naplet.status is NapletStatus.BLOCKED
            )
        )
        return SimulationReport(
            end_time=self._now,
            events_processed=self._events,
            naplets=tuple(self._tasks[k].naplet for k in self._tasks),
            deadlocked=deadlocked,
        )

    def drain_propagation(self, until: float | None = None) -> float:
        """Advance virtual time past the workload's end, driving
        outstanding proof-delivery retries until every batch is
        delivered, only parked batches remain, or the next due time
        exceeds ``until``.  Returns the virtual time reached — the
        recovery benchmark's convergence clock.  (Terminates always:
        each destination either delivers or exhausts its retries and
        parks.)"""
        if self.proof_batch is None:
            return self._now
        now = self._now
        while self.proof_batch.pending_count():
            due = self.proof_batch.next_due()
            if due is None:
                break  # only parked batches remain — needs flush()
            if until is not None and due > until:
                break
            now = max(now, due)
            self.proof_batch.flush_due(now)
        self._now = max(self._now, now)
        return now

    # -- task stepping ----------------------------------------------------------

    def _resume(self, task: _Task, t: float) -> None:
        naplet = task.naplet
        if not task.started:
            task.started = True
            if not self._arrive(task, naplet.location, t, first=True):
                return
        if task.migrating_to is not None:
            destination = task.migrating_to
            if destination not in self.coalition:
                # The destination left the coalition while the agent was
                # in flight: departure is permanent, so fail immediately.
                naplet.status = NapletStatus.FAILED
                naplet.error = MigrationError(
                    f"server {destination!r} left the coalition mid-migration"
                )
                self._notify_parent(task, t)
                return
            if not self._server_can_host(destination, t):
                # The destination crashed while the agent was in
                # flight: wait at the door and re-attempt arrival on
                # the migration-retry schedule.
                self._retry_unavailable(task, t, destination)
                return
            task.migrating_to = None
            task.fault_attempts = 0
            task.fault_since = None
            naplet.location = destination
            if not self._arrive(task, destination, t, first=False):
                return
        naplet.status = NapletStatus.RUNNING
        while True:
            if task.pending is not None:
                request = task.pending
                task.pending = None
            else:
                try:
                    request = task.generator.send(task.inbox)
                except StopIteration:
                    self._finish(task, t)
                    return
                except AgentError as error:
                    naplet.status = NapletStatus.FAILED
                    naplet.error = error
                    self._notify_parent(task, t)
                    return
                finally:
                    task.inbox = None
            if not self._dispatch(task, request, t):
                return

    def _dispatch(self, task: _Task, request: Request, t: float) -> bool:
        """Handle one request.  Returns True to keep stepping inline,
        False when the task yielded control (scheduled/blocked/done)."""
        if isinstance(request, DoAccess):
            return self._do_access(task, request, t)
        if isinstance(request, DoReceive):
            channel = self.coalition.channels.get(request.channel)
            value = channel.try_receive()
            if value is EMPTY:
                channel.add_waiter(task.naplet.naplet_id)
                task.pending = request
                task.naplet.status = NapletStatus.BLOCKED
                return False
            task.inbox = value
            return True
        if isinstance(request, DoSend):
            channel = self.coalition.channels.get(request.channel)
            for waiter in channel.send(request.value):
                self._wake(waiter, t)
            return True
        if isinstance(request, DoSignal):
            for waiter in self.coalition.signals.raise_signal(request.event):
                self._wake(waiter, t)
            return True
        if isinstance(request, DoWait):
            signals = self.coalition.signals
            if signals.is_raised(request.event):
                return True
            signals.add_waiter(request.event, task.naplet.naplet_id)
            task.pending = request
            task.naplet.status = NapletStatus.BLOCKED
            return False
        if isinstance(request, DoSpawn):
            return self._do_spawn(task, request, t)
        raise SimulationError(f"unknown request {request!r}")

    def _wake(self, naplet_id: str, t: float) -> None:
        task = self._tasks.get(naplet_id)
        if task is None:
            raise SimulationError(f"woke unknown agent {naplet_id!r}")
        # Re-attempting a DoWait whose signal has been raised must not
        # re-register; _dispatch handles both cases on resume.
        self._schedule(t, naplet_id)

    # -- membership churn ---------------------------------------------------------

    def _apply_churn(self, t: float) -> None:
        """Apply every scheduled membership event due at or before ``t``."""
        if self._churn is None:
            return
        for event in self._churn.due(t):
            self._apply_one_churn(event)

    def _apply_one_churn(self, event) -> None:
        lifecycle = (
            self.faults.lifecycle
            if self.faults is not None and self.faults.lifecycle is not None
            else None
        )
        if event.kind == "join":
            server = event.make_server()
            if lifecycle is not None:
                server.lifecycle = lifecycle
            self.coalition.join(
                server, now=event.at, bootstrap_from=event.bootstrap_from
            )
            servers = (server.name,)
        elif event.kind == "leave":
            self.coalition.leave(event.server, now=event.at)
            servers = (event.server,)
        elif event.kind == "evict":
            if lifecycle is not None:
                # An abrupt departure is a DOWN made permanent: the
                # lifecycle never reports the server up again.
                lifecycle.evict(event.server, event.at)
            self.coalition.evict(event.server, now=event.at)
            servers = (event.server,)
        else:  # merge
            other = event.make_coalition()
            servers = tuple(sorted(other.server_names()))
            self.coalition.merge(other, now=event.at)
            other.close()  # built here; an absorbed shell from now on
            if lifecycle is not None:
                for name in servers:
                    self.coalition.server(name).lifecycle = lifecycle
        self.security.on_membership_change(event.kind, servers)
        self.churn_applied += 1
        if OBS.enabled:
            RECORDER.record(
                "sim.churn",
                time.perf_counter(),
                0.0,
                {
                    "kind": event.kind,
                    "servers": list(servers),
                    "at": event.at,
                    "epoch": self.coalition.membership_epoch,
                },
            )

    # -- fault handling -----------------------------------------------------------

    def _server_can_host(self, server: str, t: float) -> bool:
        """Is ``server`` up (executes accesses, admits agents) at ``t``?"""
        if self.faults is None or self.faults.lifecycle is None:
            return True
        return self.faults.lifecycle.can_execute(server, t)

    def _retry_unavailable(self, task: _Task, t: float, server: str) -> None:
        """``server`` is down in front of the agent: re-attempt on the
        migration-retry backoff, or fail the agent once the schedule is
        exhausted.  The pending request / in-flight migration stays set,
        so the resume re-attempts exactly where it left off."""
        naplet = task.naplet
        retry = self.faults.migration_retry
        if task.fault_since is None:
            task.fault_since = t
        if retry.exhausted(task.fault_attempts, task.fault_since, t):
            naplet.status = NapletStatus.FAILED
            naplet.error = MigrationError(
                f"server {server!r} still unavailable after "
                f"{task.fault_attempts} retries (first failure at "
                f"t={task.fault_since})"
            )
            self._notify_parent(task, t)
            return
        delay = retry.delay(task.fault_attempts)
        task.fault_attempts += 1
        self.unavailable_retries += 1
        if OBS.enabled:
            RECORDER.record(
                "sim.unavailable_retry",
                time.perf_counter(),
                0.0,
                {
                    "naplet": naplet.naplet_id,
                    "server": server,
                    "attempt": task.fault_attempts,
                    "at": t,
                    "delay": delay,
                },
            )
        if task.migrating_to is None:
            naplet.status = NapletStatus.BLOCKED
        self._schedule(t + delay, naplet.naplet_id)

    def _degradation_gap(
        self, naplet: Naplet, server_name: str, t: float
    ) -> list:
        """Foreign proofs in the carried chain that the deciding server
        has not corroborated through propagation and the degradation
        policy does not tolerate."""
        degradation = self.faults.degradation
        server = self.coalition.server(server_name)
        return [
            proof
            for proof in naplet.registry.foreign_proofs(server_name)
            if self.coalition.is_admissible(proof.access.server)
            and not server.knows_proof(proof)
            and not degradation.tolerates(t - proof.local_time)
        ]

    # -- access + migration -------------------------------------------------------

    def _do_access(self, task: _Task, request: DoAccess, t: float) -> bool:
        naplet = task.naplet
        if naplet.location == request.server and request.server not in self.coalition:
            # The server the agent is sitting on left the coalition
            # (churn): departure is permanent, so there is no retry
            # schedule to wait out — the agent fails where it stands.
            naplet.status = NapletStatus.FAILED
            naplet.error = MigrationError(
                f"server {request.server!r} left the coalition"
            )
            self._notify_parent(task, t)
            return False
        if naplet.location != request.server:
            try:
                latency = self.coalition.migration_latency(
                    naplet.location, request.server
                )
            except CoalitionError as error:
                # Migration to an unknown server kills the agent, not
                # the simulation.
                naplet.status = NapletStatus.FAILED
                naplet.error = error
                self._notify_parent(task, t)
                return False
            if naplet.hooks.on_departure:
                naplet.hooks.on_departure(naplet, naplet.location, t)
            naplet.status = NapletStatus.MIGRATING
            task.pending = request
            task.migrating_to = request.server
            self.migrations += 1
            if OBS.enabled:
                RECORDER.record(
                    "sim.migration",
                    time.perf_counter(),
                    0.0,
                    {
                        "naplet": naplet.naplet_id,
                        "from": naplet.location,
                        "to": request.server,
                        "virtual_latency": latency,
                        "at": t,
                    },
                )
            # On arrival the pending access is re-attempted.
            self._schedule(t + latency, naplet.naplet_id)
            return False
        if not self._server_can_host(request.server, t):
            # The server the agent is sitting on crashed: hold the
            # access and re-attempt on the retry schedule.
            task.pending = request
            self._retry_unavailable(task, t, request.server)
            return False
        task.fault_attempts = 0
        task.fault_since = None
        access = AccessKey(request.op, request.resource, request.server)
        try:
            self.security.check_permission(naplet, access, t)
        except AccessDenied as denial:
            naplet.denials.append(denial.decision)
            if naplet.hooks.on_denied:
                naplet.hooks.on_denied(naplet, denial.decision, t)
            if self.on_denied == "abort":
                naplet.status = NapletStatus.DENIED
                self._notify_parent(task, t)
                return False
            task.inbox = None
            return True
        if (
            self.faults is not None
            and self.faults.degradation is not None
            and self.proof_batch is not None
        ):
            gap = self._degradation_gap(naplet, request.server, t)
            if gap:
                # Coordination is degraded: the deciding server cannot
                # corroborate part of the carried history, so the
                # otherwise-grantable access is refused (fail closed /
                # stale-intolerant).  This only ever *adds* denials on
                # top of the engine's verdict — never extra grants.
                self.degraded_denials += 1
                decision = Decision(
                    naplet.owner,
                    access,
                    t,
                    Outcome(
                        False,
                        reason=(
                            f"degraded ({self.faults.degradation.mode}): "
                            f"{len(gap)} uncorroborated foreign proofs"
                        ),
                        provenance=DecisionProvenance(
                            kind="degraded",
                            uncorroborated=tuple(p.digest for p in gap),
                            detail=self.faults.degradation.mode,
                            epoch=(
                                self.coalition.membership_epoch
                                if getattr(self.security, "coalition", None)
                                is not None
                                else None
                            ),
                        ),
                    ),
                )
                naplet.denials.append(decision)
                if naplet.hooks.on_denied:
                    naplet.hooks.on_denied(naplet, decision, t)
                if self.on_denied == "abort":
                    naplet.status = NapletStatus.DENIED
                    self._notify_parent(task, t)
                    return False
                task.inbox = None
                return True
        server = self.coalition.server(request.server)
        try:
            outcome = server.execute_access(
                naplet.registry, request.op, request.resource, t
            )
        except ServerUnavailable:
            # Crash window opened exactly at t (defensive: the host
            # check above normally catches this).
            task.pending = request
            self._retry_unavailable(task, t, request.server)
            return False
        except CoalitionError as error:
            # Unknown resource / unsupported operation: the agent's
            # program is broken, not the coalition.
            naplet.status = NapletStatus.FAILED
            naplet.error = error
            self._notify_parent(task, t)
            return False
        naplet.observations.append((access, outcome.value))
        if self.proof_batch is not None:
            self.proof_batch.enqueue(request.server, outcome.proof, now=t)
            if self.proof_propagation == "eager":
                self.proof_batch.flush(now=t)
            else:
                self.proof_batch.flush_due(t)
        self.security.on_access_executed(naplet, access, t)
        task.inbox = outcome.value
        # The access consumes virtual time: resume after its cost.
        self._schedule(t + self._cost_of(access), naplet.naplet_id)
        return False

    def _arrive(self, task: _Task, server: str, t: float, first: bool) -> bool:
        """Arrival bookkeeping; returns False if authentication failed."""
        naplet = task.naplet
        self.coalition.server(server).note_arrival()
        try:
            if first:
                self.security.on_first_arrival(naplet, server, t)
            else:
                self.security.on_migration(naplet, server, t)
        except (AuthenticationError, RbacError) as error:
            naplet.status = NapletStatus.FAILED
            naplet.error = error
            self._notify_parent(task, t)
            return False
        if naplet.hooks.on_arrival:
            naplet.hooks.on_arrival(naplet, server, t)
        return True

    # -- spawning -----------------------------------------------------------------

    def _do_spawn(self, task: _Task, request: DoSpawn, t: float) -> bool:
        parent = task.naplet
        task.children_remaining = len(request.programs)
        for index, program in enumerate(request.programs):
            child = parent.clone(program, suffix=f"clone{index}")
            child_task = _Task(
                naplet=child,
                generator=interpret(child.program, child.env, self.max_loop_iterations),
                parent=task,
            )
            # Clones inherit the parent's session lazily: they present
            # the same certificate at their first arrival.
            self._tasks[child.naplet_id] = child_task
            self._schedule(t, child.naplet_id)
        parent.status = NapletStatus.BLOCKED
        return False

    def _notify_parent(self, task: _Task, t: float) -> None:
        parent = task.parent
        if parent is None:
            return
        parent.children_remaining -= 1
        if parent.children_remaining == 0:
            self._schedule(t, parent.naplet.naplet_id)

    def _finish(self, task: _Task, t: float) -> None:
        naplet = task.naplet
        naplet.status = NapletStatus.FINISHED
        naplet.finish_time = t
        if naplet.hooks.on_finish:
            naplet.hooks.on_finish(naplet, t)
        self._notify_parent(task, t)
