"""Software-module integrity verification in a coalition — the paper's
Section 6 application and Figure 1 workload.

Software modules are distributed over enterprise servers; modules
depend on each other (a digraph, Figure 1), and "a module is verified
as correct if and only if all of its depended modules and itself are
correct".  An auditor dispatches a mobile code that roams the network
computing hashes of the modules, exploiting data locality, under:

* a **spatial** constraint — dependencies must be verified before their
  dependents (one ``⊗`` per dependency edge), and
* a **temporal** constraint — "the verification procedure should be
  completed within a pre-specified period of time" (the verification
  permission's validity duration).

:func:`figure1_graph` reproduces the paper's drawn instance;
:func:`run_audit` builds the coalition, dispatches the auditor naplet
under the extended RBAC engine and returns a full
:class:`AuditReport`.  Tampered modules (hash mismatch) and every
module transitively depending on them are reported unverified.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.agent.naplet import Naplet, NapletStatus
from repro.agent.principal import Authority
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.coalition.network import Coalition, constant_latency
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.errors import WorkloadError
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.sral.ast import Program
from repro.sral.ast import Access as AccessNode
from repro.sral.ast import seq as seq_program
from repro.srac.ast import Constraint, Ordered, conjunction
from repro.srac.trace_check import trace_satisfies
from repro.temporal.validity import Scheme
from repro.traces.trace import AccessKey

__all__ = [
    "ModuleSpec",
    "DependencyGraph",
    "figure1_graph",
    "AuditReport",
    "auditor_program",
    "verification_constraint",
    "build_coalition",
    "run_audit",
]

VERIFY_OP = "exec"


@dataclass(frozen=True)
class ModuleSpec:
    """One software module: name, hosting server, payload bytes and the
    modules it depends on (Figure 1's arrows point from dependent to
    dependency)."""

    name: str
    server: str
    content: bytes
    depends_on: tuple[str, ...] = ()

    def digest(self) -> str:
        return hashlib.sha256(self.content).hexdigest()


class DependencyGraph:
    """The module dependency digraph, validated to be acyclic.

    ("A module is verified as correct iff all of its depended modules
    and itself are correct" is only well-founded on a DAG.)
    """

    def __init__(self, modules: Iterable[ModuleSpec]):
        self._modules: dict[str, ModuleSpec] = {}
        for module in modules:
            if module.name in self._modules:
                raise WorkloadError(f"duplicate module {module.name!r}")
            self._modules[module.name] = module
        for module in self._modules.values():
            for dep in module.depends_on:
                if dep not in self._modules:
                    raise WorkloadError(
                        f"module {module.name!r} depends on unknown {dep!r}"
                    )
        self._topo = self._topological_order()

    # -- structure ---------------------------------------------------------

    def _topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm with a sorted ready-heap (deterministic order);
        # a leftover node means a cycle.
        import heapq

        pending = {name: set(m.depends_on) for name, m in self._modules.items()}
        dependents: dict[str, list[str]] = {}
        for name, deps in pending.items():
            for dep in deps:
                dependents.setdefault(dep, []).append(name)
        ready = [name for name, deps in pending.items() if not deps]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for dependant in dependents.get(current, ()):
                deps = pending[dependant]
                deps.discard(current)
                if not deps:
                    heapq.heappush(ready, dependant)
        if len(order) != len(self._modules):
            raise WorkloadError("module dependency graph has a cycle")
        return tuple(order)

    def module(self, name: str) -> ModuleSpec:
        try:
            return self._modules[name]
        except KeyError:
            raise WorkloadError(f"unknown module {name!r}") from None

    def modules(self) -> tuple[ModuleSpec, ...]:
        return tuple(self._modules.values())

    def names(self) -> tuple[str, ...]:
        return tuple(self._modules)

    def servers(self) -> tuple[str, ...]:
        return tuple(sorted({m.server for m in self._modules.values()}))

    def topological_order(self) -> tuple[str, ...]:
        """Modules ordered dependencies-first."""
        return self._topo

    def locality_order(self) -> tuple[str, ...]:
        """A dependencies-first order that greedily stays on the current
        server to exploit data locality (fewer migrations), the point of
        using code mobility in Section 6."""
        remaining = {n: set(self._modules[n].depends_on) for n in self._modules}
        order: list[str] = []
        current_server: str | None = None
        while remaining:
            ready = [n for n, deps in remaining.items() if not deps]
            if not ready:  # pragma: no cover - guarded by ctor
                raise WorkloadError("cycle detected")
            local = [n for n in ready if self._modules[n].server == current_server]
            chosen = sorted(local)[0] if local else sorted(ready)[0]
            order.append(chosen)
            current_server = self._modules[chosen].server
            del remaining[chosen]
            for deps in remaining.values():
                deps.discard(chosen)
        return tuple(order)

    def dependants_closure(self, names: Iterable[str]) -> frozenset[str]:
        """Everything that (transitively) depends on any of ``names``."""
        target = set(names)
        changed = True
        while changed:
            changed = False
            for module in self._modules.values():
                if module.name in target:
                    continue
                if target & set(module.depends_on):
                    target.add(module.name)
                    changed = True
        return frozenset(target - set(names)) | frozenset(
            n for n in names if n in self._modules
        )

    def access_of(self, name: str) -> AccessKey:
        module = self.module(name)
        return AccessKey(VERIFY_OP, module.name, module.server)

    def __len__(self) -> int:
        return len(self._modules)


def figure1_graph() -> DependencyGraph:
    """The Figure 1 instance: a module dependency digraph distributed
    over four coalition servers (dotted boundaries in the figure).

    The figure names modules A–D explicitly ("a directed line from
    module A to D represents module A depends on D"); we fill the
    remaining circles with deterministic modules m5–m12 so the digraph
    has the drawn density: 12 modules, 4 servers, cross-server edges.
    """
    def blob(name: str) -> bytes:
        return f"module {name} object code".encode()

    modules = [
        ModuleSpec("mD", "s1", blob("mD")),
        ModuleSpec("mC", "s1", blob("mC"), depends_on=("mD",)),
        ModuleSpec("mB", "s2", blob("mB"), depends_on=("mD",)),
        ModuleSpec("mA", "s2", blob("mA"), depends_on=("mB", "mC", "mD")),
        ModuleSpec("m5", "s1", blob("m5")),
        ModuleSpec("m6", "s2", blob("m6"), depends_on=("m5",)),
        ModuleSpec("m7", "s3", blob("m7"), depends_on=("m6", "mC")),
        ModuleSpec("m8", "s3", blob("m8"), depends_on=("m7",)),
        ModuleSpec("m9", "s3", blob("m9"), depends_on=("m5",)),
        ModuleSpec("m10", "s4", blob("m10"), depends_on=("m8", "m9")),
        ModuleSpec("m11", "s4", blob("m11"), depends_on=("m10",)),
        ModuleSpec("m12", "s4", blob("m12"), depends_on=("mA", "m11")),
    ]
    return DependencyGraph(modules)


def auditor_program(graph: DependencyGraph, order: Sequence[str] | None = None) -> Program:
    """The mobile auditor's SRAL program: hash every module in a
    dependencies-first order (default: the locality-greedy order)."""
    chosen = tuple(order) if order is not None else graph.locality_order()
    accesses = [
        AccessNode(VERIFY_OP, graph.module(n).name, graph.module(n).server)
        for n in chosen
    ]
    return seq_program(*accesses)


def verification_constraint(graph: DependencyGraph) -> Constraint:
    """The SRAC constraint of Section 6: each dependency must be
    verified (strictly) before its dependent — one ``⊗`` per edge."""
    parts: list[Constraint] = []
    for module in graph.modules():
        for dep in module.depends_on:
            parts.append(Ordered(graph.access_of(dep), graph.access_of(module.name)))
    # Balanced tree: graphs with thousands of edges must not build a
    # recursion-hostile left spine.
    return conjunction(parts)


def build_coalition(
    graph: DependencyGraph,
    tamper: frozenset[str] | set[str] = frozenset(),
    latency: float = 1.0,
) -> Coalition:
    """Servers hosting the module blobs; ``tamper`` names modules whose
    stored bytes are corrupted (what the audit must detect)."""
    by_server: dict[str, list[Resource]] = {}
    for module in graph.modules():
        content = module.content
        if module.name in tamper:
            content = content + b"<TROJAN>"
        by_server.setdefault(module.server, []).append(
            Resource(module.name, content=content, kind="module")
        )
    servers = [
        CoalitionServer(name, resources=resources)
        for name, resources in sorted(by_server.items())
    ]
    return Coalition(servers, latency=constant_latency(latency))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one integrity audit run."""

    verified: Mapping[str, bool]  # module -> hash matched AND deps verified
    hash_ok: Mapping[str, bool]  # module -> its own hash matched
    audited: tuple[str, ...]  # modules actually hashed (in order)
    order_constraint_ok: bool  # dependencies-before-dependents held
    finished: bool  # the auditor completed its program
    denied_accesses: int  # accesses refused (e.g. deadline exhausted)
    duration: float  # virtual time the audit took
    migrations: int  # inter-server hops performed

    def all_verified(self) -> bool:
        return all(self.verified.values())

    def unverified(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, ok in self.verified.items() if not ok))


def run_audit(
    graph: DependencyGraph,
    tamper: frozenset[str] | set[str] = frozenset(),
    deadline: float = math.inf,
    latency: float = 1.0,
    access_cost: float = 1.0,
    order: Sequence[str] | None = None,
    scheme: Scheme = Scheme.WHOLE_EXECUTION,
) -> AuditReport:
    """Run the Section 6 audit end-to-end.

    The auditor naplet roams the coalition hashing modules under a
    verification permission whose validity duration is ``deadline``;
    accesses after the budget expires are denied and the affected
    modules stay unverified (the paper's time-bounded verification).
    """
    coalition = build_coalition(graph, tamper=tamper, latency=latency)

    policy = Policy()
    policy.add_user("auditor")
    policy.add_role("integrity-auditor")
    policy.add_permission(
        Permission(
            "p_verify",
            op=VERIFY_OP,
            spatial_constraint=None,  # ordering enforced by program + checked below
            validity_duration=deadline,
        )
    )
    policy.assign_user("auditor", "integrity-auditor")
    policy.assign_permission("integrity-auditor", "p_verify")
    engine = AccessControlEngine(policy, scheme=scheme)
    authority = Authority()
    certificate = authority.register("auditor")
    manager = NapletSecurityManager(engine, authority=authority)

    program = auditor_program(graph, order=order)
    naplet = Naplet(
        "auditor",
        program,
        certificate=certificate,
        roles=("integrity-auditor",),
        name="integrity-auditor",
    )
    migrations = {"count": 0}
    naplet.hooks.on_departure = lambda n, s, t: migrations.__setitem__(
        "count", migrations["count"] + 1
    )

    sim = Simulation(
        coalition,
        security=manager,
        access_cost=access_cost,
        on_denied="skip",  # deadline expiry skips remaining modules
    )
    sim.add_naplet(naplet, graph.module((order or graph.locality_order())[0]).server)
    try:
        report = sim.run()
    finally:
        for component in (sim, engine, coalition):
            component.close()

    # -- evaluate the audit ---------------------------------------------
    expected = {m.name: m.digest() for m in graph.modules()}
    observed: dict[str, str] = {}
    audited: list[str] = []
    for access, value in naplet.observations:
        observed[access.resource] = value
        audited.append(access.resource)
    hash_ok = {
        name: observed.get(name) == expected[name] for name in graph.names()
    }
    # Verified = own hash ok AND all transitive dependencies verified.
    verified: dict[str, bool] = {}
    for name in graph.topological_order():
        module = graph.module(name)
        verified[name] = hash_ok[name] and all(
            verified[dep] for dep in module.depends_on
        )
    constraint_ok = trace_satisfies(
        naplet.history(), verification_constraint(graph), proofs=naplet.registry.proved
    ) if len(audited) == len(graph) else False

    return AuditReport(
        verified=verified,
        hash_ok=hash_ok,
        audited=tuple(audited),
        order_constraint_ok=constraint_ok,
        finished=naplet.status is NapletStatus.FINISHED,
        denied_accesses=len(naplet.denials),
        duration=report.end_time,
        migrations=migrations["count"],
    )
