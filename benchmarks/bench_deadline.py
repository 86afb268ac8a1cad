"""EXP-DEADLINE — the Section 1 newspaper deadline as a temporal
constraint, under both base-time schemes.

Shape to reproduce: with a validity duration D and edits of unit cost,
exactly ``floor(D)`` edits are granted under the whole-execution scheme
regardless of migrations, while the per-server scheme re-grants after
each migration.

Run:  pytest benchmarks/bench_deadline.py --benchmark-only
"""

import pytest

from repro.agent.naplet import Naplet
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.coalition.network import Coalition, constant_latency
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.sral.builder import access
from repro.sral.ast import seq
from repro.temporal.validity import Scheme


def _run(scheme: Scheme, n_edits: int, duration: float):
    policy = Policy()
    policy.add_user("editor")
    policy.add_role("night-editor")
    policy.add_permission(
        Permission("p_edit", op="write", resource="issue", validity_duration=duration)
    )
    policy.assign_user("editor", "night-editor")
    policy.assign_permission("night-editor", "p_edit")
    engine = AccessControlEngine(policy, scheme=scheme)
    coalition = Coalition(
        [
            CoalitionServer("b1", resources=[Resource("issue")]),
            CoalitionServer("b2", resources=[Resource("issue")]),
        ],
        latency=constant_latency(0.0),  # isolate the budget from travel
    )
    # Alternate bureaus every edit: maximum migration churn.
    program = seq(
        *(access("write", "issue", "b1" if i % 2 == 0 else "b2") for i in range(n_edits))
    )
    sim = Simulation(
        coalition,
        security=NapletSecurityManager(engine),
        access_cost=1.0,
        on_denied="skip",
    )
    naplet = Naplet("editor", program, roles=("night-editor",))
    try:
        sim.add_naplet(naplet, "b1")
        sim.run()
    finally:
        sim.close()
        engine.close()
        coalition.close()
    return naplet


def bench_whole_execution_scheme(benchmark):
    naplet = benchmark(_run, Scheme.WHOLE_EXECUTION, 10, 3.0)
    # One global 3-hour budget: exactly 3 unit edits fit.
    assert len(naplet.history()) == 3


def bench_per_server_scheme(benchmark):
    naplet = benchmark(_run, Scheme.PER_SERVER, 10, 3.0)
    # Budget resets on every migration: all 10 edits are granted.
    assert len(naplet.history()) == 10


@pytest.mark.parametrize("duration", [1.0, 3.0, 6.0, 9.0])
def bench_edits_vs_deadline(benchmark, duration):
    """Grant count tracks the validity duration linearly (shape check)."""
    naplet = benchmark.pedantic(
        _run, args=(Scheme.WHOLE_EXECUTION, 12, duration), rounds=3, iterations=1
    )
    assert len(naplet.history()) == int(duration)
