"""EXP-E35 — Example 3.5: the restricted-software counting constraint
``#(0, 5, σ_RSW(A))`` enforced across servers.

Measures the full agent run of the motivating scenario (5 grants at s1,
coordinated denial at s2) and the per-decision cost of the engine on
growing histories.

Run:  pytest benchmarks/bench_restricted_software.py --benchmark-only
"""

from contextlib import closing

import pytest

from repro.agent.naplet import Naplet, NapletStatus
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.coalition.network import Coalition, constant_latency
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac.parser import parse_constraint
from repro.sral.parser import parse_program
from repro.traces.trace import AccessKey

LIMIT = parse_constraint("count(0, 5, [res = rsw])")


def _engine():
    policy = Policy()
    policy.add_user("trial-user")
    policy.add_role("trial")
    policy.add_permission(
        Permission("p_rsw", op="exec", resource="rsw", spatial_constraint=LIMIT)
    )
    policy.assign_user("trial-user", "trial")
    policy.assign_permission("trial", "p_rsw")
    return AccessControlEngine(policy)


def _scenario():
    coalition = Coalition(
        [
            CoalitionServer("s1", resources=[Resource("rsw")]),
            CoalitionServer("s2", resources=[Resource("rsw")]),
        ],
        latency=constant_latency(1.0),
    )
    program = parse_program(
        "n := 0 ; while n < 5 do { exec rsw @ s1 ; n := n + 1 } ; exec rsw @ s2"
    )
    sim = Simulation(
        coalition, security=NapletSecurityManager(_engine()), on_denied="abort"
    )
    naplet = Naplet("trial-user", program, roles=("trial",))
    sim.add_naplet(naplet, "s1")
    return sim, naplet


def bench_full_scenario(benchmark):
    """End-to-end: 5 grants at s1, denial at s2 (the paper's shape:
    the denial lands at the *other* server)."""

    def run():
        sim, naplet = _scenario()
        try:
            sim.run()
        finally:
            sim.close()
            sim.security.engine.close()
            sim.coalition.close()
        return naplet

    naplet = benchmark(run)
    assert naplet.status is NapletStatus.DENIED
    assert len(naplet.history()) == 5


@pytest.mark.parametrize("history_len", [0, 10, 100, 1000])
def bench_decision_vs_history_length(benchmark, history_len):
    """Per-decision cost as the carried history grows (the engine
    re-runs monitors over the proved trace)."""
    with closing(_engine()) as engine:
        session = engine.authenticate("trial-user", 0.0)
        engine.activate_role(session, "trial", 0.0)
        filler = tuple(
            AccessKey("read", f"other{i % 7}", "s1") for i in range(history_len)
        )
        decision = benchmark(
            engine.decide, session, ("exec", "rsw", "s2"), 1.0, filler
        )
    assert decision.granted  # no rsw accesses in the filler history


def bench_denied_decision(benchmark):
    """Cost of the (permanent) denial decision itself."""
    with closing(_engine()) as engine:
        session = engine.authenticate("trial-user", 0.0)
        engine.activate_role(session, "trial", 0.0)
        history = (AccessKey("exec", "rsw", "s1"),) * 5
        decision = benchmark(
            engine.decide, session, ("exec", "rsw", "s2"), 1.0, history
        )
    assert not decision.granted
