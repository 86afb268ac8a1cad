"""EXP-NAPLET — the mobile-agent emulation at scale (Section 5).

Sweeps of the discrete-event scheduler: agents × servers, migration
churn, channel traffic, and the paper's ``ApplAgentProg`` cloned-naplet
fan-out.  Shape to reproduce: simulation cost grows ≈linearly in total
executed accesses; cloning cuts makespan ≈k× for k clones.

Run:  pytest benchmarks/bench_agent_roaming.py --benchmark-only
"""

import pytest

from repro.agent.naplet import Naplet
from repro.agent.patterns import ParPattern, SeqPattern, SingletonPattern
from repro.agent.scheduler import Simulation
from repro.sral.builder import access, recv, send, var
from repro.sral.ast import seq
from repro.workloads.digraphs import coalition_topology


def _run_closed(sim: Simulation):
    """Run ``sim``, then close it and its coalition."""
    try:
        return sim.run()
    finally:
        sim.close()
        sim.coalition.close()


def _roamer(n_accesses: int, n_servers: int, name: str) -> Naplet:
    program = seq(
        *(
            access("read", "res1", f"s{(i % n_servers) + 1}")
            for i in range(n_accesses)
        )
    )
    return Naplet("owner", program, name=name)


@pytest.mark.parametrize("n_agents", [1, 10, 50])
def bench_agents_scaling(benchmark, n_agents):
    """Many concurrent roaming agents over 8 servers."""

    def run():
        sim = Simulation(coalition_topology(8))
        for i in range(n_agents):
            sim.add_naplet(_roamer(20, 8, f"agent{i}"), "s1")
        return _run_closed(sim)

    report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert report.all_finished()


@pytest.mark.parametrize("n_servers", [2, 8, 32])
def bench_migration_churn(benchmark, n_servers):
    """One agent hopping across every server each step."""

    def run():
        sim = Simulation(coalition_topology(n_servers))
        sim.add_naplet(_roamer(3 * n_servers, n_servers, "hopper"), "s1")
        return _run_closed(sim)

    report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert report.all_finished()


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def bench_cloned_fanout(benchmark, k):
    """ApplAgentProg: k clones share 16 servers; makespan shrinks ~k x."""
    n = 16
    servers = [f"s{i + 1}" for i in range(n)]
    share = n // k
    branches = [
        SeqPattern(
            [SingletonPattern("read", "res1", servers[i * share + j]) for j in range(share)]
        )
        for i in range(k)
    ]
    pattern = ParPattern(branches) if k > 1 else branches[0]

    def run():
        sim = Simulation(coalition_topology(n))
        sim.add_naplet(Naplet("owner", pattern, name="fan"), "s1")
        return _run_closed(sim)

    report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["makespan"] = report.end_time


def bench_channel_pingpong(benchmark):
    """1000 messages bounced between two agents through a channel."""
    rounds = 500
    ping = Naplet(
        "owner",
        seq(
            *(x for i in range(rounds) for x in (send("c1", i), recv("c2", "ack")))
        ),
        name="ping",
    )
    pong = Naplet(
        "owner",
        seq(
            *(x for i in range(rounds) for x in (recv("c1", "v"), send("c2", var("v") + 1)))
        ),
        name="pong",
    )

    def run():
        sim = Simulation(coalition_topology(2))
        sim.add_naplet(ping_fresh(), "s1")
        sim.add_naplet(pong_fresh(), "s2")
        return _run_closed(sim)

    def ping_fresh():
        return Naplet("owner", ping.program, name="ping")

    def pong_fresh():
        return Naplet("owner", pong.program, name="pong")

    report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert report.all_finished()
