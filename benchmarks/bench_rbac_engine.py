"""EXP-RBAC — decision throughput of the extended engine, with an
ablation over the paper's two additions.

Four configurations decide the same access stream:

* plain RBAC (no constraints, time-insensitive permissions);
* + spatial constraint checking only;
* + temporal validity tracking only;
* the full coordinated model (both).

Shape to reproduce: constraints cost real work, but stay within small
constant factors of plain RBAC for the paper's fragment; role-hierarchy
depth adds near-linear lookup cost.

Run:  pytest benchmarks/bench_rbac_engine.py --benchmark-only
"""

import math
from contextlib import closing

import pytest

from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

LIMIT = parse_constraint("count(0, 1000, [res = rsw])")


def _engine(spatial: bool, temporal: bool, hierarchy_depth: int = 0):
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r0")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=LIMIT if spatial else None,
            validity_duration=1e9 if temporal else math.inf,
        )
    )
    policy.assign_permission("r0", "p")
    top = "r0"
    for depth in range(hierarchy_depth):
        senior = f"r{depth + 1}"
        policy.add_role(senior)
        policy.add_inheritance(senior, top)
        top = senior
    policy.assign_user("u", top)
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, top, 0.0)
    return engine, session


HISTORY = tuple(AccessKey("exec", "rsw", f"s{i % 5}") for i in range(50))


def _decide_many(engine, session, n=100):
    # Benchmark harnesses call this repeatedly on one session; validity
    # trackers require monotone time, so keep a per-engine clock.
    clock = getattr(engine, "_bench_clock", 0.0)
    granted = 0
    for i in range(n):
        clock += 1.0
        decision = engine.decide(
            session, ("exec", "rsw", f"s{i % 5}"), clock, HISTORY
        )
        granted += decision.granted
    engine._bench_clock = clock
    return granted


@pytest.mark.parametrize(
    "label,spatial,temporal",
    [
        ("plain", False, False),
        ("spatial", True, False),
        ("temporal", False, True),
        ("full", True, True),
    ],
)
def bench_decision_ablation(benchmark, label, spatial, temporal):
    engine, session = _engine(spatial, temporal)
    try:
        granted = benchmark(_decide_many, engine, session)
    finally:
        engine.close()
    assert granted == 100
    benchmark.extra_info["config"] = label


@pytest.mark.parametrize("depth", [0, 4, 16, 64])
def bench_hierarchy_depth(benchmark, depth):
    """Permission lookup through a role chain of growing depth."""
    engine, session = _engine(spatial=False, temporal=False, hierarchy_depth=depth)
    try:
        granted = benchmark(_decide_many, engine, session, 50)
    finally:
        engine.close()
    assert granted == 50


def bench_session_setup(benchmark):
    """authenticate + activate (the per-arrival cost at a server)."""
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(Permission("p"))
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    with closing(AccessControlEngine(policy)) as engine:

        def setup():
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            engine.close_session(session, 0.0)

        benchmark(setup)


def _decide_many_incremental(engine, session, n=100):
    """Incremental mode: cached session monitors, no history replay."""
    clock = getattr(engine, "_bench_clock", 0.0)
    granted = 0
    for i in range(n):
        clock += 1.0
        decision = engine.decide(
            session, ("exec", "rsw", f"s{i % 5}"), clock, history=None
        )
        if decision.granted:
            engine.observe(session, ("exec", "rsw", f"s{i % 5}"))
        granted += decision.granted
    engine._bench_clock = clock
    return granted


def bench_decision_incremental(benchmark):
    """The session-monitor optimisation: spatial checking without
    replaying the proof chain (compare bench_decision_ablation[spatial])."""
    engine, session = _engine(spatial=True, temporal=False)
    try:
        session.observed = HISTORY
        benchmark(_decide_many_incremental, engine, session)
    finally:
        engine.close()
