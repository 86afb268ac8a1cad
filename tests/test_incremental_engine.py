"""Tests for the incremental (session-monitor) decision mode: same
decisions as explicit-history mode, O(1) in history length."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.strategies as strat
from repro.agent.naplet import Naplet, NapletStatus
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.coalition.network import Coalition
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.sral.parser import parse_program
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey


def make_engine(constraint_src="count(0, 5, [res = rsw])"):
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint(constraint_src),
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


class TestIncrementalDecisions:
    def test_observe_advances_cache(self):
        engine, session = make_engine()
        access = AccessKey("exec", "rsw", "s1")
        for i in range(5):
            assert engine.decide(session, access, float(i), history=None).granted
            engine.observe(session, access)
        # The 6th is denied purely from cached monitor state.
        assert not engine.decide(session, access, 6.0, history=None).granted
        assert session.observed == (access,) * 5

    def test_incremental_matches_explicit(self):
        engine_a, session_a = make_engine()
        engine_b, session_b = make_engine()
        accesses = [AccessKey("exec", "rsw", f"s{i % 3}") for i in range(8)]
        history: tuple[AccessKey, ...] = ()
        for i, access in enumerate(accesses):
            explicit = engine_a.decide(session_a, access, float(i), history=history)
            incremental = engine_b.decide(session_b, access, float(i), history=None)
            assert explicit.granted == incremental.granted
            if explicit.granted:
                history += (access,)
                engine_b.observe(session_b, access)

    def test_coordination_preserved_incrementally(self):
        """The flagship denial-at-the-other-server works incrementally."""
        engine, session = make_engine()
        for i in range(5):
            engine.observe(session, AccessKey("exec", "rsw", "s1"))
        decision = engine.decide(session, ("exec", "rsw", "s2"), 1.0, history=None)
        assert not decision.granted

    @given(
        st.lists(
            st.tuples(st.sampled_from(["exec"]), st.just("rsw"), st.sampled_from(["s1", "s2"])),
            max_size=10,
        ),
        strat.constraints(max_leaves=5, expressible_only=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_equivalence_property(self, stream, constraint):
        """For random constraints and access streams, incremental and
        explicit decisions agree at every step."""
        def engine_with(c):
            policy = Policy()
            policy.add_user("u")
            policy.add_role("r")
            policy.add_permission(Permission("p", spatial_constraint=c))
            policy.assign_user("u", "r")
            policy.assign_permission("r", "p")
            engine = AccessControlEngine(policy)
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            return engine, session

        engine_a, session_a = engine_with(constraint)
        engine_b, session_b = engine_with(constraint)
        history: tuple[AccessKey, ...] = ()
        for i, triple in enumerate(stream):
            access = AccessKey(*triple)
            explicit = engine_a.decide(session_a, access, float(i), history=history)
            incremental = engine_b.decide(session_b, access, float(i), history=None)
            assert explicit.granted == incremental.granted
            if explicit.granted:
                history += (access,)
                engine_b.observe(session_b, access)


class TestIncrementalSecurityManager:
    def make_sim(self, incremental):
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission(
                "p",
                op="exec",
                resource="rsw",
                spatial_constraint=parse_constraint("count(0, 2, [res = rsw])"),
            )
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        engine = AccessControlEngine(policy)
        coalition = Coalition(
            [
                CoalitionServer("s1", resources=[Resource("rsw")]),
                CoalitionServer("s2", resources=[Resource("rsw")]),
            ]
        )
        manager = NapletSecurityManager(engine, incremental=incremental)
        return Simulation(coalition, security=manager), engine

    @pytest.mark.parametrize("incremental", [False, True])
    def test_simulation_behaviour_identical(self, incremental):
        sim, engine = self.make_sim(incremental)
        naplet = Naplet(
            "u",
            parse_program("exec rsw @ s1 ; exec rsw @ s1 ; exec rsw @ s2"),
            roles=("r",),
        )
        sim.add_naplet(naplet, "s1")
        sim.run()
        assert naplet.status is NapletStatus.DENIED
        assert len(naplet.history()) == 2
        assert engine.audit.denials()[0].access.server == "s2"

    def test_incremental_is_faster_on_long_histories(self):
        """Sanity check of the optimisation's point: cost per decision
        does not grow with history in incremental mode."""
        import time

        engine, session = make_engine("count(0, 100000, [res = rsw])")
        access = AccessKey("exec", "rsw", "s1")
        # Build a long observed history.
        long_history = (access,) * 20_000
        for a in long_history:
            pass  # explicit mode will replay this; incremental will not
        session.observed = long_history
        # The first incremental read folds the history once.
        engine.decide(session, access, 1.0, history=None)

        start = time.perf_counter()
        for _ in range(20):
            engine.decide(session, access, 1.0, history=None)
        incremental_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(20):
            engine.decide(session, access, 1.0, history=long_history)
        explicit_time = time.perf_counter() - start
        assert incremental_time < explicit_time / 5
