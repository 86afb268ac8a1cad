"""The state-table cache and its live masks: cached verdicts must
equal the uncached BFS path, engine decisions must agree with the
definitions-level oracle (``tests/spec_oracle.py``), caches must
invalidate when the policy changes, and the counters must account for
the hot path."""

from hypothesis import given, settings
from hypothesis import strategies as st

import tests.strategies as strat
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac import reachability
from repro.srac.compiled import state_table
from repro.srac.checker import (
    satisfiable_extension,
    satisfiable_extension_states,
)
from repro.srac.monitors import compile_constraint
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey
from tests.spec_oracle import spatial_ok

ALPHABET = tuple(
    AccessKey(op, res, srv)
    for op in ("read", "exec")
    for res in ("r1", "rsw")
    for srv in ("s1", "s2")
)


def make_engine(constraint_src="count(0, 5, [res = rsw])", **kwargs):
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
    engine = AccessControlEngine(policy, **kwargs)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


class TestCompileCache:
    def test_interned_per_constraint(self):
        """One table, and one compilation, per constraint: the table
        is the only interned form."""
        reachability.clear_caches()
        c1 = parse_constraint("count(0, 5, [res = rsw])")
        c2 = parse_constraint("count(0, 5, [res = rsw])")
        table = state_table(c1)
        assert state_table(c2) is table
        assert state_table(c2).compiled is table.compiled
        assert compile_constraint(c1) is not table.compiled
        stats = reachability.cache_stats()
        assert stats.compile_misses == 1
        assert stats.compile_hits == 2

    def test_clear(self):
        reachability.clear_caches()
        c = parse_constraint("exec rsw @ s1")
        first = state_table(c)
        reachability.clear_caches()
        assert state_table(c) is not first
        assert reachability.cache_stats().compile_misses == 1

    def test_an_engine_decision_counts_its_table_and_mask(self):
        """The engine's first decision builds one table and one mask; a
        decision on another access of the same class adds hits only."""
        reachability.clear_caches()
        engine, session = make_engine()
        engine.decide(session, ("exec", "rsw", "s1"), 1.0, history=None)
        first = engine.cache_stats().srac
        assert (first.compile_misses, first.reachability_misses) == (1, 1)
        engine.decide(session, ("exec", "rsw", "s2"), 2.0, history=None)
        second = engine.cache_stats().srac
        assert (second.compile_misses, second.reachability_misses) == (1, 1)
        assert second.compile_hits > first.compile_hits
        assert second.reachability_hits == first.reachability_hits + 1
        assert second.fallbacks == 0
        engine.close()


class TestLiveSetSemantics:
    def test_live_set_matches_bfs_simple(self):
        constraint = parse_constraint("count(0, 2, [res = rsw])")
        compiled = compile_constraint(constraint)
        universe = (AccessKey("exec", "rsw", "s1"),)
        # Count monitor states: 0..3; 3 = saturated over the bound.
        verdicts = []
        for state in range(4):
            expected = satisfiable_extension_states(
                compiled, (state,), universe, use_cache=False
            )
            cached = satisfiable_extension_states(compiled, (state,), universe)
            assert cached == expected
            verdicts.append(cached)
        assert verdicts == [True, True, True, False]

    def test_budget_exceeded_returns_none_and_counts_fallback(self):
        reachability.clear_caches()
        constraint = parse_constraint("count(0, 100000, [res = rsw])")
        compiled = compile_constraint(constraint)
        universe = (AccessKey("exec", "rsw", "s1"),)
        assert compiled.state_space() > reachability.DEFAULT_STATE_BUDGET
        # No mask over the budget: the search answers, counted once.
        assert satisfiable_extension_states(compiled, (0,), universe)
        stats = reachability.cache_stats()
        assert (stats.fallbacks, stats.reachability_misses) == (1, 0)
        assert state_table(constraint).live_mask(universe) is None

    def test_query_state_outside_alphabet_reachable_set(self):
        """History accesses outside the request alphabet can put
        monitors into states the alphabet alone cannot reach; the
        full-product live set must still answer correctly."""
        constraint = parse_constraint("count(0, 1, [res = rsw])")
        compiled = compile_constraint(constraint)
        # Request alphabet selects nothing the counter matches.
        universe = (AccessKey("read", "r1", "s1"),)
        # History drove the counter over the bound (state 2): dead.
        state = compiled.run(
            (AccessKey("exec", "rsw", "s1"), AccessKey("exec", "rsw", "s2"))
        )
        bfs = satisfiable_extension_states(
            compiled, state, universe, use_cache=False
        )
        cached = satisfiable_extension_states(compiled, state, universe)
        assert cached == bfs is False

    @given(
        strat.constraints(max_leaves=5, expressible_only=False),
        strat.traces_over_alphabet(max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_cached_equals_bfs(self, constraint, history):
        """For random constraints and history-induced states the
        precomputed live-set verdict is bit-identical to the BFS."""
        compiled = compile_constraint(constraint)
        states = compiled.run(history)
        for universe in (ALPHABET, ALPHABET[:2], ()):
            bfs = satisfiable_extension_states(
                compiled, states, universe, use_cache=False
            )
            cached = satisfiable_extension_states(compiled, states, universe)
            assert cached == bfs

    @given(
        strat.constraints(max_leaves=5, expressible_only=False),
        strat.traces_over_alphabet(max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_satisfiable_extension_cached_equals_uncached(
        self, constraint, history
    ):
        cached = satisfiable_extension(constraint, history, ALPHABET)
        uncached = satisfiable_extension(
            constraint, history, ALPHABET, use_cache=False
        )
        assert cached == uncached


class TestEngineEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["exec"]),
                st.just("rsw"),
                st.sampled_from(["s1", "s2"]),
            ),
            max_size=10,
        ),
        strat.constraints(max_leaves=5, expressible_only=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_cached_engine_matches_uncached(self, stream, constraint):
        """Decisions of the cached engine (live sets + interned
        compilations) agree with the definitions-level spatial check
        (``tests.spec_oracle.spatial_ok``, a DFA built without the
        engine's monitors or caches) over the observed history, on
        random constraints and access streams."""
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(Permission("p", spatial_constraint=constraint))
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        engine = AccessControlEngine(policy)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        observed: list[AccessKey] = []
        for i, triple in enumerate(stream):
            access = AccessKey(*triple)
            decision = engine.decide(session, access, float(i), history=None)
            assert decision.granted == spatial_ok(constraint, observed, access)
            if decision.granted:
                engine.observe(session, access)
                observed.append(access)

    def test_decide_batch_matches_sequential(self):
        engine_a, session_a = make_engine()
        engine_b, session_b = make_engine()
        stream = [("exec", "rsw", f"s{i % 3}") for i in range(8)]
        sequential = []
        for i, access in enumerate(stream):
            decision = engine_a.decide(
                session_a, access, float(i), history=None
            )
            if decision.granted:
                engine_a.observe(session_a, AccessKey(*access))
            sequential.append(decision.granted)
        batched = engine_b.decide_batch(
            session_b, stream, 0.0, dt=1.0, observe_granted=True
        )
        assert [d.granted for d in batched] == sequential
        assert session_b.observed == session_a.observed

    def test_fast_path_denies_at_other_server(self):
        """The flagship Example 3.5 behaviour survives the fast path."""
        engine, session = make_engine()
        for _ in range(5):
            engine.observe(session, AccessKey("exec", "rsw", "s1"))
        assert not engine.decide(
            session, ("exec", "rsw", "s2"), 1.0, history=None
        ).granted
        assert engine.cache_stats().live_hits >= 1


class TestCacheInvalidation:
    def test_policy_mutation_bumps_version(self):
        policy = Policy()
        v0 = policy.version
        policy.add_user("u")
        policy.add_role("r")
        policy.assign_user("u", "r")
        assert policy.version > v0

    def test_candidates_refresh_on_new_grant(self):
        """A permission granted after decisions have been cached must
        be seen by the very next decision."""
        engine, session = make_engine()
        denied = engine.decide(session, ("read", "r1", "s1"), 0.0, history=None)
        assert not denied.granted
        engine.policy.add_permission(Permission("p2", op="read", resource="r1"))
        engine.policy.assign_permission("r", "p2")
        # Re-activating the role arms the new permission's tracker.
        engine.activate_role(session, "r", 1.0)
        granted = engine.decide(session, ("read", "r1", "s1"), 1.0, history=None)
        assert granted.granted

    def test_constraint_replacement_changes_decisions(self):
        """Replacing a permission's spatial constraint invalidates the
        compiled/live-set entries keyed on the old constraint, and the
        engine's interned candidate records: after the replacement no
        decision, scalar or swept, names the old constraint text."""
        old_src, new_src = "count(0, 5, [res = rsw])", "count(0, 4, [res = rsw])"
        engine, session = make_engine(old_src)
        access = AccessKey("exec", "rsw", "s1")
        # A second session past the old bound fills the record memo
        # with this permission's spatial denial (both paths) and grant.
        full = engine.authenticate("u", 0.0)
        engine.activate_role(full, "r", 0.0)
        for _ in range(5):
            engine.observe(full, access)
        denied = engine.decide(full, access, 0.0, history=None)
        assert denied.provenance.failing.constraint == old_src
        [swept] = engine.decide_batch(full, [access], 0.0)
        assert swept.provenance.failing.constraint == old_src
        for i in range(3):
            decision = engine.decide(session, access, float(i), history=None)
            assert decision.granted
            assert decision.provenance.candidates[0].constraint == old_src
            engine.observe(session, access)
        engine.policy.replace_permission(
            Permission(
                "p",
                op="exec",
                resource="rsw",
                spatial_constraint=parse_constraint(new_src),
            )
        )
        decision = engine.decide(session, access, 3.0, history=None)
        assert decision.granted
        assert decision.provenance.candidates[0].constraint == new_src
        engine.observe(session, access)
        # Four observed; the tightened bound of 4 now denies the fifth.
        decision = engine.decide(session, access, 4.0, history=None)
        assert not decision.granted
        assert decision.provenance.failing.constraint == new_src
        [swept] = engine.decide_batch(session, [access], 5.0)
        assert not swept.granted
        assert swept.provenance.failing.constraint == new_src
        [swept] = engine.decide_batch(full, [access], 5.0)
        assert swept.provenance.failing.constraint == new_src

    def test_invalidate_caches_clears_derived_state(self):
        engine, session = make_engine()
        constraint = engine.policy.permissions["p"].spatial_constraint
        engine.decide(session, ("exec", "rsw", "s1"), 0.0, history=None)
        assert engine._extension_cache
        assert session.monitor_entry(constraint) is not None
        engine.invalidate_caches()
        assert not engine._extension_cache
        assert not engine._memo.candidates
        assert session.monitor_entry(constraint) is None
        # Still decides correctly after the purge.
        assert engine.decide(
            session, ("exec", "rsw", "s1"), 1.0, history=None
        ).granted

    def test_candidates_keep_one_policy_version(self):
        """Candidates live in the memo of the current policy version:
        a mutation drops the older version's entries instead of leaving
        a full set behind."""
        engine, session = make_engine()
        access = AccessKey("exec", "rsw", "s1")
        for i in range(200):
            engine.policy.add_user(f"v{i}")
            assert engine.decide(session, access, float(i), history=None).granted
        assert len(engine._memo.candidates) == 1


class TestObservedStorage:
    def test_observed_is_tuple_view_over_list(self):
        engine, session = make_engine()
        access = AccessKey("exec", "rsw", "s1")
        engine.observe(session, access)
        engine.observe(session, access)
        assert session.observed == (access, access)
        assert isinstance(session.observed, tuple)
        # Memoised view: same object until the next observation.
        assert session.observed is session.observed

    def test_observed_setter_resets_monitors(self):
        engine, session = make_engine("count(0, 2, [res = rsw])")
        access = AccessKey("exec", "rsw", "s1")
        assert engine.decide(session, access, 0.0, history=None).granted
        session.observed = (access, access)
        # Monitor cache was rebuilt from the assigned history: the
        # count is at the bound, so the next request is denied.
        assert not engine.decide(session, access, 1.0, history=None).granted
        assert session.observed == (access, access)


class TestStatsAndPrewarm:
    def test_cache_stats_counts_hot_path(self):
        engine, session = make_engine()
        for i in range(10):
            engine.decide(session, ("exec", "rsw", "s1"), float(i), history=None)
        stats = engine.cache_stats()
        assert stats.live_hits == 10
        assert stats.live_fallbacks == 0
        assert stats.candidate_hits == 9
        assert stats.candidate_misses == 1
        assert stats.as_dict()["live_hits"] == 10

    def test_prewarm_from_server_alphabet(self):
        engine, session = make_engine()
        server = CoalitionServer(
            "s1", resources=[Resource("rsw", operations=("exec",))]
        )
        alphabet = server.access_alphabet()
        assert alphabet == (AccessKey("exec", "rsw", "s1"),)
        warmed = engine.prewarm(alphabet)
        assert warmed == 1
        assert engine.cache_stats().extension_entries == 1
        # The first decision is already a pure lookup.
        engine.decide(session, ("exec", "rsw", "s1"), 0.0, history=None)
        assert engine.cache_stats().live_hits == 1

    def test_uncached_engine_reports_no_live_hits(self):
        """A monitor product over the reachability budget has no live
        set — the engine's only way into the per-decision BFS — and
        every spatial check on it counts as a fallback, not a hit."""
        engine, session = make_engine(
            "count(50000, 100000, [res = rsw]) & ~(exec rsw @ s2)"
        )
        assert engine.decide(
            session, ("exec", "rsw", "s1"), 0.0, history=None
        ).granted
        assert not engine.decide(
            session, ("exec", "rsw", "s2"), 1.0, history=None
        ).granted
        stats = engine.cache_stats()
        assert stats.live_hits == 0
        assert stats.live_fallbacks == 2
