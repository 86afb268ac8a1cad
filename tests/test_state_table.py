"""The per-constraint state table against the tuple monitors.

:class:`~repro.srac.compiled.StateTable` is the one form of a monitor
product's state that decisions and observations step: an int id, moved
by one column read per access and tested against one live mask per
request universe.  These properties tie it back to the tuple monitors
it is compiled from (:class:`~repro.srac.monitors.CompiledConstraint`)
and to the uncached BFS, over random constraints — selections the
concrete syntax cannot print included — and over accesses inside and
outside each constraint's alphabet.  The last class pins the
reachability budget: a caller's budget decides for that caller alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import tests.strategies as strategies
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac import compiled as srac_compiled
from repro.srac import reachability
from repro.srac.ast import constraint_alphabet
from repro.srac.checker import satisfiable_extension_states
from repro.srac.compiled import StateTable, state_table, table_cache_counters
from repro.srac.monitors import Monitor, compile_constraint
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

#: An access no strategy draws: outside every generated alphabet.
FOREIGN = AccessKey("write", "r9", "s9")

#: Products up to this many states are checked id by id.
SMALL = 96


def _fresh(constraint) -> tuple:
    compiled = compile_constraint(constraint, cache=False)
    return compiled, StateTable(compiled)


def _steps_alike(compiled, a: AccessKey, b: AccessKey) -> bool:
    return all(
        monitor.step(s, a) == monitor.step(s, b)
        for monitor in compiled.monitors
        for s in range(monitor.size())
    )


class TestSteps:
    @given(
        strategies.constraints(max_leaves=5, expressible_only=False),
        strategies.traces_over_alphabet(max_size=8),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_step_is_the_tuple_monitors_step(self, constraint, trace):
        compiled, table = _fresh(constraint)
        accesses = (*trace, FOREIGN)
        ids = range(min(table.n_states, SMALL))
        for access in accesses:
            for state in ids:
                assert table.step(state, access) == table.encode(
                    compiled.step(table.decode(state), access)
                )
        assert table.decode(table.fold(accesses)) == compiled.run(accesses)
        assert table.fold(()) == table.initial == table.encode(compiled.initial())

    @given(
        strategies.constraints(max_leaves=5, expressible_only=False),
        strategies.traces_over_alphabet(max_size=8),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_accesses_share_a_column_only_when_every_monitor_steps_alike(
        self, constraint, trace
    ):
        compiled, table = _fresh(constraint)
        accesses = list(
            dict.fromkeys((*trace, *constraint_alphabet(constraint), FOREIGN))
        )
        table.fold(accesses)
        for a in accesses:
            for b in accesses:
                shared = table._columns[a] is table._columns[b]
                assert shared == _steps_alike(compiled, a, b), (a, b)

    @given(
        strategies.constraints(max_leaves=5, expressible_only=False),
        strategies.traces_over_alphabet(max_size=8),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_labels_part_accesses_as_the_step_functions_do(
        self, constraint, trace
    ):
        compiled = compile_constraint(constraint, cache=False)
        accesses = list(
            dict.fromkeys((*trace, *constraint_alphabet(constraint), FOREIGN))
        )
        for monitor in compiled.monitors:
            for a in accesses:
                for b in accesses:
                    assert (monitor.label(a) == monitor.label(b)) == (
                        Monitor.label(monitor, a) == Monitor.label(monitor, b)
                    ), (monitor, a, b)

    def test_plain_tuples_step_like_their_keys(self):
        _compiled, table = _fresh(
            parse_constraint("count(1, 2, [res = r1]) & exec r1 @ s1")
        )
        keys = [AccessKey("exec", "r1", "s1"), AccessKey("read", "r1", "s2")]
        assert table.fold([tuple(k) for k in keys]) == table.fold(keys)

    def test_past_the_cell_budget_accesses_step_without_a_column(self, monkeypatch):
        monkeypatch.setattr(srac_compiled, "DEFAULT_CELL_BUDGET", 0)
        compiled, table = _fresh(parse_constraint("exec r1 @ s1 >> exec r1 @ s2"))
        trace = [AccessKey("exec", "r1", s) for s in ("s2", "s1", "s3", "s2")]
        assert table.decode(table.fold(trace)) == compiled.run(trace)
        assert set(table._columns.values()) == {()}
        assert not table._classes

    def test_the_access_index_is_bounded(self, monkeypatch):
        monkeypatch.setattr(srac_compiled, "_ACCESSES_MAX", 2)
        compiled, table = _fresh(parse_constraint("count(0, 3, [res = r1])"))
        trace = [AccessKey("exec", "r1", f"s{i}") for i in range(5)] * 2
        assert table.decode(table.fold(trace)) == compiled.run(trace)
        assert len(table._columns) <= 2
        assert len(table._classes) == 1


class TestLiveMask:
    @given(
        strategies.constraints(max_leaves=4, expressible_only=False),
        strategies.traces_over_alphabet(max_size=3),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mask_is_the_bfs_verdict_of_every_id(self, constraint, extra):
        compiled, table = _fresh(constraint)
        if table.n_states > SMALL:
            return
        own = tuple(constraint_alphabet(constraint))
        for universe in ((), (*own, FOREIGN), (*own, *extra)):
            mask = table.live_mask(universe)
            assert len(mask) == table.n_states
            for state in range(table.n_states):
                expected = satisfiable_extension_states(
                    compiled, table.decode(state), universe, use_cache=False
                )
                assert (mask[state] != 0) == expected, (universe, state)

    def test_only_the_mask_stays_resident(self):
        reachability.clear_caches()
        _compiled, table = _fresh(parse_constraint("count(0, 2, [res = r1])"))
        table.live_mask((AccessKey("exec", "r1", "s1"),))
        assert reachability.cache_stats().live_sets == 0

    def test_masks_are_interned_per_universe(self):
        _compiled, table = _fresh(parse_constraint("count(0, 2, [res = r1])"))
        a, b = AccessKey("exec", "r1", "s1"), AccessKey("exec", "r1", "s2")
        assert table.live_mask((a, b)) is table.live_mask((b, a, a))
        assert table.live_mask((a,)) is not table.live_mask((a, b))


class TestInterning:
    def test_one_table_per_constraint_until_clear_caches(self):
        reachability.clear_caches()
        constraint = parse_constraint("count(0, 3, [res = r1])")
        table = state_table(constraint)
        assert state_table(parse_constraint("count(0, 3, [res = r1])")) is table
        table.live_mask(())
        hits, misses, fallbacks, entries = table_cache_counters()
        assert (hits, misses, fallbacks, entries) == (1, 2, 0, 1)
        reachability.clear_caches()
        assert table_cache_counters() == (0, 0, 0, 0)
        fresh = state_table(constraint)
        assert fresh is not table
        # Tables of one constraint number its states alike: equal.
        assert fresh == table and hash(fresh) == hash(table)
        assert state_table(parse_constraint("count(0, 2, [res = r1])")) != table

    def test_no_mask_over_the_state_budget(self):
        reachability.clear_caches()
        wide = parse_constraint("count(0, 100000, [res = r1])")
        budget = reachability.DEFAULT_STATE_BUDGET
        table = state_table(wide)
        assert table.n_states > budget
        assert table.live_mask(()) is None
        assert table_cache_counters() == (0, 1, 1, 1)
        access = AccessKey("exec", "r1", "s1")
        assert table.decode(table.fold([access] * 3)) == (3,)


def _engine(source: str) -> tuple:
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p", op="exec", resource="rsw",
            spatial_constraint=parse_constraint(source),
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


class TestStateBudget:
    SOURCE = "count(0, 100, [res = rsw])"  # 102 states
    UNIVERSE = (AccessKey("exec", "rsw", "s1"),)

    @pytest.fixture(autouse=True)
    def _clean(self):
        reachability.clear_caches()
        yield
        reachability.clear_caches()

    def test_a_small_budget_call_does_not_poison_later_callers(self):
        compiled = compile_constraint(parse_constraint(self.SOURCE))
        assert reachability.live_set(compiled, self.UNIVERSE, state_budget=50) is None
        assert reachability.satisfiable_states(
            compiled, (0,), self.UNIVERSE, state_budget=50
        ) is None
        assert reachability.live_set(compiled, self.UNIVERSE) is not None
        assert reachability.satisfiable_states(compiled, (0,), self.UNIVERSE) is True
        engine, session = _engine(self.SOURCE)
        access = AccessKey("exec", "rsw", "s1")
        assert engine.decide(session, access, 1.0, history=None).granted
        stats = engine.cache_stats()
        assert (stats.live_hits, stats.live_fallbacks) == (1, 0)
        engine.close()

    def test_a_small_budget_caller_is_refused_a_cached_live_set(self):
        compiled = compile_constraint(parse_constraint(self.SOURCE))
        assert reachability.live_set(compiled, self.UNIVERSE) is not None
        assert reachability.satisfiable_states(compiled, (0,), self.UNIVERSE) is True
        assert reachability.live_set(compiled, self.UNIVERSE, state_budget=50) is None
        fallbacks = reachability.cache_stats().fallbacks
        assert reachability.satisfiable_states(
            compiled, (0,), self.UNIVERSE, state_budget=50
        ) is None
        assert reachability.cache_stats().fallbacks == fallbacks + 1
