"""The per-constraint state table against the tuple monitors.

:class:`~repro.srac.compiled.StateTable` is the one form of a monitor
product's state that decisions and observations step: an int id, moved
by one column read per access and tested against one live mask per
request universe.  These properties tie it back to the tuple monitors
it is compiled from (:class:`~repro.srac.monitors.CompiledConstraint`)
and to the uncached BFS, over random constraints — selections the
concrete syntax cannot print included — and over accesses inside and
outside each constraint's alphabet.  The last classes pin the one
table cache's counters and the over-budget search's memo.
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
from repro.srac.compiled import StateTable, state_table
from repro.srac.monitors import CompiledConstraint, Monitor, compile_constraint
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

#: An access no strategy draws: outside every generated alphabet.
FOREIGN = AccessKey("write", "r9", "s9")

#: Products up to this many states are checked id by id.
SMALL = 96


def _fresh(constraint) -> tuple:
    compiled = compile_constraint(constraint)
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
        compiled = compile_constraint(constraint)
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
        table = state_table(parse_constraint("count(0, 2, [res = r1])"))
        mask = table.live_mask((AccessKey("exec", "r1", "s1"),))
        assert reachability.cache_stats().live_sets == 1
        assert list(table._masks.values()) == [mask]

    def test_masks_are_interned_per_universe(self):
        """Per set of classes the universe steps through: universes no
        monitor tells apart share one mask."""
        reachability.clear_caches()
        table = state_table(parse_constraint("count(0, 2, [res = r1])"))
        a, b = AccessKey("exec", "r1", "s1"), AccessKey("exec", "r1", "s2")
        other = AccessKey("read", "r2", "s1")  # not counted: another class
        assert table.live_mask((a, b)) is table.live_mask((b, a, a))
        assert table.live_mask((a,)) is table.live_mask((b,))
        assert table.live_mask((a, other)) is not table.live_mask((a,))
        stats = reachability.cache_stats()
        assert (stats.reachability_misses, stats.reachability_hits) == (2, 4)
        assert stats.live_sets == 2


class TestInterning:
    def test_one_table_per_constraint_until_clear_caches(self):
        reachability.clear_caches()
        constraint = parse_constraint("count(0, 3, [res = r1])")
        table = state_table(constraint)
        again = state_table(parse_constraint("count(0, 3, [res = r1])"))
        assert again is table and again.compiled is table.compiled
        table.live_mask(())
        assert reachability.cache_stats() == reachability.CacheStats(
            compile_hits=1,
            compile_misses=1,
            reachability_hits=0,
            reachability_misses=1,
            fallbacks=0,
            live_sets=1,
        )
        reachability.clear_caches()
        assert reachability.cache_stats() == reachability.CacheStats(
            0, 0, 0, 0, 0, 0
        )
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
        stats = reachability.cache_stats()
        assert (stats.compile_misses, stats.fallbacks) == (1, 1)
        assert stats.reachability_misses == stats.live_sets == 0
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


class TestOverBudgetSearch:
    """A product over the state budget has no mask; its ids are
    answered by the bounded search, remembered per (class set, id)."""

    SOURCE = "count(0, 20, [res = rsw]) & ~(exec rsw @ s2)"

    @pytest.fixture(autouse=True)
    def _small_budget(self, monkeypatch):
        reachability.clear_caches()
        monkeypatch.setattr(srac_compiled, "DEFAULT_STATE_BUDGET", 10)
        self.searches = []
        search = CompiledConstraint.reaches_acceptance

        def counted(compiled, states, alphabet, *args):
            alphabet = tuple(alphabet)
            self.searches.append((states, alphabet))
            return search(compiled, states, alphabet, *args)

        monkeypatch.setattr(CompiledConstraint, "reaches_acceptance", counted)
        yield
        reachability.clear_caches()

    def test_a_repeated_denial_searches_once(self):
        engine, session = _engine(self.SOURCE)
        engine.observe(session, AccessKey("exec", "rsw", "s2"))
        access = AccessKey("exec", "rsw", "s1")
        for i in range(3):
            assert not engine.decide(session, access, 1.0 + i, history=None).granted
        assert len(self.searches) == 1
        stats = engine.cache_stats()
        assert (stats.live_hits, stats.live_fallbacks) == (0, 3)
        engine.close()

    def test_another_class_set_is_searched_again(self):
        table = state_table(parse_constraint(self.SOURCE))
        assert table.live_mask(()) is None
        dead = table.fold([AccessKey("exec", "rsw", "s2")])
        counted = (AccessKey("exec", "rsw", "s1"),)
        alike = (AccessKey("exec", "rsw", "s3"), AccessKey("exec", "rsw", "s1"))
        other = (AccessKey("read", "r1", "s1"),)
        assert table.searches_to_acceptance(table.initial, counted)
        assert not table.searches_to_acceptance(dead, counted)
        assert not table.searches_to_acceptance(dead, alike)
        assert len(self.searches) == 2
        assert not table.searches_to_acceptance(dead, other)
        assert len(self.searches) == 3
        assert self.searches[-1] == (table.decode(dead), other)

    def test_the_verdict_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(srac_compiled, "_ACCESSES_MAX", 2)
        table = state_table(parse_constraint(self.SOURCE))
        universe = (AccessKey("exec", "rsw", "s1"),)
        for state in range(5):
            # The atom's monitor is last: an odd id has seen exec rsw @ s2.
            assert table.searches_to_acceptance(state, universe) == (state % 2 == 0)
        assert len(self.searches) == 5
        assert len(table._searched) <= 2
