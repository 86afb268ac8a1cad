"""Tests for the synthetic workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sral.analysis import alphabet as program_alphabet
from repro.sral.ast import program_size
from repro.srac.ast import constraint_size
from repro.traces.regular import regex_size, verify_regular_completeness
from repro.workloads import (
    access_alphabet,
    coalition_topology,
    random_constraint,
    random_module_graph,
    random_program,
    random_regex,
    random_selection,
)


class TestAlphabet:
    def test_size(self):
        assert len(access_alphabet(2, 3, 4)) == 24

    def test_validation(self):
        with pytest.raises(WorkloadError):
            access_alphabet(0, 1, 1)


class TestRandomProgram:
    def test_deterministic_under_seed(self):
        p1 = random_program(np.random.default_rng(5), 30)
        p2 = random_program(np.random.default_rng(5), 30)
        assert p1 == p2

    def test_size_scales_with_leaves(self):
        rng = np.random.default_rng(0)
        small = program_size(random_program(rng, 10))
        rng = np.random.default_rng(0)
        large = program_size(random_program(rng, 100))
        assert large > small
        assert large >= 100

    def test_alphabet_respected(self):
        alphabet = access_alphabet(1, 1, 1)
        program = random_program(np.random.default_rng(1), 20, alphabet)
        assert program_alphabet(program) <= set(alphabet)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            random_program(np.random.default_rng(0), 0)

    @given(st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_always_valid_program(self, leaves, seed):
        from repro.traces.model import program_traces

        program = random_program(np.random.default_rng(seed), leaves)
        # The trace model must be constructible and non-empty.
        assert not program_traces(program).is_empty()


class TestRandomRegex:
    def test_deterministic(self):
        r1 = random_regex(np.random.default_rng(9), 15)
        r2 = random_regex(np.random.default_rng(9), 15)
        assert r1 == r2

    @given(st.integers(1, 15), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_theorem31_holds_on_generated(self, leaves, seed):
        regex = random_regex(np.random.default_rng(seed), leaves)
        assert regex_size(regex) >= leaves
        assert verify_regular_completeness(regex)


class TestRandomConstraint:
    def test_deterministic(self):
        c1 = random_constraint(np.random.default_rng(3), 8)
        c2 = random_constraint(np.random.default_rng(3), 8)
        assert c1 == c2

    def test_size_scales(self):
        c = random_constraint(np.random.default_rng(1), 20)
        assert constraint_size(c) >= 20

    def test_selection_fields_from_alphabet(self):
        alphabet = access_alphabet(2, 2, 2)
        sel = random_selection(np.random.default_rng(0), alphabet)
        assert sel.restrict(alphabet)  # selects something

    @given(st.integers(1, 12), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_generated_constraints_are_checkable(self, leaves, seed):
        from repro.srac.checker import check_program

        rng = np.random.default_rng(seed)
        alphabet = access_alphabet(2, 2, 2)
        constraint = random_constraint(rng, leaves, alphabet)
        program = random_program(rng, 6, alphabet)
        # Must terminate and return a bool, whatever the combination.
        assert check_program(program, constraint) in (True, False)


class TestTopologies:
    def test_complete(self):
        c = coalition_topology(4, "complete", base_latency=2.0)
        assert c.migration_latency("s1", "s4") == 2.0

    def test_star(self):
        c = coalition_topology(4, "star", base_latency=1.0)
        assert c.migration_latency("s1", "s3") == 1.0  # hub spoke
        assert c.migration_latency("s2", "s3") == 2.0  # spoke-spoke

    def test_ring(self):
        c = coalition_topology(6, "ring", base_latency=1.0)
        assert c.migration_latency("s1", "s2") == 1.0
        assert c.migration_latency("s1", "s4") == 3.0
        assert c.migration_latency("s1", "s6") == 1.0  # wraps around

    def test_clocks_applied(self):
        c = coalition_topology(3, "complete", clock_skew=5.0, seed=1)
        skews = [c.server(n).clock.skew for n in c.server_names()]
        assert any(abs(s) > 0 for s in skews)

    def test_unknown_shape(self):
        with pytest.raises(WorkloadError):
            coalition_topology(3, "torus")

    def test_resources_present(self):
        c = coalition_topology(2, resources_per_server=3)
        assert len(c.server("s1").resources) == 3


class TestRandomModuleGraph:
    def test_deterministic(self):
        g1 = random_module_graph(10, 3, seed=4)
        g2 = random_module_graph(10, 3, seed=4)
        assert [m.name for m in g1.modules()] == [m.name for m in g2.modules()]
        assert [m.depends_on for m in g1.modules()] == [
            m.depends_on for m in g2.modules()
        ]

    def test_acyclic_by_construction(self):
        for seed in range(5):
            graph = random_module_graph(25, 4, edge_probability=0.5, seed=seed)
            assert len(graph.topological_order()) == 25

    def test_validation(self):
        with pytest.raises(WorkloadError):
            random_module_graph(0, 1)
        with pytest.raises(WorkloadError):
            random_module_graph(5, 2, edge_probability=1.5)
