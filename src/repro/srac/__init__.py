"""SRAC — the Shared Resource Access Constraint language
(paper Definition 3.4) and its decision procedures.

* :mod:`repro.srac.ast` — constraint AST (``T``, ``F``, atoms, ``⊗``,
  counting, boolean connectives);
* :mod:`repro.srac.selection` — σ selection operators over access sets;
* :mod:`repro.srac.parser` / :mod:`repro.srac.printer` — concrete syntax;
* :mod:`repro.srac.trace_check` — ``t ⊨ C`` (Definition 3.6, with
  execution proofs);
* :mod:`repro.srac.checker` — ``P ⊨ C`` (Definition 3.7 /
  Theorem 3.2) via the monitor-product algorithm.
"""

from repro.srac.ast import (
    And,
    Atom,
    Bottom,
    Constraint,
    Count,
    Iff,
    Implies,
    Not,
    Or,
    Ordered,
    Top,
    atomic_parts,
    conjunction,
    constraint_alphabet,
    constraint_size,
    desugar,
    disjunction,
)
from repro.srac.checker import (
    CheckResult,
    check_program,
    check_program_stats,
    satisfiable_extension,
    satisfiable_extension_states,
)
from repro.srac.monitors import (
    AtomMonitor,
    CompiledConstraint,
    CountMonitor,
    Monitor,
    OrderedMonitor,
    compile_constraint,
)
from repro.srac.reachability import (
    CacheStats,
    cache_stats,
    clear_caches,
    reset_cache_stats,
)
from repro.srac.parser import parse_constraint, parse_selection
from repro.srac.printer import unparse_constraint, unparse_selection
from repro.srac.simplify import simplify_constraint
from repro.srac.selection import (
    SelectAccesses,
    SelectAll,
    SelectAnd,
    SelectField,
    SelectNot,
    SelectOr,
    Selection,
    select_access,
    select_op,
    select_resource,
    select_server,
)
from repro.srac.trace_check import trace_satisfies

__all__ = [
    "And",
    "Atom",
    "Bottom",
    "Constraint",
    "Count",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Ordered",
    "Top",
    "atomic_parts",
    "conjunction",
    "disjunction",
    "constraint_alphabet",
    "constraint_size",
    "desugar",
    "CheckResult",
    "check_program",
    "check_program_stats",
    "satisfiable_extension",
    "satisfiable_extension_states",
    "CacheStats",
    "cache_stats",
    "clear_caches",
    "reset_cache_stats",
    "AtomMonitor",
    "CompiledConstraint",
    "CountMonitor",
    "Monitor",
    "OrderedMonitor",
    "compile_constraint",
    "parse_constraint",
    "parse_selection",
    "unparse_constraint",
    "unparse_selection",
    "SelectAccesses",
    "SelectAll",
    "SelectAnd",
    "SelectField",
    "SelectNot",
    "SelectOr",
    "Selection",
    "select_access",
    "select_op",
    "select_resource",
    "select_server",
    "simplify_constraint",
    "trace_satisfies",
]
