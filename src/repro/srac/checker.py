"""Program satisfaction ``P ⊨ C`` — Theorem 3.2.

``traces(P)`` can be infinite, so per-trace checking is impossible; the
paper claims an ``O(m × n)`` decision procedure but (citing [14]) gives
no algorithm.  We use a monitor-product construction:

1. ``P`` compiles to its trace NFA (``O(m)`` states, Definition 3.2).
2. ``C`` compiles to a vector of atomic monitors plus a boolean
   skeleton (:mod:`repro.srac.monitors`).
3. A BFS explores the product of the *determinised* program automaton
   (built lazily — only reachable subsets are materialised) with the
   monitor vector.  Each product configuration is
   ``(program-state-set, monitor-state vector)``.
4. At every configuration whose program part is accepting (i.e. the
   access word read so far is a complete trace of ``P``), the skeleton
   is evaluated on the monitors' acceptance bits.

``P ⊨ C`` in the **universal** mode (the paper's reading of
Definition 3.7: *every* trace satisfies C) iff every final
configuration evaluates true; the **existential** mode (*some* trace
can satisfy C — useful for "can this program still comply?") iff some
final configuration evaluates true.

Complexity.  Reachable configurations number at most
``D × Π|monitor_i|`` where ``D`` is the number of reachable determinised
program states.  For the paper's constraint fragment — bounded
boolean width, bounded counting thresholds — this is the claimed
``O(m·n)``; adversarial nesting can exceed it, which the paper glosses
over (see DESIGN.md).  :func:`check_program_stats` reports the explored
configuration count so the benchmarks can measure the practical scaling
(experiment EXP-T32).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Literal, Sequence

from repro.errors import ConstraintError
from repro.sral.ast import Program
from repro.srac.ast import Constraint
from repro.srac.compiled import state_table
from repro.srac.monitors import CompiledConstraint, compile_constraint
from repro.traces.model import program_traces
from repro.traces.trace import AccessKey

__all__ = [
    "check_program",
    "check_program_stats",
    "satisfiable_extension",
    "satisfiable_extension_states",
    "CheckResult",
]

Mode = Literal["forall", "exists"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a program-satisfaction check.

    ``holds`` is the decision.  ``witness`` is a trace demonstrating the
    decision when one exists: in ``forall`` mode a *violating* trace
    (``holds`` false), in ``exists`` mode a *satisfying* trace (``holds``
    true); otherwise ``None``.  ``configurations`` counts explored
    product configurations (the empirical cost of Theorem 3.2).
    """

    holds: bool
    witness: tuple[AccessKey, ...] | None
    configurations: int


def check_program(
    program: Program,
    constraint: Constraint,
    history: Sequence[AccessKey] = (),
    mode: Mode = "forall",
    max_configurations: int = 1_000_000,
) -> bool:
    """Decide ``P ⊨ C`` (Definition 3.7 / Theorem 3.2).

    Parameters
    ----------
    program:
        The mobile object's SRAL program.
    constraint:
        The SRAC spatial constraint.
    history:
        Accesses already performed (with valid execution proofs).  The
        monitors start from the state reached after this prefix, so the
        check answers "given what the object already did, does/can the
        rest of the program comply?".  This is how the paper's
        ``check(P, C)`` combines "the traces and execution proofs of a
        mobile object" (Section 3.4).
    mode:
        ``"forall"`` — every complete trace must satisfy C (the paper's
        ⊨); ``"exists"`` — some trace satisfies C.
    max_configurations:
        Safety valve; exceeded only by adversarial constraints (raises
        :class:`~repro.errors.ConstraintError`).
    """
    return check_program_stats(
        program, constraint, history, mode, max_configurations
    ).holds


def check_program_stats(
    program: Program,
    constraint: Constraint,
    history: Sequence[AccessKey] = (),
    mode: Mode = "forall",
    max_configurations: int = 1_000_000,
) -> CheckResult:
    """Like :func:`check_program` but returns the full
    :class:`CheckResult` (decision, witness trace, configuration count).
    """
    if mode not in ("forall", "exists"):
        raise ConstraintError(f"unknown check mode {mode!r}")
    compiled = state_table(constraint).compiled
    monitor_start = compiled.run(tuple(AccessKey(*a) for a in history))

    nfa = program_traces(program).nfa
    start_states = nfa.epsilon_closure(nfa.start)

    # Lazy determinisation with interning: configurations sharing a
    # program-state subset (they differ only in monitor state) reuse its
    # transition row, so each subset's successors are computed once.
    subset_ids: dict[frozenset[int], int] = {start_states: 0}
    subset_rows: list[tuple[tuple[AccessKey, int], ...] | None] = [None]
    subset_accepting: list[bool] = [bool(start_states & nfa.accepts)]
    subset_values: list[frozenset[int]] = [start_states]

    def row_of(subset_id: int) -> tuple[tuple[AccessKey, int], ...]:
        row = subset_rows[subset_id]
        if row is not None:
            return row
        states = subset_values[subset_id]
        symbols: set[AccessKey] = set()
        for state in states:
            symbols.update(nfa.edges[state].keys())
        entries: list[tuple[AccessKey, int]] = []
        for symbol in symbols:
            nxt = nfa.step(states, symbol)
            if not nxt:
                continue
            nxt_id = subset_ids.get(nxt)
            if nxt_id is None:
                nxt_id = len(subset_values)
                subset_ids[nxt] = nxt_id
                subset_values.append(nxt)
                subset_rows.append(None)
                subset_accepting.append(bool(nxt & nfa.accepts))
            entries.append((symbol, nxt_id))
        row = tuple(entries)
        subset_rows[subset_id] = row
        return row

    # Monitor-step and verdict caches: many configurations share monitor
    # states, and most symbols leave most monitors unchanged.
    step_cache: dict[tuple[tuple[int, ...], AccessKey], tuple[int, ...]] = {}
    verdict_cache: dict[tuple[int, ...], bool] = {}

    start = (0, monitor_start)
    seen = {start}
    # Each queue entry carries the access word that reached it so a
    # witness can be reported; words stay short because BFS finds the
    # shortest offending/satisfying completion first.
    queue: deque[tuple[int, tuple[int, ...], tuple[AccessKey, ...]]] = deque(
        [(0, monitor_start, ())]
    )
    explored = 0

    while queue:
        subset_id, monitor_states, word = queue.popleft()
        explored += 1
        if explored > max_configurations:
            raise ConstraintError(
                f"constraint check exceeded {max_configurations} product "
                "configurations; the constraint is outside the polynomial "
                "fragment (see DESIGN.md)"
            )
        if subset_accepting[subset_id]:
            verdict = verdict_cache.get(monitor_states)
            if verdict is None:
                verdict = compiled.evaluate(monitor_states)
                verdict_cache[monitor_states] = verdict
            if mode == "forall" and not verdict:
                return CheckResult(False, word, explored)
            if mode == "exists" and verdict:
                return CheckResult(True, word, explored)
        for symbol, next_subset in row_of(subset_id):
            key = (monitor_states, symbol)
            next_monitors = step_cache.get(key)
            if next_monitors is None:
                next_monitors = compiled.step(monitor_states, symbol)
                step_cache[key] = next_monitors
            config = (next_subset, next_monitors)
            if config not in seen:
                seen.add(config)
                queue.append((next_subset, next_monitors, word + (symbol,)))

    if mode == "forall":
        return CheckResult(True, None, explored)
    return CheckResult(False, None, explored)


def satisfiable_extension_states(
    compiled: CompiledConstraint,
    states: tuple[int, ...],
    alphabet: Sequence[AccessKey | tuple[str, str, str]],
    max_configurations: int = 1_000_000,
    use_cache: bool = True,
) -> bool:
    """Monitor-state-level core of :func:`satisfiable_extension`:
    can any word over ``alphabet`` drive ``states`` to acceptance?

    Exposed separately so callers that maintain *incremental* monitor
    states (e.g. the engine's per-session cache) skip the history
    replay entirely.

    With ``use_cache`` (the default) the answer is one read of the
    constraint's state-table live mask at the vector's id; over the
    state budget, and with ``use_cache=False``, the bounded BFS
    (:meth:`~repro.srac.monitors.CompiledConstraint.reaches_acceptance`)
    answers.
    """
    if use_cache:
        table = state_table(compiled.constraint)
        mask = table.live_mask(alphabet)
        if mask is not None:
            return mask[table.encode(states)] != 0
    return compiled.reaches_acceptance(states, alphabet, max_configurations)


def satisfiable_extension(
    constraint: Constraint,
    history: Sequence[AccessKey],
    alphabet: Sequence[AccessKey | tuple[str, str, str]],
    max_configurations: int = 1_000_000,
    use_cache: bool = True,
) -> bool:
    """Can the history still be extended — by *any* future accesses
    drawn from ``alphabet`` — into a trace satisfying ``constraint``?

    This is the engine's grant-time test when the mobile object's
    remaining program is unknown: granting an access whose resulting
    history is **un**-extendable would strand the object in permanent
    violation, so such a grant is refused (the paper's "not allowed to
    access the resource on site s2 forever" behaviour falls out of
    exactly this check).

    Equivalent to ``check_program(while c do (a1|…|ak), constraint,
    history, mode="exists")`` for the given alphabet, but implemented
    directly on the monitor product (no program automaton needed).

    ``use_cache=False`` compiles afresh and runs the BFS instead of
    reading the constraint's interned state table.
    """
    compiled = (
        state_table(constraint).compiled
        if use_cache
        else compile_constraint(constraint)
    )
    start = compiled.run(tuple(AccessKey(*a) for a in history))
    return satisfiable_extension_states(
        compiled, start, alphabet, max_configurations, use_cache=use_cache
    )
