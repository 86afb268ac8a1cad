"""Atomic-constraint monitors: tiny deterministic automata that track
one atomic SRAC sub-constraint along a trace.

The program-satisfaction checker (Theorem 3.2) runs a vector of these
monitors in lockstep with the program's trace automaton; trace-level
checking (Definition 3.6) can use them too, though the direct recursive
evaluation in :mod:`repro.srac.trace_check` is used for cross-validation.

Monitor state is always a small ``int``, so a configuration of the
product is a hashable ``tuple[int, ...]``.

===============  ======  ==========================================
atomic form      states  meaning of acceptance
===============  ======  ==========================================
``a``            2       ``a`` occurred
``a1 ⊗ a2``      3       some ``a1`` occurred strictly before ``a2``
``#(m, n, σ)``   ≤n+2    occurrence count within ``[m, n]``
===============  ======  ==========================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from repro.errors import ConstraintError
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
)
from repro.traces.trace import AccessKey

__all__ = [
    "Monitor",
    "AtomMonitor",
    "OrderedMonitor",
    "CountMonitor",
    "CompiledConstraint",
    "compile_constraint",
]


class Monitor:
    """Deterministic single-purpose automaton over accesses."""

    __slots__ = ()

    def initial(self) -> int:
        """The start state."""
        raise NotImplementedError

    def step(self, state: int, access: AccessKey) -> int:
        """Successor state after observing ``access``."""
        raise NotImplementedError

    def accepting(self, state: int) -> bool:
        """Does ``state`` mean the atomic constraint currently holds?"""
        raise NotImplementedError

    def size(self) -> int:
        """Number of distinct states (complexity accounting)."""
        raise NotImplementedError

    def label(self, access: AccessKey) -> Hashable:
        """What :meth:`step` reads of ``access``: two accesses have
        equal labels exactly when they step every state alike.  By
        default the step function itself; the atomic monitors return a
        few booleans instead."""
        return tuple(self.step(s, access) for s in range(self.size()))

    def run(self, trace: Sequence[AccessKey]) -> int:
        """Fold a whole trace from the initial state."""
        state = self.initial()
        for access in trace:
            state = self.step(state, access)
        return state


@dataclass(frozen=True)
class AtomMonitor(Monitor):
    """Tracks an ``Atom``: has the access occurred yet?"""

    access: AccessKey

    def initial(self) -> int:
        return 0

    def step(self, state: int, access: AccessKey) -> int:
        if state == 1 or access == self.access:
            return 1
        return 0

    def accepting(self, state: int) -> bool:
        return state == 1

    def size(self) -> int:
        return 2

    def label(self, access: AccessKey) -> Hashable:
        return access == self.access


@dataclass(frozen=True)
class OrderedMonitor(Monitor):
    """Tracks ``a1 ⊗ a2``: state 0 = nothing, 1 = a1 seen,
    2 = a1 then (later) a2 seen."""

    first: AccessKey
    second: AccessKey

    def initial(self) -> int:
        return 0

    def step(self, state: int, access: AccessKey) -> int:
        if state == 0:
            return 1 if access == self.first else 0
        if state == 1:
            return 2 if access == self.second else 1
        return 2

    def accepting(self, state: int) -> bool:
        return state == 2

    def size(self) -> int:
        return 3

    def label(self, access: AccessKey) -> Hashable:
        return (access == self.first, access == self.second)


@dataclass(frozen=True)
class CountMonitor(Monitor):
    """Tracks ``#(m, n, σ)``: a saturating occurrence counter.

    With a finite upper bound ``n`` the counter saturates at ``n + 1``
    (any count beyond the bound is equally violating); with ``n = ∞``
    it saturates at ``m`` (any count at or beyond the lower bound is
    equally satisfying).
    """

    lo: int
    hi: int | None
    matcher: Callable[[AccessKey], bool]

    def _cap(self) -> int:
        return self.hi + 1 if self.hi is not None else self.lo

    def initial(self) -> int:
        return 0

    def step(self, state: int, access: AccessKey) -> int:
        if self.matcher(access):
            return min(state + 1, self._cap())
        return state

    def accepting(self, state: int) -> bool:
        if state < self.lo:
            return False
        return self.hi is None or state <= self.hi

    def size(self) -> int:
        return self._cap() + 1

    def label(self, access: AccessKey) -> Hashable:
        # Capped at 0, the counter has one state: every access steps it
        # alike.
        return self._cap() > 0 and self.matcher(access)


class CompiledConstraint:
    """A constraint compiled to (monitor vector, boolean skeleton).

    The skeleton is the constraint with every atomic part replaced by a
    reference to its monitor's acceptance bit; :meth:`evaluate` decides
    satisfaction for a monitor-state vector.  Structurally identical
    atomic parts share one monitor.
    """

    __slots__ = ("constraint", "monitors", "_skeleton", "_proof_atoms")

    def __init__(self, constraint: Constraint):
        self.constraint = constraint
        self.monitors: list[Monitor] = []
        index: dict[Constraint, int] = {}

        def monitor_for(part: Constraint) -> int:
            existing = index.get(part)
            if existing is not None:
                return existing
            if isinstance(part, Atom):
                monitor: Monitor = AtomMonitor(part.access)
            elif isinstance(part, Ordered):
                monitor = OrderedMonitor(part.first, part.second)
            elif isinstance(part, Count):
                monitor = CountMonitor(part.lo, part.hi, part.selection.matches)
            else:  # pragma: no cover - guarded by caller
                raise ConstraintError(f"not an atomic constraint: {part!r}")
            slot = len(self.monitors)
            self.monitors.append(monitor)
            index[part] = slot
            return slot

        def build(node: Constraint):
            if isinstance(node, Top):
                return ("const", True)
            if isinstance(node, Bottom):
                return ("const", False)
            if isinstance(node, (Atom, Ordered, Count)):
                return ("bit", monitor_for(node))
            if isinstance(node, Not):
                return ("not", build(node.inner))
            if isinstance(node, And):
                return ("and", build(node.left), build(node.right))
            if isinstance(node, Or):
                return ("or", build(node.left), build(node.right))
            if isinstance(node, Implies):
                return ("or", ("not", build(node.left)), build(node.right))
            if isinstance(node, Iff):
                left, right = build(node.left), build(node.right)
                return ("iff", left, right)
            raise TypeError(f"not an SRAC constraint: {node!r}")

        self._skeleton = build(constraint)

    # -- running ----------------------------------------------------------

    def initial(self) -> tuple[int, ...]:
        """Initial monitor-state vector."""
        return tuple(m.initial() for m in self.monitors)

    def step(self, states: tuple[int, ...], access: AccessKey) -> tuple[int, ...]:
        """Advance every monitor by one access."""
        return tuple(m.step(s, access) for m, s in zip(self.monitors, states))

    def run(self, trace: Sequence[AccessKey]) -> tuple[int, ...]:
        """Fold a whole trace."""
        states = self.initial()
        for access in trace:
            states = self.step(states, access)
        return states

    def evaluate(self, states: tuple[int, ...]) -> bool:
        """Decide the constraint for a monitor-state vector."""
        return self.holds(
            [m.accepting(s) for m, s in zip(self.monitors, states)]
        )

    def holds(self, bits: Sequence):
        """The skeleton over each monitor's acceptance bit: Python bools,
        or numpy bool arrays decided element-wise (a constant skeleton
        stays a bool)."""

        def ev(node):
            tag = node[0]
            if tag == "const":
                return node[1]
            if tag == "bit":
                return bits[node[1]]
            if tag == "not":  # ``^ True`` negates a bool and an array alike
                return ev(node[1]) ^ True
            if tag == "and":
                return ev(node[1]) & ev(node[2])
            if tag == "or":
                return ev(node[1]) | ev(node[2])
            if tag == "iff":
                return ev(node[1]) == ev(node[2])
            raise AssertionError(tag)  # pragma: no cover

        return ev(self._skeleton)

    def satisfied_by(self, trace: Sequence[AccessKey]) -> bool:
        """Convenience: run + evaluate."""
        return self.evaluate(self.run(trace))

    def reaches_acceptance(
        self,
        states: tuple[int, ...],
        alphabet: Iterable[AccessKey | tuple[str, str, str]],
        max_configurations: int = 1_000_000,
    ) -> bool:
        """The bounded search: can any word over ``alphabet`` drive
        ``states`` to acceptance?  A BFS over the vectors reachable from
        ``states``, raising :class:`ConstraintError` past
        ``max_configurations``."""
        symbols = tuple(dict.fromkeys(AccessKey(*a) for a in alphabet))
        seen = {states}
        queue: deque[tuple[int, ...]] = deque([states])
        explored = 0
        while queue:
            current = queue.popleft()
            explored += 1
            if explored > max_configurations:
                raise ConstraintError(
                    f"satisfiability search exceeded {max_configurations} "
                    "monitor configurations"
                )
            if self.evaluate(current):
                return True
            for symbol in symbols:
                nxt = self.step(current, symbol)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def state_space(self) -> int:
        """Product of the monitors' state counts — the worst-case number
        of distinct monitor vectors (complexity accounting for
        Theorem 3.2)."""
        total = 1
        for monitor in self.monitors:
            total *= monitor.size()
        return total


def compile_constraint(constraint: Constraint) -> CompiledConstraint:
    """Compile ``constraint`` into a monitor vector + boolean skeleton,
    afresh: the interned form is its
    :func:`~repro.srac.compiled.state_table`'s ``compiled``."""
    return CompiledConstraint(constraint)
