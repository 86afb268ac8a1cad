"""A definitions-level reference for access decisions (test code).

The engine decides through compiled monitors, live sets, transition
tables, columnar trackers and caches.  This module decides the same
requests from the paper's definitions alone, so tests can check every
engine path against something that shares none of that machinery:

* **Candidates** — the engine's documented order: active roles by
  name, then each role's permissions by name, keeping the first
  occurrence of a permission name that matches the access.
* **Spatial check** (Def. 3.6 / Eq. 3.1) — the proved history ``h``
  plus the request ``a`` must still extend to a satisfying trace:
  ``L(C) ∩ h·a·U* ≠ ∅`` with ``U = constraint_alphabet(C) ∪
  extension alphabet ∪ {a}``.  ``L(C)`` is a DFA built bottom-up from
  one DFA per atomic part (``Atom``, ``Ordered``, ``Count``) with the
  :mod:`repro.automata` product and complement, over ``U ∪
  symbols(h·a)``; the check runs it over ``h·a`` and searches for an
  accepting state reachable over ``U``.
* **Temporal check** (Eq. 4.1) — the permission is active at ``t`` and
  ``∫_{t_b}^{t} active < dur``, integrated with
  :meth:`~repro.temporal.timeline.BooleanTimeline.integrate` over the
  recorded activation intervals; ``t_b`` is the session start (whole
  execution) or the last migration (per server).
* **Owner scope** (Section 1, "the device and even its companions") —
  the history ``h`` of an incremental request is the combined
  observation list of every session of the requester's owner, closed
  sessions' observations included.

Deliberately naive: no caching beyond one DFA per (constraint,
alphabet), and no imports from the engine, the session store, the
vector sweep, the SRAC monitors/tables/reachability/checker, or the
validity trackers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.automata import DFA, intersect, product, union
from repro.rbac.model import Permission
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
    constraint_alphabet,
)
from repro.temporal.timeline import BooleanTimeline
from repro.traces.trace import AccessKey

__all__ = ["Expected", "SpecOracle", "constraint_dfa", "spatial_ok", "verdict"]

VALID = "valid"
INACTIVE = "inactive"
ACTIVE_INVALID = "active-but-invalid"


# -- Def. 3.6 as automata ------------------------------------------------------


def _leaf(sigma: frozenset, states: int, step, accepts) -> DFA:
    """An atomic part's DFA: ``states`` states, start 0, total over
    ``sigma``."""
    delta = [{x: step(s, x) for x in sigma} for s in range(states)]
    return DFA(delta, 0, [s for s in range(states) if accepts(s)])


def _build(constraint: Constraint, sigma: frozenset) -> DFA:
    if isinstance(constraint, Top):
        return _leaf(sigma, 1, lambda s, x: 0, lambda s: True)
    if isinstance(constraint, Bottom):
        return _leaf(sigma, 1, lambda s, x: 0, lambda s: False)
    if isinstance(constraint, Atom):
        a = constraint.access
        return _leaf(sigma, 2, lambda s, x: 1 if s or x == a else 0, lambda s: s == 1)
    if isinstance(constraint, Ordered):
        first, second = constraint.first, constraint.second

        def step(s, x):
            if s == 0:
                return 1 if x == first else 0
            if s == 1:
                return 2 if x == second else 1
            return 2

        return _leaf(sigma, 3, step, lambda s: s == 2)
    if isinstance(constraint, Count):
        lo, hi, sel = constraint.lo, constraint.hi, constraint.selection
        cap = lo if hi is None else hi + 1  # saturating counter
        return _leaf(
            sigma,
            cap + 1,
            lambda s, x: min(s + 1, cap) if sel.matches(x) else s,
            lambda s: s >= lo and (hi is None or s <= hi),
        )
    if isinstance(constraint, And):
        return intersect(_build(constraint.left, sigma), _build(constraint.right, sigma))
    if isinstance(constraint, Or):
        return union(_build(constraint.left, sigma), _build(constraint.right, sigma))
    if isinstance(constraint, Not):
        return _build(constraint.inner, sigma).complement(sigma)
    if isinstance(constraint, Implies):
        return union(
            _build(constraint.left, sigma).complement(sigma),
            _build(constraint.right, sigma),
        )
    if isinstance(constraint, Iff):
        return product(
            _build(constraint.left, sigma),
            _build(constraint.right, sigma),
            lambda a, b: a == b,
        )
    raise TypeError(f"not an SRAC constraint: {constraint!r}")


_dfas: dict[tuple[Constraint, frozenset], DFA] = {}


def constraint_dfa(constraint: Constraint, sigma: Iterable[AccessKey]) -> DFA:
    """A DFA, total over ``sigma``, accepting exactly the traces over
    ``sigma`` that satisfy ``constraint`` (Def. 3.6)."""
    sigma = frozenset(AccessKey(*a) for a in sigma)
    key = (constraint, sigma)
    dfa = _dfas.get(key)
    if dfa is None:
        dfa = _dfas[key] = _build(constraint, sigma)
    return dfa


def spatial_ok(
    constraint: Constraint | None,
    history: Sequence[AccessKey],
    access: AccessKey,
    extension_alphabet: Iterable[AccessKey] = (),
) -> bool:
    """``L(C) ∩ h·a·U* ≠ ∅`` (Eq. 3.1's grant-time spatial check)."""
    if constraint is None:
        return True
    word = [AccessKey(*a) for a in history] + [access]
    universe = set(constraint_alphabet(constraint))
    universe.update(AccessKey(*a) for a in extension_alphabet)
    universe.add(access)
    dfa = constraint_dfa(constraint, universe | set(word))
    state = dfa.start
    for symbol in word:
        state = dfa.delta[state][symbol]
    seen = {state}
    stack = [state]
    while stack:
        state = stack.pop()
        if state in dfa.accepts:
            return True
        for symbol in universe:
            nxt = dfa.delta[state][symbol]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# -- sessions, Eq. 4.1 and the decision ----------------------------------------


@dataclass(frozen=True)
class Expected:
    """The oracle's verdict on one request.  ``candidates`` holds
    ``(role, permission, spatial_ok, temporal_ok, temporal_state)`` for
    every candidate in evaluation order."""

    granted: bool
    role: str | None
    permission: str | None
    spatial_ok: bool | None
    temporal_ok: bool | None
    kind: str
    candidates: tuple[tuple, ...]
    history_len: int


def verdict(decision) -> tuple:
    """An engine decision's fields in :class:`Expected` order, for
    comparison with ``dataclasses.astuple(expected)``."""
    provenance = decision.provenance
    return (
        decision.granted,
        decision.role,
        decision.permission,
        decision.spatial_ok,
        decision.temporal_ok,
        provenance.kind,
        tuple(
            (c.role, c.permission, c.spatial_ok, c.temporal_ok, c.temporal_state)
            for c in provenance.candidates
        ),
        provenance.history_len,
    )


@dataclass
class _SessionState:
    #: t_b: the session start, or the last migration (per-server scheme)
    base: float
    owner: object
    roles: set[str] = field(default_factory=set)
    history: list[AccessKey] = field(default_factory=list)
    #: permission name -> activation intervals [on, off]; off None = open
    intervals: dict[str, list[list]] = field(default_factory=dict)
    closed: bool = False


class SpecOracle:
    """Replays session events in time order and decides requests.

    ``role_permissions`` maps each role name to its permissions (RP);
    ``per_server`` selects the per-server base-time scheme;
    ``owner_scope`` decides incremental requests against the owner's
    combined history instead of the session's own."""

    def __init__(
        self,
        role_permissions: Mapping[str, Sequence[Permission]],
        per_server: bool = False,
        extension_alphabet: Iterable[AccessKey] = (),
        owner_scope: bool = False,
    ):
        self.role_permissions = {
            role: sorted(perms, key=lambda p: p.name)
            for role, perms in role_permissions.items()
        }
        self.per_server = per_server
        self.extension_alphabet = tuple(extension_alphabet)
        self.owner_scope = owner_scope
        self.sessions: dict[object, _SessionState] = {}
        #: owner -> the observations of all its sessions, in order
        self.owners: dict[object, list[AccessKey]] = {}

    # -- events --------------------------------------------------------

    def open(self, sid, t: float, owner=None) -> None:
        """Open session ``sid``; without an ``owner`` it is its own."""
        owner = sid if owner is None else owner
        self.sessions[sid] = _SessionState(base=t, owner=owner)
        self.owners.setdefault(owner, [])

    def activate(self, sid, role: str, t: float) -> None:
        state = self.sessions[sid]
        state.roles.add(role)
        for permission in self.role_permissions[role]:
            spans = state.intervals.setdefault(permission.name, [])
            if not spans or spans[-1][1] is not None:
                spans.append([t, None])

    def deactivate(self, sid, role: str, t: float) -> None:
        state = self.sessions[sid]
        state.roles.discard(role)
        remaining = {
            p.name for r in state.roles for p in self.role_permissions[r]
        }
        for name, spans in state.intervals.items():
            if name not in remaining and spans and spans[-1][1] is None:
                spans[-1][1] = t

    def migrate(self, sid, t: float) -> None:
        if self.per_server:
            self.sessions[sid].base = t

    def observe(self, sid, access: AccessKey) -> None:
        state = self.sessions[sid]
        state.history.append(AccessKey(*access))
        self.owners[state.owner].append(AccessKey(*access))

    def close(self, sid, t: float) -> None:
        for role in sorted(self.sessions[sid].roles):
            self.deactivate(sid, role, t)
        self.sessions[sid].closed = True
        self.sessions[sid].history = []

    def rescind(self, server: str) -> None:
        for state in self.sessions.values():
            if not state.closed:
                state.history = [a for a in state.history if a.server != server]
        for owner, history in self.owners.items():
            self.owners[owner] = [a for a in history if a.server != server]

    # -- queries -------------------------------------------------------

    def consumed(self, sid, name: str, t: float) -> float:
        """``∫_{t_b}^{t} active`` for permission ``name``."""
        state = self.sessions[sid]
        timeline = BooleanTimeline.from_intervals(
            (on, t if off is None else off)
            for on, off in state.intervals.get(name, [])
        )
        return timeline.integrate(state.base, t)

    def temporal_state(self, sid, permission: Permission, t: float) -> str:
        spans = self.sessions[sid].intervals.get(permission.name, [])
        if not spans or spans[-1][1] is not None:
            return INACTIVE
        used = self.consumed(sid, permission.name, t)
        if math.isinf(permission.validity_duration):
            return VALID
        return VALID if used < permission.validity_duration else ACTIVE_INVALID

    def candidates(self, sid, access: AccessKey) -> list[tuple[str, Permission]]:
        out: list[tuple[str, Permission]] = []
        seen: set[str] = set()
        for role in sorted(self.sessions[sid].roles):
            for permission in self.role_permissions[role]:
                if permission.name not in seen and permission.matches(access):
                    seen.add(permission.name)
                    out.append((role, permission))
        return out

    def decide(
        self,
        sid,
        access: AccessKey,
        t: float,
        history: Sequence[AccessKey] | None = None,
    ) -> Expected:
        """Decide ``access`` at ``t`` against ``history`` (``None``: the
        session's own observed history, or its owner's under owner
        scope)."""
        access = AccessKey(*access)
        state = self.sessions[sid]
        if history is not None:
            trace = list(history)
        elif self.owner_scope:
            trace = self.owners[state.owner]
        else:
            trace = state.history
        records = []
        for role, permission in self.candidates(sid, access):
            spatial = spatial_ok(
                permission.spatial_constraint, trace, access, self.extension_alphabet
            )
            temporal = self.temporal_state(sid, permission, t)
            record = (role, permission.name, spatial, temporal == VALID, temporal)
            if spatial and temporal == VALID:
                return Expected(
                    True, role, permission.name, True, True, "granted",
                    (record,), len(trace),
                )
            records.append(record)
        if not records:
            return Expected(False, None, None, None, None, "no-candidate", (), len(trace))
        role, name, spatial, temporal, _state = records[-1]
        return Expected(
            False, role, name, spatial, temporal,
            "spatial" if not spatial else "temporal",
            tuple(records), len(trace),
        )
