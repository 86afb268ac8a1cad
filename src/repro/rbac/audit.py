"""Audit log of access-control decisions.

Every decision the engine takes — grant or denial, with the spatial and
temporal verdicts that produced it — is appended here, giving the
security officer the evidence trail the coalition setting demands
(decisions at one server justified by history from others).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from repro.obs.provenance import DecisionProvenance
from repro.traces.trace import AccessKey

__all__ = ["Decision", "Outcome", "AuditLog"]


@dataclass(frozen=True, slots=True)
class Outcome:
    """What a decision concluded, apart from who asked, for what and
    when.

    ``permission``/``role`` name the pair that granted the access, or
    the last candidate examined when denied.  ``reason`` is a short
    human-readable explanation of denials ("no matching permission",
    "spatial constraint unsatisfiable", "validity duration expired",
    ...).  ``provenance`` is the structured explain record
    (:class:`~repro.obs.provenance.DecisionProvenance`): every denial
    produced by the engine carries one naming the failing SRAC clause
    or the Eq. 4.1 temporal state.

    Every field is fixed by the key the engine interns the provenance
    record by (the examined candidate records, history mode and
    length, foreign servers and epoch), so the engine interns whole
    outcomes under that key, once per policy version
    (``AccessControlEngine._build_decision``): decisions of equal
    outcome share one record, across sessions, shards, sweeps and the
    scalar path.
    """

    granted: bool
    role: str | None = None
    permission: str | None = None
    spatial_ok: bool | None = None
    temporal_ok: bool | None = None
    reason: str = ""
    provenance: DecisionProvenance | None = None


@dataclass(frozen=True, slots=True)
class Decision:
    """One access-control decision (the output of Eq. 3.1 + Eq. 4.1):
    the request — ``subject_id``, ``access``, ``time`` — and its
    :class:`Outcome`.

    ``granted``, ``role``, ``permission``, ``spatial_ok``,
    ``temporal_ok``, ``reason`` and ``provenance`` read through to the
    outcome.  Equality and hash are by value, outcome included.

    The audit log keeps every decision, so its layout is the log's
    cost: one slotted record of four references (no per-instance
    ``__dict__``, 64 B) whose fields point at immutable values the
    engine shares between decisions — the interned access key and
    outcome.  The engine makes decisions in
    ``AccessControlEngine._build_decision``; anything else builds one
    as ``Decision(subject_id, access, time, Outcome(...))``.
    """

    subject_id: str
    access: AccessKey
    time: float
    outcome: Outcome

    # Read-only views of the outcome.  ``attrgetter`` is a C-level
    # getter: cheaper than a property written in Python, though a read
    # still costs several slot reads.
    granted = property(attrgetter("outcome.granted"))
    role = property(attrgetter("outcome.role"))
    permission = property(attrgetter("outcome.permission"))
    spatial_ok = property(attrgetter("outcome.spatial_ok"))
    temporal_ok = property(attrgetter("outcome.temporal_ok"))
    reason = property(attrgetter("outcome.reason"))
    provenance = property(attrgetter("outcome.provenance"))


class AuditLog:
    """Append-only decision log with simple query helpers.

    ``granted_count``/``denied_count`` are maintained on every
    ``record`` — always on, independent of the observability switch —
    so outcome totals are O(1) reads (the engine's metrics collector
    and :meth:`grant_rate` use them instead of scanning the log)."""

    def __init__(self) -> None:
        self._decisions: list[Decision] = []
        self.granted_count = 0
        self.denied_count = 0

    def record(self, decision: Decision) -> None:
        self._decisions.append(decision)
        if decision.granted:
            self.granted_count += 1
        else:
            self.denied_count += 1

    def record_many(
        self, decisions: Iterable[Decision], granted: int | None = None
    ) -> None:
        """Append a batch of decisions in order — one extend + one
        counter pass instead of a per-decision call (the vectorized
        sweep's audit path).  Callers that already know the batch's
        grant count pass it via ``granted`` to skip the pass."""
        batch = decisions if isinstance(decisions, list) else list(decisions)
        self._decisions.extend(batch)
        if granted is None:
            granted = sum(d.granted for d in batch)
        self.granted_count += granted
        self.denied_count += len(batch) - granted

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._decisions)

    def decisions(
        self, predicate: Callable[[Decision], bool] | None = None
    ) -> list[Decision]:
        if predicate is None:
            return list(self._decisions)
        return [d for d in self._decisions if predicate(d)]

    def denials(self) -> list[Decision]:
        return self.decisions(lambda d: not d.granted)

    def grants(self) -> list[Decision]:
        return self.decisions(lambda d: d.granted)

    def for_subject(self, subject_id: str) -> list[Decision]:
        return self.decisions(lambda d: d.subject_id == subject_id)

    def grant_rate(self) -> float:
        """Fraction of decisions that were grants (0 for an empty log)."""
        if not self._decisions:
            return 0.0
        return self.granted_count / len(self._decisions)
