"""Permission classification and validity-duration aggregation.

The paper's stated future work: "we will look into some other
implementation issues, such as how to classify the temporal permissions
and aggregate their validity durations."  This module implements that
extension:

* a :class:`PermissionClass` groups related temporal permissions (for
  example, every permission touching licensed software) and gives the
  *class* one validity budget;
* an :class:`AggregationStrategy` derives the class budget from its
  members' individual durations (sum, min, max) unless an explicit
  duration overrides it;
* a :class:`PermissionClassifier` resolves a permission to its class.

The RBAC engine accepts a classifier: permissions in the same class
share one :class:`~repro.temporal.validity.ValidityTracker`, so using
any member consumes the common budget — e.g. "all trial-software
permissions together are valid for at most 2 hours", regardless of
which package the device runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import TemporalError

__all__ = ["AggregationStrategy", "PermissionClass", "PermissionClassifier"]


class AggregationStrategy(enum.Enum):
    """How a class budget is derived from member durations."""

    SUM = "sum"  # budgets pool: the class gets the total
    MIN = "min"  # the strictest member bounds the whole class
    MAX = "max"  # the most generous member bounds the whole class


@dataclass(frozen=True)
class PermissionClass:
    """A named group of temporal permissions sharing one budget.

    ``duration`` overrides the aggregated value when set; otherwise the
    class budget is ``strategy`` over the members' own validity
    durations (resolved against the policy at engine-construction
    time).
    """

    name: str
    members: frozenset[str]
    strategy: AggregationStrategy = AggregationStrategy.MIN
    duration: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.name:
            raise TemporalError("permission class name must be non-empty")
        if not self.members:
            raise TemporalError(f"class {self.name!r} has no members")
        if self.duration is not None and not self.duration > 0:  # NaN too
            raise TemporalError(f"class {self.name!r}: duration must be positive")

    def aggregate(self, durations: Mapping[str, float]) -> float:
        """The class budget given each member's own duration."""
        if self.duration is not None:
            return self.duration
        values = [durations[m] for m in self.members if m in durations]
        if not values:
            raise TemporalError(
                f"class {self.name!r}: no member duration available"
            )
        if self.strategy is AggregationStrategy.SUM:
            # Summing with an infinite member stays infinite.
            return math.inf if any(math.isinf(v) for v in values) else sum(values)
        if self.strategy is AggregationStrategy.MIN:
            return min(values)
        return max(values)


class PermissionClassifier:
    """Resolves permissions to their (unique) class."""

    def __init__(self, classes: Iterable[PermissionClass] = ()):
        self._classes: dict[str, PermissionClass] = {}
        self._member_index: dict[str, PermissionClass] = {}
        for cls in classes:
            self.add(cls)

    def add(self, cls: PermissionClass) -> None:
        if cls.name in self._classes:
            raise TemporalError(f"duplicate class {cls.name!r}")
        for member in cls.members:
            if member in self._member_index:
                raise TemporalError(
                    f"permission {member!r} already belongs to class "
                    f"{self._member_index[member].name!r}"
                )
        self._classes[cls.name] = cls
        for member in cls.members:
            self._member_index[member] = cls

    def class_of(self, permission_name: str) -> PermissionClass | None:
        """The class containing ``permission_name``, if any."""
        return self._member_index.get(permission_name)

    def classes(self) -> tuple[PermissionClass, ...]:
        return tuple(self._classes.values())

    def __contains__(self, permission_name: str) -> bool:
        return permission_name in self._member_index
