"""Core RBAC entities (paper Section 3.4).

The basic components: a set of users, roles, permissions and subjects.
"A user is a human being, e.g. the security officer, or a mobile
object"; a subject relates an authenticated user to roles in a session.

Our :class:`Permission` extends the classical (operation, object) pair
with the paper's two additions:

* an optional **spatial constraint** (SRAC) that must be satisfiable
  for the permission to be active (Eq. 3.1), and
* a **validity duration** ``dur(perm)`` metering the time the
  permission may stay valid (Eq. 4.1); ``math.inf`` means
  time-insensitive.

Permissions match accesses by exact name or the ``"*"`` wildcard on
each of operation / resource / server, so one permission can cover a
family of accesses ("read any resource at s1").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import FrozenSet

from repro.errors import RbacError
from repro.srac.ast import Constraint
from repro.traces.trace import AccessKey

__all__ = ["User", "Role", "Permission", "Subject", "WILDCARD"]

WILDCARD = "*"


@dataclass(frozen=True)
class User:
    """A human or mobile-object owner known to the coalition."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise RbacError("user name must be non-empty")


@dataclass(frozen=True)
class Role:
    """A named collection of permissions for a job function."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise RbacError("role name must be non-empty")


@dataclass(frozen=True)
class Permission:
    """A grantable right over shared-resource accesses.

    Parameters
    ----------
    name:
        Unique permission identifier.
    op, resource, server:
        Access pattern; each is an exact value or ``"*"``.
    spatial_constraint:
        SRAC constraint gating activation (``None`` = unconstrained).
    validity_duration:
        ``dur(perm)`` in time units (default: time-insensitive).
    """

    name: str
    op: str = WILDCARD
    resource: str = WILDCARD
    server: str = WILDCARD
    spatial_constraint: Constraint | None = None
    validity_duration: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise RbacError("permission name must be non-empty")
        if not self.validity_duration > 0:  # NaN is refused too
            raise RbacError(
                f"permission {self.name!r}: validity duration must be positive"
            )

    def matches(self, access: AccessKey | tuple[str, str, str]) -> bool:
        """Does this permission cover ``access``?"""
        access = AccessKey(*access)
        return (
            self.op in (WILDCARD, access.op)
            and self.resource in (WILDCARD, access.resource)
            and self.server in (WILDCARD, access.server)
        )

    @property
    def time_sensitive(self) -> bool:
        return not math.isinf(self.validity_duration)


_subject_counter = itertools.count(1)


@dataclass(frozen=True)
class Subject:
    """An authenticated principal-set acting for a user (created by the
    engine at login; see the Naplet authentication flow in Section 5.1)."""

    user: User
    principals: FrozenSet[str] = frozenset()
    subject_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.subject_id:
            object.__setattr__(
                self, "subject_id", f"subject-{next(_subject_counter)}"
            )
        object.__setattr__(self, "principals", frozenset(self.principals))

    def has_principal(self, principal: str) -> bool:
        return principal in self.principals
