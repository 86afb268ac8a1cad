"""Policy store: the security officer's declarations.

A :class:`Policy` aggregates users, roles, permissions, the user-role
assignment ``UA``, the role-permission assignment ``PA`` (the paper's
``RP(·)``), the role hierarchy and the separation-of-duty constraint
sets.  It corresponds to the Java policy files of Section 5.1 ("the
grant statements associate the permissions to principals");
:meth:`Policy.from_dict` loads the same information from a declarative
mapping so policies can live in configuration.
"""

from __future__ import annotations

import math
import shlex
from typing import Iterable, Mapping

from repro.errors import PolicyError, RbacError
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import Permission, Role, User
from repro.rbac.separation import DSDConstraint, SSDConstraint
from repro.srac.parser import parse_constraint

__all__ = ["Policy"]


class Policy:
    """Mutable policy under construction; the engine reads it."""

    def __init__(self) -> None:
        self.users: dict[str, User] = {}
        self.roles: dict[str, Role] = {}
        self.permissions: dict[str, Permission] = {}
        self._user_roles: dict[User, set[Role]] = {}
        self._role_permissions: dict[Role, set[Permission]] = {}
        self.hierarchy = RoleHierarchy()
        self.ssd_constraints: list[SSDConstraint] = []
        self.dsd_constraints: list[DSDConstraint] = []
        #: Monotone mutation counter.  Every declaration bumps it; the
        #: engine keys its derived caches (candidate permissions per
        #: role set, compiled-constraint universes) on this version so
        #: they invalidate automatically when the policy changes.
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    # -- declarations ------------------------------------------------------

    def add_user(self, name: str) -> User:
        if name in self.users:
            raise PolicyError(f"duplicate user {name!r}")
        user = User(name)
        self.users[name] = user
        self._bump()
        return user

    def add_role(self, name: str) -> Role:
        if name in self.roles:
            raise PolicyError(f"duplicate role {name!r}")
        role = Role(name)
        self.roles[name] = role
        self._bump()
        return role

    def add_permission(self, permission: Permission) -> Permission:
        if permission.name in self.permissions:
            raise PolicyError(f"duplicate permission {permission.name!r}")
        self.permissions[permission.name] = permission
        self._bump()
        return permission

    def add_inheritance(self, senior: str, junior: str) -> None:
        """``senior`` inherits ``junior``'s permissions."""
        self.hierarchy.add_inheritance(self.role(senior), self.role(junior))
        self._bump()

    def assign_user(self, user_name: str, role_name: str) -> None:
        """Add ``(user, role)`` to UA, enforcing SSD against the
        inheritance closure of the user's assigned roles (computed only
        when an SSD constraint exists)."""
        user = self.user(user_name)
        role = self.role(role_name)
        if self.ssd_constraints:
            proposed = self._user_roles.get(user, set()) | {role}
            closure = self.hierarchy.closure(proposed)
            for constraint in self.ssd_constraints:
                if constraint.violated_by(closure):
                    raise PolicyError(
                        f"assigning {role_name!r} to {user_name!r} "
                        f"violates SSD constraint {constraint.name!r}"
                    )
        self._user_roles.setdefault(user, set()).add(role)
        self._bump()

    def assign_permission(self, role_name: str, permission_name: str) -> None:
        """Add ``(role, permission)`` to PA."""
        role = self.role(role_name)
        permission = self.permission(permission_name)
        self._role_permissions.setdefault(role, set()).add(permission)
        self._bump()

    def replace_permission(self, permission: Permission) -> Permission:
        """Swap an existing permission for a new declaration with the
        same name (typically a revised spatial constraint or duration).
        Role grants follow the name: every role granted the old
        permission is granted the replacement instead.  Bumps
        :attr:`version`, invalidating engine-derived caches."""
        old = self.permission(permission.name)
        self.permissions[permission.name] = permission
        for granted in self._role_permissions.values():
            if old in granted:
                granted.discard(old)
                granted.add(permission)
        self._bump()
        return permission

    def add_ssd(self, constraint: SSDConstraint) -> None:
        # Retroactive check: existing assignments must already comply.
        for user, roles in self._user_roles.items():
            if constraint.violated_by(self.hierarchy.closure(roles)):
                raise PolicyError(
                    f"SSD constraint {constraint.name!r} is violated by "
                    f"existing assignments of user {user.name!r}"
                )
        self.ssd_constraints.append(constraint)
        self._bump()

    def add_dsd(self, constraint: DSDConstraint) -> None:
        self.dsd_constraints.append(constraint)
        self._bump()

    # -- lookups -----------------------------------------------------------

    def user(self, name: str) -> User:
        try:
            return self.users[name]
        except KeyError:
            raise PolicyError(f"unknown user {name!r}") from None

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise PolicyError(f"unknown role {name!r}") from None

    def permission(self, name: str) -> Permission:
        try:
            return self.permissions[name]
        except KeyError:
            raise PolicyError(f"unknown permission {name!r}") from None

    def roles_of_user(self, user: User) -> frozenset[Role]:
        """UA(user): the directly assigned roles."""
        return frozenset(self._user_roles.get(user, ()))

    def direct_permissions(self, role: Role) -> frozenset[Permission]:
        """PA(role) without inheritance."""
        return frozenset(self._role_permissions.get(role, ()))

    def permissions_of_role(self, role: Role) -> frozenset[Permission]:
        """``RP(role)`` including inherited permissions."""
        out: set[Permission] = set()
        for member in self.hierarchy.closure([role]):
            out |= self._role_permissions.get(member, set())
        return frozenset(out)

    def permissions_of_roles(self, roles: Iterable[Role]) -> frozenset[Permission]:
        out: set[Permission] = set()
        for role in roles:
            out |= self.permissions_of_role(role)
        return frozenset(out)

    # -- declarative loading ---------------------------------------------------

    @staticmethod
    def from_dict(data: Mapping) -> "Policy":
        """Build a policy from a declarative mapping::

            {
              "users": ["alice"],
              "roles": ["auditor", "clerk"],
              "permissions": [
                 {"name": "p1", "op": "exec", "resource": "rsw",
                  "server": "*",
                  "constraint": "count(0, 5, [res = rsw])",
                  "duration": 30.0},
              ],
              "hierarchy": [["auditor", "clerk"]],          # senior, junior
              "user_roles": [["alice", "auditor"]],
              "role_permissions": [["clerk", "p1"]],
              "ssd": [{"name": "x", "roles": ["a", "b"], "cardinality": 2}],
              "dsd": [...],
            }
        """
        policy = Policy()
        try:
            for name in data.get("users", ()):
                policy.add_user(name)
            for name in data.get("roles", ()):
                policy.add_role(name)
            for spec in data.get("permissions", ()):
                constraint_src = spec.get("constraint")
                permission = Permission(
                    name=spec["name"],
                    op=spec.get("op", "*"),
                    resource=spec.get("resource", "*"),
                    server=spec.get("server", "*"),
                    spatial_constraint=(
                        parse_constraint(constraint_src) if constraint_src else None
                    ),
                    validity_duration=float(spec.get("duration", math.inf)),
                )
                policy.add_permission(permission)
            for senior, junior in data.get("hierarchy", ()):
                policy.add_inheritance(senior, junior)
            for spec in data.get("ssd", ()):
                policy.add_ssd(
                    SSDConstraint(
                        spec["name"],
                        frozenset(policy.role(r) for r in spec["roles"]),
                        spec.get("cardinality", 2),
                    )
                )
            for spec in data.get("dsd", ()):
                policy.add_dsd(
                    DSDConstraint(
                        spec["name"],
                        frozenset(policy.role(r) for r in spec["roles"]),
                        spec.get("cardinality", 2),
                    )
                )
            for user, role in data.get("user_roles", ()):
                policy.assign_user(user, role)
            for role, permission in data.get("role_permissions", ()):
                policy.assign_permission(role, permission)
        except KeyError as missing:
            raise PolicyError(f"policy spec missing key {missing}") from None
        return policy

    @staticmethod
    def from_text(text: str) -> "Policy":
        """Load a policy from the line-oriented text format — the
        analog of the Naplet Java policy files' grant statements::

            # the security officer's declarations
            user alice
            role auditor
            role clerk
            permission p_rsw exec rsw @ * constraint "count(0, 5, [res = rsw])" duration 30
            permission p_read read * @ *
            inherit auditor clerk          # auditor inherits clerk
            assign alice auditor           # UA
            grant auditor p_rsw            # PA
            ssd sep_duty auditor clerk cardinality 2
            dsd no_simultaneous auditor clerk

        ``#`` starts a comment; tokens follow shell quoting so constraint
        sources may contain spaces.  Duration accepts ``inf``.
        """
        policy = Policy()
        for line_no, raw in enumerate(text.splitlines(), 1):
            try:
                tokens = shlex.split(raw, comments=True)
            except ValueError as error:
                raise PolicyError(f"line {line_no}: {error}") from None
            if not tokens:
                continue
            keyword, args = tokens[0], tokens[1:]
            try:
                if keyword == "user":
                    (name,) = args
                    policy.add_user(name)
                elif keyword == "role":
                    (name,) = args
                    policy.add_role(name)
                elif keyword == "permission":
                    policy.add_permission(_parse_permission_line(args))
                elif keyword == "inherit":
                    senior, junior = args
                    policy.add_inheritance(senior, junior)
                elif keyword == "assign":
                    user, role = args
                    policy.assign_user(user, role)
                elif keyword == "grant":
                    role, permission = args
                    policy.assign_permission(role, permission)
                elif keyword in ("ssd", "dsd"):
                    name, roles, cardinality = _parse_separation_line(args)
                    role_set = frozenset(policy.role(r) for r in roles)
                    if keyword == "ssd":
                        policy.add_ssd(SSDConstraint(name, role_set, cardinality))
                    else:
                        policy.add_dsd(DSDConstraint(name, role_set, cardinality))
                else:
                    raise PolicyError(f"unknown keyword {keyword!r}")
            except PolicyError as error:
                raise PolicyError(f"line {line_no}: {error}") from None
            except (ValueError, TypeError):
                raise PolicyError(
                    f"line {line_no}: malformed {keyword!r} declaration: {raw.strip()!r}"
                ) from None
        return policy


def _parse_permission_line(args: list[str]) -> Permission:
    """``NAME OP RESOURCE @ SERVER [constraint "SRC"] [duration D]``."""
    if len(args) < 5 or args[3] != "@":
        raise ValueError("bad permission shape")
    name, op, resource, _, server = args[:5]
    rest = args[5:]
    constraint_src: str | None = None
    duration = math.inf
    index = 0
    while index < len(rest):
        key = rest[index]
        if key == "constraint" and index + 1 < len(rest):
            constraint_src = rest[index + 1]
        elif key == "duration" and index + 1 < len(rest):
            duration = float(rest[index + 1])
        else:
            raise ValueError(f"unknown permission option {key!r}")
        index += 2
    return Permission(
        name=name,
        op=op,
        resource=resource,
        server=server,
        spatial_constraint=(
            parse_constraint(constraint_src) if constraint_src else None
        ),
        validity_duration=duration,
    )


def _parse_separation_line(args: list[str]) -> tuple[str, list[str], int]:
    """``NAME ROLE ROLE... [cardinality K]``."""
    if len(args) < 3:
        raise ValueError("separation constraint needs a name and two roles")
    cardinality = 2
    if len(args) >= 2 and args[-2] == "cardinality":
        cardinality = int(args[-1])
        args = args[:-2]
    return args[0], args[1:], cardinality
