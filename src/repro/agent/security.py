"""Security managers: the interposition point for coordinated access
control (paper Section 5.2).

Every resource access an agent attempts funnels through
``check_permission`` before the server executes it — the role the Java
``SecurityManager`` plays in Naplet.  :class:`NapletSecurityManager`
performs the full pipeline:

1. authenticate the agent's owner certificate with the coalition
   authority and establish an RBAC session (first arrival only);
2. activate the agent's requested roles;
3. on each access, call the spatial and temporal constraint checkers
   through the :class:`~repro.rbac.engine.AccessControlEngine`
   (``spatialConsCheck`` / ``temporalConsCheck`` in the paper's code
   sketch);
4. notify the engine of migrations so per-server validity budgets
   reset under Scheme A.

:class:`PermissiveSecurityManager` grants everything (for substrate
tests and un-secured simulations).
"""

from __future__ import annotations

import threading

from repro.agent.naplet import Naplet
from repro.agent.principal import Authority
from repro.errors import AuthenticationError
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine
from repro.rbac.session_store import Session
from repro.sral.analysis import alphabet as program_alphabet
from repro.sral.ast import Program
from repro.srac.checker import check_program
from repro.traces.trace import AccessKey

__all__ = ["SecurityManager", "PermissiveSecurityManager", "NapletSecurityManager"]


class SecurityManager:
    """Interface the scheduler calls around agent life-cycle events."""

    def on_first_arrival(self, naplet: Naplet, server: str, t: float) -> None:
        """Authenticate and set up sessions.  Raises
        :class:`~repro.errors.AuthenticationError` to reject the agent."""

    def on_migration(self, naplet: Naplet, server: str, t: float) -> None:
        """The agent arrived at a further server."""

    def check_permission(
        self,
        naplet: Naplet,
        access: AccessKey,
        t: float,
        program: Program | None = None,
    ) -> Decision | None:
        """Authorize one access; raise
        :class:`~repro.errors.AccessDenied` to deny.  May return the
        decision for auditing."""
        return None

    def on_access_executed(self, naplet: Naplet, access: AccessKey, t: float) -> None:
        """The server executed ``access`` and issued a proof (called by
        the scheduler after success)."""

    def on_membership_change(self, kind: str, servers: tuple[str, ...]) -> None:
        """The coalition's membership changed (called by the scheduler
        after applying a churn event)."""


class PermissiveSecurityManager(SecurityManager):
    """Grants every access (no RBAC engine attached)."""


class NapletSecurityManager(SecurityManager):
    """The paper's extended security manager wired to the RBAC engine.

    Parameters
    ----------
    engine:
        The coordinated access-control engine — either a plain
        :class:`~repro.rbac.engine.AccessControlEngine` or a
        :class:`~repro.service.sharding.ShardedEngine` (the sharded
        engine mirrors the decision API, so the manager is agnostic;
        with sharding, each agent's session routes to its owner's
        shard).  The agent-id → session map is lock-guarded so one
        manager instance can serve concurrent arrivals in service mode.
    authority:
        Certificate authority for owner authentication.  ``None``
        disables certificate checks (a priori registration assumed).
    admission_check:
        When true, an agent whose *whole program* cannot satisfy some
        matching permission's spatial constraint is rejected at first
        arrival ("constraint satisfaction checking at run-time right
        after a mobile object is authenticated", Section 3.3) rather
        than failing midway.
    incremental:
        When true, checks use the engine's per-session monitor cache
        (``history=None``) instead of replaying the agent's full proof
        chain on every access — same decisions, O(1) in history length.
    typecheck:
        When true, the agent's program is statically type-checked at
        first arrival (seeded with the types of its dispatch
        environment); ill-typed programs are rejected before running.
    coalition:
        Optional :class:`~repro.coalition.Coalition` binding for
        dynamic membership: decisions are stamped with the membership
        epoch, explicit histories are filtered down to admissible
        issuers (:meth:`~repro.coalition.Coalition.admissible_trace`),
        and — in incremental mode — an eviction rescinds the evicted
        server's observations from the engine, so no decision is ever
        justified by a proof from a server evicted in an earlier epoch.
    """

    def __init__(
        self,
        engine: AccessControlEngine,
        authority: Authority | None = None,
        admission_check: bool = False,
        incremental: bool = False,
        typecheck: bool = False,
        coalition=None,
    ):
        self.engine = engine
        self.authority = authority
        self.admission_check = admission_check
        self.incremental = incremental
        self.typecheck = typecheck
        self.coalition = coalition
        if coalition is not None and hasattr(engine, "bind_membership"):
            engine.bind_membership(coalition)
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def session_of(self, naplet: Naplet) -> Session:
        with self._sessions_lock:
            session = self._sessions.get(naplet.naplet_id)
        if session is None:
            raise AuthenticationError(
                f"agent {naplet.naplet_id!r} has no established session"
            )
        return session

    def on_first_arrival(self, naplet: Naplet, server: str, t: float) -> None:
        principals: frozenset[str] = frozenset()
        if self.authority is not None:
            if naplet.certificate is None:
                raise AuthenticationError(
                    f"agent {naplet.naplet_id!r} carries no certificate"
                )
            principals = self.authority.authenticate(naplet.certificate)
        if self.typecheck:
            self._typecheck(naplet)
        session = self.engine.authenticate(naplet.owner, t, principals)
        with self._sessions_lock:
            self._sessions[naplet.naplet_id] = session
        for role in naplet.roles:
            self.engine.activate_role(session, role, t)
        if self.admission_check:
            self._admit(naplet, session)

    @staticmethod
    def _typecheck(naplet: Naplet) -> None:
        from repro.sral.typecheck import BOOL, INT, STR, SralTypeError, typecheck_program

        seed: dict[str, str] = {}
        for name, value in naplet.env.items():
            if isinstance(value, bool):
                seed[name] = BOOL
            elif isinstance(value, int):
                seed[name] = INT
            elif isinstance(value, str):
                seed[name] = STR
        try:
            typecheck_program(naplet.program, env=seed)
        except SralTypeError as error:
            raise AuthenticationError(
                f"agent {naplet.naplet_id!r} rejected: program fails static "
                f"type checking ({error})"
            ) from error

    def _admit(self, naplet: Naplet, session: Session) -> None:
        permissions = self.engine.policy.permissions_of_roles(
            self.engine.policy.hierarchy.closure(session.active_roles)
        )
        accesses = program_alphabet(naplet.program)
        for permission in sorted(permissions, key=lambda p: p.name):
            if permission.spatial_constraint is None:
                continue
            if not any(permission.matches(a) for a in accesses):
                continue
            if not check_program(
                naplet.program, permission.spatial_constraint, mode="exists"
            ):
                raise AuthenticationError(
                    f"agent {naplet.naplet_id!r} rejected at admission: its "
                    f"program cannot satisfy the spatial constraint of "
                    f"permission {permission.name!r}"
                )

    def on_migration(self, naplet: Naplet, server: str, t: float) -> None:
        self.engine.notify_migration(self.session_of(naplet), t)

    # -- per-access check --------------------------------------------------------

    def check_permission(
        self,
        naplet: Naplet,
        access: AccessKey,
        t: float,
        program: Program | None = None,
    ) -> Decision:
        """The paper's ``checkPermission``: spatial + temporal checks
        through the engine; raises :class:`~repro.errors.AccessDenied`
        on denial."""
        session = self.session_of(naplet)
        if self.incremental:
            history = None
        else:
            history = naplet.history()
            if self.coalition is not None:
                # Dynamic membership: proofs issued at evicted servers
                # are inadmissible — the spatial check must not see them.
                history = self.coalition.admissible_trace(history)
        return self.engine.enforce(
            session,
            access,
            t,
            history=history,
            program=program,
        )

    def on_access_executed(self, naplet: Naplet, access: AccessKey, t: float) -> None:
        """Keep the engine's incremental monitor cache in sync with the
        proofs the agent accumulates."""
        if self.incremental:
            self.engine.observe(self.session_of(naplet), access)

    def on_membership_change(self, kind: str, servers: tuple[str, ...]) -> None:
        """Apply a membership change to the engine: an eviction drops
        the evicted server's accesses from every incremental history
        (explicit-history checks are filtered per decision by
        ``admissible_trace`` instead)."""
        if kind == "evict" and self.incremental:
            rescind = getattr(self.engine, "rescind_server", None)
            if rescind is not None:
                for name in servers:
                    rescind(name)
