"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subsystems raise the
more specific subclasses below.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SralSyntaxError",
    "SracSyntaxError",
    "TraceModelError",
    "AutomatonError",
    "ConstraintError",
    "TemporalError",
    "RbacError",
    "PolicyError",
    "AuthenticationError",
    "AccessDenied",
    "CoalitionError",
    "ChannelError",
    "MigrationError",
    "ServerUnavailable",
    "FaultError",
    "AgentError",
    "SimulationError",
    "WorkloadError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class SralSyntaxError(ReproError):
    """Lexical or syntactic error in SRAL concrete syntax.

    Carries the 1-based ``line`` and ``column`` of the offending token
    when available.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SracSyntaxError(SralSyntaxError):
    """Lexical or syntactic error in SRAC constraint concrete syntax."""


class TraceModelError(ReproError):
    """Ill-formed trace-model operation (e.g. enumerating an infinite model)."""


class AutomatonError(ReproError):
    """Ill-formed automaton construction or operation."""


class ConstraintError(ReproError):
    """Semantic error in a spatial constraint (bad bounds, empty selection...)."""


class TemporalError(ReproError):
    """Error in the continuous-time model (bad interval, negative duration...)."""


class RbacError(ReproError):
    """Error in the RBAC model (unknown role, cyclic hierarchy...)."""


class PolicyError(RbacError):
    """Error loading or composing a policy."""


class AuthenticationError(RbacError):
    """A subject failed authentication at a coalition server."""


class AccessDenied(RbacError):
    """An access request was denied by the decision engine.

    This is raised only by the *enforcing* entry points; the engine's
    ``decide`` API returns a decision object instead of raising.
    """

    def __init__(self, message: str, decision=None):
        self.decision = decision
        super().__init__(message)


class CoalitionError(ReproError):
    """Error in the coalition substrate (unknown server/resource...)."""


class ChannelError(CoalitionError):
    """Misuse of a communication channel."""


class MigrationError(CoalitionError):
    """A mobile object could not migrate to its next server."""


class ServerUnavailable(CoalitionError):
    """The target coalition server is down (or still recovering) and
    cannot serve the operation right now.  Raised only when a
    :class:`~repro.faults.ServerLifecycle` is attached; callers such as
    the fault-aware transport and the simulation scheduler catch it and
    retry on the configured backoff schedule."""


class FaultError(ReproError):
    """Invalid fault-injection configuration (negative probability,
    overlapping outage windows, empty retry schedule...)."""


class AgentError(ReproError):
    """Error in the mobile-agent emulation layer."""


class SimulationError(AgentError):
    """The discrete-event scheduler reached an inconsistent state
    (e.g. deadlock among blocked agents)."""


class WorkloadError(ReproError):
    """Invalid workload-generator parameters."""


class ServiceError(ReproError):
    """Misuse of the concurrent decision service (unknown shard,
    submission after shutdown, bounded-queue overflow with
    ``block=False``, ...)."""
