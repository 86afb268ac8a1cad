"""Extended RBAC with coordinated spatio-temporal constraints
(paper Sections 3.4 and 4).

* :mod:`repro.rbac.model` — users, roles, permissions (with spatial
  constraints and validity durations), subjects;
* :mod:`repro.rbac.hierarchy` — role inheritance;
* :mod:`repro.rbac.policy` — the policy store (UA, PA, hierarchy, SSD/DSD);
* :mod:`repro.rbac.engine` — the decision engine (Eq. 3.1 + Eq. 4.1);
* :mod:`repro.rbac.session_store` — sessions, stored column-wise;
* :mod:`repro.rbac.audit` — the decision log.
"""

from repro.rbac.audit import AuditLog, Decision, Outcome
from repro.rbac.engine import AccessControlEngine
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import WILDCARD, Permission, Role, Subject, User
from repro.rbac.policy import Policy
from repro.rbac.session_store import Session
from repro.rbac.gtrbac import Activation, GTRBACEngine, GTRBACPolicy
from repro.rbac.history_baseline import CoordinatedReference, LocalHistoryEngine
from repro.rbac.separation import DSDConstraint, SSDConstraint
from repro.rbac.trbac import PeriodicInterval, TRBACEngine, TRBACPolicy

__all__ = [
    "AuditLog",
    "Decision",
    "Outcome",
    "AccessControlEngine",
    "Session",
    "RoleHierarchy",
    "WILDCARD",
    "Permission",
    "Role",
    "Subject",
    "User",
    "Policy",
    "DSDConstraint",
    "SSDConstraint",
    "Activation",
    "GTRBACEngine",
    "GTRBACPolicy",
    "CoordinatedReference",
    "LocalHistoryEngine",
    "PeriodicInterval",
    "TRBACEngine",
    "TRBACPolicy",
]
