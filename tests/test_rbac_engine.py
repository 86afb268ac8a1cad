"""Tests for the coordinated access-control engine (Eq. 3.1 + Eq. 4.1)."""

import math

import pytest

from repro.errors import AccessDenied, RbacError, TemporalError
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.rbac.separation import DSDConstraint
from repro.sral.parser import parse_program
from repro.srac.parser import parse_constraint
from repro.temporal.aggregation import PermissionClass
from repro.temporal.validity import Scheme, ValidityTracker
from repro.traces.trace import AccessKey

RSW_S1 = AccessKey("exec", "rsw", "s1")
RSW_S2 = AccessKey("exec", "rsw", "s2")


def make_policy():
    policy = Policy()
    policy.add_user("alice")
    policy.add_user("bob")
    policy.add_role("auditor")
    policy.add_role("clerk")
    policy.add_permission(
        Permission(
            "p_rsw",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint("count(0, 5, [res = rsw])"),
        )
    )
    policy.add_permission(Permission("p_read", op="read"))
    policy.add_permission(
        Permission("p_timed", op="write", resource="doc", validity_duration=10.0)
    )
    policy.add_inheritance("auditor", "clerk")
    policy.assign_user("alice", "auditor")
    policy.assign_user("bob", "clerk")
    policy.assign_permission("auditor", "p_rsw")
    policy.assign_permission("auditor", "p_timed")
    policy.assign_permission("clerk", "p_read")
    return policy


def make_engine(scheme=Scheme.WHOLE_EXECUTION):
    return AccessControlEngine(make_policy(), scheme=scheme)


class TestSessions:
    def test_authenticate_creates_subject(self):
        engine = make_engine()
        session = engine.authenticate("alice", t=0.0, principals={"NapletPrincipal"})
        assert session.subject.user.name == "alice"
        assert session.subject.has_principal("NapletPrincipal")
        assert session.subject.has_principal("user:alice")

    def test_unknown_user_rejected(self):
        with pytest.raises(RbacError):
            make_engine().authenticate("mallory", t=0.0)

    def test_activate_assigned_role(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        assert {r.name for r in session.active_roles} == {"auditor"}

    def test_activate_inherited_role(self):
        # alice holds auditor, which dominates clerk.
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "clerk", 0.0)
        assert {r.name for r in session.active_roles} == {"clerk"}

    def test_activate_unassigned_role_rejected(self):
        engine = make_engine()
        session = engine.authenticate("bob", 0.0)
        with pytest.raises(RbacError):
            engine.activate_role(session, "auditor", 0.0)

    def test_dsd_blocks_activation(self):
        policy = make_policy()
        policy.add_dsd(
            DSDConstraint(
                "no-both",
                frozenset({policy.role("auditor"), policy.role("clerk")}),
            )
        )
        engine = AccessControlEngine(policy)
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        with pytest.raises(RbacError):
            engine.activate_role(session, "clerk", 0.0)

    def test_close_session(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        engine.close_session(session, 1.0)
        decision = engine.decide(session, ("read", "x", "s1"), 2.0)
        assert not decision.granted


class TestSpatialDecisions:
    def test_grant_within_count(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        history = (RSW_S1,) * 4
        decision = engine.decide(session, RSW_S2, 1.0, history=history)
        assert decision.granted
        assert decision.permission == "p_rsw"
        assert decision.role == "auditor"

    def test_coordinated_denial_across_servers(self):
        """The paper's flagship requirement: 5 accesses at s1 deny the
        6th at s2 — coordination across sites."""
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        history = (RSW_S1,) * 5
        decision = engine.decide(session, RSW_S2, 1.0, history=history)
        assert not decision.granted
        assert decision.spatial_ok is False
        assert "spatial" in decision.reason

    def test_denial_is_permanent(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        history = (RSW_S1,) * 7
        for server in ("s1", "s2", "s3"):
            decision = engine.decide(
                session, AccessKey("exec", "rsw", server), 1.0, history=history
            )
            assert not decision.granted

    def test_program_aware_check(self):
        """With a disclosed program, the engine checks through it."""
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        # Remaining program would do 2 more rsw accesses after this one:
        remaining = parse_program("exec rsw @ s1 ; exec rsw @ s2")
        history = (RSW_S1,) * 3
        # 3 (history) + 1 (request) = 4; future adds 2 → can reach 6 BUT
        # "exists" mode asks satisfiability: the object *could* comply...
        # the full program path does 6 > 5, so no completion satisfies.
        decision = engine.decide(
            session, RSW_S2, 1.0, history=history, program=remaining
        )
        assert not decision.granted
        # With a shorter history the same program can comply.
        decision2 = engine.decide(
            session, RSW_S2, 1.0, history=history[:2], program=remaining
        )
        assert decision2.granted

    def test_no_matching_permission(self):
        engine = make_engine()
        session = engine.authenticate("bob", 0.0)
        engine.activate_role(session, "clerk", 0.0)
        decision = engine.decide(session, ("write", "doc", "s1"), 1.0)
        assert not decision.granted
        assert "no active role" in decision.reason

    def test_unconstrained_permission_granted(self):
        engine = make_engine()
        session = engine.authenticate("bob", 0.0)
        engine.activate_role(session, "clerk", 0.0)
        assert engine.decide(session, ("read", "anything", "s9"), 1.0).granted

    def test_enforce_raises(self):
        engine = make_engine()
        session = engine.authenticate("bob", 0.0)
        engine.activate_role(session, "clerk", 0.0)
        with pytest.raises(AccessDenied) as err:
            engine.enforce(session, ("write", "doc", "s1"), 1.0)
        assert err.value.decision is not None


class TestTemporalDecisions:
    def test_expiry_denies(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        access = ("write", "doc", "s1")
        assert engine.decide(session, access, 5.0).granted
        # p_timed has a 10-unit budget starting at activation (t=0).
        decision = engine.decide(session, access, 11.0)
        assert not decision.granted
        assert decision.temporal_ok is False
        assert "active-but-invalid" in decision.reason

    def test_per_server_scheme_regrants_after_migration(self):
        engine = make_engine(scheme=Scheme.PER_SERVER)
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        access = ("write", "doc", "s1")
        assert not engine.decide(session, access, 11.0).granted
        engine.notify_migration(session, 12.0)
        assert engine.decide(session, access, 13.0).granted

    def test_whole_execution_scheme_stays_denied(self):
        engine = make_engine(scheme=Scheme.WHOLE_EXECUTION)
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        access = ("write", "doc", "s1")
        assert not engine.decide(session, access, 11.0).granted
        engine.notify_migration(session, 12.0)
        assert not engine.decide(session, access, 13.0).granted

    def test_deactivation_stops_budget_consumption(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        engine.deactivate_role(session, "auditor", 4.0)  # consumed 4
        engine.activate_role(session, "auditor", 100.0)
        access = ("write", "doc", "s1")
        assert engine.decide(session, access, 105.0).granted  # 4+5 < 10
        assert not engine.decide(session, access, 107.0).granted  # 4+7 > 10


class TestNaNNeverGrants:
    """A NaN budget or decision instant is refused, never read as a
    grant (every compare with NaN is false)."""

    DOC = AccessKey("write", "doc", "s1")

    def test_nan_duration_is_refused(self):
        spec = {"permissions": [{"name": "p", "op": "write", "duration": "nan"}]}
        with pytest.raises(RbacError):
            Policy.from_dict(spec)
        with pytest.raises(RbacError):
            Policy.from_text("permission p write doc @ * duration nan")
        with pytest.raises(TemporalError):
            ValidityTracker(math.nan)
        with pytest.raises(TemporalError):
            PermissionClass("c", frozenset({"p"}), duration=math.nan)

    @staticmethod
    def _session():
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        return engine, session

    def test_nan_instant_raises_on_decide(self):
        engine, session = self._session()
        with pytest.raises(TemporalError):
            engine.decide(session, self.DOC, math.nan, history=None)
        assert not engine.audit.grants()

    def test_nan_instant_raises_in_a_batch_as_in_the_scalar_loop(self):
        times = [1.0, math.nan, 2.0]
        engine, session = self._session()
        with pytest.raises(TemporalError):
            engine.decide_batch_many([(session, self.DOC)] * 3, 0.0, times=times)
        loop_engine, loop_session = self._session()
        with pytest.raises(TemporalError):
            for t in times:
                loop_engine.decide(loop_session, self.DOC, t, history=None)
        swept = [(d.time, d.granted) for d in engine.audit]
        assert swept == [(d.time, d.granted) for d in loop_engine.audit]
        assert swept == [(1.0, True)]


class TestAudit:
    def test_decisions_are_logged(self):
        engine = make_engine()
        session = engine.authenticate("alice", 0.0)
        engine.activate_role(session, "auditor", 0.0)
        engine.decide(session, RSW_S1, 1.0)
        engine.decide(session, RSW_S2, 2.0, history=(RSW_S1,) * 5)
        assert len(engine.audit) == 2
        assert len(engine.audit.grants()) == 1
        assert len(engine.audit.denials()) == 1
        assert engine.audit.grant_rate() == pytest.approx(0.5)

    def test_audit_by_subject(self):
        engine = make_engine()
        s1 = engine.authenticate("alice", 0.0)
        s2 = engine.authenticate("bob", 0.0)
        engine.activate_role(s1, "auditor", 0.0)
        engine.activate_role(s2, "clerk", 0.0)
        engine.decide(s1, RSW_S1, 1.0)
        engine.decide(s2, ("read", "x", "s1"), 1.0)
        assert len(engine.audit.for_subject(s1.subject.subject_id)) == 1
        assert len(engine.audit.for_subject(s2.subject.subject_id)) == 1
