"""Every decision path against the definitions-level oracle.

:mod:`tests.spec_oracle` decides requests from Def. 3.6 / Eq. 3.1 and
Eq. 4.1 alone.  The harness here generates derandomized random
policies (1–2 permissions with random SRAC constraints, finite and
infinite validity budgets, spread over two roles) and multi-session
walks — incremental requests, observe feedback, explicit-history
requests, role (de)activation, migrations, ``close_session`` and
``rescind_server`` — and runs each walk through every production path:

* ``decide`` per request, ``decide_batch`` per same-session run and
  ``decide_batch_many`` per multi-session run on one engine;
* ``ShardedEngine`` with 1, 4 and 16 shards;
* ``DecisionService`` with ``max_batch`` 1 (scalar drain) and 256
  (vector sweeps).

Owner-scope walks (``coordination_scope="owner"``: every session of
the one user decides against their combined observations) run through
the same eight configurations; their sessions route by owner, so all
land on one shard.  The batch paths sweep them like subject-scope
walks, reading the owner's combined history.

Every decision must match the oracle on granted, role, permission,
``spatial_ok``, ``temporal_ok``, provenance kind, history length and
the per-candidate verdicts; every open session's ``observed`` must
match the oracle's history.  Metamorphic invariants ride along: all
paths produce the same full decisions (subject ids aside), whatever
the shard count or batch size.  Non-vacuity tests break the engine on
purpose and require the harness to notice.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import tests.strategies as strategies
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.rbac.session_store import ColumnTracker
from repro.service import DecisionService, ShardedEngine
from repro.srac import reachability
from repro.srac.ast import constraint_alphabet
from repro.srac.compiled import StateTable
from repro.srac.parser import parse_constraint
from repro.srac.trace_check import trace_satisfies
from repro.temporal.validity import CODE_VALID, Scheme
from repro.traces.trace import AccessKey
from tests.spec_oracle import SpecOracle, constraint_dfa, spatial_ok, verdict

ROLES = ("ra", "rb")
SERVERS = strategies.SERVERS
#: What the walks request: mostly exec of r1/r2 anywhere, some reads —
#: enough overlap with the random constraints' alphabet to make grants
#: and every kind of denial common.
REQUESTS = tuple(
    AccessKey(op, res, srv)
    for op, res in (("exec", "r1"), ("exec", "r2"), ("read", "r1"))
    for srv in SERVERS
)
STEP_KINDS = ("req",) * 12 + (
    "close",
    "rescind",
    "migrate",
    "migrate",
    "deactivate",
    "activate",
    "activate",
)
MODES = ("inc", "inc", "observe", "observe", "explicit")

#: Every configuration a walk runs through, in report order.
CONFIGS = (
    "decide",
    "decide_batch",
    "decide_batch_many",
    "sharded-1",
    "sharded-4",
    "sharded-16",
    "service-1",
    "service-256",
)


@dataclasses.dataclass(frozen=True)
class Case:
    permissions: tuple[Permission, ...]
    #: role name -> permission names assigned to it
    grants: dict
    per_server: bool
    #: initial active role set per session
    initial: tuple[frozenset, ...]
    dt: float
    #: (kind, session, access, mode, history, role, server)
    steps: tuple[tuple, ...]
    #: decide incremental requests against the owner's combined history
    owner_scope: bool = False

    def policy(self) -> Policy:
        policy = Policy()
        policy.add_user("u")
        for role in ROLES:
            policy.add_role(role)
            policy.assign_user("u", role)
        for permission in self.permissions:
            policy.add_permission(permission)
        for role, names in self.grants.items():
            for name in names:
                policy.assign_permission(role, name)
        return policy

    def oracle(self) -> SpecOracle:
        by_name = {p.name: p for p in self.permissions}
        return SpecOracle(
            {role: [by_name[n] for n in names] for role, names in self.grants.items()},
            per_server=self.per_server,
            owner_scope=self.owner_scope,
        )

    @property
    def scheme(self) -> Scheme:
        return Scheme.PER_SERVER if self.per_server else Scheme.WHOLE_EXECUTION

    @property
    def scope(self) -> str:
        return "owner" if self.owner_scope else "subject"


@st.composite
def cases(draw, owner_scope: bool = False) -> Case:
    permissions = []
    for i in range(draw(st.integers(1, 2))):
        permissions.append(
            Permission(
                f"p{i}",
                op=draw(st.sampled_from(["exec", "*"])),
                resource=draw(st.sampled_from(["r1", "*"])),
                spatial_constraint=draw(strategies.constraints(max_leaves=4)),
                validity_duration=draw(st.sampled_from([1.0, 2.0, 3.0, math.inf])),
            )
        )
    names = [p.name for p in permissions]
    grants = {
        role: sorted(draw(st.sets(st.sampled_from(names), min_size=1)))
        for role in ROLES
    }
    n_sessions = draw(st.integers(2, 3))
    initial = tuple(
        frozenset(draw(st.sets(st.sampled_from(ROLES), min_size=1)))
        for _ in range(n_sessions)
    )
    step = st.tuples(
        st.sampled_from(STEP_KINDS),
        st.integers(0, n_sessions - 1),
        st.sampled_from(REQUESTS),
        st.sampled_from(MODES),
        st.lists(strategies.access_keys(), max_size=4).map(tuple),
        st.sampled_from(ROLES),
        st.sampled_from(SERVERS),
    )
    return Case(
        permissions=tuple(permissions),
        grants=grants,
        per_server=draw(st.booleans()),
        initial=initial,
        dt=draw(st.sampled_from([0.25, 0.5])),
        steps=tuple(draw(st.lists(step, min_size=16, max_size=40))),
        owner_scope=owner_scope,
    )


# -- the oracle's side -----------------------------------------------------------


def _timed(case: Case) -> list[tuple[float, tuple]]:
    """Each step with its instant (one clock tick per step)."""
    out, clock = [], 1.0
    for step in case.steps:
        out.append((clock, step))
        clock += case.dt
    return out


def expected_walk(case: Case):
    """The oracle's verdict for every request, plus its final
    per-session histories and closed flags."""
    oracle = case.oracle()
    for k, roles in enumerate(case.initial):
        oracle.open(k, 0.0, owner="u")
        for role in sorted(roles):
            oracle.activate(k, role, 0.0)
    verdicts = []
    for t, (kind, k, access, mode, history, role, server) in _timed(case):
        closed = oracle.sessions[k].closed
        if kind == "req":
            expected = oracle.decide(k, access, t, history if mode == "explicit" else None)
            if mode == "observe" and expected.granted:
                oracle.observe(k, access)
            verdicts.append(expected)
        elif kind == "rescind":
            oracle.rescind(server)
        elif closed:
            continue
        elif kind == "close":
            oracle.close(k, t)
        elif kind == "migrate":
            oracle.migrate(k, t)
        elif kind == "activate":
            oracle.activate(k, role, t)
        else:
            oracle.deactivate(k, role, t)
    histories = {
        k: tuple(state.history)
        for k, state in oracle.sessions.items()
        if not state.closed
    }
    return verdicts, histories


# -- the engine's side -------------------------------------------------------------


def _segments(case: Case):
    """Split the timed walk into request runs and single control steps."""
    run = []
    for t, step in _timed(case):
        if step[0] == "req":
            run.append((t, step))
            continue
        if run:
            yield "req", run
            run = []
        yield "ctl", (t, step)
    if run:
        yield "req", run


def _groups(run, same):
    """Maximal consecutive sub-runs whose neighbours satisfy ``same``."""
    group = [run[0]]
    for item in run[1:]:
        if same(group[-1], item):
            group.append(item)
        else:
            yield group
            group = [item]
    yield group


def _history(step):
    return step[4] if step[3] == "explicit" else None


def _same_session_run(a, b) -> bool:
    """Neighbours one ``decide_batch`` call can take together."""
    return a[1][1] == b[1][1] and a[1][3] == b[1][3] != "explicit"


def _incremental_run(a, b) -> bool:
    """Neighbours one multi-session sweep can take together."""
    return a[1][3] == b[1][3] == "inc"


def _scalar(engine, sessions, run, _case):
    out = []
    for t, step in run:
        _, k, access, mode = step[:4]
        decision = engine.decide(sessions[k], access, t, history=_history(step))
        if mode == "observe" and decision.granted:
            engine.observe(sessions[k], access)
        out.append(decision)
    return out


def _per_session_batches(engine, sessions, run, case):
    out = []
    for group in _groups(run, _same_session_run):
        t0, (_, k, _access, mode, history, *_rest) = group[0]
        accesses = [step[2] for _t, step in group]
        if mode == "explicit":
            out += engine.decide_batch(sessions[k], accesses, t0, history=history)
        else:
            out += engine.decide_batch(
                sessions[k], accesses, t0, case.dt,
                observe_granted=mode == "observe",
            )
    return out


def _interleaved_batches(engine, sessions, run, case):
    out = []
    for group in _groups(run, _incremental_run):
        if group[0][1][3] == "inc":
            out += engine.decide_batch_many(
                [(sessions[step[1]], step[2]) for _t, step in group],
                group[0][0],
                case.dt,
            )
        else:
            out += _scalar(engine, sessions, group, case)
    return out


def _service_batches(service, sessions, run, _case):
    futures = []
    for group in _groups(run, _incremental_run):
        mode = group[0][1][3]
        if mode == "inc":
            futures += service.submit_many(
                [(sessions[step[1]], step[2], t) for t, step in group]
            )
            continue
        for t, step in group:
            futures.append(
                service.submit(
                    sessions[step[1]], step[2], t,
                    history=_history(step),
                    observe_granted=mode == "observe",
                )
            )
    assert service.drain(timeout=60.0)
    return [future.result() for future in futures]


def _control(engine, sessions, closed, t, step) -> None:
    kind, k, _access, _mode, _history, role, server = step
    if kind == "rescind":
        engine.rescind_server(server)
    elif k in closed:
        return
    elif kind == "close":
        engine.close_session(sessions[k], t)
        closed.add(k)
    elif kind == "migrate":
        engine.notify_migration(sessions[k], t)
    elif kind == "activate":
        engine.activate_role(sessions[k], role, t)
    else:
        engine.deactivate_role(sessions[k], role, t)


def run_walk(case: Case, config: str):
    """Drive ``case`` through one configuration; returns the decisions
    in request order and the final histories of the open sessions."""
    policy = case.policy()
    service = None
    options = dict(scheme=case.scheme, coordination_scope=case.scope)
    if config.startswith("sharded"):
        shards = int(config.split("-")[1])
        engine = ShardedEngine(policy, shards=shards, **options)
        decide_run = _interleaved_batches
    elif config.startswith("service"):
        engine = ShardedEngine(policy, shards=4, **options)
        service = DecisionService(
            engine, workers=2, max_batch=int(config.split("-")[1]), max_wait_s=0.0
        )
        decide_run = _service_batches
    else:
        engine = AccessControlEngine(policy, **options)
        decide_run = {
            "decide": _scalar,
            "decide_batch": _per_session_batches,
            "decide_batch_many": _interleaved_batches,
        }[config]
    sessions = []
    for k, roles in enumerate(case.initial):
        if isinstance(engine, ShardedEngine) and not case.owner_scope:
            session = engine.authenticate("u", 0.0, shard_key=f"agent-{k}")
        else:
            session = engine.authenticate("u", 0.0)
        for role in sorted(roles):
            engine.activate_role(session, role, 0.0)
        sessions.append(session)
    decisions, closed = [], set()
    try:
        for kind, payload in _segments(case):
            if kind == "req":
                target = service if service is not None else engine
                decisions += decide_run(target, sessions, payload, case)
            else:
                _control(engine, sessions, closed, *payload)
    finally:
        if service is not None:
            service.shutdown()
    histories = {
        k: tuple(session.observed)
        for k, session in enumerate(sessions)
        if k not in closed
    }
    return decisions, histories


# -- comparison ------------------------------------------------------------------


def _norm(decision):
    return dataclasses.replace(decision, subject_id="")


def check_case(case: Case, configs=CONFIGS, counts: Counter | None = None) -> None:
    verdicts, histories = expected_walk(case)
    if counts is not None:
        counts.update(f"kind:{v.kind}" for v in verdicts)
    reference = None
    for config in configs:
        decisions, observed = run_walk(case, config)
        assert len(decisions) == len(verdicts), config
        for i, (decision, expected) in enumerate(zip(decisions, verdicts)):
            assert verdict(decision) == dataclasses.astuple(expected), (
                f"{config}: request {i} ({decision.access} at {decision.time}) "
                f"disagrees with the oracle"
            )
        assert observed == histories, f"{config}: observed histories diverge"
        normalized = [_norm(d) for d in decisions]
        if reference is None:
            reference = normalized
        else:
            assert normalized == reference, f"{config}: full decisions diverge"
        if counts is not None:
            counts[config] += len(decisions)


#: One constraint requested over two universes that share their first
#: class (the constraint's one named access) and differ in the class of
#: the request: ``exec r1 @ s2`` can still meet the count, so it is
#: granted; ``exec r1 @ s3`` cannot, and no access of its universe
#: can, so it is denied.  A live mask keyed by the first class alone
#: would grant the second request from the first one's mask.
MASK_KEY_CASE = Case(
    permissions=(
        Permission(
            "p0",
            op="exec",
            resource="r1",
            spatial_constraint=parse_constraint(
                "read r1 @ s1 & count(1, 9, [server = s2])"
            ),
            validity_duration=math.inf,
        ),
    ),
    grants={"ra": ["p0"], "rb": ["p0"]},
    per_server=False,
    initial=(frozenset({"ra"}),),
    dt=0.25,
    steps=tuple(
        ("req", 0, AccessKey("exec", "r1", server), "inc", (), "ra", "s1")
        for server in ("s2", "s3")
    ),
)


#: One session, ``ra`` active from 0.0, and one unconstrained
#: permission whose budget of 2.0 runs out at 2.0: eight incremental
#: requests at 1.0 … 2.75 make one ``decide_batch`` run that crosses
#: the expiry, so the run's temporal codes change at its fifth request.
#: A sweep that read the run's first code at every instant would grant
#: past the expiry.
EXPIRY_RUN_CASE = Case(
    permissions=(
        Permission(
            "p0",
            op="exec",
            resource="r1",
            spatial_constraint=parse_constraint("T"),
            validity_duration=2.0,
        ),
    ),
    grants={"ra": ["p0"], "rb": ["p0"]},
    per_server=False,
    initial=(frozenset({"ra"}),),
    dt=0.25,
    steps=tuple(
        ("req", 0, AccessKey("exec", "r1", "s1"), "inc", (), "ra", "s1")
        for _ in range(8)
    ),
)


HARNESS_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestOracleHarness:
    def test_every_path_agrees_with_oracle(self, capsys):
        counts: Counter = Counter()

        @settings(max_examples=100, **HARNESS_SETTINGS)
        @given(case=cases())
        def harness(case):
            check_case(case, counts=counts)

        harness()
        total = sum(counts[c] for c in CONFIGS)
        with capsys.disabled():
            print(
                f"\noracle harness: {total} decisions checked "
                + ", ".join(f"{c}={counts[c]}" for c in CONFIGS)
                + "; oracle outcomes "
                + ", ".join(
                    f"{k[5:]}={v}" for k, v in sorted(counts.items())
                    if k.startswith("kind:")
                )
            )
        assert total >= 5_000, counts
        # The walks exercise every outcome, not just the easy ones.
        for kind in ("granted", "spatial", "temporal", "no-candidate"):
            assert counts[f"kind:{kind}"] > 0, counts

    def test_owner_scope_paths_agree_with_oracle(self, capsys):
        counts: Counter = Counter()

        @settings(max_examples=25, **HARNESS_SETTINGS)
        @given(case=cases(owner_scope=True))
        def harness(case):
            check_case(case, counts=counts)

        harness()
        total = sum(counts[c] for c in CONFIGS)
        with capsys.disabled():
            print(
                f"\nowner-scope oracle harness: {total} decisions checked; "
                + "oracle outcomes "
                + ", ".join(
                    f"{k[5:]}={v}" for k, v in sorted(counts.items())
                    if k.startswith("kind:")
                )
            )
        assert total >= 1_000, counts
        for kind in ("granted", "spatial", "temporal", "no-candidate"):
            assert counts[f"kind:{kind}"] > 0, counts

    def test_harness_catches_an_engine_ignoring_companions(self, monkeypatch):
        """Non-vacuity for owner scope: an engine that decides on each
        session's own history alone must fail the harness."""
        original = AccessControlEngine.__init__

        def subject_only(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.coordination_scope = "subject"

        monkeypatch.setattr(AccessControlEngine, "__init__", subject_only)

        @settings(
            max_examples=60,
            phases=[Phase.explicit, Phase.generate],
            report_multiple_bugs=False,
            **HARNESS_SETTINGS,
        )
        @given(case=cases(owner_scope=True))
        def harness(case):
            check_case(case, configs=("decide",))

        with pytest.raises(AssertionError, match="disagrees with the oracle"):
            harness()

    def test_mask_key_case_agrees_with_oracle(self):
        check_case(MASK_KEY_CASE)

    def test_expiry_run_case_agrees_with_oracle(self):
        check_case(EXPIRY_RUN_CASE)

    def test_harness_catches_frozen_codes_on_decide_batch(self, monkeypatch):
        """Non-vacuity for ``decide_batch`` alone: a sweep in which
        every instant reads its group's first temporal code must fail
        the harness on a run that crosses an expiry."""
        state_codes_at = ColumnTracker.state_codes_at
        monkeypatch.setattr(
            ColumnTracker,
            "state_codes_at",
            lambda self, ts: np.full(
                len(ts), state_codes_at(self, ts[:1])[0], dtype=np.uint8
            ),
        )

        @example(case=EXPIRY_RUN_CASE)
        @settings(
            max_examples=60,
            phases=[Phase.explicit, Phase.generate],
            report_multiple_bugs=False,
            **HARNESS_SETTINGS,
        )
        @given(case=cases())
        def harness(case):
            check_case(case, configs=("decide_batch",))

        with pytest.raises(
            AssertionError, match="decide_batch: request 4 .* disagrees"
        ):
            harness()

    @pytest.mark.parametrize(
        "breakage", ["live-mask", "state-codes", "mask-key", "frozen-codes"]
    )
    def test_harness_catches_a_broken_engine(self, monkeypatch, breakage):
        """Non-vacuity: make the engine wrong on purpose — every
        spatial verdict live, every temporal code VALID, live masks
        keyed by the universe's first access class alone, or every
        instant of a sweep reading its group's first temporal code —
        and the harness must fail."""
        if breakage == "live-mask":
            # The one mask builder: decide and the sweep both read it.
            monkeypatch.setattr(
                StateTable,
                "_build_mask",
                lambda self, universe: b"\x01" * self.n_states,
            )
        elif breakage == "state-codes":
            monkeypatch.setattr(
                ColumnTracker,
                "state_codes_at",
                lambda self, ts: np.full(len(ts), CODE_VALID, dtype=np.uint8),
            )
        elif breakage == "mask-key":
            live_mask, masks = StateTable.live_mask, {}

            def first_class_mask(self, universe):
                key = (self, next(iter(self._classes_of(universe)), None))
                if key not in masks:
                    masks[key] = live_mask(self, universe)
                return masks[key]

            monkeypatch.setattr(StateTable, "live_mask", first_class_mask)
        else:
            state_codes_at = ColumnTracker.state_codes_at
            monkeypatch.setattr(
                ColumnTracker,
                "state_codes_at",
                lambda self, ts: np.full(
                    len(ts), state_codes_at(self, ts[:1])[0], dtype=np.uint8
                ),
            )

        @example(case=MASK_KEY_CASE)
        @settings(
            max_examples=60,
            phases=[Phase.explicit, Phase.generate],
            report_multiple_bugs=False,
            **HARNESS_SETTINGS,
        )
        @given(case=cases())
        def harness(case):
            check_case(case, configs=("decide", "decide_batch_many"))

        reachability.clear_caches()
        try:
            with pytest.raises(AssertionError, match="disagrees with the oracle"):
                harness()
        finally:
            monkeypatch.undo()
            reachability.clear_caches()


class TestOracleSelfCheck:
    @given(
        constraint=strategies.constraints(max_leaves=4),
        trace=st.lists(strategies.access_keys(), max_size=8),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_dfa_membership_equals_trace_satisfies(self, constraint, trace):
        sigma = set(trace) | constraint_alphabet(constraint)
        dfa = constraint_dfa(constraint, sigma)
        assert dfa.accepts_word(trace) == trace_satisfies(trace, constraint)

    def test_spatial_check_examples(self):
        """Hand-checked anchors for Eq. 3.1's extension semantics."""
        a = AccessKey("exec", "r1", "s1")
        b = AccessKey("exec", "r1", "s2")
        bound = parse_constraint("count(0, 2, [res = r1])")
        assert spatial_ok(bound, [a], a)
        assert not spatial_ok(bound, [a, b], a)
        order = parse_constraint("exec r1 @ s1 >> exec r1 @ s2")
        # b first can still be followed by a, b; "a before b" survives.
        assert spatial_ok(order, [b], b)
        assert not spatial_ok(~order, [a], b)

    def test_temporal_check_examples(self):
        permission = Permission("p", op="exec", validity_duration=2.0)
        oracle = SpecOracle({"r": [permission]}, per_server=True)
        oracle.open("s", 0.0)
        oracle.activate("s", "r", 0.0)
        assert oracle.temporal_state("s", permission, 1.5) == "valid"
        assert oracle.temporal_state("s", permission, 2.0) == "active-but-invalid"
        oracle.deactivate("s", "r", 2.5)
        assert oracle.temporal_state("s", permission, 2.5) == "inactive"
        oracle.migrate("s", 3.0)
        oracle.activate("s", "r", 3.0)
        assert oracle.temporal_state("s", permission, 4.5) == "valid"

    def test_oracle_imports_none_of_the_engine(self):
        source = pathlib.Path(__file__).with_name("spec_oracle.py").read_text()
        forbidden = (
            "repro.srac.monitors",
            "repro.srac.compiled",
            "repro.srac.reachability",
            "repro.srac.checker",
            "repro.rbac.engine",
            "repro.rbac.session_store",
            "repro.rbac.vector_engine",
            "repro.temporal.validity",
        )
        # Package roots re-export engine pieces, so they are out too.
        roots = ("repro", "repro.srac", "repro.rbac", "repro.temporal")
        modules = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules.append(node.module)
        assert modules
        for module in modules:
            assert module not in roots, module
            assert not module.startswith(forbidden), module
