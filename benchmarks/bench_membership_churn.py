"""EXP-CHURN — decision throughput and proof convergence under
membership churn.

A coalition is not a fixed club: servers join, leave gracefully, or
are evicted while the decision service keeps serving.  This benchmark
quantifies what dynamic membership costs and verifies what it must
never cost — correctness:

* **Throughput under rolling churn** — the micro-batched sharded
  service runs the same warm-path workload twice: once on a static
  membership and once with one join + one leave per ``churn_period``
  decisions applied concurrently with the in-flight micro-batches
  (epoch bumps, bootstrap handshakes, listener fan-out and all).  The
  reported overhead ratio is the price of keeping membership live.
* **Proof-convergence lag** — a joiner bootstraps its announced-proof
  ledger from a peer (the join-time sync handshake), then catches up
  on post-join traffic through the latency-aware
  :class:`~repro.service.ProofBatch`.  Reported: bootstrap coverage of
  the peer ledger, and the per-proof lag from enqueue to the joiner
  learning it (the head of each coalesced batch pays the full
  migration latency, later entries ride along for less; the ceiling is
  latency + one coalescing window).
* **No-overgrant acceptance gate** — before anything is timed, an
  eviction scenario is driven end-to-end through the coalition-bound
  service: sessions whose gated access is justified only by a hub-read
  observed *before* the hub's eviction must be denied *after* it (the
  rescind path), while identical pre-eviction sessions are granted
  (non-vacuity).  A single post-eviction gated grant fails the run.

Run:  python benchmarks/bench_membership_churn.py [--smoke]
Emits benchmarks/artifacts/BENCH_membership_churn.json.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.coalition.network import Coalition, constant_latency
from repro.coalition.proofs import ExecutionProof
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ProofBatch, ShardedEngine
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

FOUNDERS = 5
SESSIONS = 64
SHARDS = 8
#: One join + one leave are applied per this many decisions (the
#: rolling-churn cadence of the throughput section).
CHURN_PERIOD = 10_000
#: Micro-batching knobs (same regime as bench_concurrent_service).
QUEUE_DEPTH = 1 << 17
BATCH_MAX = 256
BATCH_WAIT_S = 0.002

#: Convergence-section knobs: virtual seconds per hop, proofs minted
#: one per virtual second.
PROP_LATENCY = 2.0
PROP_BATCH = 8

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts"
    / "BENCH_membership_churn.json"
)


# -- throughput under rolling churn -------------------------------------------

def _policy() -> Policy:
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint("count(0, 1000, [res = rsw])"),
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    return policy


def _founder(name: str) -> CoalitionServer:
    return CoalitionServer(name, resources=[Resource("rsw")])


def _request(i: int) -> AccessKey:
    # Requests only ever target founders, which never leave — churn
    # changes the membership around the traffic, not under it.
    return AccessKey("exec", "rsw", f"f{i % FOUNDERS}")


def run_throughput(
    n: int, workers: int, churn_period: int | None
) -> tuple[float, dict]:
    """One measured run of ``n`` decisions through the coalition-bound
    micro-batched service.  ``churn_period=None`` is the static
    baseline; otherwise one join + one leave land per period, applied
    while the previous chunk's micro-batches are still in flight.
    Returns ``(decisions/sec, run stats)``."""
    coalition = Coalition(
        [_founder(f"f{i}") for i in range(FOUNDERS)],
        latency=constant_latency(0.0),
    )
    engine = ShardedEngine(_policy(), shards=SHARDS)
    sessions = []
    for i in range(SESSIONS):
        session = engine.authenticate("u", 0.0, shard_key=f"agent-{i}")
        engine.activate_role(session, "r", 0.0)
        sessions.append(session)
    clocks = [0.0] * len(sessions)

    def wave(count: int, start: int):
        requests = []
        for i in range(count):
            k = (start + i) % len(sessions)
            clocks[k] += 1.0
            requests.append((sessions[k], _request(start + i), clocks[k]))
        return requests

    joined = 0
    with DecisionService(
        engine,
        workers=workers,
        queue_depth=QUEUE_DEPTH,
        max_batch=BATCH_MAX,
        max_wait_s=BATCH_WAIT_S,
        coalition=coalition,
    ) as service:
        service.submit_many(wave(min(2000, n), 0))
        if not service.drain(timeout=300.0):
            raise AssertionError("warmup failed to drain in time")
        service.reset_stats()
        period = churn_period if churn_period is not None else n
        start = time.perf_counter()
        for offset in range(0, n, period):
            service.submit_many(wave(min(period, n - offset), 4000 + offset))
            if churn_period is not None:
                # Membership moves while this chunk is still in flight:
                # the join bootstraps from a founder, the previous
                # joiner departs gracefully.
                coalition.join(
                    _founder(f"j{joined}"),
                    now=float(offset),
                    bootstrap_from="f0",
                )
                if joined > 0:
                    coalition.leave(f"j{joined - 1}", now=float(offset))
                joined += 1
        if not service.drain(timeout=600.0):
            raise AssertionError("churn service failed to drain in time")
        wall = time.perf_counter() - start
        stats = service.service_stats()
    if stats.errors:
        raise AssertionError(f"service reported {stats.errors} errors")
    expected_epoch = max(0, 2 * joined - 1)
    coalition.close()
    if coalition.membership_epoch != expected_epoch:
        raise AssertionError(
            f"expected epoch {expected_epoch} after {joined} join/leave "
            f"cycles, got {coalition.membership_epoch}"
        )
    return n / wall, {
        "joins": joined,
        "leaves": max(0, joined - 1),
        "final_epoch": coalition.membership_epoch,
        "membership_events_seen": service.membership_events,
        "service_stats": stats.as_dict(),
    }


def measure_throughput(n: int, churn_period: int, repeats: int) -> dict:
    static_rate, churn_rate = 0.0, 0.0
    churn_info: dict = {}
    for _ in range(repeats):
        static_rate = max(static_rate, run_throughput(n, 4, None)[0])
    for _ in range(repeats):
        rate, info = run_throughput(n, 4, churn_period)
        if rate > churn_rate:
            churn_rate, churn_info = rate, info
    return {
        "n": n,
        "churn_period": churn_period,
        "sessions": SESSIONS,
        "shards": SHARDS,
        "static_rate": static_rate,
        "churn_rate": churn_rate,
        "overhead_ratio": churn_rate / static_rate if static_rate else 0.0,
        **churn_info,
    }


# -- proof-convergence lag -----------------------------------------------------

def measure_convergence(
    n_pre: int, n_post: int, batch_size: int = PROP_BATCH
) -> dict:
    """Bootstrap coverage + post-join proof lag for one joiner.

    Founders mint one proof per virtual second (round-robin sources);
    the batcher coalesces announcements per destination and ships them
    once the migration latency has elapsed.  At ``t_join`` the ledgers
    are settled with an explicit flush, ``j1`` joins with a bootstrap
    handshake from ``s1``, and from then on every minted proof's lag to
    the joiner's ledger is sampled.
    """
    founders = ("s1", "s2", "s3")
    coalition = Coalition(
        [CoalitionServer(name, resources=[Resource("rsw")]) for name in founders],
        latency=constant_latency(PROP_LATENCY),
    )
    batch = ProofBatch(coalition, max_batch=batch_size)
    chains = {name: (0, "genesis") for name in founders}

    def mint(source: str, t: float) -> ExecutionProof:
        seq, prev = chains[source]
        proof = ExecutionProof.issue(
            f"obj-{source}",
            ("exec", "rsw", source),
            t,
            seq,
            prev,
            epoch=coalition.membership_epoch,
        )
        chains[source] = (seq + 1, proof.digest)
        return proof

    t = 0.0
    for i in range(n_pre):
        t += 1.0
        batch.enqueue(founders[i % len(founders)], mint(founders[i % len(founders)], t), now=t)
        batch.flush_due(t)
    batch.flush(now=t)  # settle the founders' ledgers before the join
    t_join = t
    peer_ledger = coalition.server("s1").announced_proof_count()

    coalition.join(
        CoalitionServer("j1", resources=[Resource("rsw")]),
        now=t_join,
        bootstrap_from="s1",
    )
    joiner = coalition.server("j1")
    bootstrap_learned = joiner.announced_proof_count()

    lags: list[float] = []
    in_flight: list[float] = []  # enqueue times of proofs owed to j1, FIFO
    known = bootstrap_learned
    for i in range(n_post):
        t += 1.0
        source = founders[i % len(founders)]
        batch.enqueue(source, mint(source, t), now=t)
        in_flight.append(t)
        batch.flush_due(t)
        now_known = joiner.announced_proof_count()
        for _ in range(now_known - known):
            lags.append(t - in_flight.pop(0))
        known = now_known
    t += PROP_LATENCY + 1.0
    batch.flush(now=t)
    now_known = joiner.announced_proof_count()
    for _ in range(now_known - known):
        lags.append(t - in_flight.pop(0))
    known = now_known

    if in_flight:
        raise AssertionError(
            f"{len(in_flight)} post-join proofs never reached the joiner"
        )
    if bootstrap_learned != peer_ledger:
        raise AssertionError(
            f"bootstrap learned {bootstrap_learned} proofs but the peer "
            f"ledger held {peer_ledger}"
        )
    batch.close()
    coalition.close()
    lags.sort()
    return {
        "n_pre": n_pre,
        "n_post": n_post,
        "batch_size": batch_size,
        "latency": PROP_LATENCY,
        "peer_ledger_at_join": peer_ledger,
        "bootstrap_learned": bootstrap_learned,
        "bootstrap_coverage": (
            bootstrap_learned / peer_ledger if peer_ledger else 0.0
        ),
        "post_join_delivered": len(lags),
        "lag_mean": sum(lags) / len(lags) if lags else 0.0,
        "lag_p95": lags[int(0.95 * (len(lags) - 1))] if lags else 0.0,
        "lag_max": lags[-1] if lags else 0.0,
        "batcher_stats": batch.stats(),
    }


# -- the no-overgrant acceptance gate -----------------------------------------

GATE_HUB = "h1"
GATE_SERVER = "g1"
#: ``exec gated @ g1`` is granted iff the session's observed history
#: holds an *admissible* ``read r1 @ h1`` — the count cap makes the
#: order constraint bite under extension semantics (re-satisfying the
#: order would need a second gated access, which the cap forbids).
GATE_SRC = (
    f"(read r1 @ {GATE_HUB} >> exec gated @ {GATE_SERVER})"
    " & count(0, 1, [res = gated])"
)


def _gate_policy() -> Policy:
    policy = Policy()
    policy.add_user("u")
    policy.add_role("member")
    policy.add_permission(
        Permission(
            "p-gated",
            resource="gated",
            spatial_constraint=parse_constraint(GATE_SRC),
        )
    )
    policy.add_permission(Permission("p-r1", resource="r1"))
    policy.assign_user("u", "member")
    for perm in ("p-gated", "p-r1"):
        policy.assign_permission("member", perm)
    return policy


def verify_no_overgrant(group: int = 8) -> dict:
    """Drive the eviction hazard end-to-end through the coalition-bound
    service and fail the benchmark on any overgrant.

    Group B (non-vacuity): hub read then gated access, both before the
    eviction — every gated access must be *granted*.  Group A: hub read
    observed before the eviction, gated access attempted after — every
    one must be *denied*, because the eviction rescinded the hub read
    that justified it.  Epoch stamps must witness the membership step.
    """
    coalition = Coalition(
        [
            CoalitionServer(
                name, resources=[Resource("r1"), Resource("gated")]
            )
            for name in (GATE_HUB, GATE_SERVER, "w1")
        ]
    )
    engine = ShardedEngine(_gate_policy(), shards=4)
    hub = AccessKey("read", "r1", GATE_HUB)
    gated = AccessKey("exec", "gated", GATE_SERVER)

    def make_sessions(tag: str):
        out = []
        for i in range(group):
            session = engine.authenticate("u", 0.0, shard_key=f"{tag}{i}")
            engine.activate_role(session, "member", 0.0)
            out.append(session)
        return out

    with DecisionService(
        engine, workers=2, max_wait_s=0.0, coalition=coalition
    ) as service:
        group_a, group_b = make_sessions("a"), make_sessions("b")
        t = 0.0

        def decide(session, access, observe=False):
            nonlocal t
            t += 1.0
            return service.submit(
                session, access, t, observe_granted=observe
            ).result(timeout=30.0)

        for session in group_a + group_b:
            decision = decide(session, hub, observe=True)
            assert decision.granted, f"hub read denied: {decision.reason}"

        pre_grants = 0
        for session in group_b:
            decision = decide(session, gated)
            assert decision.granted, (
                f"pre-eviction gated access denied ({decision.reason}): "
                "the gate workload is vacuous"
            )
            assert decision.provenance is None or decision.provenance.epoch == 0
            pre_grants += 1

        eviction_epoch = coalition.evict(GATE_HUB, now=t)

        post_grants = 0
        for session in group_a:
            decision = decide(session, gated)
            if decision.granted:
                post_grants += 1
            assert decision.provenance is None or (
                decision.provenance.epoch == eviction_epoch
            )
        assert post_grants == 0, (
            f"OVERGRANT: {post_grants}/{group} gated accesses were granted "
            "after the hub's eviction rescinded their justification"
        )
    coalition.close()
    return {
        "group": group,
        "pre_eviction_gated_grants": pre_grants,
        "post_eviction_gated_grants": post_grants,
        "eviction_epoch": eviction_epoch,
    }


# -- report ---------------------------------------------------------------------

def measure(
    n: int, churn_period: int, n_pre: int, n_post: int, repeats: int = 3
) -> dict:
    gate = verify_no_overgrant()
    report: dict = {"no_overgrant_gate": gate}
    report["throughput"] = measure_throughput(n, churn_period, repeats)
    report["convergence"] = measure_convergence(n_pre, n_post)
    return report


def print_report(report: dict) -> None:
    gate = report["no_overgrant_gate"]
    print(
        f"no-overgrant gate: {gate['pre_eviction_gated_grants']} gated "
        f"grants pre-eviction, {gate['post_eviction_gated_grants']} "
        f"post-eviction (epoch {gate['eviction_epoch']}) — PASS"
    )
    tp = report["throughput"]
    print(
        f"\nrolling churn: n={tp['n']}, 1 join + 1 leave per "
        f"{tp['churn_period']} decisions ({tp['joins']} joins, "
        f"{tp['leaves']} leaves, final epoch {tp['final_epoch']})"
    )
    print(f"{'config':<34}{'decisions/s':>13}")
    print(f"{'static membership':<34}{tp['static_rate']:>13.0f}")
    print(
        f"{'rolling churn':<34}{tp['churn_rate']:>13.0f}"
        f"   ({tp['overhead_ratio']:.2f}x of static)"
    )
    conv = report["convergence"]
    print(
        f"\nproof convergence: {conv['n_pre']} pre-join proofs, "
        f"{conv['n_post']} post-join, latency={conv['latency']:g}, "
        f"batch={conv['batch_size']}"
    )
    print(
        f"bootstrap: learned {conv['bootstrap_learned']}/"
        f"{conv['peer_ledger_at_join']} of the peer ledger "
        f"({conv['bootstrap_coverage']:.0%})"
    )
    print(
        f"post-join lag (virtual time): mean={conv['lag_mean']:.2f} "
        f"p95={conv['lag_p95']:.2f} max={conv['lag_max']:.2f} "
        f"(batch heads pay the full latency {conv['latency']:g}; "
        f"coalesced entries ride along)"
    )


def check_acceptance(report: dict, smoke: bool = False) -> None:
    """The gates: zero overgrants (already asserted while driving the
    scenario), full bootstrap coverage of the peer ledger, lag bounded
    by latency + one coalescing window, and churn costing at most a
    bounded slice of static throughput.  The throughput floor is set
    below typical measurements so noisy CI neighbours do not fail the
    build; measured numbers always land in the artifact."""
    gate = report["no_overgrant_gate"]
    assert gate["post_eviction_gated_grants"] == 0
    assert gate["pre_eviction_gated_grants"] == gate["group"]

    conv = report["convergence"]
    assert conv["bootstrap_coverage"] == 1.0, (
        f"bootstrap covered only {conv['bootstrap_coverage']:.0%} of the "
        "peer ledger"
    )
    assert conv["lag_max"] >= conv["latency"], (
        "no proof ever paid the full migration latency — the batcher is "
        "outrunning the network model"
    )
    lag_ceiling = conv["latency"] + conv["batch_size"]
    assert conv["lag_p95"] <= lag_ceiling, (
        f"post-join lag p95 {conv['lag_p95']:.2f} exceeds latency + one "
        f"coalescing window ({lag_ceiling:g})"
    )

    tp = report["throughput"]
    floor = 0.35 if smoke else 0.5
    assert tp["overhead_ratio"] >= floor, (
        f"rolling churn costs {1 - tp['overhead_ratio']:.0%} of static "
        f"throughput (floor: <= {1 - floor:.0%})"
    )
    print("acceptance assertions passed.")


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: tiny workload, assert the acceptance criteria",
    )
    args = parser.parse_args()
    if args.smoke:
        report = measure(
            n=5_000, churn_period=1_000, n_pre=120, n_post=120, repeats=2
        )
    else:
        report = measure(
            n=50_000, churn_period=CHURN_PERIOD, n_pre=400, n_post=400
        )
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=args.smoke)


if __name__ == "__main__":
    main()
