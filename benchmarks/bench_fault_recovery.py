"""BENCH-FAULT-RECOVERY — proof-propagation convergence under link loss.

The coordination protocol only needs *eventual* proof delivery: a lossy
link slows the announced-ledger convergence down but must never change
what is decided (without a degradation gate) and must never lose a
proof.  This benchmark quantifies that: the same seeded multi-agent
workload runs at link drop rates {0, 0.1, 0.3}, and for each run we
measure the **convergence lag** — how much virtual time past the
workload's end the retry schedule needs before every coalition server
knows every foreign proof (driven by
:meth:`~repro.agent.scheduler.Simulation.drain_propagation`).

Acceptance (checked in ``check_acceptance``):

* every run converges — after the drain (plus an explicit heal+flush
  for any parked batch) no ledger gap remains;
* per-agent decision outcomes are identical at every drop rate
  (faults cost time, never correctness);
* the faultless runs have zero convergence lag, and the mean lag is
  monotone non-decreasing in the drop rate.

Run:  python benchmarks/bench_fault_recovery.py [--smoke]
Emits benchmarks/artifacts/BENCH_fault_recovery.json.
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.agent.naplet import Naplet
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.coalition.network import Coalition, constant_latency
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.faults import FaultPlan, FaultyLink, RetryPolicy
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.sral.parser import parse_program
from repro.srac.parser import parse_constraint

SERVERS = ("s1", "s2", "s3")
OPS = ("read", "write", "exec")
RESOURCES = ("r1", "rsw")
DROP_RATES = (0.0, 0.1, 0.3)
RETRY = RetryPolicy(base_delay=0.25, multiplier=2.0, max_delay=4.0, max_attempts=12)

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts"
    / "BENCH_fault_recovery.json"
)


def _policy(owners) -> Policy:
    policy = Policy()
    policy.add_role("member")
    policy.add_permission(
        Permission(
            "p-rsw",
            resource="rsw",
            spatial_constraint=parse_constraint("count(0, 3, [res = rsw])"),
        )
    )
    policy.add_permission(Permission("p-any-r1", resource="r1"))
    for owner in owners:
        policy.add_user(owner)
        policy.assign_user(owner, "member")
    policy.assign_permission("member", "p-rsw")
    policy.assign_permission("member", "p-any-r1")
    return policy


def _workload(seed: int, n_agents: int, n_accesses: int):
    rng = random.Random(seed)
    out = []
    for index in range(n_agents):
        steps = [
            f"{rng.choice(OPS)} {rng.choice(RESOURCES)} @ {rng.choice(SERVERS)}"
            for _ in range(n_accesses)
        ]
        out.append((f"u{index}", " ; ".join(steps), rng.choice(SERVERS)))
    return out


def _run(workload, drop: float, seed: int):
    """One simulated run; returns (report, naplets, convergence_lag,
    parked_after_drain, batch_stats)."""
    coalition = Coalition(
        [
            CoalitionServer(name, resources=[Resource(r) for r in RESOURCES])
            for name in SERVERS
        ],
        latency=constant_latency(2.0),
    )
    engine = AccessControlEngine(_policy([w[0] for w in workload]))
    faults = FaultPlan(link=FaultyLink(drop=drop, seed=seed), retry=RETRY)
    sim = Simulation(
        coalition,
        security=NapletSecurityManager(engine),
        on_denied="skip",
        proof_propagation="batched",
        proof_batch_size=4,
        faults=faults,
    )
    naplets = []
    try:
        for owner, text, start in workload:
            naplet = Naplet(owner, parse_program(text), roles=("member",))
            naplets.append(naplet)
            sim.add_naplet(naplet, start)
        report = sim.run()
        drained_at = sim.drain_propagation()
        parked = len(sim.proof_batch.parked_destinations())
        if sim.proof_batch.pending_count():
            # Retry-exhausted batches: heal and drain explicitly (the
            # operator's recovery path); convergence then happens at the
            # drain time.
            faults.heal(drained_at)
            sim.proof_batch.flush(now=drained_at)
        assert sim.proof_batch.pending_count() == 0
        _assert_ledgers_complete(sim, naplets)
    finally:
        sim.close()
        engine.close()
        coalition.close()
    lag = max(0.0, drained_at - report.end_time)
    return report, naplets, lag, parked, sim.proof_batch.stats()


def _assert_ledgers_complete(sim, naplets) -> None:
    for naplet in naplets:
        for proof in naplet.registry.proofs():
            for name in SERVERS:
                if name != proof.access.server:
                    assert sim.coalition.server(name).knows_proof(proof), (
                        f"ledger gap at {name} for proof #{proof.seq}"
                    )


def _outcomes(naplets):
    return {n.owner: tuple(n.history()) for n in naplets}


def measure(n_seeds: int = 20, n_agents: int = 3, n_accesses: int = 8) -> dict:
    rows = []
    baseline_outcomes: dict[int, dict] = {}
    for drop in DROP_RATES:
        lags, end_times, parked_runs = [], [], 0
        failed = retried = 0
        outcomes_equal = True
        for seed in range(n_seeds):
            workload = _workload(seed, n_agents, n_accesses)
            report, naplets, lag, parked, stats = _run(workload, drop, seed)
            lags.append(lag)
            end_times.append(report.end_time)
            parked_runs += bool(parked)
            failed += stats["failed_deliveries"]
            retried += stats["retries_scheduled"]
            if drop == 0.0:
                baseline_outcomes[seed] = _outcomes(naplets)
            else:
                outcomes_equal &= _outcomes(naplets) == baseline_outcomes[seed]
        rows.append(
            {
                "drop": drop,
                "seeds": n_seeds,
                "mean_convergence_lag": sum(lags) / len(lags),
                "max_convergence_lag": max(lags),
                "mean_end_time": sum(end_times) / len(end_times),
                "failed_deliveries": failed,
                "retries_scheduled": retried,
                "runs_with_parked_batches": parked_runs,
                "outcomes_equal_faultless": outcomes_equal,
            }
        )
    return {
        "workload": {
            "agents": n_agents,
            "accesses_per_agent": n_accesses,
            "servers": len(SERVERS),
            "migration_latency": 2.0,
            "proof_batch_size": 4,
        },
        "retry_policy": {
            "base_delay": RETRY.base_delay,
            "multiplier": RETRY.multiplier,
            "max_delay": RETRY.max_delay,
            "max_attempts": RETRY.max_attempts,
        },
        "rates": rows,
    }


def print_report(report: dict) -> None:
    print(f"{'drop':>6}{'mean lag':>10}{'max lag':>9}{'failed':>8}"
          f"{'retries':>9}{'parked runs':>13}")
    for row in report["rates"]:
        print(
            f"{row['drop']:>6.1f}{row['mean_convergence_lag']:>10.2f}"
            f"{row['max_convergence_lag']:>9.2f}{row['failed_deliveries']:>8}"
            f"{row['retries_scheduled']:>9}{row['runs_with_parked_batches']:>13}"
        )


def check_acceptance(report: dict) -> None:
    rows = {row["drop"]: row for row in report["rates"]}
    assert rows[0.0]["mean_convergence_lag"] == 0.0, (
        "faultless propagation must converge with the workload"
    )
    assert rows[0.0]["failed_deliveries"] == 0
    lags = [rows[d]["mean_convergence_lag"] for d in DROP_RATES]
    assert lags == sorted(lags), (
        f"convergence lag must grow with the drop rate, got {lags}"
    )
    for row in report["rates"]:
        assert row["outcomes_equal_faultless"], (
            f"drop={row['drop']}: link loss changed decision outcomes"
        )
    print("acceptance assertions passed.")


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: fewer seeds, same acceptance criteria",
    )
    args = parser.parse_args()
    report = measure(n_seeds=5 if args.smoke else 20)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report)


if __name__ == "__main__":
    main()
