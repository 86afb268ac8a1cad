"""EXP-CACHE — the state-table cache and its live masks.

A coalition server replays the same kind of request over and over
against one policy, so per-decision compilation and BFS satisfiability
searches are pure waste: the policy is constant.  This benchmark
measures the repeated-decision workload three ways:

* **baseline** — the pre-cache spatial check as an explicit loop: per
  decision, a fresh constraint compilation (``compile_constraint``), a
  replay of the history plus the request, and a BFS over the request
  universe (``satisfiable_extension_states(..., use_cache=False)``).
  It skips the engine's candidate lookup, decision building and audit,
  so it is a lower bound on what an uncached engine would cost;
* **cold** — the engine's very first decision, which pays the one-off
  state-table and live-mask build;
* **warm** — the engine in incremental mode: one state-id step plus one
  live-mask read per decision.

The baseline's verdicts are verified equal to the warm engine's before
any number is reported, and the engine's cache hit-rates are printed.
The report is written to ``benchmarks/artifacts/BENCH_decision_cache.json``.

Run:  pytest benchmarks/bench_decision_cache.py --benchmark-only
  or: python benchmarks/bench_decision_cache.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac import reachability
from repro.srac.ast import constraint_alphabet
from repro.srac.checker import satisfiable_extension_states
from repro.srac.monitors import compile_constraint
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

#: A counting bound + an ordering obligation.  The bound is generous
#: enough never to deny this workload, yet keeps the monitor product
#: (1002 × 3 states) well inside the reachability budget, so the warm
#: path is a pure live-mask read.
CONSTRAINT_SRC = (
    "count(0, 1000, [res = rsw]) & (exec rsw @ s0 >> exec rsw @ s1)"
)
CONSTRAINT = parse_constraint(CONSTRAINT_SRC)

SERVERS = 5
HISTORY_LEN = 200
HISTORY = tuple(
    AccessKey("exec", "rsw", f"s{i % SERVERS}") for i in range(HISTORY_LEN)
)

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts"
    / "BENCH_decision_cache.json"
)


def _engine():
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=CONSTRAINT,
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


def _request(i: int) -> tuple[str, str, str]:
    return ("exec", "rsw", f"s{i % SERVERS}")


def decide_baseline(n: int) -> list[bool]:
    """Pre-cache spatial check: fresh compile, explicit history replay
    and BFS per decision, over the universe the engine uses (the
    constraint's accesses plus the request)."""
    verdicts = []
    for i in range(n):
        access = AccessKey(*_request(i))
        compiled = compile_constraint(CONSTRAINT)
        states = compiled.run(HISTORY + (access,))
        universe = tuple(
            dict.fromkeys((*constraint_alphabet(CONSTRAINT), access))
        )
        verdicts.append(
            satisfiable_extension_states(
                compiled, states, universe, use_cache=False
            )
        )
    return verdicts


def decide_warm(engine, session, n: int) -> list[bool]:
    """Cached incremental mode over the same effective history."""
    clock = getattr(engine, "_bench_clock", 0.0)
    verdicts = []
    for i in range(n):
        clock += 1.0
        verdicts.append(
            engine.decide(session, _request(i), clock, history=None).granted
        )
    engine._bench_clock = clock
    return verdicts


def verify_identical(n: int = 50) -> int:
    """Warm engine verdicts must equal the baseline loop's.  Returns the
    number of verdicts compared."""
    warm_engine, warm_session = _engine()
    try:
        warm_session.observed = HISTORY
        expected = decide_baseline(n)
        actual = decide_warm(warm_engine, warm_session, n)
    finally:
        warm_engine.close()
    if expected != actual:
        raise AssertionError(
            f"cached decisions diverge from the uncached baseline: "
            f"{expected} != {actual}"
        )
    return n


def measure(n: int = 2000) -> dict:
    """Cold/warm/baseline timings plus hit-rates, as one report dict."""
    verified = verify_identical()
    reachability.clear_caches()

    start = time.perf_counter()
    decide_baseline(n)
    baseline_wall = time.perf_counter() - start

    engine, session = _engine()
    try:
        session.observed = HISTORY
        start = time.perf_counter()
        decide_warm(engine, session, 1)
        cold_wall = time.perf_counter() - start
        # Warm the remaining (constraint, access) entries the way a real
        # server would: from its request alphabet, before traffic arrives.
        engine.prewarm([_request(i) for i in range(SERVERS)])
        start = time.perf_counter()
        decide_warm(engine, session, n)
        warm_wall = time.perf_counter() - start
    finally:
        engine.close()

    stats = engine.cache_stats()
    spatial_checks = stats.live_hits + stats.live_fallbacks
    return {
        "n": n,
        "history_len": HISTORY_LEN,
        "servers": SERVERS,
        "verified_identical": verified,
        "baseline_rate": n / baseline_wall,
        "cold_first_ms": cold_wall * 1e3,
        "warm_rate": n / warm_wall,
        "speedup": (n / warm_wall) / (n / baseline_wall),
        "live_hit_rate": stats.live_hits / max(1, spatial_checks),
        "fallbacks": stats.live_fallbacks,
        "stats": stats.as_dict(),
    }


def print_report(report: dict) -> None:
    print(f"repeated-decision workload: n={report['n']}, "
          f"history={HISTORY_LEN}, servers={SERVERS}")
    print(f"{'config':<26}{'decisions/s':>13}")
    print(f"{'baseline (pre-cache)':<26}{report['baseline_rate']:>13.0f}")
    print(f"{'warm (cached)':<26}{report['warm_rate']:>13.0f}")
    print(f"cold first decision: {report['cold_first_ms']:.2f} ms "
          f"(state-table + live-mask build)")
    print(f"warm speedup over baseline: {report['speedup']:.1f}x")
    print(f"live-mask hit rate: {report['live_hit_rate']:.1%} "
          f"({report['fallbacks']} BFS fallbacks)")
    print("counters:", report["stats"])


# -- pytest-benchmark entry points ----------------------------------------


def bench_decision_baseline(benchmark):
    benchmark(decide_baseline, 100)


def bench_decision_cached_warm(benchmark):
    engine, session = _engine()
    try:
        session.observed = HISTORY
        decide_warm(engine, session, 1)  # warm the caches once
        benchmark(decide_warm, engine, session, 100)
    finally:
        engine.close()


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small workload, assert the cached path wins",
    )
    args = parser.parse_args()
    n = 300 if args.quick else 2000
    report = measure(n)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    if args.quick:
        assert report["speedup"] > 1.5, (
            f"cached path should beat the baseline, got {report['speedup']:.2f}x"
        )
        assert report["fallbacks"] == 0
        print("quick-mode assertions passed.")


if __name__ == "__main__":
    main()
