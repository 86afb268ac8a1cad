"""EXP-VEC — the vectorized compiled decision core.

A coalition server's steady state is a long stream of decisions over a
fixed policy: the same (access, candidate) spatial verdicts, the same
piecewise-constant validity functions, evaluated one interpreted
Python decision at a time.  The vectorized sweep
(:mod:`repro.rbac.vector_engine` over :mod:`repro.srac.compiled`)
lowers that loop onto per-constraint state tables and validity cells:

* **naive** — the pre-batch hot path: one :meth:`decide` call per
  request (warm caches, incremental mode);
* **vector batch** — :meth:`decide_batch` on the state tables:
  one column read and one live-mask read per (access, candidate),
  one ``ts >= expiry`` compare
  per (candidate, group), memoised ``Decision`` prototypes,
  per-request cost = one clone;
* **multi-session sweep** — :meth:`decide_batch_many` over an
  interleaved stream from many sessions (the sharded drain shape);
* **service-shaped probe** — µs per request of one
  :meth:`decide_batch_many` micro-batch of G sessions × k requests
  (128×1, 128×2, 8×32 and 1×256, round-robin over the servers)
  against a twin engine's :meth:`decide` loop over the same requests,
  medians of alternating reps.  A report, not a gate.

Beside throughput it reports what each decision costs to keep: the
audit log retains every one, so ``retained_bytes_per_decision`` (by
``tracemalloc``, swept and scalar) is how fast a server's memory grows
with traffic, and is gated at the same budgets as
``tests/test_vector_engine.py``.

Before any number is reported, the vector batch and a twin engine's
per-request :meth:`decide` loop replay mixed grant/deny/expiry
workloads — including decisions exactly at a validity expiry instant —
and every decision *and* its provenance are asserted bit-identical,
along with audit order and the recorded validity timelines.

Timed sections run with the cyclic GC disabled (retained Decision
objects in the audit log otherwise make every generation collection
scan a growing heap — standard practice, pyperf does the same).

Run:  python benchmarks/bench_vector_engine.py [--smoke]
Emits benchmarks/artifacts/BENCH_vector_engine.json.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import pathlib
import random
import statistics
import time
import tracemalloc
from contextlib import closing

from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac import reachability
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

SERVERS = 5

#: Same shape as EXP-CACHE: a counting bound plus an ordering
#: obligation — 1002 x 3 product states, well inside the table budget.
CONSTRAINT_SRC = (
    "count(0, 1000, [res = rsw]) & (exec rsw @ s0 >> exec rsw @ s1)"
)

#: Validity duration for the throughput workload: effectively infinite,
#: so the timed section measures the grant path (the common case).
DURATION = 1e9

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts"
    / "BENCH_vector_engine.json"
)


def _engine(duration: float = DURATION, constraint_src: str = CONSTRAINT_SRC):
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint(constraint_src),
            validity_duration=duration,
        )
    )
    policy.add_permission(Permission("q", op="read", resource="r1"))
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    policy.assign_permission("r", "q")
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "r", 0.0)
    return engine, session


def _request(i: int) -> AccessKey:
    return AccessKey("exec", "rsw", f"s{i % SERVERS}")


def _norm(decision):
    """Session ids differ between two engines; everything else must not."""
    return dataclasses.replace(decision, subject_id="")


# -- bit-identity -----------------------------------------------------------


def verify_identical(n: int = 300) -> int:
    """Vector decisions, provenance, audit order and tracker timelines
    must match a twin engine's per-request ``decide`` loop exactly.
    Returns the number of decisions compared."""
    rng = random.Random(7)
    accesses = [
        AccessKey(
            rng.choice(["exec", "read", "write"]),
            rng.choice(["rsw", "r1"]),
            rng.choice(["s1", "s2"]),
        )
        for _ in range(n)
    ]
    compared = 0
    for src, duration, dt in (
        ("count(0, 3, [res = rsw])", 1e9, 0.1),
        (CONSTRAINT_SRC, 1e9, 0.0),
        # Short duration: the batch crosses the expiry instant, and one
        # decision lands exactly ON it (t >= expiry must deny).
        (CONSTRAINT_SRC, 4.0, 0.1),
    ):
        vec_engine, vec_session = _engine(duration, src)
        sc_engine, sc_session = _engine(duration, src)
        with closing(vec_engine), closing(sc_engine):
            got = vec_engine.decide_batch(vec_session, accesses, t=1.0, dt=dt)
            want, clock = [], 1.0
            for access in accesses:
                want.append(
                    sc_engine.decide(sc_session, access, clock, history=None)
                )
                clock += dt
        for a, b in zip(got, want):
            if _norm(a) != _norm(b):
                raise AssertionError(
                    f"vector decision diverges from decide():\n{a}\nvs\n{b}"
                )
        if [_norm(d) for d in vec_engine.audit] != [
            _norm(d) for d in sc_engine.audit
        ]:
            raise AssertionError("audit logs diverge")
        for key, sc_tracker in sc_session.trackers.items():
            vec_tracker = vec_session.trackers[key]
            assert vec_tracker.now == sc_tracker.now
            assert vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
        stats = vec_engine.cache_stats()
        if stats.vector_fallbacks:
            raise AssertionError(
                f"workload {src!r} unexpectedly fell back "
                f"({stats.vector_fallbacks} decisions)"
            )
        compared += len(got)
    return compared


# -- timed sections ---------------------------------------------------------


#: Timed epochs per configuration; the best (minimum-wall) epoch is
#: reported, which filters scheduler noise on shared machines.
REPEATS = 3

#: Epochs replay the same stream at later instants (validity trackers
#: require monotone time); one epoch spans well under this offset.
EPOCH_OFFSET = 1000.0


def _timed(fn, epoch: int) -> float:
    """Wall time of ``fn(t0)`` with the cyclic GC off (see module
    docstring); ``t0`` keeps repeated epochs time-monotone."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn(2.0 + epoch * EPOCH_OFFSET)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _best_rate(fn, n: int) -> float:
    return n / min(_timed(fn, epoch) for epoch in range(REPEATS))


def rate_naive(n: int) -> float:
    engine, session = _engine()
    engine.decide_batch(session, [_request(0)] * 100, t=1.0)  # warm

    def run(t0):
        clock = t0
        for i in range(n):
            engine.decide(session, _request(i), clock, history=None)
            clock += 0.001

    with closing(engine):
        return _best_rate(run, n)


def rate_batch(n: int) -> float:
    engine, session = _engine()
    accesses = [_request(i) for i in range(n)]
    engine.decide_batch(session, accesses[:100], t=1.0)  # warm
    with closing(engine):
        return _best_rate(
            lambda t0: engine.decide_batch(session, accesses, t=t0, dt=0.001),
            n,
        )


def rate_many(n: int, sessions: int = 8) -> float:
    """Interleaved multi-session stream through ``decide_batch_many``."""
    engine, _ = _engine()
    session_pool = []
    for _ in range(sessions):
        s = engine.authenticate("u", 0.0)
        engine.activate_role(s, "r", 0.0)
        session_pool.append(s)
    requests = [
        (session_pool[i % sessions], _request(i)) for i in range(n)
    ]
    engine.decide_batch_many(requests[:100], t=1.0)  # warm
    with closing(engine):
        return _best_rate(
            lambda t0: engine.decide_batch_many(requests, t=t0, dt=0.001),
            n,
        )


#: Service micro-batch shapes: (sessions, requests per session).
SERVICE_SHAPES = ((128, 1), (128, 2), (8, 32), (1, 256))

#: Requests each timed rep of a shape decides (whole batches).
SERVICE_REP_REQUESTS = 2048


def _service_batch(engine, sessions: int, per_session: int):
    """``sessions`` fresh sessions on ``engine`` and one micro-batch of
    ``sessions × per_session`` requests, interleaved across sessions in
    arrival order and round-robin over the servers."""
    pool = []
    for _ in range(sessions):
        s = engine.authenticate("u", 0.0)
        engine.activate_role(s, "r", 0.0)
        pool.append(s)
    n = sessions * per_session
    return [(pool[i % sessions], _request(i)) for i in range(n)]


def service_probe(reps: int) -> dict[str, dict[str, float]]:
    """µs per request of ``decide_batch_many`` micro-batches against
    a twin engine's per-request ``decide`` loop, in one process, with
    the cyclic GC off: each rep times both sides over
    :data:`SERVICE_REP_REQUESTS` requests, in alternating order, and
    the medians over the reps are reported."""
    out = {}
    for sessions, per_session in SERVICE_SHAPES:
        swept, _ = _engine()
        looped, _ = _engine()
        batch = _service_batch(swept, sessions, per_session)
        loop_batch = _service_batch(looped, sessions, per_session)
        n = len(batch)
        rounds = max(1, SERVICE_REP_REQUESTS // n)
        # One later instant per batch keeps every tracker time-monotone.
        clock = itertools.count(1.0)

        def sweep():
            for _ in range(rounds):
                swept.decide_batch_many(batch, t=next(clock), dt=0.001)

        def loop():
            for _ in range(rounds):
                t = next(clock)
                for session, access in loop_batch:
                    looped.decide(session, access, t, history=None)
                    t += 0.001

        sweep()  # warm both engines' caches and memos
        loop()
        us_per_req: dict = {sweep: [], loop: []}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for rep in range(reps):
                for side in (sweep, loop) if rep % 2 == 0 else (loop, sweep):
                    start = time.perf_counter()
                    side()
                    us_per_req[side].append(
                        (time.perf_counter() - start) / (rounds * n) * 1e6
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
            swept.close()
            looped.close()
        sweep_us = statistics.median(us_per_req[sweep])
        decide_us = statistics.median(us_per_req[loop])
        out[f"{sessions}x{per_session}"] = {
            "sweep_us_per_req": sweep_us,
            "decide_us_per_req": decide_us,
            "speedup": decide_us / sweep_us,
        }
    return out


#: Retained-bytes budgets per decision (the test suite's gates).
SWEPT_BUDGET_B = 100
SCALAR_BUDGET_B = 100


def _retention_stream(n: int, sessions: int = 8):
    """A warmed engine, ``sessions`` sessions and a seeded stream of
    ``n`` (session, access) pairs with their instants — grants of both
    permissions and no-candidate denials, interleaved across sessions."""
    engine, _ = _engine()
    pool = []
    for _ in range(sessions):
        s = engine.authenticate("u", 0.0)
        engine.activate_role(s, "r", 0.0)
        pool.append(s)
    alphabet = [
        AccessKey.of(op, res, f"s{j}")
        for op in ("exec", "read", "write")
        for res in ("rsw", "r1")
        for j in range(SERVERS)
    ]
    engine.decide_batch_many([(s, a) for s in pool for a in alphabet], t=1.0)
    rng = random.Random(11)
    requests = [(rng.choice(pool), rng.choice(alphabet)) for _ in range(n)]
    times = [2.0 + i * 0.001 for i in range(n)]
    return engine, requests, times


def _traced_bytes(fn, n: int) -> float:
    """Bytes still allocated after ``fn()``, per decision."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (current - base) / n


def retained_bytes_per_decision(n: int) -> dict[str, float]:
    """What the audit log grows by per decision kept: ``swept``
    through :meth:`decide_batch_many` in 256-request chunks (a service
    micro-batch), ``scalar`` through one :meth:`decide` per request.
    The request stream is built before tracing starts."""
    engine, requests, times = _retention_stream(n)

    def swept():
        for lo in range(0, n, 256):
            engine.decide_batch_many(
                requests[lo:lo + 256], 0.0, times=times[lo:lo + 256]
            )

    with closing(engine):
        swept_b = _traced_bytes(swept, n)
    engine, requests, times = _retention_stream(n)

    def scalar():
        for (session, access), t in zip(requests, times):
            engine.decide(session, access, t, history=None)

    with closing(engine):
        return {"swept": swept_b, "scalar": _traced_bytes(scalar, n)}


def cold_compile_ms() -> float:
    """First vectorized batch on cold process caches: state-table and
    live-mask build + sweep of a tiny batch."""
    reachability.clear_caches()
    engine, session = _engine()
    with closing(engine):
        start = time.perf_counter()
        engine.decide_batch(session, [_request(0)], t=1.0)
        return (time.perf_counter() - start) * 1e3


def measure(n: int = 50_000, probe_reps: int = 15) -> dict:
    compared = verify_identical()
    cold_ms = cold_compile_ms()
    naive = rate_naive(n)
    vector = rate_batch(n)
    many = rate_many(n)
    retained = retained_bytes_per_decision(min(n, 20_000))
    probe = service_probe(probe_reps)
    srac = reachability.cache_stats()
    return {
        "n": n,
        "verified_identical": compared,
        "cold_first_batch_ms": cold_ms,
        "naive_rate": naive,
        "vector_batch_rate": vector,
        "many_rate": many,
        "speedup_vs_decide": vector / naive,
        "retained_bytes_per_decision": retained,
        "service_probe": probe,
        "table_cache": srac.as_dict(),
    }


def print_report(report: dict) -> None:
    print(
        f"single-session stream: n={report['n']}, "
        f"{report['verified_identical']} decisions verified bit-identical"
    )
    print(f"{'config':<30}{'decisions/s':>13}")
    print(f"{'naive decide() loop':<30}{report['naive_rate']:>13.0f}")
    print(f"{'vector decide_batch':<30}{report['vector_batch_rate']:>13.0f}")
    print(f"{'decide_batch_many (8 sess.)':<30}{report['many_rate']:>13.0f}")
    print(f"vector speedup: {report['speedup_vs_decide']:.1f}x over decide()")
    print(
        f"cold first batch: {report['cold_first_batch_ms']:.2f} ms "
        f"(table + live-mask build)"
    )
    retained = report["retained_bytes_per_decision"]
    print(
        f"retained per decision: {retained['swept']:.1f} B swept, "
        f"{retained['scalar']:.1f} B scalar"
    )
    print("service-shaped micro-batches (median µs per request):")
    print(f"{'sessions x requests':<22}{'sweep':>9}{'decide()':>10}{'ratio':>8}")
    for shape, row in report["service_probe"].items():
        print(
            f"{shape:<22}{row['sweep_us_per_req']:>9.2f}"
            f"{row['decide_us_per_req']:>10.2f}{row['speedup']:>7.1f}x"
        )
    print("table cache:", report["table_cache"])


def check_acceptance(report: dict, smoke: bool = False) -> None:
    """Hard gates.  The retained-bytes budgets hold in both modes.  Smoke
    mode (CI) uses conservative throughput floors — shared runners are
    slow and noisy; the full run asserts the design targets.  The
    decisions read interned state tables' live masks (``live_sets``),
    and no table refused a mask over the state budget (``fallbacks``)."""
    assert report["table_cache"]["live_sets"] > 0, report["table_cache"]
    assert report["table_cache"]["fallbacks"] == 0, report["table_cache"]
    retained = report["retained_bytes_per_decision"]
    assert retained["swept"] <= SWEPT_BUDGET_B, retained
    assert retained["scalar"] <= SCALAR_BUDGET_B, retained
    if smoke:
        assert report["vector_batch_rate"] > 25_000, report
        assert report["speedup_vs_decide"] > 3.0, report
    else:
        assert report["vector_batch_rate"] > 100_000, report
        assert report["speedup_vs_decide"] > 10.0, report


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: small workload, conservative throughput floors",
    )
    args = parser.parse_args()
    n = 5_000 if args.smoke else 50_000
    report = measure(n, probe_reps=3 if args.smoke else 15)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=args.smoke)
    print("acceptance checks passed.")


if __name__ == "__main__":
    main()
