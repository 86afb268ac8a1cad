"""Regenerate every experiment of the reproduction in one run.

The paper's evaluation is qualitative (one figure, no numeric tables),
so this runner produces (a) the Figure 1 scenario end-to-end and (b) an
empirical validation of each formal claim, printing the tables recorded
in EXPERIMENTS.md.

Every experiment runs with the observability layer (``repro.obs``)
switched on and leaves a per-experiment metrics sidecar
(``artifacts/METRICS_<name>.json``: the registry snapshot plus the
span summary) next to the existing result artifacts.

Run:  python benchmarks/run_experiments.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

# Allow running as `python benchmarks/run_experiments.py` from anywhere:
# sibling bench modules are imported directly.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.apps.integrity import (
    auditor_program,
    figure1_graph,
    run_audit,
    verification_constraint,
)
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.sral.ast import program_size
from repro.srac.ast import constraint_size
from repro.srac.checker import check_program, check_program_stats
from repro.srac.parser import parse_constraint
from repro.temporal.timeline import BooleanTimeline
from repro.traces.regular import regex_size, verify_regular_completeness
from repro.traces.trace import AccessKey
from repro.workloads.constraints import random_constraint
from repro.workloads.digraphs import random_module_graph
from repro.workloads.programs import access_alphabet, random_program, random_regex

from repro import obs

ALPHABET = access_alphabet(2, 3, 2)

ARTIFACTS = pathlib.Path(__file__).resolve().parent / "artifacts"


def run_with_metrics(name: str, fn) -> None:
    """Run one experiment with observability on and write its metrics
    sidecar (``METRICS_<name>.json``) when it finishes — even on
    failure, so a crashed experiment still leaves its counters.  Then
    unregister every metrics collector the experiment registered, so
    the components it left open neither count into the next sidecar
    nor stay resident."""
    before = obs.REGISTRY.collectors()  # held, so no id below is reused
    kept = {id(collector) for collector in before}
    obs.reset()
    obs.enable()
    try:
        fn()
    finally:
        obs.disable()
        ARTIFACTS.mkdir(exist_ok=True)
        sidecar = ARTIFACTS / f"METRICS_{name}.json"
        sidecar.write_text(json.dumps(obs.export(), indent=2, sort_keys=True))
        print(f"[obs] wrote {sidecar}")
        for collector in obs.REGISTRY.collectors():
            if id(collector) not in kept:
                obs.REGISTRY.unregister_collector(collector)


def timed(fn, *args, repeats=3, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def exp_f1() -> None:
    header("EXP-F1  Figure 1 / Section 6: integrity verification audit")
    graph = figure1_graph()
    clean = run_audit(graph)
    tampered = run_audit(graph, tamper={"m7"})
    rushed = run_audit(graph, deadline=6.0)
    print(f"{'run':<22}{'verified':>9}{'hash-bad':>9}{'denied':>7}"
          f"{'migr':>6}{'T_virtual':>10}")
    for label, report in (
        ("clean", clean),
        ("tamper m7", tampered),
        ("deadline=6", rushed),
    ):
        verified = sum(report.verified.values())
        bad = sum(not ok for ok in report.hash_ok.values())
        print(
            f"{label:<22}{verified:>6}/12{bad:>9}{report.denied_accesses:>7}"
            f"{report.migrations:>6}{report.duration:>10.1f}"
        )
    print("order constraint holds on clean run:", clean.order_constraint_ok)
    print("static P |= C for the auditor program:",
          check_program(auditor_program(graph), verification_constraint(graph)))

    print("\nscaling sweep (random DAGs, 4 servers):")
    print(f"{'modules':>8}{'verified':>10}{'T_virtual':>11}{'wall_ms':>9}")
    for n in (25, 50, 100, 200):
        graph_n = random_module_graph(n, 4, edge_probability=0.1, seed=n)
        report, wall = timed(run_audit, graph_n, repeats=1)
        print(
            f"{n:>8}{sum(report.verified.values()):>7}/{n:<3}"
            f"{report.duration:>10.1f}{wall * 1e3:>9.1f}"
        )

    # Regenerate the figure itself (DOT + terminal rendering).
    from repro.viz import dependency_graph_to_ascii, dependency_graph_to_dot

    artifacts = pathlib.Path(__file__).resolve().parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    dot_path = artifacts / "figure1.dot"
    dot_path.write_text(dependency_graph_to_dot(graph) + "\n")
    print(f"\nFigure 1 regenerated: {dot_path}")
    print(dependency_graph_to_ascii(graph))


def exp_t31() -> None:
    header("EXP-T31  Theorem 3.1: regular completeness, machine-checked")
    print(f"{'regex size':>11}{'holds':>7}{'wall_ms':>9}")
    for leaves in (5, 10, 20, 40, 80):
        regex = random_regex(np.random.default_rng(leaves), leaves, ALPHABET)
        holds, wall = timed(verify_regular_completeness, regex)
        print(f"{regex_size(regex):>11}{str(holds):>7}{wall * 1e3:>9.2f}")
        assert holds


def exp_t32() -> None:
    header("EXP-T32  Theorem 3.2: P |= C checking, O(m*n) scaling")
    constraint = random_constraint(np.random.default_rng(13), 4, ALPHABET)
    n_fixed = constraint_size(constraint)
    print(f"sweep in m (sequential fragment; constraint fixed, n={n_fixed}):")
    print(f"{'m':>7}{'configs':>9}{'wall_ms':>9}{'configs/m':>10}")
    rows_m = []
    for leaves in (10, 30, 100, 300, 1000, 3000):
        program = random_program(np.random.default_rng(11), leaves, ALPHABET, p_par=0.0)
        m = program_size(program)
        result, wall = timed(check_program_stats, program, constraint)
        rows_m.append((m, result.configurations, wall))
        print(f"{m:>7}{result.configurations:>9}{wall * 1e3:>9.2f}"
              f"{result.configurations / m:>10.2f}")
    slope_m = np.polyfit(
        np.log([r[0] for r in rows_m]), np.log([r[1] for r in rows_m]), 1
    )[0]
    print(f"fitted exponent of configurations vs m: {slope_m:.2f} (1.0 = linear)")

    program = random_program(np.random.default_rng(11), 100, ALPHABET, p_par=0.0)
    m_fixed = program_size(program)
    print(f"\nsweep in n (program fixed, m={m_fixed}):")
    print(f"{'n':>7}{'configs':>9}{'wall_ms':>9}")
    rows_n = []
    for leaves in (2, 4, 8, 16, 32):
        constraint_n = random_constraint(np.random.default_rng(13), leaves, ALPHABET)
        n = constraint_size(constraint_n)
        result, wall = timed(check_program_stats, program, constraint_n)
        rows_n.append((n, result.configurations, wall))
        print(f"{n:>7}{result.configurations:>9}{wall * 1e3:>9.2f}")
    slope_n = np.polyfit(
        np.log([r[0] for r in rows_n]), np.log([r[2] for r in rows_n]), 1
    )[0]
    print(f"fitted exponent of wall time vs n: {slope_n:.2f}")


def exp_t41() -> None:
    header("EXP-T41  Theorem 4.1: permission validity checking")
    rng = np.random.default_rng(0)
    print(f"{'intervals k':>12}{'integral':>10}{'wall_us':>9}{'ref_match':>10}")
    for k in (10, 100, 1000, 10000):
        points = np.sort(rng.uniform(0, 1000, size=2 * k))
        timeline = BooleanTimeline.from_intervals(
            [(points[2 * i], points[2 * i + 1]) for i in range(k)]
        )
        value, wall = timed(timeline.integrate, 0.0, 1000.0, repeats=5)
        # Riemann reference on the coarse case only (expensive).
        if k <= 100:
            ts = np.linspace(0, 1000, 200001)[:-1] + 0.0025
            ref = float(np.mean([timeline.value_at(t) for t in ts[::20]]) * 1000)
            match = abs(value - ref) < 2.0
        else:
            match = "-"
        print(f"{k:>12}{value:>10.2f}{wall * 1e6:>9.1f}{str(match):>10}")


def exp_e35() -> None:
    header("EXP-E35  Example 3.5: #(0,5,RSW) coordinated across servers")
    policy = Policy()
    policy.add_user("u")
    policy.add_role("trial")
    policy.add_permission(
        Permission("p", op="exec", resource="rsw",
                   spatial_constraint=parse_constraint("count(0, 5, [res = rsw])"))
    )
    policy.assign_user("u", "trial")
    policy.assign_permission("trial", "p")
    engine = AccessControlEngine(policy)
    session = engine.authenticate("u", 0.0)
    engine.activate_role(session, "trial", 0.0)
    history: tuple[AccessKey, ...] = ()
    print(f"{'request #':>10}{'server':>8}{'granted':>9}")
    for i in range(7):
        server = "s1" if i < 5 else "s2"  # last two requests at the OTHER server
        decision = engine.decide(session, ("exec", "rsw", server), float(i), history)
        print(f"{i + 1:>10}{server:>8}{str(decision.granted):>9}")
        if decision.granted:
            history += (AccessKey("exec", "rsw", server),)
    print("grants:", len(history), "(expected 5; denials land at s2)")


def exp_deadline() -> None:
    header("EXP-DEADLINE  validity-duration deadline, Scheme A vs B")
    from bench_deadline import _run
    from repro.temporal.validity import Scheme

    print(f"{'duration D':>11}{'Scheme B grants':>17}{'Scheme A grants':>17}  (12 edits attempted)")
    for duration in (1.0, 3.0, 6.0, 9.0):
        b = _run(Scheme.WHOLE_EXECUTION, 12, duration)
        a = _run(Scheme.PER_SERVER, 12, duration)
        print(f"{duration:>11.1f}{len(b.history()):>17}{len(a.history()):>17}")
    print("Scheme B (whole execution): grants == floor(D) — a true deadline.")
    print("Scheme A (per-server): budget resets each migration — a per-site quota.")


def exp_rbac() -> None:
    header("EXP-RBAC  decision-throughput ablation")
    from bench_rbac_engine import (
        HISTORY,
        _decide_many,
        _decide_many_incremental,
        _engine,
    )

    print(f"{'config':<22}{'decisions/s':>13}")
    baseline = None
    for label, spatial, temporal in (
        ("plain", False, False),
        ("spatial", True, False),
        ("temporal", False, True),
        ("full", True, True),
    ):
        engine, session = _engine(spatial, temporal)
        _, wall = timed(_decide_many, engine, session, 100)
        rate = 100 / wall
        if baseline is None:
            baseline = rate
        print(f"{label:<22}{rate:>13.0f}   ({baseline / rate:.2f}x plain cost)")
    engine, session = _engine(spatial=True, temporal=False)
    session.observed = HISTORY
    _, wall = timed(_decide_many_incremental, engine, session, 100)
    rate = 100 / wall
    print(f"{'spatial (incremental)':<22}{rate:>13.0f}   ({baseline / rate:.2f}x plain cost)")


def exp_cache() -> None:
    header("EXP-CACHE  compiled-constraint cache + coreachability layer")
    from bench_decision_cache import HISTORY_LEN, SERVERS, measure

    report = measure(n=1000)
    print(f"repeated-decision workload: n={report['n']}, "
          f"history={HISTORY_LEN}, servers={SERVERS}")
    print(f"{'config':<26}{'decisions/s':>13}")
    print(f"{'baseline (pre-cache)':<26}{report['baseline_rate']:>13.0f}")
    print(f"{'warm (cached)':<26}{report['warm_rate']:>13.0f}")
    print(f"cold first decision: {report['cold_first_ms']:.2f} ms "
          f"(compile + live-set build)")
    print(f"warm speedup over baseline: {report['speedup']:.1f}x")
    print(f"live-set hit rate: {report['live_hit_rate']:.1%} "
          f"({report['fallbacks']} BFS fallbacks)")


def exp_vec() -> None:
    header("EXP-VEC  vectorized compiled decision core")
    from bench_vector_engine import (
        ARTIFACT,
        check_acceptance,
        measure,
        print_report,
    )

    report = measure(n=20_000)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report)


def exp_service() -> None:
    header("EXP-SERVICE  sharded concurrent decision service")
    from bench_concurrent_service import (
        ARTIFACT,
        check_acceptance,
        measure,
        print_report,
    )

    report = measure(n=1000, baseline_n=200, latency_ms=2.0, batched_n=56_000)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    import json as _json

    ARTIFACT.write_text(_json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report)


def exp_faults() -> None:
    header("EXP-FAULTS  propagation convergence under link loss")
    from bench_fault_recovery import (
        ARTIFACT,
        check_acceptance,
        measure,
        print_report,
    )

    report = measure(n_seeds=10)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    import json as _json

    ARTIFACT.write_text(_json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report)


def exp_churn() -> None:
    header("EXP-CHURN  membership churn: throughput + proof convergence")
    from bench_membership_churn import (
        ARTIFACT,
        check_acceptance,
        measure,
        print_report,
    )

    report = measure(n=10_000, churn_period=2_000, n_pre=200, n_post=200, repeats=2)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=True)


def exp_naplet() -> None:
    header("EXP-NAPLET  agent emulation: cloned fan-out makespan")
    from repro.agent.naplet import Naplet
    from repro.agent.patterns import ParPattern, SeqPattern, SingletonPattern
    from repro.agent.scheduler import Simulation
    from repro.workloads.digraphs import coalition_topology

    n = 16
    servers = [f"s{i + 1}" for i in range(n)]
    print(f"{'clones k':>9}{'makespan':>10}{'speedup':>9}")
    base = None
    for k in (1, 2, 4, 8):
        share = n // k
        branches = [
            SeqPattern(
                [SingletonPattern("read", "res1", servers[i * share + j]) for j in range(share)]
            )
            for i in range(k)
        ]
        pattern = ParPattern(branches) if k > 1 else branches[0]
        sim = Simulation(coalition_topology(n))
        sim.add_naplet(Naplet("owner", pattern, name="fan"), "s1")
        report = sim.run()
        if base is None:
            base = report.end_time
        print(f"{k:>9}{report.end_time:>10.1f}{base / report.end_time:>9.2f}x")


def exp_baselines() -> None:
    header("EXP-BASELINE  related-work baselines (Section 7), quantified")
    from bench_baselines import duration_error_rate, trbac_error_rate

    print("TRBAC interval checks on skewed local clocks vs the duration scheme")
    print(f"{'skew (h)':>9}{'TRBAC err rate':>16}{'duration err rate':>19}")
    for skew in (0.0, 0.25, 0.5, 1.0, 2.0):
        trbac = trbac_error_rate(skew)
        ours = duration_error_rate(skew)
        print(f"{skew:>9.2f}{trbac:>16.3f}{ours:>19.3f}")

    from repro.rbac.history_baseline import CoordinatedReference, LocalHistoryEngine
    from repro.srac.parser import parse_constraint

    limit = parse_constraint("count(0, 5, [res = rsw])")
    local, coordinated = LocalHistoryEngine(), CoordinatedReference()
    print("\nlocal-history baseline: wrongful grants vs history spread")
    print(f"{'servers':>8}{'wrongful grant rate':>21}")
    for n_servers in (1, 2, 4, 8):
        rng = np.random.default_rng(n_servers)
        wrongful = 0
        trials = 200
        for _ in range(trials):
            length = int(rng.integers(4, 9))
            history = tuple(
                AccessKey("exec", "rsw", f"s{int(rng.integers(n_servers))}")
                for _ in range(length)
            )
            request = AccessKey("exec", "rsw", f"s{int(rng.integers(n_servers))}")
            granted_local = local.decide(limit, history, request)
            granted_truth = coordinated.decide(limit, history, request)
            wrongful += granted_local and not granted_truth
        print(f"{n_servers:>8}{wrongful / trials:>21.3f}")


def exp_obs() -> None:
    header("EXP-OBS  observability overhead on the warm decide path")
    from bench_obs_overhead import (
        ARTIFACT,
        check_acceptance,
        check_provenance,
        measure_gated,
        print_report,
    )

    report = measure_gated()
    report["provenance"] = check_provenance()
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report)


def exp_scale() -> None:
    header("EXP-SCALE  columnar session store at coalition scale")
    from bench_scale import (
        ARTIFACT,
        check_acceptance,
        measure,
        print_report,
        smoke_specs,
    )

    # Smoke-sized here (100k resident sessions); the full million-session
    # run is `python benchmarks/bench_scale.py` and takes minutes.
    spec, verify_spec = smoke_specs()
    report = measure(spec, verify_spec)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=True)


EXPERIMENTS = (
    ("f1", exp_f1),
    ("t31", exp_t31),
    ("t32", exp_t32),
    ("t41", exp_t41),
    ("e35", exp_e35),
    ("deadline", exp_deadline),
    ("rbac", exp_rbac),
    ("cache", exp_cache),
    ("vec", exp_vec),
    ("service", exp_service),
    ("scale", exp_scale),
    ("faults", exp_faults),
    ("churn", exp_churn),
    ("naplet", exp_naplet),
    ("baselines", exp_baselines),
    ("obs", exp_obs),
)


def main() -> None:
    for name, fn in EXPERIMENTS:
        run_with_metrics(name, fn)
    print("\nall experiments completed.")


if __name__ == "__main__":
    main()
