"""Concurrency tests for the sharded decision service
(:mod:`repro.service`) and the lock-striped coalition substrate.

The two load-bearing properties:

* **Determinism modulo interleaving** — the same randomized agent
  workload produces identical per-session decision outcomes through a
  plain single-threaded engine and through the sharded service at 4
  workers (per-session request order is preserved by the per-shard
  FIFO queues; sessions are independent, so interleaving across
  sessions cannot change any outcome).
* **No lost or duplicated messages** — 8 threads hammering one
  :class:`~repro.coalition.channels.ChannelTable` deliver every sent
  value exactly once.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.concurrency import LockStripe, stable_hash, stripe_index
from repro.coalition.channels import EMPTY, ChannelTable, SignalTable
from repro.coalition.network import Coalition, constant_latency, uniform_latency
from repro.coalition.proofs import ProofRegistry
from repro.coalition.resource import Resource
from repro.coalition.server import CoalitionServer
from repro.errors import ChannelError, CoalitionError, RbacError, ServiceError
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service import DecisionService, ProofBatch, ShardedEngine
from repro.srac.parser import parse_constraint
from repro.traces.trace import AccessKey

SERVERS = [f"s{i}" for i in range(4)]


def make_policy(count_bound: int = 5) -> Policy:
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    policy.add_permission(
        Permission(
            "p",
            op="exec",
            resource="rsw",
            spatial_constraint=parse_constraint(
                f"count(0, {count_bound}, [res = rsw])"
            ),
        )
    )
    policy.assign_user("u", "r")
    policy.assign_permission("r", "p")
    return policy


def random_workload(seed: int, sessions: int, per_session: int):
    """Per-session randomized request streams (server varies)."""
    rng = random.Random(seed)
    return [
        [
            AccessKey("exec", "rsw", rng.choice(SERVERS))
            for _ in range(per_session)
        ]
        for _ in range(sessions)
    ]


class TestStableRouting:
    def test_stable_hash_is_process_independent(self):
        # CRC-32 of the UTF-8 bytes — fixed reference values.
        assert stable_hash("agent-0") == 2054976783
        assert stable_hash("") == 0

    def test_stripe_index_bounds(self):
        for key in ("a", "b", "agent-17", "x" * 100):
            assert 0 <= stripe_index(key, 7) < 7
        with pytest.raises(ValueError):
            stripe_index("a", 0)

    def test_lock_stripe_same_key_same_lock(self):
        stripe = LockStripe(8)
        assert stripe.lock_for("k") is stripe.lock_for("k")
        assert len(stripe) == 8


class TestShardedDeterminism:
    """The concurrency property test of ISSUE 2."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outcomes_identical_to_single_threaded(self, seed):
        sessions_n, per_session = 12, 25
        workload = random_workload(seed, sessions_n, per_session)

        # Single-threaded reference: each granted access is observed,
        # so the count bound eventually denies — outcomes are a mix.
        engine = AccessControlEngine(make_policy())
        reference: list[list[tuple[AccessKey, bool]]] = []
        for k in range(sessions_n):
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            row = []
            for i, access in enumerate(workload[k]):
                decision = engine.decide(
                    session, access, float(i + 1), history=None
                )
                if decision.granted:
                    engine.observe(session, access)
                row.append((access, decision.granted))
            reference.append(row)
        assert any(not granted for row in reference for _, granted in row)
        assert any(granted for row in reference for _, granted in row)

        # Sharded service at 4 workers, interleaved submission order.
        sharded = ShardedEngine(make_policy(), shards=4)
        sharded_sessions = []
        for k in range(sessions_n):
            session = sharded.authenticate("u", 0.0, shard_key=f"agent-{k}")
            sharded.activate_role(session, "r", 0.0)
            sharded_sessions.append(session)
        futures: list[list] = [[] for _ in range(sessions_n)]
        with DecisionService(sharded, workers=4, queue_depth=256) as service:
            for i in range(per_session):
                for k in range(sessions_n):
                    futures[k].append(
                        service.submit(
                            sharded_sessions[k],
                            workload[k][i],
                            float(i + 1),
                            history=None,
                            observe_granted=True,
                        )
                    )
            assert service.drain(timeout=60.0)
            stats = service.service_stats()
        assert stats.errors == 0
        assert stats.completed == sessions_n * per_session

        actual = [
            [
                (workload[k][i], futures[k][i].result().granted)
                for i in range(per_session)
            ]
            for k in range(sessions_n)
        ]
        # Per-session outcome sequences identical — which implies the
        # multiset of (session, access, decision) triples is identical.
        assert actual == reference

    def test_same_owner_sessions_share_a_shard(self):
        sharded = ShardedEngine(make_policy(), shards=8)
        a = sharded.authenticate("u", 0.0)
        b = sharded.authenticate("u", 0.0)
        assert sharded.shard_of(a) == sharded.shard_of(b)

    def test_unrouted_session_rejected(self):
        sharded = ShardedEngine(make_policy(), shards=2)
        foreign = AccessControlEngine(make_policy()).authenticate("u", 0.0)
        with pytest.raises(ServiceError):
            sharded.decide(foreign, ("exec", "rsw", "s0"), 1.0)

    def test_shard_count_validation(self):
        with pytest.raises(ServiceError):
            ShardedEngine(make_policy(), shards=0)


class TestSharedDecisionMemo:
    """The shards of a ``ShardedEngine`` intern attribution and
    outcomes in one memo per policy version."""

    @staticmethod
    def _spread(sharded, n):
        """``n`` sessions with role ``r``, each on its own shard."""
        sessions, shards = [], set()
        k = 0
        while len(sessions) < n:
            key = f"agent-{k}"
            k += 1
            if sharded.shard_index(key) in shards:
                continue
            shards.add(sharded.shard_index(key))
            session = sharded.authenticate("u", 0.0, shard_key=key)
            sharded.activate_role(session, "r", 0.0)
            sessions.append(session)
        return sessions

    def test_equal_outcomes_on_two_shards_are_one_record(self):
        sharded = ShardedEngine(make_policy(), shards=4)
        a, b = self._spread(sharded, 2)
        access = AccessKey("exec", "rsw", "s1")
        first = sharded.decide(a, access, 1.0)
        second = sharded.decide(b, access, 2.0)
        assert first.granted and second.granted
        assert first.outcome is second.outcome
        assert first.provenance is second.provenance
        memo = sharded._shards[0].engine._memo
        assert all(shard.engine._memo is memo for shard in sharded._shards)
        sharded.close()

    def test_replace_permission_empties_the_memo_for_every_shard(self):
        policy = make_policy(count_bound=0)
        sharded = ShardedEngine(policy, shards=4)
        a, b = self._spread(sharded, 2)
        access = AccessKey("exec", "rsw", "s1")
        old = [sharded.decide(s, access, 1.0) for s in (a, b)]
        assert old[0].outcome is old[1].outcome
        assert old[0].provenance.kind == "spatial"
        memo = sharded._shards[0].engine._memo
        assert len(memo.outcomes) == 1 and len(memo.examined) == 1
        source = "count(0, 1, [res = rsw])"
        policy.replace_permission(
            Permission(
                "p", op="exec", resource="rsw",
                spatial_constraint=parse_constraint(source),
            )
        )
        # One decision on one shard empties the memo the other reads.
        denied = sharded.decide(a, AccessKey("exec", "rsw", "s2"), 2.0,
                                history=(access, access))
        assert denied.provenance.failing.constraint == source
        assert list(memo.outcomes.values()) == [denied.outcome]
        assert len(memo.examined) == 1
        granted = sharded.decide(b, access, 3.0)
        assert granted.granted and granted.provenance.candidates[0].constraint == source
        assert old[1].provenance.failing.constraint != source
        assert memo.version == policy.version
        assert all(shard.engine._memo is memo for shard in sharded._shards)
        sharded.close()

    def test_shards_share_one_extension_table(self):
        """One prewarm fills the extension entries and tables every
        shard reads: ``cache_stats`` counts them once, as a single
        engine's, and ``invalidate_caches`` empties them."""
        alphabet = [AccessKey("exec", "rsw", server) for server in SERVERS]
        single = AccessControlEngine(make_policy())
        sharded = ShardedEngine(make_policy(), shards=16)
        assert sharded.prewarm(alphabet) == single.prewarm(alphabet) == 4
        entries = single.cache_stats().extension_entries
        assert sharded.cache_stats().extension_entries == entries == 4
        first = sharded._shards[0].engine
        for shard in sharded._shards:
            assert shard.engine._extension_cache is first._extension_cache
        a, b = self._spread(sharded, 2)
        for session in (a, b):
            assert sharded.decide(session, alphabet[0], 1.0, history=None).granted
        assert sharded.cache_stats().extension_entries == entries
        sharded.invalidate_caches()
        assert not first._extension_cache
        assert sharded.cache_stats().extension_entries == 0
        assert sharded.decide(b, alphabet[1], 2.0, history=None).granted
        assert sharded.cache_stats().extension_entries == 1
        sharded.close()
        single.close()

    def test_racing_shards_keep_one_record_per_value(self):
        """Threads on different shards make the same outcomes at the
        same moment, round after round on fresh memos: every decision
        holds the memo's one record of its value."""
        threads_n, rounds_min, budget_s = 6, 3, 3.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        deadline = time.monotonic() + budget_s
        rounds = 0
        try:
            while rounds < rounds_min or time.monotonic() < deadline:
                rounds += 1
                sharded = ShardedEngine(make_policy(count_bound=3), shards=8)
                sessions = self._spread(sharded, threads_n)
                barrier = threading.Barrier(threads_n)
                results: list[list] = [[] for _ in range(threads_n)]
                errors: list[BaseException] = []

                def work(k):
                    try:
                        barrier.wait(timeout=10.0)
                        for i in range(8):
                            access = AccessKey("exec", "rsw", SERVERS[i % 2])
                            decision = sharded.decide(
                                sessions[k], access, float(i + 1),
                                history=None,
                            )
                            if decision.granted:
                                sharded.observe(sessions[k], access)
                            results[k].append(decision)
                    except Exception as error:
                        errors.append(error)

                workers = [
                    threading.Thread(target=work, args=(k,))
                    for k in range(threads_n)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30.0)
                assert not any(worker.is_alive() for worker in workers)
                assert not errors, errors
                decisions = [d for row in results for d in row]
                assert len(decisions) == threads_n * 8
                assert {d.granted for d in decisions} == {True, False}
                records = [c for d in decisions for c in d.provenance.candidates]
                for values in (
                    [d.outcome for d in decisions],
                    [d.provenance for d in decisions],
                    records,
                ):
                    assert len({id(v) for v in values}) == len(set(values))
                memo = sharded._shards[0].engine._memo
                kept = {id(o) for o in memo.outcomes.values()}
                assert {id(d.outcome) for d in decisions} <= kept
                assert len(memo.outcomes) == len({d.outcome for d in decisions})
                sharded.close()
        finally:
            sys.setswitchinterval(interval)


class TestChannelTableStress:
    def test_eight_threads_no_loss_no_duplication(self):
        """8 producer/consumer threads on one ChannelTable: every sent
        value is received exactly once."""
        table = ChannelTable()
        channels = [f"ch{i}" for i in range(5)]
        per_thread = 500
        producers = 4
        consumers = 4
        total = producers * per_thread
        received: list[list[tuple[int, int]]] = [[] for _ in range(consumers)]
        done = threading.Event()
        barrier = threading.Barrier(producers + consumers)

        def produce(thread_id: int) -> None:
            rng = random.Random(thread_id)
            barrier.wait()
            for i in range(per_thread):
                table.get(rng.choice(channels)).send((thread_id, i))

        def consume(slot: int) -> None:
            rng = random.Random(100 + slot)
            barrier.wait()
            while not done.is_set():
                value = table.get(rng.choice(channels)).try_receive()
                if value is not EMPTY:
                    received[slot].append(value)

        threads = [
            threading.Thread(target=produce, args=(t,)) for t in range(producers)
        ] + [threading.Thread(target=consume, args=(s,)) for s in range(consumers)]
        for thread in threads:
            thread.start()
        for thread in threads[:producers]:
            thread.join(timeout=30.0)
        # Let consumers drain the remainder, then stop them.
        deadline = threading.Event()
        for _ in range(200):
            if sum(len(r) for r in received) + sum(
                len(table.get(c)) for c in channels
            ) >= total and all(len(table.get(c)) == 0 for c in channels):
                break
            deadline.wait(0.01)
        done.set()
        for thread in threads[producers:]:
            thread.join(timeout=30.0)

        # Sweep anything left (consumers may stop between emptiness
        # check and done), then assert exactly-once delivery.
        leftovers = []
        for name in channels:
            while True:
                value = table.get(name).try_receive()
                if value is EMPTY:
                    break
                leftovers.append(value)
        everything = [v for row in received for v in row] + leftovers
        assert len(everything) == total
        assert sorted(everything) == sorted(
            (t, i) for t in range(producers) for i in range(per_thread)
        )

    def test_signal_raise_wait_race_never_loses_a_waiter(self):
        """Concurrent add_waiter/raise_signal: every waiter is either
        woken by the raise or rejected because the signal was already
        up — never silently left behind."""
        for round_no in range(50):
            signals = SignalTable()
            outcome: dict[str, object] = {}
            barrier = threading.Barrier(2)

            def waiter() -> None:
                barrier.wait()
                try:
                    signals.add_waiter("go", "agent")
                    outcome["registered"] = True
                except ChannelError:
                    outcome["rejected"] = True

            def raiser() -> None:
                barrier.wait()
                outcome["woken"] = signals.raise_signal("go")

            threads = [
                threading.Thread(target=waiter),
                threading.Thread(target=raiser),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            if outcome.get("registered"):
                # add_waiter won the race, so the signal was not yet up
                # when it registered — the raise (serialised behind the
                # same stripe lock) must have woken it.
                assert outcome["woken"] == ["agent"]
                assert signals.waiters("go") == ()
            else:
                # raise_signal won: sticky signal rejects the waiter.
                assert outcome.get("rejected")
                assert outcome["woken"] == []

    def test_proof_registry_concurrent_record_keeps_chain_dense(self):
        registry = ProofRegistry("obj")
        threads = [
            threading.Thread(
                target=lambda: [
                    registry.record(("exec", "rsw", "s0"), float(i))
                    for i in range(200)
                ]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(registry) == 8 * 200
        assert registry.verify_chain()


class TestProofBatch:
    def make_coalition(self) -> Coalition:
        return Coalition(
            [CoalitionServer(s, [Resource("rsw")]) for s in SERVERS],
            latency=constant_latency(2.0),
        )

    def issue(self, n: int, server: str = "s0"):
        registry = ProofRegistry("obj")
        return [
            registry.record(("exec", "rsw", server), float(i)) for i in range(n)
        ]

    def test_tracks_topology_through_membership_events(self):
        coalition = self.make_coalition()
        batch = ProofBatch(coalition)
        # The batcher follows churn instead of freezing the coalition;
        # founder-time add_server is rejected once it subscribes.
        assert not coalition.frozen
        with pytest.raises(CoalitionError):
            coalition.add_server(CoalitionServer("s9"))
        coalition.join(CoalitionServer("s9", [Resource("rsw")]))
        (proof,) = self.issue(1)
        batch.enqueue("s0", proof, now=0.0)
        batch.flush()
        # The joined server receives propagated proofs like a founder.
        assert coalition.server("s9").knows_proof(proof)

    def test_coalesces_until_flush(self):
        coalition = self.make_coalition()
        batch = ProofBatch(coalition, max_batch=100)
        proofs = self.issue(5)
        for proof in proofs:
            batch.enqueue("s0", proof, now=0.0)
        # Nothing delivered yet; 5 proofs pending per other server.
        assert batch.pending_count() == 5 * (len(SERVERS) - 1)
        assert coalition.server("s1").announced_proof_count() == 0
        delivered = batch.flush()
        assert delivered == 5 * (len(SERVERS) - 1)
        assert batch.pending_count() == 0
        for name in SERVERS[1:]:
            server = coalition.server(name)
            assert server.announced_proof_count() == 5
            assert all(server.knows_proof(p) for p in proofs)
        # One delivery call per destination, not per proof.
        assert batch.stats()["delivery_calls"] == len(SERVERS) - 1
        assert batch.stats()["mean_batch_size"] == 5.0

    def test_latency_aware_flush_due(self):
        coalition = self.make_coalition()
        batch = ProofBatch(coalition, max_batch=100)
        (proof,) = self.issue(1)
        batch.enqueue("s0", proof, now=10.0)
        # Latency is 2.0: nothing is deliverable before t=12.
        assert batch.flush_due(11.9) == 0
        assert batch.pending_count() == 3
        assert batch.flush_due(12.0) == 3
        assert batch.pending_count() == 0
        assert coalition.server("s3").knows_proof(proof)

    def test_overflow_flushes_immediately(self):
        coalition = self.make_coalition()
        batch = ProofBatch(coalition, max_batch=3)
        delivered = 0
        for proof in self.issue(3):
            delivered += batch.enqueue("s0", proof, now=0.0)
        assert delivered == 3 * (len(SERVERS) - 1)
        assert batch.pending_count() == 0
        assert batch.stats()["overflow_flushes"] == len(SERVERS) - 1

    def test_duplicate_announcements_not_double_counted(self):
        coalition = self.make_coalition()
        (proof,) = self.issue(1)
        server = coalition.server("s1")
        assert server.receive_proofs([proof, proof]) == 1
        assert server.receive_proofs([proof]) == 0
        assert server.announced_proof_count() == 1

    def test_unknown_source_rejected(self):
        batch = ProofBatch(self.make_coalition())
        with pytest.raises(ServiceError):
            batch.enqueue("nope", self.issue(1)[0])

    def test_simulation_batched_propagation_delivers_everything(self):
        from repro.agent.naplet import Naplet
        from repro.agent.scheduler import Simulation
        from repro.sral.parser import parse_program

        program_src = " ; ".join(["exec rsw @ s0"] * 8)

        def run(mode):
            coalition = Coalition(
                [CoalitionServer(s, [Resource("rsw")]) for s in SERVERS],
                latency=constant_latency(100.0),
            )
            sim = Simulation(coalition, proof_propagation=mode)
            sim.add_naplet(Naplet("owner", parse_program(program_src)), "s0")
            report = sim.run()
            assert report.all_finished()
            return sim

        eager = run("eager")
        batched = run("batched")
        # Both modes deliver everything: the three non-executing
        # servers each learn all 8 proofs, the source learns none.
        for sim in (eager, batched):
            assert sim.coalition.server("s0").announced_proof_count() == 0
            for name in SERVERS[1:]:
                assert sim.coalition.server(name).announced_proof_count() == 8
        # Eager pays one delivery call per access per destination;
        # batched coalesces — the 100-unit latency window never elapses
        # during the 8-unit run, so everything lands in the end-of-run
        # flush: one call per destination.
        assert eager.proof_batch.stats()["delivery_calls"] == 8 * 3
        assert batched.proof_batch.stats()["delivery_calls"] == 3
        assert batched.proof_batch.stats()["mean_batch_size"] == 8.0


class TestIdDraws:
    """Session and subject ids stay unique while threads authenticate
    through a ``ShardedEngine`` and another thread bulk-opens, and each
    shard's bulk block draws consecutive ids in arrival order.  The
    blocks are small and many, so the authenticating threads' draws
    fall often between two block draws."""

    def test_authenticate_and_bulk_open_draw_unique_ids(self):
        users = [f"u{i}" for i in range(40)]
        policy = make_policy()
        for name in users:
            policy.add_user(name)
            policy.assign_user(name, "r")
        sharded = ShardedEngine(policy, shards=4)
        threads_n, budget_s, rounds_max = 3, 1.5, 5000
        singles: list[list] = [[] for _ in range(threads_n)]
        blocks: list = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def authenticate(k):
            try:
                i = k
                while not stop.is_set():
                    session = sharded.authenticate(users[i % len(users)], 0.0)
                    singles[k].append((session.session_id, session.subject_id))
                    i += threads_n
            except Exception as error:
                errors.append(error)

        def bulk_open():
            try:
                rng = random.Random(7)
                deadline = time.monotonic() + budget_s
                while time.monotonic() < deadline and len(blocks) < rounds_max:
                    names = [rng.choice(users) for _ in range(rng.randint(2, 6))]
                    rows = sharded.open_sessions(names, 0.0, roles=("r",))
                    blocks.append((names, rows))
            except Exception as error:
                errors.append(error)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=authenticate, args=(k,))
                for k in range(threads_n)
            ]
            threads.append(threading.Thread(target=bulk_open))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert blocks and all(singles)
        ids = [pair for made in singles for pair in made]
        for names, rows_by_shard in blocks:
            for shard, rows in rows_by_shard.items():
                handles = [sharded.session_at(shard, int(row)) for row in rows]
                assert [h.subject.user.name for h in handles] == [
                    name for name in names if sharded.shard_index(name) == shard
                ]
                for pairs in (
                    [h.session_id for h in handles],
                    [h.subject_id for h in handles],
                ):
                    seqs = [int(pair.rsplit("-", 1)[1]) for pair in pairs]
                    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
                ids.extend((h.session_id, h.subject_id) for h in handles)
        for column in zip(*ids):
            assert len(set(column)) == len(column)
        sharded.close()


class TestHandleRegistry:
    """Threads materialise, hold and drop handles of shared rows of a
    ``ShardedEngine`` while another thread closes and reopens rows.
    Each store's handle registry changes only under its shard lock: one
    handle per occupancy while it is held, a closed occupancy's held
    handle frozen, and the registry within twice the handles held."""

    def test_handles_stay_one_per_occupancy_under_churn(self):
        shards_n, rows_per_shard, threads_n, hold = 4, 256, 8, 4
        budget_s, passes_min = 1.5, 100
        policy = make_policy()
        for i in range(64):
            policy.add_user(f"u{i}")
            policy.assign_user(f"u{i}", "r")
        sharded = ShardedEngine(policy, shards=shards_n)
        owner: dict[int, str] = {}
        for i in range(64):
            owner.setdefault(sharded.shard_index(f"u{i}"), f"u{i}")
        assert len(owner) == shards_n
        slots = []
        ids = {}  # (shard, row, gen) -> session id
        for shard, name in owner.items():
            (rows,) = sharded.open_sessions(
                [name] * rows_per_shard, 0.0, roles=("r",)
            ).values()
            for row in rows.tolist():
                handle = sharded.session_at(shard, row)
                ids[(shard, row, handle._gen)] = handle.session_id
                slots.append((shard, row))
        stores = [shard.engine._store for shard in sharded._shards]
        # Handles alive at once: each materialiser's held ones and its
        # two in hand, and the churn thread's two.
        bound = max(64, 2 * (threads_n * (hold + 2) + 2))
        stop = threading.Event()
        errors: list[BaseException] = []
        passes = [0] * threads_n
        held: list[list] = [[] for _ in range(threads_n)]
        frozen: list[tuple] = []
        sizes: list[int] = []

        def materialise(k):
            rng = random.Random(100 + k)
            mine = held[k]
            try:
                while not stop.is_set() or passes[k] < passes_min:
                    shard, row = rng.choice(slots)
                    try:
                        first = sharded.session_at(shard, row)
                        mine.append((shard, row, first))
                        if len(mine) > hold:
                            del mine[rng.randrange(len(mine))]
                        again = sharded.session_at(shard, row)
                    except RbacError:  # closed, not yet reopened
                        continue
                    if again._gen == first._gen and again is not first:
                        raise AssertionError(f"two handles of {shard, row}")
                    passes[k] += 1
            except Exception as error:
                errors.append(error)

        def churn():
            rng = random.Random(7)
            t = 0.0
            try:
                while not stop.is_set():
                    t += 1.0
                    shard, row = rng.choice(slots)
                    handle = sharded.session_at(shard, row)
                    before = (handle.session_id, handle.subject_id, handle.start_time)
                    sharded.close_session(handle, t)
                    (reopened,) = sharded.open_sessions(
                        [owner[shard]], t, roles=("r",)
                    )[shard].tolist()
                    if reopened != row:
                        raise AssertionError(f"row {reopened} reopened, not {row}")
                    new = sharded.session_at(shard, row)
                    ids[(shard, row, new._gen)] = new.session_id
                    frozen.append((handle, before))
                    del frozen[:-32]
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=materialise, args=(k,))
                for k in range(threads_n)
            ]
            threads.append(threading.Thread(target=churn))
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + budget_s
            while time.monotonic() < deadline and not errors:
                sizes.extend(len(store._handles) for store in stores)
                time.sleep(0.001)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert min(passes) >= passes_min and len(frozen) > 1
        # Handles of one occupancy held at once are one object, and
        # each reads the identity of the occupancy it was made for,
        # frozen into it if the occupancy has been closed since.
        by_occupancy: dict[tuple, set] = {}
        for shard, row, handle in (entry for mine in held for entry in mine):
            by_occupancy.setdefault((shard, row, handle._gen), set()).add(id(handle))
            assert handle.session_id == ids[(shard, row, handle._gen)]
        assert all(len(handles) == 1 for handles in by_occupancy.values())
        for handle, before in frozen:
            assert not handle._is_open()
            assert (handle.session_id, handle.subject_id, handle.start_time) == before
        sizes.extend(len(store._handles) for store in stores)
        assert max(sizes) <= bound, (max(sizes), bound)
        sharded.close()


class TestStatsHygiene:
    def test_engine_reset_stats_keeps_cache_contents(self):
        engine = AccessControlEngine(make_policy())
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        for i in range(5):
            engine.decide(session, ("exec", "rsw", "s0"), float(i + 1), history=None)
        before = engine.cache_stats()
        assert before.candidate_hits > 0
        engine.reset_stats()
        after = engine.cache_stats()
        assert after.candidate_hits == 0
        assert after.candidate_misses == 0
        assert after.live_hits == 0
        # Contents survive: the next decision is a candidate-cache hit.
        engine.decide(session, ("exec", "rsw", "s0"), 10.0, history=None)
        assert engine.cache_stats().candidate_hits == 1
        assert after.extension_entries == before.extension_entries

    def test_service_reset_stats(self):
        sharded = ShardedEngine(make_policy(), shards=2)
        session = sharded.authenticate("u", 0.0)
        sharded.activate_role(session, "r", 0.0)
        with DecisionService(sharded, workers=2) as service:
            for i in range(4):
                service.submit(session, ("exec", "rsw", "s0"), float(i + 1), history=None)
            assert service.drain(timeout=30.0)
            assert service.service_stats().completed == 4
            service.reset_stats()
            stats = service.service_stats()
            assert stats.completed == 0
            assert stats.granted == 0
            assert stats.submitted == 0
            assert sum(stats.shard_decisions) == 0
            # Still serviceable after the reset.
            future = service.submit(
                session, ("exec", "rsw", "s0"), 100.0, history=None
            )
            assert future.result().granted in (True, False)
            assert service.drain(timeout=30.0)
            assert service.service_stats().completed == 1

    def test_service_rejects_after_shutdown(self):
        sharded = ShardedEngine(make_policy(), shards=2)
        session = sharded.authenticate("u", 0.0)
        sharded.activate_role(session, "r", 0.0)
        service = DecisionService(sharded, workers=1)
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(session, ("exec", "rsw", "s0"), 1.0)
