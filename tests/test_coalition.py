"""Tests for the coalition substrate: clocks, resources, proofs,
channels, servers and the coalition network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coalition.channels import EMPTY, Channel, ChannelTable, SignalTable
from repro.coalition.clock import ServerClock, make_clocks
from repro.coalition.network import Coalition, constant_latency, uniform_latency
from repro.coalition.proofs import GENESIS_DIGEST, ExecutionProof, ProofRegistry
from repro.coalition.resource import Resource, ResourceRegistry
from repro.coalition.server import CoalitionServer
from repro.errors import ChannelError, CoalitionError, MigrationError
from repro.traces.trace import AccessKey


class TestClocks:
    def test_identity_clock(self):
        clock = ServerClock()
        assert clock.local_time(42.0) == 42.0

    def test_skew_and_drift(self):
        clock = ServerClock(skew=5.0, drift=0.01)
        assert clock.local_time(100.0) == pytest.approx(106.0)
        assert clock.local_duration(100.0) == pytest.approx(101.0)

    def test_round_trip(self):
        clock = ServerClock(skew=-3.0, drift=1e-4)
        for t in (0.0, 17.5, 1e6):
            assert clock.global_time(clock.local_time(t)) == pytest.approx(t)

    def test_pathological_drift_rejected(self):
        with pytest.raises(CoalitionError):
            ServerClock(drift=-1.0)

    def test_make_clocks_deterministic(self):
        a = make_clocks(5, seed=7)
        b = make_clocks(5, seed=7)
        assert a == b
        assert len(a) == 5
        assert all(abs(c.skew) <= 5.0 and abs(c.drift) <= 1e-4 for c in a)

    def test_make_clocks_negative_count(self):
        with pytest.raises(CoalitionError):
            make_clocks(-1)


class TestResources:
    def test_resource_defaults(self):
        r = Resource("pkg")
        assert r.supports("read") and r.supports("exec")
        assert not r.supports("delete")

    def test_resource_validation(self):
        with pytest.raises(CoalitionError):
            Resource("")
        with pytest.raises(CoalitionError):
            Resource("x", operations=frozenset())

    def test_digest_is_sha256(self):
        import hashlib

        r = Resource("mod", content=b"module bytes")
        assert r.digest() == hashlib.sha256(b"module bytes").hexdigest()

    def test_registry(self):
        reg = ResourceRegistry([Resource("a"), Resource("b")])
        assert "a" in reg and "c" not in reg
        assert reg.get("b").name == "b"
        assert reg.names() == ["a", "b"]
        assert len(reg) == 2
        with pytest.raises(CoalitionError):
            reg.add(Resource("a"))
        with pytest.raises(CoalitionError):
            reg.get("zzz")


class TestProofs:
    A = AccessKey("read", "r1", "s1")
    B = AccessKey("write", "r2", "s2")

    def test_record_and_prove(self):
        reg = ProofRegistry("naplet-1")
        assert not reg.proved(self.A)
        proof = reg.record(self.A, 10.0)
        assert reg.proved(self.A)
        assert not reg.proved(self.B)
        assert proof.seq == 0
        assert proof.prev_digest == GENESIS_DIGEST

    def test_trace_reflects_order(self):
        reg = ProofRegistry("n")
        reg.record(self.A, 1.0)
        reg.record(self.B, 2.0)
        reg.record(self.A, 3.0)
        assert reg.trace() == (self.A, self.B, self.A)

    def test_chain_verification(self):
        reg = ProofRegistry("n")
        for t in range(5):
            reg.record(self.A, float(t))
        assert reg.verify_chain()

    def test_tampered_proof_detected(self):
        reg = ProofRegistry("n")
        reg.record(self.A, 1.0)
        good = reg.proofs()[0]
        tampered = ExecutionProof(
            good.object_id, self.B, good.local_time, good.seq,
            good.prev_digest, good.digest,
        )
        assert not tampered.is_consistent()

    def test_extend_verified_accepts_valid_chain(self):
        source = ProofRegistry("n")
        source.record(self.A, 1.0)
        source.record(self.B, 2.0)
        sink = ProofRegistry("n")
        sink.extend_verified(source.proofs())
        assert sink.trace() == source.trace()
        assert sink.verify_chain()

    def test_extend_verified_rejects_gap(self):
        source = ProofRegistry("n")
        source.record(self.A, 1.0)
        source.record(self.B, 2.0)
        sink = ProofRegistry("n")
        with pytest.raises(CoalitionError):
            sink.extend_verified(source.proofs()[1:])  # missing seq 0

    def test_extend_verified_rejects_reorder(self):
        source = ProofRegistry("n")
        source.record(self.A, 1.0)
        source.record(self.B, 2.0)
        p0, p1 = source.proofs()
        sink = ProofRegistry("n")
        with pytest.raises(CoalitionError):
            sink.extend_verified([p1, p0])

    def test_extend_verified_rejects_wrong_object(self):
        source = ProofRegistry("other")
        source.record(self.A, 1.0)
        sink = ProofRegistry("n")
        with pytest.raises(CoalitionError):
            sink.extend_verified(source.proofs())

    @given(st.lists(st.sampled_from([A, B]), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_chain_always_verifies_after_recording(self, accesses):
        reg = ProofRegistry("n")
        for index, access in enumerate(accesses):
            reg.record(access, float(index))
        assert reg.verify_chain()
        assert reg.trace() == tuple(accesses)


class TestChannels:
    def test_fifo_order(self):
        ch = Channel("c")
        ch.send(1)
        ch.send(2)
        assert ch.try_receive() == 1
        assert ch.try_receive() == 2
        assert ch.try_receive() is EMPTY

    def test_none_payload_distinct_from_empty(self):
        ch = Channel("c")
        ch.send(None)
        assert ch.try_receive() is None
        assert ch.try_receive() is EMPTY

    def test_send_wakes_waiters(self):
        ch = Channel("c")
        ch.add_waiter("agent-1")
        ch.add_waiter("agent-2")
        woken = ch.send(99)
        assert woken == ["agent-1", "agent-2"]
        assert ch.waiters() == ()

    def test_duplicate_waiter_rejected(self):
        ch = Channel("c")
        ch.add_waiter("a")
        with pytest.raises(ChannelError):
            ch.add_waiter("a")

    def test_channel_table_creates_on_demand(self):
        table = ChannelTable()
        assert "x" not in table
        ch = table.get("x")
        assert table.get("x") is ch
        assert table.names() == ["x"]


class TestSignals:
    def test_signal_then_wait_passes(self):
        sig = SignalTable()
        assert sig.raise_signal("e") == []
        assert sig.is_raised("e")

    def test_wait_then_signal_wakes(self):
        sig = SignalTable()
        sig.add_waiter("e", "agent-1")
        assert sig.waiters("e") == ("agent-1",)
        woken = sig.raise_signal("e")
        assert woken == ["agent-1"]
        assert sig.waiters("e") == ()

    def test_signals_are_sticky(self):
        sig = SignalTable()
        sig.raise_signal("e")
        with pytest.raises(ChannelError):
            sig.add_waiter("e", "a")  # no need to wait anymore

    def test_pending_events(self):
        sig = SignalTable()
        sig.add_waiter("x", "a")
        sig.add_waiter("y", "b")
        sig.raise_signal("x")
        assert sig.pending_events() == ["y"]


class TestServer:
    def make_server(self):
        return CoalitionServer(
            "s1",
            resources=[Resource("db"), Resource("mod", content=b"bits")],
            clock=ServerClock(skew=10.0),
        )

    def test_execute_access_issues_proof(self):
        server = self.make_server()
        registry = ProofRegistry("n")
        outcome = server.execute_access(registry, "read", "db", global_time=5.0)
        assert outcome.proof.access == AccessKey("read", "db", "s1")
        assert outcome.proof.local_time == pytest.approx(15.0)  # skewed
        assert registry.proved(("read", "db", "s1"))
        assert server.executed_accesses == 1
        assert server.resources.get("db").access_count == 1

    def test_exec_returns_digest(self):
        server = self.make_server()
        registry = ProofRegistry("n")
        outcome = server.execute_access(registry, "exec", "mod", 0.0)
        assert outcome.value == Resource("mod", content=b"bits").digest()

    def test_read_returns_content(self):
        server = self.make_server()
        outcome = server.execute_access(ProofRegistry("n"), "read", "mod", 0.0)
        assert outcome.value == b"bits"

    def test_unknown_resource(self):
        with pytest.raises(CoalitionError):
            self.make_server().execute_access(ProofRegistry("n"), "read", "zzz", 0.0)

    def test_unsupported_operation(self):
        server = CoalitionServer("s", [Resource("r", operations=frozenset({"read"}))])
        with pytest.raises(CoalitionError):
            server.execute_access(ProofRegistry("n"), "write", "r", 0.0)


class TestCoalition:
    def make_coalition(self):
        return Coalition(
            [CoalitionServer("s1"), CoalitionServer("s2"), CoalitionServer("s3")],
            latency=uniform_latency({("s1", "s2"): 2.0}, default=5.0),
        )

    def test_membership(self):
        c = self.make_coalition()
        assert len(c) == 3
        assert "s1" in c and "s9" not in c
        assert c.server_names() == ["s1", "s2", "s3"]
        assert c.server("s2").name == "s2"
        with pytest.raises(CoalitionError):
            c.server("s9")
        with pytest.raises(CoalitionError):
            c.add_server(CoalitionServer("s1"))

    def test_latency_model(self):
        c = self.make_coalition()
        assert c.migration_latency("s1", "s2") == 2.0
        assert c.migration_latency("s2", "s1") == 2.0  # symmetric fallback
        assert c.migration_latency("s1", "s3") == 5.0
        assert c.migration_latency("s1", "s1") == 0.0

    def test_unknown_endpoints(self):
        c = self.make_coalition()
        with pytest.raises(MigrationError):
            c.migration_latency("s1", "nope")
        with pytest.raises(MigrationError):
            c.migration_latency("nope", "s1")

    def test_constant_latency_validation(self):
        with pytest.raises(CoalitionError):
            constant_latency(-1.0)
        model = constant_latency(3.0)
        assert model("a", "b") == 3.0
        assert model("a", "a") == 0.0

    def test_shared_channels_and_signals(self):
        c = self.make_coalition()
        c.channels.get("ch").send(5)
        assert c.channels.get("ch").try_receive() == 5
        c.signals.raise_signal("done")
        assert c.signals.is_raised("done")

    def test_uniform_latency_negative_default_rejected(self):
        # Regression: a negative default used to be accepted at
        # construction and only explode inside migration_latency.
        with pytest.raises(CoalitionError):
            uniform_latency({("s1", "s2"): 2.0}, default=-1.0)

    def test_uniform_latency_negative_table_entry_rejected(self):
        with pytest.raises(CoalitionError):
            uniform_latency({("s1", "s2"): -2.0})

    def test_freeze_makes_membership_immutable(self):
        c = self.make_coalition()
        assert not c.frozen
        c.freeze()
        assert c.frozen
        with pytest.raises(CoalitionError):
            c.add_server(CoalitionServer("s4"))
        # Idempotent, and existing servers stay reachable.
        c.freeze()
        assert c.server("s1").name == "s1"
        assert c.server_names() == ["s1", "s2", "s3"]

    def test_constant_latency_error_names_offending_value(self):
        # Parity with uniform_latency: the rejected value appears in
        # the message so a misconfigured deployment is self-diagnosing.
        with pytest.raises(CoalitionError, match=r"got -2\.5"):
            constant_latency(-2.5)

    def test_uniform_latency_directed_entry_wins_over_reverse(self):
        # Lookup precedence is pinned: an exact (src, dst) entry beats
        # the symmetric (dst, src) fallback, which beats the default.
        model = uniform_latency(
            {("s1", "s2"): 5.0, ("s2", "s1"): 7.0, ("s3", "s1"): 2.0},
            default=1.0,
        )
        assert model("s1", "s2") == 5.0   # directed entry
        assert model("s2", "s1") == 7.0   # its own directed entry
        assert model("s1", "s3") == 2.0   # reverse fallback
        assert model("s2", "s3") == 1.0   # default
        assert model("s3", "s3") == 0.0   # self is always free

    def test_frozen_rejection_names_server(self):
        c = self.make_coalition()
        c.freeze()
        with pytest.raises(CoalitionError, match="frozen.*'s9'"):
            c.add_server(CoalitionServer("s9"))

    def test_proof_batch_subscribes_instead_of_freezing(self):
        from repro.service.batching import ProofBatch

        c = self.make_coalition()
        batch = ProofBatch(c)
        # The batcher no longer pins the topology: it follows churn
        # through membership events instead.
        assert not c.frozen
        # But founder-time add_server is off the table once a listener
        # watches the membership — the old freeze-then-mutate footgun
        # (slipping a server past a component that cached the topology)
        # now raises instead of silently desynchronising.
        with pytest.raises(CoalitionError, match="live.*join"):
            c.add_server(CoalitionServer("s9"))
        # join() is the supported path, and the batcher tracks it.
        c.join(CoalitionServer("s9"))
        assert "s9" in batch._pending

    @pytest.mark.parametrize("component", ["proof-batch", "service"])
    def test_closing_a_listener_unsubscribes_it(self, component):
        """A listener leaves when its component closes (a proof batcher
        by ``close()``, a decision service by ``shutdown()``), not when
        it is collected: founder-time add_server works again at epoch 0
        while the component is still referenced, and a later join no
        longer reaches it."""
        from repro.rbac.policy import Policy
        from repro.service import DecisionService, ShardedEngine
        from repro.service.batching import ProofBatch

        c = self.make_coalition()
        if component == "proof-batch":
            listener = ProofBatch(c)
            close = listener.close
        else:
            listener = DecisionService(
                ShardedEngine(Policy(), shards=1), workers=1, coalition=c
            )
            close = listener.shutdown
        with pytest.raises(CoalitionError, match="live.*join"):
            c.add_server(CoalitionServer("s8"))
        close()
        close()
        c.add_server(CoalitionServer("s8"))
        assert c.membership_epoch == 0
        c.join(CoalitionServer("s9"))
        assert c.membership_epoch == 1
        assert listener.membership_events == 0

    def test_freeze_pins_dynamic_membership(self):
        c = self.make_coalition()
        c.freeze()
        with pytest.raises(CoalitionError):
            c.join(CoalitionServer("s9"))
        with pytest.raises(CoalitionError):
            c.leave("s1")
        with pytest.raises(CoalitionError):
            c.evict("s1")
        assert c.membership_epoch == 0

    def test_membership_epoch_read_api(self):
        c = self.make_coalition()
        assert c.membership_epoch == 0
        e1 = c.join(CoalitionServer("s4"))
        assert e1 == 1 == c.membership_epoch
        e2 = c.leave("s2")
        assert e2 == 2 == c.membership_epoch
        assert c.evicted_epoch("s2") is None  # graceful: proofs stay valid
        e3 = c.evict("s3")
        assert e3 == 3 == c.membership_epoch
        assert c.evicted_epoch("s3") == 3
        assert c.evictions_table() == {"s3": 3}
        assert c.is_admissible("s1")
        assert c.is_admissible("s2")
        assert not c.is_admissible("s3")
