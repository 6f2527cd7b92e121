"""Process-isolated shard endpoints: RPC surface, death taxonomy, drain."""

import os
import pickle
import signal
import time

import pytest

from repro.core import QueryTimeout, Request
from repro.reliability.faults import Fault, InjectedFault, inject_faults
from repro.reliability.wal import DurableDynamicRing, verify_dynamic_dir
from repro.serving import (
    CircuitBreaker,
    EndpointDown,
    InProcessEndpoint,
    ProcessEndpoint,
    RetryPolicy,
    ShardCoordinator,
    ShardProcessDied,
    ShardSupervisor,
    ShardedRingIndex,
)
from repro.serving.sharding import _memory_factory
from tests.serving.conftest import WORKLOAD, random_graph

pytestmark = pytest.mark.serving


def _make_endpoint(directory, graph, **kwargs):
    DurableDynamicRing.create(
        str(directory), graph, buffer_threshold=256
    ).close(checkpoint=True)
    kwargs.setdefault("store_options", {"buffer_threshold": 256})
    kwargs.setdefault("broker_options", {"workers": 1})
    return ProcessEndpoint(str(directory), **kwargs)


@pytest.fixture(scope="module")
def small_graph():
    return random_graph(n_triples=200, seed=21)


@pytest.fixture(scope="module")
def endpoint(tmp_path_factory, small_graph):
    ep = _make_endpoint(tmp_path_factory.mktemp("proc-ep"), small_graph)
    yield ep
    ep.shutdown(checkpoint=False)


@pytest.fixture(scope="module")
def reference(small_graph):
    ep = InProcessEndpoint(_memory_factory(small_graph, 256), {"workers": 1})
    yield ep
    ep.shutdown()


class TestProcessEndpointRPC:
    def test_evaluate_matches_in_process(self, endpoint, reference):
        for bgp in WORKLOAD:
            got = endpoint.evaluate(bgp, timeout=30.0)
            want = reference.evaluate(bgp, timeout=30.0)
            assert list(got) == list(want)
            assert not got.truncated

    def test_result_carries_ops_budget(self, endpoint):
        result = endpoint.evaluate(WORKLOAD[0], timeout=30.0)
        assert result.budget is not None
        assert result.budget.ops > 0

    def test_health_stats_and_introspection(self, endpoint, small_graph):
        assert endpoint.alive
        assert endpoint.health_check()
        assert endpoint.n_triples == small_graph.n_triples
        assert endpoint.engine is None  # the store lives in the child
        stats = endpoint.stats()
        assert stats["pid"] == endpoint.pid
        assert stats["transport"]["deaths"] == 0
        assert "broker" in stats

    def test_insert_delete_roundtrip(self, endpoint, small_graph):
        triple = (1, 0, 2)
        existing = tuple(map(int, small_graph.triples[0]))
        base = endpoint.n_triples
        if triple == existing:  # pragma: no cover - generator collision
            triple = (1, 1, 2)
        fresh = triple not in {tuple(map(int, t)) for t in endpoint.dump()}
        assert endpoint.insert(*triple) is fresh
        assert endpoint.insert(*triple) is False  # duplicate
        assert endpoint.delete(*triple) is True
        assert endpoint.delete(*triple) is False  # absent
        assert endpoint.n_triples == base

    def test_only_a_request_crosses_the_pipe(self, endpoint, monkeypatch):
        sent = []
        request_rpc = endpoint._request

        def recording(kind, payload, transform=None):
            sent.append(payload)
            return request_rpc(kind, payload, transform)

        monkeypatch.setattr(endpoint, "_request", recording)
        with pytest.raises(TypeError, match="bogus"):
            endpoint.submit(WORKLOAD[0], bogus=1)
        assert sent == [], "an unknown field must fail before the pipe"
        result = endpoint.evaluate(WORKLOAD[0], limit=2, timeout=30.0)
        assert len(result) == 2 and not result.truncated
        [(method, args, kwargs)] = sent
        assert (method, kwargs) == ("submit", {})
        [request] = args
        assert isinstance(request, Request)
        revived = pickle.loads(pickle.dumps(request))
        assert revived.bgp.patterns == request.bgp.patterns
        assert revived._replace(bgp=None) == request._replace(bgp=None)

    def test_child_side_timeout_is_typed(self, endpoint):
        with pytest.raises(QueryTimeout):
            endpoint.evaluate(WORKLOAD[3], timeout=1e-9)
        assert endpoint.alive  # a timeout is not a death


class TestDeathAndRecovery:
    def test_kill_fails_pending_with_typed_error(self, tmp_path, small_graph):
        ep = _make_endpoint(tmp_path / "s", small_graph)
        try:
            acked = (3, 0, 4)
            inserted = ep.insert(*acked)
            future = ep.submit(WORKLOAD[2], timeout=30.0)
            ep.kill()  # genuine SIGKILL
            with pytest.raises(EndpointDown):
                future.result(timeout=10.0)
            # Respawn replays the WAL: the acknowledged write survives.
            ep.restart()
            assert ep.health_check()
            if inserted:
                assert acked in {tuple(t) for t in ep.dump()}
            assert ep.stats()["transport"]["deaths"] >= 1
        finally:
            ep.shutdown(checkpoint=False)

    def test_sigterm_drains_in_flight_and_exits_zero(
        self, tmp_path, small_graph
    ):
        ep = _make_endpoint(tmp_path / "s", small_graph)
        try:
            expect = list(ep.evaluate(WORKLOAD[0], timeout=30.0))
            futures = [ep.submit(WORKLOAD[0], timeout=30.0) for _ in range(3)]
            time.sleep(0.3)  # let the child recv the requests
            os.kill(ep.pid, signal.SIGTERM)
            for future in futures:
                assert list(future.result(timeout=30.0)) == expect
            deadline = time.monotonic() + 30.0
            while ep.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert ep.exitcode == 0
            report = verify_dynamic_dir(ep.directory)
            assert report["n_triples"] == small_graph.n_triples
        finally:
            ep.shutdown(checkpoint=False)

    def test_orderly_shutdown_checkpoints_and_exits_zero(
        self, tmp_path, small_graph
    ):
        ep = _make_endpoint(tmp_path / "s", small_graph)
        ep.insert(5, 1, 6)
        ep.shutdown(checkpoint=True)
        assert ep.exitcode == 0
        report = verify_dynamic_dir(ep.directory)
        assert report["n_triples"] == small_graph.n_triples + 1

    def test_spawn_fault_site_counts_and_recovers(self, tmp_path, small_graph):
        ep = _make_endpoint(tmp_path / "s", small_graph)
        try:
            ep.kill()
            fault = Fault("proc.spawn", probability=1.0, error=InjectedFault)
            with inject_faults(fault, seed=0):
                with pytest.raises(ShardProcessDied):
                    ep.restart()
            assert fault.fired == 1
            assert ep.stats()["transport"]["spawn_failures"] >= 1
            assert not ep.alive
            ep.restart()  # unfaulted: respawn succeeds
            assert ep.alive and ep.health_check()
        finally:
            ep.shutdown(checkpoint=False)

    def test_heartbeat_fault_site(self, tmp_path, small_graph):
        ep = _make_endpoint(tmp_path / "s", small_graph)
        try:
            fault = Fault(
                "proc.heartbeat", probability=1.0, error=InjectedFault
            )
            with inject_faults(fault, seed=0):
                assert ep.health_check() is False
            assert fault.fired == 1
            assert ep.stats()["transport"]["heartbeat_failures"] >= 1
            assert ep.health_check() is True  # cleared
        finally:
            ep.shutdown(checkpoint=False)


class TestProcessSharding:
    def test_coordinator_over_process_replicas(self, tmp_path):
        graph = random_graph(seed=23)
        reference = ShardedRingIndex.from_graph(graph, 2)
        ref_coord = ShardCoordinator(reference)
        try:
            expected = {
                i: list(ref_coord.evaluate(bgp, timeout=60.0))
                for i, bgp in enumerate(WORKLOAD)
            }
        finally:
            reference.shutdown()

        shards = ShardedRingIndex.create_durable(
            tmp_path / "cluster",
            graph,
            2,
            replicas=2,
            processes=True,
            broker_options={"workers": 1},
            buffer_threshold=256,
        )
        coord = ShardCoordinator(
            shards,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.005, seed=0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=0.05
            ),
            shard_timeout=30.0,
        )
        supervisor = ShardSupervisor(shards, interval=0.01)
        try:
            for i, bgp in enumerate(WORKLOAD):
                assert list(coord.evaluate(bgp, timeout=60.0)) == expected[i]

            # Genuine SIGKILL of shard 0's primary process: the answer
            # must stay complete and byte-identical via failover, with
            # the report naming the shard.
            victim = shards.endpoints[0]
            os.kill(victim.replicas[victim.primary].pid, signal.SIGKILL)
            result = coord.evaluate(WORKLOAD[2], partial=True, timeout=60.0)
            assert list(result) == expected[2]
            assert result.shards.complete
            assert not result.truncated
            assert victim.failovers >= 1

            # The supervisor respawns the dead replica through WAL
            # recovery, and the set catches it up.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                supervisor.sweep()
                if all(r.alive for r in victim.replicas):
                    break
                time.sleep(0.05)
            assert all(r.alive for r in victim.replicas)
            assert not any(victim.stats()["dirty"])
            again = coord.evaluate(WORKLOAD[2], timeout=60.0)
            assert list(again) == expected[2]
        finally:
            shards.shutdown()

    def test_manifest_roundtrip_defaults_to_process_transport(self, tmp_path):
        graph = random_graph(n_triples=120, seed=29)
        shards = ShardedRingIndex.create_durable(
            tmp_path / "m",
            graph,
            2,
            replicas=1,
            processes=True,
            broker_options={"workers": 1},
            buffer_threshold=256,
        )
        shards.shutdown()
        recovered = ShardedRingIndex.recover(
            tmp_path / "m",
            broker_options={"workers": 1},
            buffer_threshold=256,
        )
        try:
            assert all(
                isinstance(ep, ProcessEndpoint) for ep in recovered.endpoints
            )
            assert recovered.n_triples == graph.n_triples
        finally:
            recovered.shutdown()
