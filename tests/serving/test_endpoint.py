"""Endpoint lifecycle: the contract every transport keeps (kill,
restart, incarnation, dump, stats), then the in-process specifics."""

import numpy as np
import pytest

from repro.core.dynamic import DynamicRingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.reliability.wal import DurableDynamicRing
from repro.serving import ProcessEndpoint, ReplicaSet
from repro.serving.endpoint import EndpointDown, EngineEndpoint, InProcessEndpoint

pytestmark = pytest.mark.serving

X, Y, Z = Var("x"), Var("y"), Var("z")
SCAN = BasicGraphPattern([TriplePattern(X, Y, Z)])


BROKER = {"maintenance_interval": None}


def _graph():
    return Graph(
        np.array([[1, 0, 2], [2, 1, 3]], dtype=np.int64),
        n_nodes=10,
        n_predicates=2,
    )


def factory():
    return DynamicRingIndex(_graph(), buffer_threshold=16, auto_compact=False)


@pytest.fixture
def endpoint():
    ep = InProcessEndpoint(factory, BROKER)
    yield ep
    ep.shutdown()


@pytest.fixture(params=["inproc", "process", "replicas"])
def any_endpoint(request, tmp_path):
    if request.param == "inproc":
        ep = InProcessEndpoint(factory, BROKER)
    elif request.param == "process":
        DurableDynamicRing.create(
            tmp_path, _graph(), buffer_threshold=16
        ).close(checkpoint=True)
        ep = ProcessEndpoint(
            tmp_path, store_options={"buffer_threshold": 16}, broker_options=BROKER
        )
    else:
        ep = ReplicaSet([InProcessEndpoint(factory, BROKER) for _ in range(2)])
    yield ep
    ep.shutdown(checkpoint=False)


def _kill(ep):
    """Crash every member (a set's own ``kill`` crashes only one)."""
    for member in getattr(ep, "replicas", [ep]):
        member.kill()


def _per_member(value):
    return tuple(value) if isinstance(value, (tuple, list)) else (value,)


class TestContract:
    """What a shard's endpoint promises, whichever transport serves it."""

    def test_kill_then_submit_raises_endpoint_down(self, any_endpoint):
        _kill(any_endpoint)
        assert not any_endpoint.alive
        with pytest.raises(EndpointDown):
            any_endpoint.submit(SCAN, timeout=5.0).result(timeout=5.0)
        with pytest.raises(EndpointDown):
            any_endpoint.insert(1, 0, 5)

    def test_restart_bumps_the_incarnation_exactly_once(self, any_endpoint):
        before = _per_member(any_endpoint.incarnation)
        _kill(any_endpoint)
        any_endpoint.restart()
        after = _per_member(any_endpoint.incarnation)
        assert after == tuple(i + 1 for i in before)
        any_endpoint.restart()  # every member is running again: no churn
        assert _per_member(any_endpoint.incarnation) == after

    def test_restart_while_alive_is_a_no_op(self, any_endpoint):
        before = any_endpoint.incarnation
        any_endpoint.restart()
        assert any_endpoint.incarnation == before, (
            "restarting a live shard must not churn"
        )
        assert any_endpoint.alive

    def test_dump_and_cache_generation_round_trip(self, any_endpoint):
        base = set(any_endpoint.dump())
        assert base == {(1, 0, 2), (2, 1, 3)}
        generation = any_endpoint.cache_generation()
        assert any_endpoint.insert(7, 1, 8) is True
        assert set(any_endpoint.dump()) == base | {(7, 1, 8)}
        assert any_endpoint.cache_generation() != generation
        assert any_endpoint.delete(7, 1, 8) is True
        assert set(any_endpoint.dump()) == base

    def test_stats_report_the_lifecycle(self, any_endpoint):
        stats = any_endpoint.stats()
        assert stats["alive"] is True
        assert stats["incarnation"] == any_endpoint.incarnation
        assert set(_per_member(stats["restarts"])) == {0}
        _kill(any_endpoint)
        any_endpoint.restart()
        # A process shard's child is a fresh endpoint at incarnation 0:
        # the parent's lifecycle keys must win over the child's.
        stats = any_endpoint.stats()
        assert stats["incarnation"] == any_endpoint.incarnation
        assert set(_per_member(stats["restarts"])) == {1}


class TestLifecycle:
    def test_satisfies_the_protocol(self, endpoint):
        assert isinstance(endpoint, EngineEndpoint)

    def test_submit_evaluates_through_the_broker(self, endpoint):
        rows = endpoint.submit(SCAN, timeout=5.0).result(timeout=5.0)
        assert len(rows) == 2

    def test_restart_bumps_incarnation_and_serves_again(self, endpoint):
        endpoint.kill()
        endpoint.restart()
        assert endpoint.alive
        rows = endpoint.submit(SCAN, timeout=5.0).result(timeout=5.0)
        assert len(rows) == 2

    def test_memory_engine_restart_loses_post_construction_writes(self, endpoint):
        # The stated non-durable trade-off: the factory rebuilds the
        # initial partition, not writes applied since.
        endpoint.insert(7, 1, 8)
        assert endpoint.stats()["n_triples"] == 3
        endpoint.kill()
        endpoint.restart()
        assert endpoint.stats()["n_triples"] == 2

    def test_health_check_tracks_liveness(self, endpoint):
        assert endpoint.health_check()
        endpoint.kill()
        assert not endpoint.health_check()

    def test_stats_shape(self, endpoint):
        stats = endpoint.stats()
        assert stats["alive"] is True
        assert stats["incarnation"] == 0
        assert stats["restarts"] == 0
        assert stats["n_triples"] == 2
        assert "broker" in stats
        endpoint.kill()
        down = endpoint.stats()
        assert down["alive"] is False
        assert "broker" not in down
