"""ReplicaSet semantics: routing, failover, staleness tracking, catch-up."""

from concurrent.futures import Future

import pytest

from repro.reliability.faults import Fault, InjectedFault, inject_faults
from repro.serving import (
    EndpointDown,
    InProcessEndpoint,
    ReplicaSet,
    ShardCoordinator,
    ShardedRingIndex,
)
from repro.serving.sharding import _memory_factory
from tests.serving.conftest import WORKLOAD, random_graph

pytestmark = pytest.mark.serving


def make_set(graph, n=2):
    return ReplicaSet(
        [
            InProcessEndpoint(_memory_factory(graph, 256), {"workers": 1})
            for _ in range(n)
        ]
    )


@pytest.fixture
def graph():
    return random_graph(n_triples=200, seed=31)


@pytest.fixture
def reference(graph):
    ep = InProcessEndpoint(_memory_factory(graph, 256), {"workers": 1})
    yield ep
    ep.shutdown()


class _ScriptedEndpoint:
    """An endpoint whose submitted future fails *after* dispatch —
    exercises the mid-flight failover path a real process death takes."""

    def __init__(self, error):
        self.error = error
        self.alive = True
        self.incarnation = 0
        self.submissions = 0

    def submit(self, query, **kwargs):
        self.submissions += 1
        future = Future()
        self.alive = False  # died while the call was in flight
        future.set_exception(self.error)
        return future

    def health_check(self):
        return self.alive

    def stats(self):
        return {"alive": self.alive}

    def kill(self):
        self.alive = False

    def shutdown(self, checkpoint=True):
        self.alive = False


class TestRouting:
    def test_primary_answers_without_failover(self, graph, reference):
        rs = make_set(graph)
        try:
            want = list(reference.evaluate(WORKLOAD[0], timeout=30.0))
            assert list(rs.evaluate(WORKLOAD[0], timeout=30.0)) == want
            assert rs.failovers == 0
            assert rs.primary == 0
        finally:
            rs.shutdown()

    def test_pre_dead_primary_promotes_and_counts(self, graph, reference):
        rs = make_set(graph)
        try:
            rs.kill()  # kills the primary by default
            want = list(reference.evaluate(WORKLOAD[1], timeout=30.0))
            assert list(rs.evaluate(WORKLOAD[1], timeout=30.0)) == want
            assert rs.failovers == 1
            assert rs.primary == 1
        finally:
            rs.shutdown()

    def test_mid_flight_death_fails_over(self, graph, reference):
        healthy = InProcessEndpoint(_memory_factory(graph, 256), {"workers": 1})
        scripted = _ScriptedEndpoint(EndpointDown("process died mid-call"))
        rs = ReplicaSet([scripted, healthy])
        try:
            want = list(reference.evaluate(WORKLOAD[0], timeout=30.0))
            assert list(rs.evaluate(WORKLOAD[0], timeout=30.0)) == want
            assert scripted.submissions == 1
            assert rs.failovers == 1
            assert rs.primary == 1
        finally:
            healthy.shutdown()

    def test_typed_query_errors_do_not_fail_over(self, graph):
        scripted = _ScriptedEndpoint(ValueError("bad query"))
        scripted_alive = _ScriptedEndpoint(ValueError("unused"))
        rs = ReplicaSet([scripted, scripted_alive])
        with pytest.raises(ValueError):
            rs.evaluate(WORKLOAD[0])
        assert rs.failovers == 0
        assert scripted_alive.submissions == 0

    def test_all_dead_raises_endpoint_down(self, graph):
        rs = make_set(graph)
        try:
            rs.kill(0)
            rs.kill(1)
            assert not rs.alive
            with pytest.raises(EndpointDown):
                rs.evaluate(WORKLOAD[0], timeout=5.0)
        finally:
            rs.shutdown()


class TestWritesAndRepair:
    def test_write_fans_out_to_all_replicas(self, graph):
        rs = make_set(graph)
        try:
            assert rs.insert(2, 1, 3) in (True, False)
            dumps = [set(r.dump()) for r in rs.replicas]
            assert dumps[0] == dumps[1]
            assert (2, 1, 3) in dumps[0]
        finally:
            rs.shutdown()

    def test_missed_write_marks_dirty_and_repair_catches_up(self, graph):
        rs = make_set(graph)
        try:
            rs.kill(1)
            rs.insert(4, 0, 5)
            assert rs.stats()["write_misses"] >= 1
            assert rs.stats()["dirty"][1] is True
            rs.restart()
            assert rs.replicas[1].incarnation == 1
            assert rs.stats()["dirty"][1] is False
            assert rs.stats()["catch_ups"] >= 1
            assert set(rs.replicas[0].dump()) == set(rs.replicas[1].dump())
            assert (4, 0, 5) in set(rs.replicas[1].dump())
        finally:
            rs.shutdown()

    def test_dirty_replica_excluded_from_reads(self, graph, reference):
        rs = make_set(graph)
        try:
            rs.kill(0)
            rs.insert(6, 1, 7)  # only replica 1 takes it; 0 stays dirty
            reference.insert(6, 1, 7)
            rs.restart()
            want = list(reference.evaluate(WORKLOAD[1], timeout=30.0))
            assert list(rs.evaluate(WORKLOAD[1], timeout=30.0)) == want
        finally:
            rs.shutdown()

    def test_member_restarted_directly_is_stale_until_caught_up(self, graph):
        rs = make_set(graph)
        try:
            rs.insert(8, 1, 9)
            rs.kill(1)
            rs.replicas[1].restart()  # in-memory: back without the write
            assert rs.stats()["dirty"] == [False, True]
            rs.kill(0)
            assert not rs.alive, "a stale replica must not answer"
            with pytest.raises(EndpointDown):
                rs.evaluate(WORKLOAD[1], timeout=5.0)
        finally:
            rs.shutdown()

    def test_cache_generation_tracks_down_and_dirty(self, graph):
        rs = make_set(graph)
        try:
            before = rs.cache_generation()
            rs.kill(1)
            down = rs.cache_generation()
            assert down != before
            assert down[1][0] == "down"
            rs.restart()  # revive; catch-up clears dirty
            after = rs.cache_generation()
            assert after[1][0] not in ("down", "dirty")
        finally:
            rs.shutdown()


class TestFailoverFaultSite:
    def test_broken_promotion_degrades_to_partial_never_wrong(self):
        graph = random_graph(seed=33)
        shards = ShardedRingIndex.from_graph(graph, 2, replicas=2)
        coord = ShardCoordinator(shards, shard_timeout=10.0)
        try:
            reference = list(coord.evaluate(WORKLOAD[2], timeout=30.0))
            ref_set = {frozenset(mu.items()) for mu in reference}
            victim = shards.endpoints[0]
            victim.replicas[victim.primary].kill()
            fault = Fault(
                "replica.failover", probability=1.0, error=InjectedFault
            )
            with inject_faults(fault, seed=0):
                result = coord.evaluate(
                    WORKLOAD[2], partial=True, timeout=30.0
                )
            assert fault.fired >= 1
            assert not result.shards.complete
            assert result.truncated
            assert {frozenset(mu.items()) for mu in result} <= ref_set
            assert victim.stats()["failover_errors"] >= 1
        finally:
            shards.shutdown()
