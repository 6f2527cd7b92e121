"""Shard supervision: health sweeps, restart caps, failing restarts,
for solo shards and for every replica of a replicated one."""

import time

import pytest

from repro.reliability.faults import Fault, InjectedFault, inject_faults
from repro.serving import ShardedRingIndex, ShardSupervisor

pytestmark = pytest.mark.serving


class TestSweep:
    def test_healthy_shards_left_alone(self, sharded):
        sup = ShardSupervisor(sharded)
        assert sup.sweep() == 0
        assert sup.stats()["restarts"] == [0, 0, 0, 0]

    def test_dead_shard_restarted(self, sharded):
        sharded.kill_shard(2)
        sup = ShardSupervisor(sharded)
        assert sup.sweep() == 1
        assert sharded.endpoints[2].alive
        assert sharded.endpoints[2].incarnation == 1
        assert sup.stats()["restarts"] == [0, 0, 1, 0]

    def test_max_restarts_caps_flapping_shards(self, sharded):
        sup = ShardSupervisor(sharded, max_restarts=2)
        for _ in range(4):
            sharded.kill_shard(0)
            sup.sweep()
        assert sup.stats()["restarts"][0] == 2
        assert not sharded.endpoints[0].alive, (
            "a shard past its restart cap must stay down"
        )

    def test_failed_restart_counted_not_raised(self, sharded):
        sharded.kill_shard(1)
        sup = ShardSupervisor(sharded)
        with inject_faults(
            Fault("shard.restart", error=InjectedFault, probability=1.0), seed=1
        ):
            assert sup.sweep() == 0  # must not raise
        assert sup.stats()["failed_restarts"][1] >= 1
        assert not sharded.endpoints[1].alive
        # The next unfaulted sweep recovers the shard.
        assert sup.sweep() == 1
        assert sharded.endpoints[1].alive


    def test_restart_counts_only_when_the_incarnation_moves(self, graph):
        with ShardedRingIndex.from_graph(graph, 2) as shards:
            sup = ShardSupervisor(shards, max_restarts=2)
            # Alive but failing its probe: restart() is a no-op.
            shards.endpoints[1].health_check = lambda: False
            for _ in range(3):
                assert sup.sweep() == 0
            assert shards.endpoints[1].incarnation == 0
            assert sup.stats()["restarts"] == [0, 0]
            # The flap cap is unspent: a real death is still restarted.
            shards.kill_shard(1)
            assert sup.sweep() == 1
            assert sup.stats()["restarts"] == [0, 1]


class TestReplicatedShards:
    def test_flap_cap_stops_restarting(self, graph):
        with ShardedRingIndex.from_graph(graph, 2, replicas=2) as shards:
            sup = ShardSupervisor(shards, max_restarts=1)
            rs = shards.endpoints[0]
            for _ in range(4):
                rs.kill(0)
                sup.sweep()
            assert sup.stats()["restarts"] == [1, 0]
            assert rs.replicas[0].incarnation == 1
            assert not rs.replicas[0].alive, "past its cap a replica stays down"
            assert rs.alive  # the other replica still serves

    def test_failed_replica_restart_counted_then_recovered(self, graph):
        with ShardedRingIndex.from_graph(graph, 2, replicas=2) as shards:
            sup = ShardSupervisor(shards)
            rs = shards.endpoints[1]
            rs.kill(0)
            s = next(s for s in range(graph.n_nodes) if shards.shard_for(s) == 1)
            have = set(rs.replicas[1].dump())
            o = next(o for o in range(graph.n_nodes) if (s, 1, o) not in have)
            shards.insert(s, 1, o)  # replica 0 misses it
            fault = Fault("shard.restart", error=InjectedFault, probability=1.0)
            with inject_faults(fault, seed=1):
                assert sup.sweep() == 0  # must not raise
            assert fault.fired == 1
            assert sup.stats()["failed_restarts"] == [0, 1]
            assert not rs.replicas[0].alive
            # The next unfaulted sweep restarts the replica and catches it up.
            assert sup.sweep() == 1
            assert sup.stats()["restarts"] == [0, 1]
            assert rs.stats()["dirty"] == [False, False]
            assert (s, 1, o) in set(rs.replicas[0].dump())


class TestBackgroundLoop:
    def test_thread_restarts_killed_shard(self, sharded):
        with ShardSupervisor(sharded, interval=0.01) as sup:
            sharded.kill_shard(3)
            deadline = time.monotonic() + 5.0
            while not sharded.endpoints[3].alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sharded.endpoints[3].alive, "supervisor never restarted the shard"
            assert sup.stats()["running"]
        assert not sup.stats()["running"]
        assert sup.stats()["checks"] >= 1

    def test_double_start_rejected(self, sharded):
        sup = ShardSupervisor(sharded, interval=0.01)
        with sup:
            with pytest.raises(RuntimeError):
                sup.start()
