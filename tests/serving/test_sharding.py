"""Subject-hash sharding: placement, partitioning, durable lifecycle."""

import json

import numpy as np
import pytest

from repro.reliability.integrity import IndexIntegrityError, verify_index
from repro.serving import sharding
from repro.serving.sharding import (
    MANIFEST_NAME,
    ShardedRingIndex,
    partition_graph,
    shard_of,
    shard_vector,
    write_shards_manifest,
)
from tests.serving.conftest import random_graph

pytestmark = pytest.mark.serving


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for s in range(200):
                sid = shard_of(s, n)
                assert 0 <= sid < n
                assert shard_of(s, n) == sid

    def test_vector_matches_scalar(self):
        subjects = np.arange(500, dtype=np.int64)
        vec = shard_vector(subjects, 4)
        assert [shard_of(int(s), 4) for s in subjects] == vec.tolist()

    def test_spreads_load(self):
        # splitmix64 over sequential ids must not collapse to one shard.
        counts = np.bincount(shard_vector(np.arange(1000, dtype=np.int64), 4))
        assert len(counts) == 4
        assert counts.min() > 100


class TestPartitionGraph:
    def test_disjoint_union_preserving_universe(self):
        graph = random_graph(seed=11)
        parts = partition_graph(graph, 4)
        assert len(parts) == 4
        total = sum(p.n_triples for p in parts)
        assert total == graph.n_triples
        union = {tuple(t) for p in parts for t in p.triples}
        assert union == {tuple(t) for t in graph.triples}
        for p in parts:
            assert p.n_nodes == graph.n_nodes
            assert p.n_predicates == graph.n_predicates

    def test_each_partition_owned_by_its_shard(self):
        graph = random_graph(seed=12)
        for sid, p in enumerate(partition_graph(graph, 3)):
            for s, _, _ in p.triples:
                assert shard_of(int(s), 3) == sid

    def test_empty_graph_and_bad_n(self):
        empty = random_graph(n_triples=0)
        assert all(p.n_triples == 0 for p in partition_graph(empty, 3))
        with pytest.raises(ValueError):
            partition_graph(empty, 0)


class TestShardedRingIndex:
    def test_routes_writes_to_owner(self, sharded):
        before = [ep.stats().get("n_triples", 0) for ep in sharded.endpoints]
        s = 17
        assert sharded.insert(s, 0, 3)
        owner = sharded.shard_for(s)
        after = [ep.stats().get("n_triples", 0) for ep in sharded.endpoints]
        assert after[owner] == before[owner] + 1
        for sid in range(sharded.n_shards):
            if sid != owner:
                assert after[sid] == before[sid]
        assert sharded.delete(s, 0, 3)

    def test_n_triples_sums_alive_shards(self, graph, sharded):
        assert sharded.n_triples == graph.n_triples
        sharded.kill_shard(2)
        assert sharded.n_triples < graph.n_triples

    def test_generation_vector_changes_on_write_kill_restart(self, sharded):
        g0 = sharded.cache_generation()
        sharded.insert(5, 1, 6)
        g1 = sharded.cache_generation()
        assert g1 != g0
        sharded.kill_shard(1)
        g2 = sharded.cache_generation()
        assert g2 != g1
        assert g2[1][0] == "down"
        sharded.restart_shard(1)
        g3 = sharded.cache_generation()
        assert g3 != g2 and g3 != g1, "a restart must invalidate, not revert"

    def test_stats_readiness(self, sharded):
        stats = sharded.stats()
        assert stats["n_shards"] == 4
        assert stats["live"] == 4
        assert stats["ready"] is True
        sharded.kill_shard(0)
        stats = sharded.stats()
        assert stats["live"] == 3
        assert stats["ready"] is False
        assert stats["shards"][0]["alive"] is False

    def test_needs_at_least_one_shard(self, graph):
        with pytest.raises(ValueError):
            ShardedRingIndex([], graph)


class TestDurableLifecycle:
    def test_create_writes_manifest(self, tmp_path, graph):
        with ShardedRingIndex.create_durable(tmp_path / "d", graph, 3):
            manifest = json.loads((tmp_path / "d" / MANIFEST_NAME).read_text())
        assert manifest["n_shards"] == 3
        assert manifest["n_nodes"] == graph.n_nodes
        assert manifest["n_predicates"] == graph.n_predicates
        for sid in range(3):
            assert (tmp_path / "d" / f"shard-{sid:02d}").is_dir()

    def test_recover_round_trip(self, tmp_path, graph):
        with ShardedRingIndex.create_durable(tmp_path / "d", graph, 3) as shards:
            shards.insert(3, 1, 4)
            n = shards.n_triples
        with ShardedRingIndex.recover(tmp_path / "d") as back:
            assert back.n_shards == 3
            assert back.n_triples == n
            assert back.graph.n_nodes == graph.n_nodes

    def test_killed_durable_shard_recovers_acknowledged_writes(
        self, tmp_path, graph
    ):
        with ShardedRingIndex.create_durable(tmp_path / "d", graph, 2) as shards:
            # Find a subject owned by shard 0 and write through it.
            s = next(s for s in range(100) if shards.shard_for(s) == 0)
            assert shards.insert(s, 1, 9)
            n = shards.n_triples
            shards.kill_shard(0)  # crash: no checkpoint, WAL as-is
            shards.restart_shard(0)
            assert shards.n_triples == n, "acked write lost across crash"
            assert shards.endpoints[0].incarnation == 1


class TestShardLayoutFiles:
    """``SHARDS.json`` has one typed reader; ``verify`` walks the layout."""

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_verify_reports_every_member_store(self, tmp_path, graph, replicas):
        with ShardedRingIndex.create_durable(
            tmp_path / "d", graph, 2, replicas=replicas
        ) as shards:
            shards.insert(3, 1, 4)
            n = shards.n_triples
        report = verify_index(tmp_path / "d")
        assert report["kind"] == "sharded"
        assert report["n_triples"] == n
        assert report["n_nodes"] == graph.n_nodes
        members = (
            ["shard-00", "shard-01"]
            if replicas == 1
            else [f"shard-0{s}/replica-{r}" for s in (0, 1) for r in (0, 1)]
        )
        for member in members:
            assert any(
                c.startswith(f"{member}: live-set arithmetic")
                for c in report["checks"]
            ), member

    def test_cli_verify_sharded_layout(self, tmp_path, graph, capsys):
        from repro.__main__ import main

        with ShardedRingIndex.create_durable(tmp_path / "d", graph, 2):
            pass
        main(["verify", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert "(sharded)" in out
        assert "ok: shard-01: " in out
        assert out.rstrip().endswith("index integrity: OK")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"version": 2, "n_shards": 2', "unreadable shard manifest"),
            (
                '{"version": 2, "n_shards": 2, "n_nodes": 5}',
                "shard manifest lacks 'n_predicates'",
            ),
        ],
    )
    def test_damaged_manifest_is_typed(self, tmp_path, graph, text, reason):
        with ShardedRingIndex.create_durable(tmp_path / "d", graph, 2):
            pass
        path = tmp_path / "d" / MANIFEST_NAME
        path.write_text(text)
        for opener in (ShardedRingIndex.recover, verify_index):
            with pytest.raises(IndexIntegrityError, match=reason) as info:
                opener(tmp_path / "d")
            assert info.value.path == str(path)

    def test_manifest_published_by_rename(self, tmp_path, monkeypatch):
        write_shards_manifest(tmp_path, n_shards=2, n_nodes=5, n_predicates=1)

        def crash(*args):
            raise OSError("crash before rename")

        monkeypatch.setattr(sharding.os, "replace", crash)
        with pytest.raises(OSError):
            write_shards_manifest(
                tmp_path, n_shards=3, n_nodes=7, n_predicates=2
            )
        # A crash mid-publish leaves the previous manifest whole.
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["n_shards"] == 2
