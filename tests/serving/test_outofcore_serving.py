"""Out-of-core serving: memmapped checkpoints through every tier.

PR 9 threads ``mmap=True`` from ``RingIndex.load`` up through the
durable store (``DurableDynamicRing.recover``), the sharded tier
(``ShardedRingIndex.recover``) and the parallel pool
(``ParallelRingIndex.load`` over a :class:`~repro.parallel.shm.PackHandle`).
These tests pin the property that matters at every level: the
memmapped server answers *exactly* like the in-RAM one.
"""

import glob
import json
import os
import re

import numpy as np
import pytest

from repro.core import RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.bulkload import bulk_build_sharded
from repro.graph.dataset import Graph
from repro.graph.generators import random_graph
from repro.parallel import ParallelRingIndex
from repro.parallel.shm import PackHandle
from repro.reliability.integrity import IndexIntegrityError
from repro.reliability.wal import (
    DurableDynamicRing,
    current_checkpoint_dir,
    verify_dynamic_dir,
)
from repro.serving.coordinator import ShardCoordinator
from repro.serving.sharding import ShardedRingIndex

X, Y, Z = Var("x"), Var("y"), Var("z")
JOIN = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)])
SCAN = BasicGraphPattern([TriplePattern(X, Var("p"), Y)])


def _rows(system, bgp):
    return [dict(mu) for mu in system.evaluate(bgp)]


@pytest.fixture(scope="module")
def graph():
    return random_graph(1200, n_nodes=60, n_predicates=3, seed=13)


def _edit_ring_entries(cpdir, edit):
    """Rewrite a checkpoint's MANIFEST.json, ``edit(entry)`` per ring."""
    mpath = os.path.join(cpdir, "MANIFEST.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    for entry in manifest["rings"]:
        edit(entry)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)


def _assert_recovers_to(store_dir, want):
    """Eager and mmap recovery both answer JOIN and SCAN as ``want``."""
    for mmap in (False, True):
        store, _ = DurableDynamicRing.recover(store_dir, mmap=mmap)
        try:
            assert (_rows(store, JOIN), _rows(store, SCAN)) == want
        finally:
            store.close()


class TestDurableMmapRecover:
    def test_recover_mmap_matches_eager(self, graph, tmp_path):
        store = DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        )
        store.insert(1, 0, 2)
        store.delete(*map(int, graph.triples[0]))
        store.checkpoint()
        store.insert(3, 1, 4)  # WAL tail beyond the checkpoint
        store.close()

        eager, _ = DurableDynamicRing.recover(tmp_path / "store")
        mapped, _ = DurableDynamicRing.recover(tmp_path / "store", mmap=True)
        try:
            assert _rows(mapped, JOIN) == _rows(eager, JOIN)
            assert _rows(mapped, SCAN) == _rows(eager, SCAN)
        finally:
            eager.close()
            mapped.close()

    def test_checkpoint_writes_packs(self, graph, tmp_path):
        store = DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        )
        cpdir = store.checkpoint()
        store.close()
        packs = [n for n in os.listdir(cpdir) if n.endswith(".ring")]
        assert packs, "checkpoint must persist mappable ring packs"
        assert not glob.glob(str(tmp_path / "store" / "checkpoint-*" / "*.npz"))
        report = verify_dynamic_dir(tmp_path / "store")
        assert any("pack" in check for check in report["checks"])

    def test_entry_without_pack_raises_typed(self, graph, tmp_path):
        # A checkpoint from before packs existed (no ``pack`` manifest
        # key, only the .npz graph payload) is refused, not rebuilt.
        store = DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        )
        cpdir = store.checkpoint()
        store.close()

        def drop_pack(entry):
            entry["file"] = entry.pop("pack").replace(".ring", ".npz")

        _edit_ring_entries(cpdir, drop_pack)
        for mmap in (False, True):
            with pytest.raises(IndexIntegrityError, match="--checkpoint"):
                DurableDynamicRing.recover(tmp_path / "store", mmap=mmap)
        with pytest.raises(IndexIntegrityError, match="no frozen pack"):
            verify_dynamic_dir(tmp_path / "store")

    def test_parent_format_entry_recovers(self, graph, tmp_path):
        # The previous release wrote every ring twice: a ``file`` key
        # (.npz graph payload) next to ``pack``.  Such entries open
        # through the pack; the stray .npz is simply never read.
        store = DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        )
        cpdir = store.checkpoint()
        want = (_rows(store, JOIN), _rows(store, SCAN))
        store.close()

        def add_stray_npz(entry):
            entry["file"] = entry["pack"].replace(".ring", ".npz")
            with open(os.path.join(cpdir, entry["file"]), "wb") as fh:
                fh.write(b"never read")

        _edit_ring_entries(cpdir, add_stray_npz)
        _assert_recovers_to(tmp_path / "store", want)
        assert verify_dynamic_dir(tmp_path / "store")["n_triples"] == (
            graph.n_triples
        )

    def test_mmap_store_checkpoints_over_its_own_maps(self, graph, tmp_path):
        # checkpoint() prunes the directory the live rings are mapped
        # from; the store must keep answering and recover either way.
        DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        ).close()
        mapped, _ = DurableDynamicRing.recover(tmp_path / "store", mmap=True)
        old_cpdir = current_checkpoint_dir(tmp_path / "store")
        try:
            mapped.delete(*map(int, graph.triples[0]))
            mapped.insert(59, 2, 59)
            new_cpdir = mapped.checkpoint()
            assert new_cpdir != old_cpdir and not os.path.exists(old_cpdir)
            want = (_rows(mapped, JOIN), _rows(mapped, SCAN))
            assert len(want[1]) == graph.n_triples
            assert mapped.contains(59, 2, 59)
        finally:
            mapped.close()
        _assert_recovers_to(tmp_path / "store", want)


def _layout_census(store_dir):
    """File-name shape of a durable store, epoch digits masked."""
    shape = set()
    for root, _dirs, files in os.walk(store_dir):
        rel = os.path.relpath(root, store_dir)
        rel = "" if rel == "." else re.sub(r"\d{10}", "<epoch>", rel) + "/"
        shape.update(rel + name for name in files)
    return shape


class TestOneCheckpointFormat:
    def test_written_and_bulk_built_stores_share_one_layout(
        self, graph, tmp_path
    ):
        store = DurableDynamicRing.create(
            tmp_path / "store", graph, buffer_threshold=64
        )
        store.checkpoint()
        store.close()
        bulk_build_sharded(
            graph, str(tmp_path / "shards"), n_shards=2, chunk_triples=300
        )
        expected = {
            "universe.npz",
            "universe.npz.config.json",
            "wal.log",
            "CURRENT",
            "checkpoint-<epoch>/MANIFEST.json",
            "checkpoint-<epoch>/ring-000.ring",
            "checkpoint-<epoch>/ring-000.ring.config.json",
        }
        assert _layout_census(tmp_path / "store") == expected
        assert _layout_census(tmp_path / "shards" / "shard-00") == expected

    def test_bulk_built_shard_pack_is_checksummed_on_eager_recover(
        self, graph, tmp_path
    ):
        bulk_build_sharded(
            graph, str(tmp_path / "shards"), n_shards=2, chunk_triples=300
        )
        (pack,) = glob.glob(
            str(tmp_path / "shards" / "shard-01" / "checkpoint-*" / "*.ring")
        )
        # Same size, magic and footer intact: only the SHA-256 sees it.
        with open(pack, "r+b") as fh:
            fh.seek(os.path.getsize(pack) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(IndexIntegrityError, match="checksum"):
            ShardedRingIndex.recover(tmp_path / "shards")


class TestShardedMmapRecover:
    def test_sharded_recover_mmap_identity(self, graph, tmp_path):
        with ShardedRingIndex.create_durable(
            tmp_path / "shards", graph, 3, buffer_threshold=64
        ) as shards:
            shards.shutdown(checkpoint=True)

        def answers(shards):
            coordinator = ShardCoordinator(shards)
            return [
                sorted(
                    tuple(sorted((v.name, c) for v, c in mu.items()))
                    for mu in coordinator.evaluate(bgp, timeout=60.0)
                )
                for bgp in (SCAN, JOIN)
            ]

        with ShardedRingIndex.recover(tmp_path / "shards") as eager_shards:
            eager = answers(eager_shards)
        with ShardedRingIndex.recover(
            tmp_path / "shards", mmap=True
        ) as mapped_shards:
            mapped = answers(mapped_shards)
        assert mapped == eager
        assert eager[0], "scan must return rows"


class TestParallelPackHandle:
    def test_parallel_load_skips_shm_export(self, graph, tmp_path):
        pack = str(tmp_path / "index.ring")
        RingIndex(graph).save_frozen(pack)
        index = ParallelRingIndex.load(pack, mmap=True, workers=2)
        try:
            # A pack-backed ring must not be copied into a segment:
            # the workers map the file, the page cache is the sharing.
            assert index._shared is None
            reference = _rows(RingIndex(graph), JOIN)
            assert _rows(index, JOIN) == reference
        finally:
            index.close()

    def test_eager_parallel_load_still_exports(self, graph, tmp_path):
        pack = str(tmp_path / "index.ring")
        RingIndex(graph).save_frozen(pack)
        index = ParallelRingIndex.load(pack, mmap=False, workers=2)
        try:
            assert index._shared is not None
            assert _rows(index, JOIN) == _rows(RingIndex(graph), JOIN)
        finally:
            index.close()

    def test_pack_handle_attach_round_trip(self, graph, tmp_path):
        from repro.parallel.shm import attach_ring

        pack = str(tmp_path / "index.ring")
        RingIndex(graph).save_frozen(pack)
        ring = attach_ring(PackHandle(pack))
        assert ring.n == graph.n_triples
        direct = RingIndex(graph)
        attached = RingIndex.from_ring(ring, graph)
        assert _rows(attached, JOIN) == _rows(direct, JOIN)
