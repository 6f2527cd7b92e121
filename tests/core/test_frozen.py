"""Frozen pack round-trips: ``save_frozen`` / ``load(mmap=...)``.

The pack is the out-of-core serving format: one flat 64-byte-aligned
file holding every succinct array, a JSON sidecar naming each array's
offset, and a ``load(mmap=True)`` path whose arrays are read-only
``np.memmap`` views.  These tests pin the contract: eager and mapped
opens answer identically, layout damage is a typed refusal (never a
wrong ring), and the legacy ``.npz`` format stays un-mappable.
"""

import json
import os

import numpy as np
import pytest

from repro.core import RingIndex
from repro.core.frozen import (
    FrozenGraph,
    RingLayoutError,
    open_frozen_ring,
    verify_frozen_layout,
)
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.graph.dictionary import Dictionary
from repro.graph.generators import random_graph
from repro.reliability.integrity import IndexIntegrityError, verify_index

X, Y, Z = Var("x"), Var("y"), Var("z")
JOIN = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)])
SCAN = BasicGraphPattern([TriplePattern(X, 0, Y)])


@pytest.fixture(scope="module")
def graph():
    return random_graph(1500, n_nodes=80, n_predicates=3, seed=7)


@pytest.fixture()
def pack(graph, tmp_path):
    path = str(tmp_path / "index.ring")
    RingIndex(graph).save_frozen(path)
    return path


def _rows(index, bgp):
    return [dict(mu) for mu in index.evaluate(bgp)]


class TestRoundTrip:
    def test_eager_load_matches_fresh_build(self, graph, pack):
        fresh = RingIndex(graph)
        loaded = RingIndex.load(pack, mmap=False)
        assert _rows(loaded, JOIN) == _rows(fresh, JOIN)
        assert loaded.ring.n == graph.n_triples

    def test_mmap_load_matches_eager(self, graph, pack):
        eager = RingIndex.load(pack, mmap=False)
        mapped = RingIndex.load(pack, mmap=True)
        assert _rows(mapped, JOIN) == _rows(eager, JOIN)
        assert _rows(mapped, SCAN) == _rows(eager, SCAN)

    def test_mmap_arrays_are_views_not_copies(self, pack):
        from repro.graph.model import S

        ring, _ = open_frozen_ring(pack, mmap=True)
        words = ring._seq[S]._bits[0]._words
        assert isinstance(words, np.memmap)
        assert not words.flags.writeable

    def test_manifest_names_every_array(self, pack):
        manifest = json.loads(open(pack + ".config.json").read())
        assert manifest["kind"] == "frozen-ring"
        size = os.path.getsize(pack)
        assert manifest["file_size"] == size
        for name, (offset, dtype, length) in manifest["arrays"].items():
            assert offset % 64 == 0, name
            assert offset + length * np.dtype(dtype).itemsize <= size

    def test_sidecar_with_legacy_leap_memo_field_opens(self, graph, pack):
        # Packs written before the leap-memo capacity became a module
        # constant carry a "leap_memo_size" field; the reader ignores it.
        sidecar = pack + ".config.json"
        manifest = json.loads(open(sidecar).read())
        assert "leap_memo_size" not in manifest
        manifest["leap_memo_size"] = 4
        with open(sidecar, "w") as fh:
            json.dump(manifest, fh)
        for mmap in (False, True):
            loaded = RingIndex.load(pack, mmap=mmap)
            assert _rows(loaded, JOIN) == _rows(RingIndex(graph), JOIN)
        assert verify_index(pack)

    def test_save_frozen_returns_manifest(self, graph, tmp_path):
        manifest = RingIndex(graph).save_frozen(str(tmp_path / "x.ring"))
        assert manifest["n_triples"] == graph.n_triples

    def test_compressed_ring_refuses_to_freeze(self, graph, tmp_path):
        index = RingIndex(graph, compressed=True)
        with pytest.raises(RingLayoutError):
            index.save_frozen(str(tmp_path / "c.ring"))


class TestFrozenGraph:
    def test_shape_without_materializing(self, graph, pack):
        loaded = RingIndex.load(pack, mmap=True)
        assert isinstance(loaded.graph, FrozenGraph)
        assert loaded.graph.n_triples == graph.n_triples
        assert loaded.graph.n_nodes == graph.n_nodes
        assert loaded.graph.n_predicates == graph.n_predicates

    def test_triples_decode_from_the_ring(self, graph, pack):
        loaded = RingIndex.load(pack, mmap=True)
        got = np.asarray(sorted(map(tuple, loaded.graph.triples)))
        want = np.asarray(sorted(map(tuple, graph.triples)))
        assert np.array_equal(got, want)

    def test_membership(self, graph, pack):
        loaded = RingIndex.load(pack, mmap=True)
        present = {tuple(map(int, t)) for t in graph.triples}
        s, p, o = next(iter(sorted(present)))
        assert (s, p, o) in loaded.graph
        absent = next(
            (s2, p2, o2)
            for s2 in range(graph.n_nodes)
            for p2 in range(graph.n_predicates)
            for o2 in range(graph.n_nodes)
            if (s2, p2, o2) not in present
        )
        assert absent not in loaded.graph


class TestDictionary:
    def test_labels_survive_the_pack(self, tmp_path):
        d = Dictionary()
        ids = [(d.add_node(f"n{i}")) for i in range(30)]
        d.add_predicate("edge")
        rng = np.random.default_rng(3)
        rows = np.stack(
            [
                rng.choice(ids, 120),
                np.zeros(120, dtype=np.int64),
                rng.choice(ids, 120),
            ],
            axis=1,
        )
        graph = Graph(rows, dictionary=d)
        path = str(tmp_path / "d.ring")
        RingIndex(graph).save_frozen(path)
        loaded = RingIndex.load(path, mmap=True)
        want = RingIndex(graph).evaluate("?x edge ?y", decode=True)
        got = loaded.evaluate("?x edge ?y", decode=True)
        assert list(got) == list(want)


class TestDamage:
    def test_truncation_detected(self, pack):
        with open(pack, "r+b") as fh:
            fh.truncate(os.path.getsize(pack) - 64)
        with pytest.raises(IndexIntegrityError):
            verify_frozen_layout(pack)
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(pack, mmap=True)

    def test_torn_footer_detected(self, pack):
        with open(pack, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(b"XXXXXXXX")
        with pytest.raises(IndexIntegrityError):
            verify_frozen_layout(pack)

    def test_bad_magic_detected(self, pack):
        with open(pack, "r+b") as fh:
            fh.write(b"NOTAPACK")
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(pack, mmap=True)

    def test_payload_corruption_caught_deep(self, pack):
        size = os.path.getsize(pack)
        with open(pack, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        # The O(1) layout walk cannot see a payload flip...
        verify_frozen_layout(pack)
        # ...the deep (sha256) walk and the eager load must.
        with pytest.raises(IndexIntegrityError):
            verify_frozen_layout(pack, deep=True)
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(pack, mmap=False)

    def test_verify_index_frozen_branch(self, pack):
        report = verify_index(pack)
        assert report["kind"] == "frozen-ring"
        assert any("layout" in c or "memmap" in c for c in report["checks"])

    def test_verify_index_rejects_corruption(self, pack):
        size = os.path.getsize(pack)
        with open(pack, "r+b") as fh:
            fh.seek(size // 3)
            byte = fh.read(1)
            fh.seek(size // 3)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(IndexIntegrityError):
            verify_index(pack)


class TestLegacyNpz:
    def test_mmap_on_npz_raises(self, graph, tmp_path):
        path = str(tmp_path / "legacy.npz")
        RingIndex(graph).save(path)
        with pytest.raises(ValueError, match="frozen-ring"):
            RingIndex.load(path, mmap=True)
        # The eager path still works.
        loaded = RingIndex.load(path)
        assert loaded.ring.n == graph.n_triples
