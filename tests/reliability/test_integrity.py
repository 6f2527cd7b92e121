"""Index persistence integrity: corruption must never load silently."""

import json
import os

import numpy as np
import pytest

from repro.core import RingIndex
from repro.graph.generators import nobel_graph, random_graph
from repro.reliability.integrity import (
    IndexIntegrityError,
    manifest_path,
    read_manifest,
    resolve_payload,
    verify_index,
    verify_ring_structure,
)

pytestmark = pytest.mark.reliability


@pytest.fixture
def saved_index(tmp_path):
    graph = random_graph(200, n_nodes=20, n_predicates=3, seed=7)
    index = RingIndex(graph)
    path = str(tmp_path / "idx")
    index.save(path)
    return path, graph


def _payload(path: str) -> str:
    return resolve_payload(path)


class TestRoundTrip:
    def test_save_load_verified(self, saved_index):
        path, graph = saved_index
        loaded = RingIndex.load(path)
        assert loaded.graph.n_triples == graph.n_triples
        assert np.array_equal(loaded.graph.triples, graph.triples)

    def test_manifest_written(self, saved_index):
        path, graph = saved_index
        manifest = read_manifest(path)
        assert manifest is not None
        assert manifest["n_triples"] == graph.n_triples
        assert manifest["sha256"]

    def test_verify_index_report(self, saved_index):
        path, _ = saved_index
        report = verify_index(path)
        assert report["manifest"] == "present"
        assert "sha256 checksum" in report["checks"]
        assert "C-array monotonicity and endpoints" in report["checks"]


class TestCorruption:
    def test_flipped_byte_detected(self, saved_index):
        path, _ = saved_index
        payload = _payload(path)
        data = bytearray(open(payload, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(payload, "wb").write(bytes(data))
        with pytest.raises(IndexIntegrityError, match="checksum"):
            RingIndex.load(path)

    def test_truncated_file_detected(self, saved_index):
        path, _ = saved_index
        payload = _payload(path)
        data = open(payload, "rb").read()
        open(payload, "wb").write(data[: len(data) // 2])
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(path)

    def test_truncation_caught_even_without_manifest(self, saved_index):
        # No checksum available: deserialization itself must fail
        # loudly, wrapped in the typed error.
        path, _ = saved_index
        payload = _payload(path)
        data = open(payload, "rb").read()
        open(payload, "wb").write(data[: len(data) // 3])
        os.remove(manifest_path(path))
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(path)

    def test_missing_payload(self, tmp_path):
        with pytest.raises(IndexIntegrityError, match="does not exist"):
            RingIndex.load(str(tmp_path / "never-saved"))

    def test_garbage_manifest(self, saved_index):
        path, _ = saved_index
        with open(manifest_path(path), "w") as f:
            f.write("{not json")
        with pytest.raises(IndexIntegrityError, match="manifest"):
            RingIndex.load(path)

    def test_manifest_n_triples_mismatch(self, saved_index):
        path, _ = saved_index
        manifest = json.load(open(manifest_path(path)))
        manifest["n_triples"] += 1
        json.dump(manifest, open(manifest_path(path), "w"))
        with pytest.raises(IndexIntegrityError):
            RingIndex.load(path)

    def test_sidecar_shape_refused_by_load_as_by_verify(self, tmp_path):
        # The payload's checksum still matches; only the sidecar's
        # n_nodes lies.  Load and verify share one reader and both refuse.
        graph = random_graph(200, n_nodes=40, n_predicates=3, seed=7)
        path = str(tmp_path / "idx")
        RingIndex(graph).save(path)
        manifest = read_manifest(path)
        assert manifest["n_nodes"] == 40
        manifest["n_nodes"] = 41
        with open(manifest_path(path), "w") as f:
            json.dump(manifest, f)
        for opener in (RingIndex.load, verify_index):
            with pytest.raises(
                IndexIntegrityError,
                match="n_nodes mismatch: manifest says 41, payload has 40",
            ):
                opener(path)

    def test_verify_index_flags_corruption(self, saved_index):
        path, _ = saved_index
        payload = _payload(path)
        data = bytearray(open(payload, "rb").read())
        data[-1] ^= 0x01
        open(payload, "wb").write(bytes(data))
        with pytest.raises(IndexIntegrityError):
            verify_index(path)

    def test_unverified_load_still_possible(self, saved_index):
        # verify=False is the escape hatch for huge trusted indexes;
        # the checksum is skipped but deserialization errors still
        # surface as IndexIntegrityError.
        path, graph = saved_index
        loaded = RingIndex.load(path, verify=False)
        assert loaded.graph.n_triples == graph.n_triples


class TestStructuralCheck:
    def test_consistent_ring_passes(self):
        graph = nobel_graph()
        index = RingIndex(graph)
        checks = verify_ring_structure(index.ring, graph=graph)
        assert any("C-array" in c for c in checks)
        assert any("spot-check" in c for c in checks)

    def test_wrong_expected_n_fails(self):
        graph = nobel_graph()
        index = RingIndex(graph)
        with pytest.raises(IndexIntegrityError):
            verify_ring_structure(
                index.ring, expected_n=graph.n_triples + 5
            )

    def test_mismatched_source_graph_fails(self):
        # A ring built from one graph spot-checked against another of
        # identical size: the triple round-trips must disagree.
        a = random_graph(100, n_nodes=12, n_predicates=2, seed=0)
        b = random_graph(100, n_nodes=12, n_predicates=2, seed=99)
        index = RingIndex(a)
        with pytest.raises(IndexIntegrityError, match="disagrees"):
            verify_ring_structure(index.ring, graph=b)
