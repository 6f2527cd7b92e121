"""External-memory bulk construction (:mod:`repro.graph.bulkload`).

The contract under test: whatever the source format, chunk size, input
order or duplication, ``bulk_build`` writes the *byte-identical* pack
that ``RingIndex(graph).save_frozen`` would — with working memory
bounded by the chunk size, spills in a private directory, and typed
failures that leave no partial pack behind.
"""

import json
import os

import numpy as np
import pytest

from repro.core import RingIndex
from repro.graph import bulkload
from repro.graph.bulkload import (
    BulkBuildError,
    bulk_build,
    bulk_build_sharded,
)
from repro.graph.dataset import Graph
from repro.graph.dictionary import Dictionary
from repro.graph.generators import random_graph
from repro.reliability.faults import Fault, InjectedFault, inject_faults


def _reference_pack(graph, tmp_path, name="reference.ring"):
    path = str(tmp_path / name)
    RingIndex(graph).save_frozen(path)
    return path


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def graph():
    return random_graph(2000, n_nodes=100, n_predicates=4, seed=11)


class TestByteIdentity:
    @pytest.mark.parametrize("chunk", [64, 777, 2000, 10_000])
    def test_every_chunk_size_matches_in_memory(self, graph, tmp_path, chunk):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / f"chunk{chunk}.ring")
        stats: dict = {}
        bulk_build(graph, out, chunk_triples=chunk, stats=stats)
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )
        if chunk < graph.n_triples:
            assert stats["runs_spilled"] > 1

    def test_permuted_duplicated_input(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        rng = np.random.default_rng(5)
        rows = graph.triples
        noisy = np.concatenate([rows, rows[rng.integers(0, len(rows), 500)]])
        noisy = noisy[rng.permutation(len(noisy))]
        out = str(tmp_path / "noisy.ring")
        stats: dict = {}
        bulk_build(
            iter(noisy),
            out,
            chunk_triples=300,
            n_nodes=graph.n_nodes,
            n_predicates=graph.n_predicates,
            stats=stats,
        )
        assert _read(out) == _read(reference)
        assert stats["deduplicated"] == 500

    def test_bin_source(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        src = str(tmp_path / "input.bin")
        graph.triples.astype(np.int64).tofile(src)
        out = str(tmp_path / "frombin.ring")
        bulk_build(
            src,
            out,
            chunk_triples=256,
            n_nodes=graph.n_nodes,
            n_predicates=graph.n_predicates,
        )
        assert _read(out) == _read(reference)

    def test_text_source(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        src = str(tmp_path / "input.txt")
        with open(src, "w") as fh:
            fh.write("# id triples, one per line\n")
            for s, p, o in graph.triples:
                fh.write(f"{s} {p} {o}\n")
        out = str(tmp_path / "fromtext.ring")
        bulk_build(
            src,
            out,
            chunk_triples=256,
            n_nodes=graph.n_nodes,
            n_predicates=graph.n_predicates,
        )
        assert _read(out) == _read(reference)


class TestNtriples:
    def test_nt_source_matches_loaded_graph(self, tmp_path):
        rng = np.random.default_rng(9)
        src = str(tmp_path / "data.nt")
        with open(src, "w") as fh:
            for _ in range(400):
                s, o = rng.integers(0, 40, 2)
                p = rng.integers(0, 3)
                fh.write(
                    f"<http://ex/e{s}> <http://ex/p{p}> <http://ex/e{o}> .\n"
                )
        from repro.graph.ntriples import load_ntriples

        graph = load_ntriples(src)
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "fromnt.ring")
        bulk_build(src, out, chunk_triples=64)
        assert _read(out) == _read(reference)
        # String queries decode through the pack's own dictionary.
        loaded = RingIndex.load(out, mmap=True)
        want = RingIndex(graph).evaluate("?x http://ex/p0 ?y", decode=True)
        assert list(loaded.evaluate("?x http://ex/p0 ?y", decode=True)) == list(
            want
        )

    def test_malformed_nt_is_typed(self, tmp_path):
        src = str(tmp_path / "bad.nt")
        with open(src, "w") as fh:
            fh.write("<http://ex/a> <http://ex/p>\n")  # missing object
        with pytest.raises(BulkBuildError):
            bulk_build(src, str(tmp_path / "bad.ring"))


class TestEdges:
    def test_empty_graph(self, tmp_path):
        graph = Graph(
            np.empty((0, 3), dtype=np.int64), n_nodes=5, n_predicates=2
        )
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "empty.ring")
        bulk_build(
            graph, out, chunk_triples=16, n_nodes=5, n_predicates=2
        )
        assert _read(out) == _read(reference)

    def test_single_triple(self, tmp_path):
        graph = Graph(np.array([[1, 0, 2]], dtype=np.int64))
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "one.ring")
        bulk_build(graph, out, chunk_triples=16)
        assert _read(out) == _read(reference)

    def test_inferred_universe_matches_graph(self, graph, tmp_path):
        # No pinned universes: inference must mirror Graph (max id + 1).
        inferred = Graph(graph.triples)
        reference = _reference_pack(inferred, tmp_path)
        out = str(tmp_path / "inferred.ring")
        manifest = bulk_build(iter(graph.triples), out, chunk_triples=300)
        assert manifest["n_nodes"] == int(graph.triples[:, [0, 2]].max()) + 1
        assert manifest["n_predicates"] == int(graph.triples[:, 1].max()) + 1
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )

    def test_graph_keeps_its_declared_universes(self, tmp_path):
        # Declared universes wider than the ids in use survive the build,
        # in a single pack and in every shard of a sharded layout.
        rows = np.array([[0, 0, 1], [1, 1, 3], [3, 0, 2]], dtype=np.int64)
        graph = Graph(rows, n_nodes=100, n_predicates=8)
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "declared.ring")
        manifest = bulk_build(graph, out, chunk_triples=2)
        assert (manifest["n_nodes"], manifest["n_predicates"]) == (100, 8)
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )
        out_dir = str(tmp_path / "declared-shards")
        sharded = bulk_build_sharded(graph, out_dir, n_shards=2)
        assert (sharded["n_nodes"], sharded["n_predicates"]) == (100, 8)
        for sid in range(2):
            pack = os.path.join(
                out_dir, f"shard-{sid:02d}", "checkpoint-0000000001",
                "ring-000.ring.config.json",
            )
            meta = json.loads(_read(pack))
            assert (meta["n_nodes"], meta["n_predicates"]) == (100, 8)

    def test_float_npy_is_refused(self, tmp_path):
        src = str(tmp_path / "floats.npy")
        np.save(src, np.array([[0.5, 0, 1.7], [2.9, 1, 0.2]]))
        out = str(tmp_path / "floats.ring")
        with pytest.raises(BulkBuildError, match="integer"):
            bulk_build(src, out)
        assert not os.path.exists(out)

    def test_float_iterable_is_refused(self, tmp_path):
        out = str(tmp_path / "floats.ring")
        rows = np.array([[0.5, 0, 1.7], [2.9, 1, 0.2]])
        with pytest.raises(BulkBuildError, match="integer"):
            bulk_build(iter([rows]), out)
        assert not os.path.exists(out)

    def test_every_unpinned_source_spills_int64_keys(
        self, graph, tmp_path, monkeypatch
    ):
        # One scan mode: whatever the source, every spilled run is a
        # flat int64 key array, never (k, 3) rows.
        rows = graph.triples
        bin_src = str(tmp_path / "rows.bin")
        rows.astype(np.int64).tofile(bin_src)
        txt_src = str(tmp_path / "rows.txt")
        nt_src = str(tmp_path / "rows.nt")
        with open(txt_src, "w") as txt, open(nt_src, "w") as nt:
            for s, p, o in rows:
                txt.write(f"{s} {p} {o}\n")
                nt.write(f"<http://ex/n{s}> <http://ex/p{p}> <http://ex/n{o}> .\n")
        spilled = []
        real_spill = bulkload._spill_run

        def capture(path, arr):
            spilled.append((arr.ndim, arr.dtype))
            real_spill(path, arr)

        monkeypatch.setattr(bulkload, "_spill_run", capture)
        for i, source in enumerate((bin_src, txt_src, nt_src, iter(rows))):
            spilled.clear()
            stats: dict = {}
            bulk_build(
                source, str(tmp_path / f"k{i}.ring"), chunk_triples=300,
                stats=stats,
            )
            assert stats["runs_spilled"] > 1
            assert spilled
            assert set(spilled) == {(1, np.dtype(np.int64))}

    def test_id_outside_pinned_universe(self, tmp_path):
        rows = np.array([[0, 0, 9]], dtype=np.int64)
        with pytest.raises(BulkBuildError):
            bulk_build(
                iter(rows),
                str(tmp_path / "oob.ring"),
                n_nodes=5,
                n_predicates=1,
            )

    def test_dictionary_conflict(self, tmp_path):
        d = Dictionary()
        d.add_node("a"), d.add_node("b")
        d.add_predicate("p")
        src = str(tmp_path / "two.nt")
        with open(src, "w") as fh:
            fh.write("<a> <p> <b> .\n")
        with pytest.raises(BulkBuildError, match="conflicts"):
            bulk_build(src, str(tmp_path / "c.ring"), n_nodes=99)

    def test_universe_overflow_guard(self, tmp_path):
        with pytest.raises(BulkBuildError, match="int64"):
            bulk_build(
                iter(np.empty((0, 3), dtype=np.int64)),
                str(tmp_path / "huge.ring"),
                n_nodes=2**33,
                n_predicates=2**10,
            )

    def test_bad_chunk(self, graph, tmp_path):
        with pytest.raises(ValueError):
            bulk_build(graph, str(tmp_path / "x.ring"), chunk_triples=0)


class TestFaults:
    @pytest.mark.parametrize("site", ["build.spill", "build.merge"])
    def test_crash_leaves_no_pack_and_retry_is_exact(
        self, graph, tmp_path, site
    ):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "faulted.ring")
        fault = Fault(site, probability=1.0, error=InjectedFault, max_fires=1)
        with inject_faults(fault, seed=3):
            with pytest.raises(BulkBuildError):
                bulk_build(graph, out, chunk_triples=300)
        assert fault.fired
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".config.json")
        # No spill litter: the private workdir is removed either way.
        assert not [
            n for n in os.listdir(tmp_path) if n.startswith("bulkload")
        ]
        bulk_build(graph, out, chunk_triples=300)  # restart, unfaulted
        assert _read(out) == _read(reference)

    def test_failure_reports_phase(self, graph, tmp_path):
        fault = Fault(
            "build.merge", probability=1.0, error=InjectedFault, max_fires=1
        )
        with inject_faults(fault, seed=3):
            with pytest.raises(BulkBuildError) as err:
                bulk_build(
                    graph, str(tmp_path / "p.ring"), chunk_triples=300
                )
        assert "during" in str(err.value)


class TestKwayMerge:
    def test_default_fanin_is_single_pass(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "kway64.ring")
        stats: dict = {}
        bulk_build(graph, out, chunk_triples=150, stats=stats)
        assert _read(out) == _read(reference)
        # Many runs, one pass: every spilled byte read exactly once.
        assert stats["runs_spilled"] > 2
        assert stats["merge_extra_pass_bytes"] == 0
        assert stats["merge_bytes_read"] == stats["merge_bytes_in"]
        assert stats["merge_rounds"] == 0
        assert stats["merge_fanin"] == bulkload.MERGE_FANIN == 64

    @pytest.mark.parametrize("fanin", [2, 3])
    def test_tiny_fanin_recurses_byte_identically(
        self, graph, tmp_path, monkeypatch, fanin
    ):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / f"kway{fanin}.ring")
        stats: dict = {}
        monkeypatch.setattr(bulkload, "MERGE_FANIN", fanin)
        bulk_build(graph, out, chunk_triples=150, stats=stats)
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )
        # Reduction rounds happened and their rereads are accounted, not
        # hidden: beyond-one-pass bytes must be positive at fan-in 2-3.
        assert stats["merge_rounds"] > 0
        assert stats["merge_extra_pass_bytes"] > 0
        assert (
            stats["merge_bytes_read"]
            == stats["merge_bytes_in"] + stats["merge_extra_pass_bytes"]
        )


class TestParallelBuild:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_match_serial_bytes(self, graph, tmp_path, workers):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / f"par{workers}.ring")
        stats: dict = {}
        bulk_build(graph, out, chunk_triples=300, workers=workers, stats=stats)
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )
        if not stats.get("pool_degraded"):
            assert stats["pool_completed"] > 0
            assert stats["pool_serial_rescues"] == 0
            assert stats.get("worker_peak_rss_bytes") is None or (
                stats["worker_peak_rss_bytes"] > 0
            )

    def test_workers_share_the_serial_scan_and_run_six_passes(
        self, graph, tmp_path
    ):
        # One partition whatever the worker count: the scan spills the
        # serial build's runs, and the pool runs only the three zone
        # wavelets and the three count columns.
        serial: dict = {}
        bulk_build(
            graph, str(tmp_path / "serial.ring"), chunk_triples=300,
            stats=serial,
        )
        stats: dict = {}
        bulk_build(
            graph, str(tmp_path / "par.ring"), chunk_triples=300, workers=2,
            stats=stats,
        )
        assert stats["runs_spilled"] == serial["runs_spilled"]
        assert stats["n_triples"] == serial["n_triples"] == graph.n_triples
        assert "n_partitions" not in stats
        if not stats.get("pool_degraded"):
            assert stats["pool_batches"] == 1
            assert stats["pool_dispatched"] == 6
            assert stats["pool_completed"] == 6

    def test_bad_workers_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError):
            bulk_build(graph, str(tmp_path / "x.ring"), workers=-1)


class TestShardedBuild:
    def test_layout_recovers_and_answers(self, graph, tmp_path):
        from repro.graph.model import BasicGraphPattern, TriplePattern, Var
        from repro.serving.coordinator import ShardCoordinator
        from repro.serving.sharding import ShardedRingIndex

        out_dir = str(tmp_path / "shards")
        stats: dict = {}
        bulk_build_sharded(
            graph,
            out_dir,
            n_shards=2,
            chunk_triples=300,
            workers=2,
            stats=stats,
        )
        manifest = json.loads(
            open(os.path.join(out_dir, "SHARDS.json")).read()
        )
        assert manifest["n_shards"] == 2
        assert manifest["n_nodes"] == graph.n_nodes
        assert manifest["n_predicates"] == graph.n_predicates
        assert manifest["transport"] == "inproc"
        for sid in range(2):
            assert os.path.isdir(os.path.join(out_dir, f"shard-{sid:02d}"))
        assert sum(stats["shard_triples"]) == stats["n_triples"]

        x, y, z = Var("x"), Var("y"), Var("z")
        bgps = [
            BasicGraphPattern([TriplePattern(x, Var("p"), y)]),
            BasicGraphPattern(
                [TriplePattern(x, 0, y), TriplePattern(y, 1, z)]
            ),
        ]

        def rows(mus):
            return sorted(
                tuple(sorted((v.name, c) for v, c in mu.items()))
                for mu in mus
            )

        reference = RingIndex(graph)
        with ShardedRingIndex.recover(out_dir, mmap=True) as shards:
            coordinator = ShardCoordinator(shards)
            for bgp in bgps:
                got = rows(coordinator.evaluate(bgp, timeout=60.0))
                assert got == rows(reference.evaluate(bgp))
        assert rows(reference.evaluate(bgps[0]))  # scan must return rows

    def test_refuses_existing_out_dir(self, graph, tmp_path):
        out_dir = tmp_path / "taken"
        out_dir.mkdir()
        with pytest.raises(BulkBuildError, match="exists"):
            bulk_build_sharded(graph, str(out_dir), n_shards=2)


class TestWorkerFaults:
    def test_worker_fault_is_typed_and_clean(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "wfault.ring")
        # probability=1.0: the armed site fires inside the forked workers
        # (the executor is resolved per task) and in any inline rescue.
        fault = Fault("build.worker", probability=1.0, error=InjectedFault)
        with inject_faults(fault, seed=3):
            with pytest.raises(BulkBuildError):
                bulk_build(graph, out, chunk_triples=300, workers=2)
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".config.json")
        bulk_build(graph, out, chunk_triples=300, workers=2)
        assert _read(out) == _read(reference)

    def test_spawn_fault_degrades_to_serial_bytes(self, graph, tmp_path):
        # No worker can spawn: both builders record pool_degraded, run
        # every task inline, and write the serial build's bytes.
        reference = _reference_pack(graph, tmp_path)
        serial_dir = str(tmp_path / "shards-serial")
        bulk_build_sharded(graph, serial_dir, n_shards=2, chunk_triples=300)
        out = str(tmp_path / "nospawn.ring")
        out_dir = str(tmp_path / "shards-nospawn")
        stats: dict = {}
        shard_stats: dict = {}
        fault = Fault("parallel.spawn", probability=1.0, error=InjectedFault)
        with inject_faults(fault, seed=3):
            bulk_build(graph, out, chunk_triples=300, workers=2, stats=stats)
            bulk_build_sharded(
                graph, out_dir, n_shards=2, chunk_triples=300, workers=2,
                stats=shard_stats,
            )
        assert stats["pool_degraded"] and shard_stats["pool_degraded"]
        assert _read(out) == _read(reference)
        assert _read(out + ".config.json") == _read(
            reference + ".config.json"
        )
        for sid in range(2):
            pack = os.path.join(
                f"shard-{sid:02d}", "checkpoint-0000000001", "ring-000.ring"
            )
            for name in (pack, pack + ".config.json"):
                assert _read(os.path.join(out_dir, name)) == _read(
                    os.path.join(serial_dir, name)
                )

    def test_killed_worker_is_rescued(self, graph, tmp_path):
        reference = _reference_pack(graph, tmp_path)
        out = str(tmp_path / "wkill.ring")
        stats: dict = {}
        bulkload._POOL_HOOK = lambda pool: setattr(
            pool, "_kill_after_dispatch", 0
        )
        try:
            bulk_build(graph, out, chunk_triples=300, workers=2, stats=stats)
        finally:
            bulkload._POOL_HOOK = None
        if not stats.get("pool_degraded"):
            assert stats["pool_serial_rescues"] >= 1
        assert _read(out) == _read(reference)
