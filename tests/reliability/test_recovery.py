"""Crash recovery: checkpoint + WAL replay lands on the acked state.

Property under test (the durability contract): after a crash at *any*
point, recovery reconstructs exactly the set of acknowledged updates —
a torn WAL tail (unacknowledged bytes) is truncated, never partially
applied, and damage to durable artifacts raises a typed error instead
of serving a silently wrong index.
"""

import os
import random

import numpy as np
import pytest

from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.reliability.integrity import IndexIntegrityError
from repro.reliability.wal import (
    HEADER_SIZE,
    WAL_FILE,
    DurableDynamicRing,
    WALError,
    replay,
    verify_dynamic_dir,
)

pytestmark = pytest.mark.reliability

X, Y, Z = Var("x"), Var("y"), Var("z")
N_NODES, N_PREDICATES = 30, 3


def universe():
    return Graph(
        np.empty((0, 3), dtype=np.int64),
        n_nodes=N_NODES,
        n_predicates=N_PREDICATES,
    )


def random_ops(rng, n):
    """A workload script with the acknowledged state after each op."""
    acked, script = set(), []
    for _ in range(n):
        if acked and rng.random() < 0.3:
            op = ("delete", rng.choice(sorted(acked)))
        else:
            op = (
                "insert",
                (
                    rng.randrange(N_NODES),
                    rng.randrange(N_PREDICATES),
                    rng.randrange(N_NODES),
                ),
            )
        verb, triple = op
        (acked.add if verb == "insert" else acked.discard)(triple)
        script.append((op, set(acked)))
    return script


def live_set(store):
    return set(store.index.snapshot().live_triples())


class TestBasicRecovery:
    def test_wal_only_round_trip(self, tmp_path):
        store = DurableDynamicRing.create(tmp_path / "d", universe())
        store.insert(1, 0, 2)
        store.insert(2, 1, 3)
        store.delete(1, 0, 2)
        store.close()
        recovered, report = DurableDynamicRing.recover(tmp_path / "d")
        assert live_set(recovered) == {(2, 1, 3)}
        assert report.checkpoint_epoch is None
        assert report.records_replayed == 3
        recovered.close()

    def test_checkpoint_plus_tail(self, tmp_path):
        store = DurableDynamicRing.create(
            tmp_path / "d", universe(), buffer_threshold=4
        )
        for i in range(10):
            store.insert(i, 0, i + 1)
        store.checkpoint()
        store.insert(20, 1, 21)  # tail beyond the checkpoint
        store.delete(0, 0, 1)
        store.close()
        recovered, report = DurableDynamicRing.recover(tmp_path / "d")
        assert report.checkpoint_epoch is not None
        assert report.records_replayed == 2
        expected = {(i, 0, i + 1) for i in range(1, 10)} | {(20, 1, 21)}
        assert live_set(recovered) == expected
        recovered.close()

    def test_checkpoint_resets_wal_and_skips_nothing_after(self, tmp_path):
        store = DurableDynamicRing.create(tmp_path / "d", universe())
        store.insert(1, 0, 2)
        store.checkpoint()
        assert store.wal_bytes == HEADER_SIZE
        store.close()
        recovered, report = DurableDynamicRing.recover(tmp_path / "d")
        assert report.records_replayed == report.records_skipped == 0
        assert live_set(recovered) == {(1, 0, 2)}
        recovered.close()

    def test_epoch_monotone_across_restarts(self, tmp_path):
        store = DurableDynamicRing.create(tmp_path / "d", universe())
        for i in range(5):
            store.insert(i, 0, i)
        first = store.checkpoint()
        store.close()
        recovered = DurableDynamicRing.open(tmp_path / "d")
        second = recovered.checkpoint()
        recovered.close()
        assert os.path.basename(second) >= os.path.basename(first)

    def test_create_with_initial_triples_checkpoints_them(self, tmp_path):
        g = Graph(
            np.array([[1, 0, 2], [3, 1, 4]], dtype=np.int64),
            n_nodes=N_NODES,
            n_predicates=N_PREDICATES,
        )
        store = DurableDynamicRing.create(tmp_path / "d", g)
        store.close()
        recovered, report = DurableDynamicRing.recover(tmp_path / "d")
        assert live_set(recovered) == {(1, 0, 2), (3, 1, 4)}
        assert report.checkpoint_epoch is not None
        recovered.close()


class TestCrashProperty:
    """Truncate the WAL at *every* byte offset: prefix consistency."""

    def test_recovery_is_prefix_consistent_at_every_offset(self, tmp_path):
        rng = random.Random(11)
        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        states = [(HEADER_SIZE, set())]
        for (verb, triple), acked in random_ops(rng, 25):
            getattr(store, verb)(*triple)
            states.append((store.wal_bytes, acked))
        store.close()

        wal_path = str(workdir / WAL_FILE)
        wal_bytes = open(wal_path, "rb").read()

        for cut in range(HEADER_SIZE, len(wal_bytes) + 1):
            with open(wal_path, "wb") as f:
                f.write(wal_bytes[:cut])
            recovered, report = DurableDynamicRing.recover(workdir)
            expected = set()
            for end, state in states:
                if end <= cut:
                    expected = state
                else:
                    break
            assert live_set(recovered) == expected, f"cut at byte {cut}"
            # The LTJ engine over the recovered index agrees with a
            # fault-free static reference built from the same set.
            if cut == len(wal_bytes):
                rows = recovered.evaluate(
                    BasicGraphPattern([TriplePattern(X, 0, Y)])
                )
                assert {(mu[X], mu[Y]) for mu in rows} == {
                    (s, o) for s, p, o in expected if p == 0
                }
            recovered.close()

    def test_mid_checkpoint_crash_keeps_previous_state(self, tmp_path):
        """A checkpoint directory without a CURRENT swap is invisible."""
        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        store.insert(1, 0, 2)
        store.checkpoint()
        store.insert(3, 1, 4)
        store.close()
        # Simulate a crash after writing the new checkpoint dir but
        # before the pointer swap: fabricate an orphan directory.
        orphan = workdir / "checkpoint-0000009999"
        orphan.mkdir()
        (orphan / "MANIFEST.json").write_text("{not json")
        recovered, _ = DurableDynamicRing.recover(workdir)
        assert live_set(recovered) == {(1, 0, 2), (3, 1, 4)}
        recovered.close()


class TestTypedFailures:
    def test_corrupt_checkpoint_ring_raises(self, tmp_path):
        from repro.reliability.integrity import manifest_path, verify_index

        def flip_pack_bytes(pack):
            # Same size, magic and footer intact: only the SHA-256 sees it.
            with open(pack, "r+b") as f:
                f.seek(os.path.getsize(pack) // 2)
                f.write(b"\xff\xff\xff\xff")

        def tear_sidecar(pack):
            sidecar = manifest_path(pack)
            with open(sidecar, "r+b") as f:
                f.truncate(os.path.getsize(sidecar) // 2)

        for damage in (flip_pack_bytes, tear_sidecar):
            workdir = tmp_path / damage.__name__
            store = DurableDynamicRing.create(
                workdir, universe(), buffer_threshold=4
            )
            for i in range(12):
                store.insert(i, 0, i + 1)
            store.index.compact()  # freeze into a ring to checkpoint
            cpdir = store.checkpoint()
            store.close()
            victim = os.path.join(cpdir, "ring-000.ring")
            assert os.path.exists(victim), "checkpoint should persist its ring"
            damage(victim)
            with pytest.raises(IndexIntegrityError):
                DurableDynamicRing.recover(workdir)
            with pytest.raises(IndexIntegrityError):
                verify_index(workdir)

    def test_missing_wal_raises(self, tmp_path):
        workdir = tmp_path / "d"
        DurableDynamicRing.create(workdir, universe()).close()
        os.unlink(workdir / WAL_FILE)
        with pytest.raises(WALError):
            DurableDynamicRing.recover(workdir)

    def test_universe_mismatch_raises(self, tmp_path):
        workdir = tmp_path / "d"
        DurableDynamicRing.create(workdir, universe()).close()
        # Rewrite the WAL header with different universes.
        from repro.reliability.wal import WriteAheadLog

        os.unlink(workdir / WAL_FILE)
        WriteAheadLog.create(str(workdir / WAL_FILE), 7, 1).close()
        with pytest.raises(IndexIntegrityError):
            DurableDynamicRing.recover(workdir)

    def test_older_wal_generation_raises(self, tmp_path):
        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        store.insert(1, 0, 2)
        store.checkpoint()  # records WAL generation 0, resets to 1
        store.insert(2, 0, 3)
        store.checkpoint()  # records WAL generation 1, resets to 2
        store.close()
        from repro.reliability.wal import WriteAheadLog

        os.unlink(workdir / WAL_FILE)
        WriteAheadLog.create(
            str(workdir / WAL_FILE), N_NODES, N_PREDICATES, generation=0
        ).close()
        with pytest.raises(IndexIntegrityError, match="generation"):
            DurableDynamicRing.recover(workdir)


class TestVerifyDir:
    def test_clean_directory_report(self, tmp_path):
        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(
            workdir, universe(), buffer_threshold=4
        )
        for i in range(9):
            store.insert(i, 0, i + 1)
        store.checkpoint()
        store.insert(20, 1, 21)
        store.close()
        report = verify_dynamic_dir(workdir)
        assert report["kind"] == "dynamic"
        assert report["n_triples"] == 10
        assert report["n_nodes"] == N_NODES
        assert "wal_tail" not in report

    def test_torn_tail_is_reported_not_fatal(self, tmp_path):
        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        store.insert(1, 0, 2)
        store.insert(3, 1, 4)
        store.close()
        wal_path = workdir / WAL_FILE
        with open(wal_path, "r+b") as f:
            f.truncate(os.path.getsize(wal_path) - 2)
        report = verify_dynamic_dir(workdir)
        assert "torn" in report["wal_tail"]
        assert report["n_triples"] == 1

    def test_verify_index_dispatches_directories(self, tmp_path):
        from repro.reliability.integrity import verify_index

        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        store.insert(1, 0, 2)
        store.close()
        assert verify_index(workdir)["kind"] == "dynamic"


class TestCLI:
    def test_recover_and_verify_commands(self, tmp_path, capsys):
        from repro.__main__ import main

        workdir = tmp_path / "d"
        store = DurableDynamicRing.create(workdir, universe())
        store.insert(1, 0, 2)
        store.insert(2, 0, 3)
        store.close()
        main(["recover", str(workdir), "--checkpoint"])
        out = capsys.readouterr().out
        assert "replayed 2 WAL record(s)" in out
        assert "checkpoint:" in out
        main(["verify", str(workdir)])
        out = capsys.readouterr().out
        assert "index integrity: OK" in out
        assert "(dynamic)" in out

    def test_serve_line_protocol(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.__main__ import main

        script = "INSERT 1 0 2\nINSERT 2 0 3\nQUERY ?x 0 ?y\nSTATS\nQUIT\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        main([
            "serve", str(tmp_path / "d"), "--create",
            "--n-nodes", "10", "--n-predicates", "2",
            "--maintenance-interval", "0.01",
        ])
        out = capsys.readouterr().out
        assert out.count("ok inserted") == 2
        assert "?x=1  ?y=2" in out
        assert "-- 2 solution(s)" in out
        assert "bye" in out
