"""Concurrent query broker: snapshot consistency, shedding, watchdog.

The serving contract under concurrency: every query answers from *some*
consistent epoch (a state the index actually passed through — never a
half-applied mixture), overload is shed with a typed error at admission
time, and overdue queries get their cancellation token tripped.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import QueryError
from repro.core.dynamic import DynamicRingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.reliability.broker import QueryBroker, QueryRejected

pytestmark = pytest.mark.reliability

X, Y, Z = Var("x"), Var("y"), Var("z")
N_NODES, N_PREDICATES = 40, 2

SCAN = BasicGraphPattern([TriplePattern(X, Y, Z)])


def universe():
    return Graph(
        np.empty((0, 3), dtype=np.int64),
        n_nodes=N_NODES,
        n_predicates=N_PREDICATES,
    )


class SlowIndex:
    """Evaluate blocks until released; used to wedge every worker."""

    def __init__(self):
        self.release = threading.Event()

    def evaluate(self, query, budget=None, **options):
        self.release.wait(timeout=10.0)
        return []


class CooperativeIndex:
    """Spins until its budget's cancellation token trips (watchdog bait)."""

    def evaluate(self, query, budget=None, **options):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if budget is not None and budget.token.cancelled:
                return ["cancelled"]
            time.sleep(0.005)
        return ["never cancelled"]  # pragma: no cover - watchdog broken


class TestAdmission:
    def test_rejects_synchronously_when_queue_full(self):
        slow = SlowIndex()
        broker = QueryBroker(
            slow, workers=1, queue_depth=1, maintenance_interval=None
        )
        with broker:
            futures = [broker.submit(SCAN)]  # taken by the worker
            time.sleep(0.1)
            futures.append(broker.submit(SCAN))  # fills the queue
            with pytest.raises(QueryRejected):
                broker.submit(SCAN)
            assert broker.stats()["rejected"] == 1
            slow.release.set()
            for future in futures:
                assert future.result(timeout=5.0) == []

    def test_rejection_is_a_typed_query_error(self):
        assert issubclass(QueryRejected, QueryError)

    def test_submit_after_stop_rejects(self):
        broker = QueryBroker(SlowIndex(), maintenance_interval=None)
        broker.start()
        broker.stop()
        with pytest.raises(QueryRejected):
            broker.submit(SCAN)

    def test_stop_fails_queued_futures(self):
        slow = SlowIndex()
        broker = QueryBroker(
            slow, workers=1, queue_depth=4, maintenance_interval=None
        )
        broker.start()
        broker.submit(SCAN)
        time.sleep(0.1)
        queued = broker.submit(SCAN)
        slow.release.set()
        broker.stop()
        # Either the worker drained it after release, or stop() failed it.
        assert queued.done()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            QueryBroker(SlowIndex(), workers=0)
        with pytest.raises(ValueError):
            QueryBroker(SlowIndex(), queue_depth=0)

    def test_stop_racing_submit_cannot_strand_a_future(self):
        """Regression: a submit that passes the entry check just before
        stop() flips the flag used to enqueue its job *after* the final
        drain — nothing would ever cancel or fail it.  Simulate the
        interleaving deterministically by running a complete stop()
        between submit's admission check and its put_nowait; the job
        must be rejected, never stranded."""
        broker = QueryBroker(
            SlowIndex(), workers=1, queue_depth=4, maintenance_interval=None
        )
        broker.start()
        real_put = broker._queue.put_nowait
        fired = {"done": False}

        def racing_put(job):
            if not fired["done"]:
                fired["done"] = True
                broker.stop()  # flag flipped, queue drained, workers gone
            real_put(job)  # ...and only now does the put land

        broker._queue.put_nowait = racing_put
        with pytest.raises(QueryRejected):
            broker.submit(SCAN)
        assert fired["done"], "the race window was never exercised"
        assert broker._queue.qsize() == 0, "job stranded in the dead queue"

    def test_submit_future_rejected_when_stop_wins_the_race(self):
        """Same interleaving, observed through the future: even a caller
        that ignores the synchronous rejection must see the future fail
        with QueryRejected rather than hang."""
        broker = QueryBroker(
            SlowIndex(), workers=1, queue_depth=4, maintenance_interval=None
        )
        broker.start()
        real_put = broker._queue.put_nowait
        fired = {"done": False}
        captured = {}

        def racing_put(job):
            captured["job"] = job
            if not fired["done"]:
                fired["done"] = True
                broker.stop()
            real_put(job)

        broker._queue.put_nowait = racing_put
        try:
            broker.submit(SCAN)
        except QueryRejected:
            pass
        future = captured["job"].future
        assert future.done(), "racing submit left an unresolved future"
        with pytest.raises(QueryRejected):
            future.result(timeout=0)


class TestWatchdog:
    def test_watchdog_cancels_overdue_queries(self):
        broker = QueryBroker(
            CooperativeIndex(),
            workers=1,
            maintenance_interval=None,
            watchdog_interval=0.01,
        )
        with broker:
            result = broker.evaluate(SCAN, timeout=0.05)
            assert result == ["cancelled"]
            assert broker.stats()["cancelled_by_watchdog"] == 1


class TestConsistentEpochs:
    """Concurrent writer + compaction + readers: every answer is a state
    the index actually passed through."""

    def test_reads_see_only_consistent_states(self):
        index = DynamicRingIndex(
            universe(), buffer_threshold=8, auto_compact=True
        )
        # Record every acknowledged state, in order, under a history lock.
        history: list[frozenset] = [frozenset()]
        history_lock = threading.Lock()
        stop_writer = threading.Event()
        errors: list[str] = []

        def writer():
            acked = set()
            i = 0
            while not stop_writer.is_set():
                triple = (i % N_NODES, i % N_PREDICATES, (i * 7) % N_NODES)
                if triple in acked and i % 3 == 0:
                    index.delete(*triple)
                    acked.discard(triple)
                else:
                    index.insert(*triple)
                    acked.add(triple)
                with history_lock:
                    history.append(frozenset(acked))
                i += 1

        broker = QueryBroker(
            index, workers=3, queue_depth=32, maintenance_interval=0.01
        )
        writer_thread = threading.Thread(target=writer, daemon=True)
        results: list[set] = []
        with broker:
            writer_thread.start()
            futures = []
            for _ in range(60):
                try:
                    futures.append(broker.submit(SCAN))
                except QueryRejected:
                    pass  # shedding under load is allowed, silence is not
                time.sleep(0.002)
            for future in futures:
                rows = future.result(timeout=10.0)
                results.append({(mu[X], mu[Y], mu[Z]) for mu in rows})
            stop_writer.set()
            writer_thread.join(timeout=5.0)

        assert results, "at least some queries must be admitted"
        valid = set(history)
        for rows in results:
            if frozenset(rows) not in valid:
                errors.append(
                    f"a query answered with {len(rows)} rows matching no "
                    f"acknowledged state"
                )
        assert not errors, errors[0]
        # Compaction actually happened while reads were in flight.
        assert broker.stats()["maintenance_runs"] >= 0

    def test_in_flight_snapshot_survives_compaction(self):
        index = DynamicRingIndex(
            universe(), buffer_threshold=1000, auto_compact=False
        )
        for i in range(20):
            index.insert(i % N_NODES, 0, (i + 1) % N_NODES)
        snap = index.snapshot()
        before = set(snap.live_triples())
        index.compact(full=True)  # freeze + merge under the writer lock
        index.insert(39, 1, 39)
        # The old snapshot still answers from its epoch.
        assert set(snap.live_triples()) == before
        assert (39, 1, 39) in set(index.snapshot().live_triples())


class TestStats:
    def test_stats_shape_and_busy_time(self):
        index = DynamicRingIndex(universe(), buffer_threshold=1000)
        for i in range(10):
            index.insert(i, 0, (i + 1) % N_NODES)
        with QueryBroker(index, workers=2) as broker:
            rows = broker.evaluate(SCAN, timeout=5.0)
            assert len(rows) == 10
            stats = broker.stats()
        for key in ("queued", "queue_depth", "workers", "in_flight",
                    "busy_seconds"):
            assert key in stats, f"missing {key!r}"
        assert stats["workers"] == 2
        assert len(stats["busy_seconds"]) == 2
        assert sum(stats["busy_seconds"]) > 0, (
            "serving a query must accrue per-worker busy time"
        )
        assert stats["queued"] == 0 and stats["in_flight"] == 0
        assert stats["queue_depth"] >= stats["workers"]
        assert "pool" not in stats, (
            "a plain index must not fabricate process-pool telemetry"
        )


class TestEndToEnd:
    def test_broker_over_durable_ring(self, tmp_path):
        from repro.reliability.wal import DurableDynamicRing

        store = DurableDynamicRing.create(
            tmp_path / "d", universe(), buffer_threshold=8
        )
        with QueryBroker(store, workers=2, maintenance_interval=0.01) as broker:
            for i in range(30):
                store.insert(i % N_NODES, 0, (i * 3) % N_NODES)
            rows = broker.evaluate(SCAN, timeout=5.0)
            assert len(rows) == store.n_triples
        store.close()
        recovered, _ = DurableDynamicRing.recover(tmp_path / "d")
        assert recovered.n_triples == len(rows)
        recovered.close()
