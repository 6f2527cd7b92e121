"""The pool-backed index: identity, budgets, rescue, degradation.

``ParallelRingIndex`` promises the *ordered* serial answer — not just
the same set — under every outcome the serial engine can have: clean
completion, op-budget exhaustion, wall-clock timeout, external
cancellation (all with correct ``partial=True`` prefixes), a worker
SIGKILLed mid-query, and a pool that never came up at all.  Workers
read the ring they inherited through ``fork``: the parent's arrays, at
the parent's addresses, whatever the ring's layout.
"""

import os
import pickle
import threading
import time

import pytest

from repro.core import CompressedRingIndex, QueryTimeout, RingIndex
from repro.core.interface import QueryCancelled, QueryExecutionError
from repro.core.iterators import RingIterator
from repro.core.ltj import LeapfrogTrieJoin
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.generators import random_graph
from repro.graph.model import O, P, S
from repro.parallel import ParallelRingIndex, TaskPool
from repro.parallel import system as parallel_system
from repro.reliability.budget import CancellationToken, ResourceBudget
from repro.reliability.faults import Fault, InjectedFault, inject_faults

X, Y, Z = Var("x"), Var("y"), Var("z")

PATH = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)])
TRIANGLE = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z), TriplePattern(Z, 0, X)]
)
STAR = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(X, 1, Z)])
LONELY_ONLY = BasicGraphPattern([TriplePattern(X, 0, Y)])
CYCLE = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z), TriplePattern(Z, 2, X)]
)

ADDRESSES = "tests.parallel.test_parallel_system:_ring_addresses"
ANSWERS = "tests.parallel.test_parallel_system:_ring_answers"


def _ring_addresses(token):
    """Pool task: this process's id and the data address of every
    wavelet level's ``_words`` and of each C array of a registered ring."""
    ring = parallel_system._RINGS[token]
    arrays = [
        bv._words for zone in (S, P, O) for bv in ring.zone_sequence(zone)._bits
    ] + [ring.counts(attr).raw() for attr in (S, P, O)]
    return os.getpid(), [a.__array_interface__["data"][0] for a in arrays]


def _ring_answers(token):
    """Pool task: this process's id, and the size, first and last
    triple and the ``PATH`` rows of a registered ring, read through a
    fresh engine over that ring alone."""
    ring = parallel_system._RINGS[token]
    engine = LeapfrogTrieJoin(lambda t: RingIterator(ring, t), ring.n)
    triples = [ring.triple(i) for i in (0, 1, ring.n - 1)]
    return os.getpid(), ring.n, triples, list(engine.evaluate(PATH))


@pytest.fixture(scope="module")
def graph():
    return random_graph(2000, n_nodes=50, n_predicates=3, seed=7)


@pytest.fixture(scope="module")
def serial(graph):
    return RingIndex(graph)


@pytest.fixture(scope="module")
def parallel(graph):
    index = ParallelRingIndex(graph, workers=2, num_slices=4)
    yield index
    index.close()


@pytest.mark.parametrize(
    "bgp", [PATH, TRIANGLE, STAR, LONELY_ONLY],
    ids=["path", "triangle", "star", "lonely-only"],
)
def test_ordered_identity_with_serial(serial, parallel, bgp):
    """Byte-identical *ordered* rows, not merely the same multiset."""
    assert list(parallel.evaluate(bgp)) == list(serial.evaluate(bgp))


def test_lonely_only_query_bypasses_the_pool(parallel):
    before = parallel.pool_stats()["batches"]
    parallel.evaluate(LONELY_ONLY)
    assert parallel.pool_stats()["batches"] == before, (
        "a no-shared-variable query should run serially, not fan out"
    )


def test_fanout_actually_happens(parallel):
    before = parallel.pool_stats()["dispatched"]
    parallel.evaluate(PATH)
    assert parallel.pool_stats()["dispatched"] >= before + 2


def test_op_budget_exhaustion_is_a_timeout(parallel):
    with pytest.raises(QueryTimeout):
        parallel.evaluate(PATH, budget=ResourceBudget(max_ops=40, tick_mask=0))


def test_op_budget_partial_prefix(serial, parallel):
    reference = list(serial.evaluate(PATH))
    result = parallel.evaluate(
        PATH, budget=ResourceBudget(max_ops=3000, tick_mask=0), partial=True
    )
    assert result.truncated
    assert result.interrupted_by == "timeout"
    assert list(result) == reference[: len(result)]
    assert len(result) < len(reference)


def test_zero_timeout_fires(parallel):
    with pytest.raises(QueryTimeout):
        parallel.evaluate(PATH, timeout=0.0)


def test_precancelled_token_is_cancellation(parallel):
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelled):
        parallel.evaluate(PATH, budget=ResourceBudget(token=token))
    result = parallel.evaluate(
        PATH, budget=ResourceBudget(token=token), partial=True
    )
    assert result.truncated
    assert result.interrupted_by == "cancelled"


def test_worker_ops_fold_into_parent_budget(parallel):
    budget = ResourceBudget(tick_mask=0)
    parallel.evaluate(PATH, budget=budget)
    assert budget.ops > 0, "worker op counts must reach the parent governor"


def test_var_order_must_cover_shared_variables(parallel):
    with pytest.raises(ValueError):
        parallel.evaluate(PATH, var_order=[X])


def test_explicit_var_order_matches_serial(serial, parallel):
    order = [Y, X, Z]
    assert list(parallel.evaluate(PATH, var_order=order)) == list(
        serial.evaluate(PATH, var_order=order)
    )


def test_stats_report_slices(parallel):
    stats: dict = {}
    parallel.evaluate(PATH, stats=stats)
    assert stats.get("slices", 0) >= 2


def test_killed_worker_is_rescued_exactly(graph, serial):
    index = ParallelRingIndex(graph, workers=2, num_slices=4)
    try:
        reference = list(serial.evaluate(TRIANGLE))
        index.pool._kill_after_dispatch = 0
        assert list(index.evaluate(TRIANGLE)) == reference
        stats = index.pool_stats()
        assert stats["serial_rescues"] >= 1
        assert stats["respawns"] >= 1
        # The healed pool keeps serving exactly.
        assert list(index.evaluate(TRIANGLE)) == reference
        assert index.pool.alive_workers == 2
    finally:
        index.close()


def test_killed_worker_under_op_budget_yields_a_prefix(graph, serial):
    # The rescued slices run under the same op share as a worker's, so
    # the merged answer is still a prefix of the serial enumeration.
    index = ParallelRingIndex(graph, workers=2, num_slices=4)
    try:
        reference = list(serial.evaluate(TRIANGLE))
        index.pool._kill_after_dispatch = 0
        result = index.evaluate(
            TRIANGLE,
            budget=ResourceBudget(max_ops=3000, tick_mask=0),
            partial=True,
        )
        assert result.truncated
        assert list(result) == reference[: len(result)]
        assert index.pool_stats()["serial_rescues"] >= 1
    finally:
        index.close()


@pytest.fixture(scope="module")
def slow_triangle():
    """The triangle query on a complete 56-node graph: 175 616 rows,
    about 1.3 s serially on a 2-vCPU host."""
    graph = random_graph(4000, n_nodes=56, n_predicates=1, seed=3)
    started = time.monotonic()
    reference = list(RingIndex(graph).evaluate(TRIANGLE))
    return graph, reference, time.monotonic() - started


def test_mid_query_cancellation_stops_the_slices(slow_triangle):
    graph, reference, serial_s = slow_triangle
    index = ParallelRingIndex(graph, workers=2, num_slices=4)
    try:
        token = CancellationToken()
        timer = threading.Timer(serial_s / 10, token.cancel)
        started = time.monotonic()
        timer.start()
        try:
            with pytest.raises(QueryCancelled):
                index.evaluate(TRIANGLE, budget=ResourceBudget(token=token))
        finally:
            timer.cancel()
        assert time.monotonic() - started < serial_s / 2

        token = CancellationToken()
        timer = threading.Timer(serial_s / 10, token.cancel)
        timer.start()
        try:
            result = index.evaluate(
                TRIANGLE, budget=ResourceBudget(token=token), partial=True
            )
        finally:
            timer.cancel()
        assert result.truncated
        assert result.interrupted_by == "cancelled"
        assert len(result) < len(reference)
        assert list(result) == reference[: len(result)]
    finally:
        index.close()


def test_spawn_fault_degrades_to_serial(graph, serial):
    with inject_faults(
        Fault("parallel.spawn", probability=1.0, error=InjectedFault)
    ):
        index = ParallelRingIndex(graph, workers=2)
    try:
        assert index.pool is None
        assert index.pool_stats() == {}
        assert list(index.evaluate(PATH)) == list(serial.evaluate(PATH))
    finally:
        index.close()


def test_merge_fault_is_a_typed_error(graph):
    index = ParallelRingIndex(graph, workers=2, num_slices=4)
    try:
        with inject_faults(
            Fault("parallel.slice_merge", probability=1.0, error=InjectedFault)
        ):
            with pytest.raises(QueryExecutionError):
                index.evaluate(PATH)
    finally:
        index.close()


def test_pool_stats_shape(parallel):
    stats = parallel.pool_stats()
    for key in (
        "workers", "alive_workers", "busy_seconds", "batches",
        "dispatched", "completed", "respawns", "serial_rescues",
        "spawn_failures",
    ):
        assert key in stats
    assert stats["workers"] == 2
    assert len(stats["busy_seconds"]) == 2
    assert sum(stats["busy_seconds"]) > 0


def test_close_is_idempotent_and_degrades(graph, serial):
    index = ParallelRingIndex(graph, workers=2)
    index.close()
    index.close()


def _slice_tasks(index, bgp):
    """The slice tasks one evaluation of ``bgp`` hands the pool."""
    tasks = []
    run = index.pool.run

    def recording(payloads, budget=None):
        tasks.extend(payloads)
        return run(payloads, budget=budget)

    index.pool.run = recording
    try:
        index.evaluate(bgp)
    finally:
        del index.pool.run
    return tasks


def test_attach_is_zero_copy_shells_only():
    """A slice task names the ring by token and carries no index data:
    its pickle has the same size for a 2 K- and a 16 K-triple index, up
    to the few bytes the wider slice bounds take."""
    sizes = {}
    for n in (2000, 16000):
        big = random_graph(n, n_nodes=n // 10, n_predicates=8, seed=7)
        index = ParallelRingIndex(big, workers=1, num_slices=4)
        try:
            tasks = _slice_tasks(index, PATH)
            assert len(tasks) == 4
            sizes[n] = max(len(pickle.dumps(task)) for task in tasks)
        finally:
            index.close()
    assert abs(sizes[16000] - sizes[2000]) <= 4, sizes


def test_workers_read_the_parents_arrays(parallel):
    """Every worker, a respawned one too, reads the ring at the
    parent's addresses: inherited through fork, never copied or
    re-opened."""
    token = parallel._token
    _, expected = _ring_addresses(token)
    pool = TaskPool(ADDRESSES, workers=2)
    try:
        first = pool.run([token] * 4)
        pool._kill_after_dispatch = 0
        pool.run([token] * 4)
        stats = pool.stats()
        assert stats["respawns"] == 1
        after = pool.run([token] * 4)
        assert pool.stats()["serial_rescues"] == stats["serial_rescues"]
    finally:
        pool.close()
    for pid, addresses in first + after:
        assert pid != os.getpid(), "task ran in the parent, not a worker"
        assert addresses == expected
    assert {pid for pid, _ in after} - {pid for pid, _ in first}, (
        "a worker forked after the kill must serve the last batch"
    )


def test_worker_ring_answers_identically(graph, serial, parallel):
    """The ring a worker finds under the index's token is a whole ring:
    same size and triples as the serial one, and an engine built on it
    alone answers exactly like the serial index."""
    pool = TaskPool(ANSWERS, workers=2)
    try:
        results = pool.run([parallel._token] * 2)
    finally:
        pool.close()
    reference = list(serial.evaluate(PATH))
    assert reference
    expected = [serial.ring.triple(i) for i in (0, 1, graph.n_triples - 1)]
    for pid, n, triples, rows in results:
        assert pid != os.getpid(), "task ran in the parent, not a worker"
        assert n == serial.ring.n
        assert triples == expected
        assert rows == reference


def test_compressed_ring_fans_out():
    """A C-Ring (RRR bitvectors, Elias–Fano counts) has no flat buffers
    to hand over, but workers inherit it like any other ring."""
    graph = random_graph(3000, n_nodes=200, n_predicates=3, seed=3)
    compressed = CompressedRingIndex(graph)
    index = ParallelRingIndex.from_ring(compressed.ring, graph, workers=2)
    try:
        stats: dict = {}
        rows = list(index.evaluate(CYCLE, stats=stats))
        pool = index.pool_stats()
    finally:
        index.close()
    assert rows == list(compressed.evaluate(CYCLE))
    assert stats["slices"] == 4
    assert pool["completed"] == 4
    assert pool["serial_rescues"] == 0
