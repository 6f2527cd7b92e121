"""The lockstep descent in LTJ: same rows as the leapfrog, bounded work.

When every backward iterator of a variable sits on one ring, ``_search``
intersects them with one descent of their wavelet matrices and binds
each with the range the descent found; forward, free and repeated
iterators verify its candidates with ``leap``.  The search carries
blocks of one depth's bindings, and a run of at least
``BATCH_CROSSOVER`` of them descends in one batched call
(``Ring.backward_lockstep_many``).  An iterator that hides
``zone_state`` forces the classic leapfrog ``_seek`` and blocks of one
binding, which is the reference here: the ordered rows must be
list-equal on the plain ring and on the C-Ring, at the engine's
crossover and with every run batched.
Limits, an early-closed generator and a spent op budget must stop at
the rows, counts and ops the unbatched search stops at.
"""

import threading
import time
from itertools import islice

import numpy as np
import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.core import QueryCancelled, QueryTimeout, ltj
from repro.core.iterators import RingIterator
from repro.core.ltj import BLOCK_SIZE
from repro.core.system import CompressedRingIndex, RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.graph.generators import wikidata_like
from repro.reliability.budget import CancellationToken, ResourceBudget

X, Y, Z = Var("x"), Var("y"), Var("z")
LIMIT = 300
TRIANGLE = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z), TriplePattern(Z, 0, X)]
)


class LeapfrogRingIterator(RingIterator):
    zone_state = None  # no zone state for the engine: _seek only


class LeapfrogRingIndex(RingIndex):
    def iterator(self, pattern):
        return LeapfrogRingIterator(self._ring, pattern)


class LeapfrogCompressedRingIndex(CompressedRingIndex):
    def iterator(self, pattern):
        return LeapfrogRingIterator(self._ring, pattern)


@pytest.fixture(scope="module")
def workload():
    graph = wikidata_like(2000, seed=1)
    by_shape = generate_wgpb_queries(graph, queries_per_shape=1, seed=1)
    return graph, [(s, q[0]) for s, q in by_shape.items() if q]


def _rows(engine, bgp, stats=None):
    return [
        sorted((v.name, x) for v, x in row.items())
        for row in islice(engine.evaluate(bgp, stats=stats), LIMIT)
    ]


def _assert_identical(lockstep, leapfrog, shapes):
    """Ordered rows equal; returns the values the batched descents
    served."""
    stats: dict = {}
    for shape, bgp in shapes:
        want = _rows(leapfrog._engine, bgp)
        assert _rows(lockstep._engine, bgp, stats) == want, shape
    return stats["batched_values"]


@pytest.fixture(params=["default", "forced"])
def crossover(request, monkeypatch):
    """The engine's crossover, then 1: every run of bindings batched."""
    if request.param == "forced":
        monkeypatch.setattr(ltj, "BATCH_CROSSOVER", 1)
    return request.param


def test_workload_covers_every_shape(workload):
    _graph, shapes = workload
    assert len(shapes) == 17


def test_lockstep_rows_equal_leapfrog_rows(workload, monkeypatch):
    """At the engine's crossover, then with every run batched."""
    graph, shapes = workload
    for crossover in (ltj.BATCH_CROSSOVER, 1):
        monkeypatch.setattr(ltj, "BATCH_CROSSOVER", crossover)
        assert _assert_identical(
            RingIndex(graph), LeapfrogRingIndex(graph), shapes
        ) > 0, crossover


def test_lockstep_rows_equal_leapfrog_rows_on_the_c_ring(monkeypatch):
    """RRR levels go through the same descents (``bv.rank1``, and
    ``step_many`` through their scalar ranks); a smaller graph keeps the
    C-Ring's slower ranks affordable."""
    graph = wikidata_like(800, seed=1)
    by_shape = generate_wgpb_queries(graph, queries_per_shape=1, seed=1)
    shapes = [(s, q[0]) for s, q in by_shape.items() if q]
    assert len(shapes) == 17
    for crossover in (ltj.BATCH_CROSSOVER, 1):
        monkeypatch.setattr(ltj, "BATCH_CROSSOVER", crossover)
        assert _assert_identical(
            CompressedRingIndex(graph), LeapfrogCompressedRingIndex(graph),
            shapes,
        ) > 0, crossover


COUNTS = ("leaps", "binds", "bulk_rows", "bulk_decodes")


def _unbatched(monkeypatch, run):
    """``run()`` in blocks of one binding, none batched: the
    one-binding-at-a-time search the block search must account like."""
    with monkeypatch.context() as patch:
        patch.setattr(ltj, "BLOCK_SIZE", 1)
        patch.setattr(ltj, "BATCH_CROSSOVER", 10**9)
        return run()


@pytest.mark.parametrize("limit", (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1))
def test_limits_stop_where_the_unbatched_search_stops(
    workload, crossover, monkeypatch, limit
):
    graph, shapes = workload
    lockstep, leapfrog = RingIndex(graph), LeapfrogRingIndex(graph)
    served = 0
    for shape, bgp in shapes:
        def run():
            stats: dict = {}
            rows = list(lockstep.evaluate(bgp, limit=limit, stats=stats))
            return rows, {key: stats[key] for key in COUNTS}, stats

        rows, counts, stats = run()
        served += stats["batched_values"]
        assert rows == list(leapfrog.evaluate(bgp, limit=limit)), shape
        assert counts == _unbatched(monkeypatch, run)[1], shape
    assert served > 0


def test_an_early_closed_generator_stops_cleanly(workload, crossover, monkeypatch):
    graph, shapes = workload
    engine = RingIndex(graph)._engine
    leapfrog = LeapfrogRingIndex(graph)
    served = 0
    for shape, bgp in shapes:
        want = list(leapfrog.evaluate(bgp, limit=BLOCK_SIZE + 1))

        def run():
            stats: dict = {}
            gen = engine.evaluate(bgp, stats=stats)
            rows = list(islice(gen, len(want) // 2 + 1))
            gen.close()
            return rows, {key: stats[key] for key in COUNTS}, stats

        rows, counts, stats = run()
        served += stats["batched_values"]
        assert rows == want[: len(rows)], shape
        assert counts == _unbatched(monkeypatch, run)[1], shape
        # Nothing of the closed evaluation leaks into the next one.
        assert list(islice(engine.evaluate(bgp), len(want))) == want, shape
    assert served > 0


def test_partial_results_under_an_op_cap_are_a_prefix(
    workload, crossover, monkeypatch
):
    """A complete run spends exactly the unbatched search's ops; capped
    at half of them, ``partial=True`` returns the rows the unbatched
    search returns, a prefix of the reference.  Shapes with more than
    2 000 rows are skipped (the cyclic ones all have fewer)."""
    graph, shapes = workload
    index, leapfrog = RingIndex(graph), LeapfrogRingIndex(graph)
    served = 0
    for shape, bgp in shapes:
        want = list(leapfrog.evaluate(bgp, limit=2001))
        if len(want) > 2000:
            continue

        def run(max_ops=None):
            budget = ResourceBudget(max_ops=max_ops, tick_mask=0)
            stats: dict = {}
            rows = index.evaluate(bgp, budget=budget, partial=True, stats=stats)
            return list(rows), budget.ops, rows.truncated, stats

        rows, ops, truncated, stats = run()
        served += stats["batched_values"]
        assert rows == want and not truncated, shape
        assert ops == _unbatched(monkeypatch, run)[1], shape
        capped, _, truncated, _ = run(ops // 2)
        assert truncated == (ops // 2 < ops), shape
        assert capped == want[: len(capped)], shape
        assert capped == _unbatched(monkeypatch, lambda: run(ops // 2))[0], shape
    assert served > 0


def test_lockstep_cuts_leaps_not_binds(workload):
    graph, shapes = workload
    lockstep, leapfrog = RingIndex(graph), LeapfrogRingIndex(graph)
    for shape, bgp in shapes:
        fast, slow = {}, {}
        assert lockstep.evaluate(bgp, limit=LIMIT, stats=fast) == (
            leapfrog.evaluate(bgp, limit=LIMIT, stats=slow)
        )
        assert fast["binds"] == slow["binds"], shape
        assert fast["leaps"] <= slow["leaps"], shape


@pytest.fixture(scope="module")
def bipartite():
    """Edges go both ways between two halves and never inside one: every
    triangle needs an odd cycle, so its last variable's two backward
    iterators always intersect to nothing."""
    rng = np.random.default_rng(4)
    half = 40
    a = rng.integers(0, half, 600)
    b = rng.integers(half, 2 * half, 600)
    flip = rng.random(600) < 0.5
    s, o = np.where(flip, b, a), np.where(flip, a, b)
    triples = np.unique(np.stack([s, np.zeros_like(s), o], axis=1), axis=0)
    return Graph(triples, n_nodes=2 * half, n_predicates=1)


def test_empty_intersections_still_charge_the_budget(bipartite):
    """Ticks: one per value a descent reaches, one per backtrack."""
    index = RingIndex(bipartite)
    stats: dict = {}
    budget = ResourceBudget(max_ops=10**9, tick_mask=0)
    assert index.evaluate(TRIANGLE, budget=budget, stats=stats) == []
    assert stats["binds"] > 0
    backtracks = budget.ops - stats["leaps"]
    assert backtracks > 0
    with pytest.raises(QueryTimeout):
        index.evaluate(TRIANGLE, budget=ResourceBudget(
            max_ops=budget.ops // 2, tick_mask=0))
    assert index.evaluate(TRIANGLE, budget=ResourceBudget(
        max_ops=budget.ops, tick_mask=0)) == []


def _interleaved_bipartite(half: int, edges: int) -> Graph:
    """Edges only between even and odd nodes: a triangle finds nothing,
    and every last-variable descent runs to the lowest level before its
    parities disagree."""
    rng = np.random.default_rng(4)
    even = 2 * rng.integers(0, half, edges)
    odd = 2 * rng.integers(0, half, edges) + 1
    flip = rng.random(edges) < 0.5
    s, o = np.where(flip, odd, even), np.where(flip, even, odd)
    triples = np.unique(np.stack([s, np.zeros_like(s), o], axis=1), axis=0)
    return Graph(triples, n_nodes=2 * half, n_predicates=1)


@pytest.mark.parametrize(
    "block, half, edges", [(BLOCK_SIZE, 400, 50_000), (1, 200, 12_000)],
    ids=["blocks", "blocks-of-one"],
)
def test_a_rowless_search_stops_on_time(monkeypatch, block, half, edges):
    """No binding of the empty triangle is ever consumed, so nothing is
    charged before the search ends (sizes give each mode a run of about
    half a second).  The deadline and a token cancelled from another
    thread must still stop it early."""
    monkeypatch.setattr(ltj, "BLOCK_SIZE", block)
    index = RingIndex(_interleaved_bipartite(half, edges))
    started = time.monotonic()
    assert index.evaluate(TRIANGLE) == []
    whole = time.monotonic() - started

    token = CancellationToken()
    timer = threading.Timer(whole / 10, token.cancel)
    started = time.monotonic()
    timer.start()
    try:
        with pytest.raises(QueryCancelled):
            index.evaluate(TRIANGLE, cancellation=token)
    finally:
        timer.cancel()
    assert time.monotonic() - started < whole / 2

    started = time.monotonic()
    with pytest.raises(QueryTimeout):
        index.evaluate(TRIANGLE, timeout=whole / 10)
    assert time.monotonic() - started < whole / 2


