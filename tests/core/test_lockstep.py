"""The lockstep descent in LTJ: same rows as the leapfrog, bounded work.

When every backward iterator of a variable sits on one ring, ``_search``
intersects them with one descent of their wavelet matrices
(``Ring.backward_lockstep``) and binds each with the range the descent
found; forward, free and repeated iterators verify its candidates with
``leap``.  An iterator that hides ``zone_state`` forces the classic
leapfrog ``_seek`` for its whole group, which is the reference here: the
ordered rows must be list-equal under every policy and slice cut, on the
plain ring and on the C-Ring.
"""

from itertools import islice

import numpy as np
import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.core import QueryTimeout
from repro.core.iterators import RingIterator
from repro.core.ltj import POLICIES
from repro.core.system import CompressedRingIndex, RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.graph.generators import wikidata_like
from repro.graph.model import P
from repro.reliability.budget import ResourceBudget

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


def _quarters(universe: int) -> list[tuple[int, int]]:
    bounds = [i * universe // 4 for i in range(5)]
    return list(zip(bounds, bounds[1:]))


def _rows(engine, bgp, **options):
    return [
        sorted((v.name, x) for v, x in row.items())
        for row in islice(engine.evaluate(bgp, **options), LIMIT)
    ]


def _assert_identical(lockstep, leapfrog, graph, shapes):
    cuts = _quarters(max(graph.n_nodes, graph.n_predicates))
    for shape, bgp in shapes:
        want = _rows(leapfrog._engine, bgp)
        assert _rows(lockstep._engine, bgp) == want, shape
        _live, by_var, order, _lonely = lockstep._engine._analyse(bgp)
        if not order:
            continue
        if lockstep.policy == "static":
            pin = {"var_order": order}
        else:
            pin = {"first_var": lockstep._engine.first_variable(order, by_var)}
        for cut in cuts:
            got = _rows(lockstep._engine, bgp, first_range=cut, **pin)
            assert got == _rows(leapfrog._engine, bgp, first_range=cut, **pin), (
                shape, cut,
            )


def test_workload_covers_every_shape(workload):
    _graph, shapes = workload
    assert len(shapes) == 17


@pytest.mark.parametrize("policy", POLICIES)
def test_lockstep_rows_equal_leapfrog_rows(workload, policy):
    graph, shapes = workload
    _assert_identical(
        RingIndex(graph, policy=policy),
        LeapfrogRingIndex(graph, policy=policy),
        graph, shapes,
    )


def test_lockstep_rows_equal_leapfrog_rows_on_the_c_ring():
    """RRR levels go through the same descent (``bv.rank1``); a smaller
    graph keeps the C-Ring's slower ranks affordable."""
    graph = wikidata_like(800, seed=1)
    by_shape = generate_wgpb_queries(graph, queries_per_shape=1, seed=1)
    shapes = [(s, q[0]) for s, q in by_shape.items() if q]
    assert len(shapes) == 17
    _assert_identical(
        CompressedRingIndex(graph), LeapfrogCompressedRingIndex(graph),
        graph, shapes,
    )


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


def test_single_iterator_slice_lands_at_lo_without_a_sweep(bipartite):
    """With ``use_lonely=False`` a one-pattern variable is still
    enumerated from ``lo`` by one descent: the values below the slice
    cost nothing (they used to cost one tick each)."""
    engine = RingIndex(bipartite, use_lonely=False)._engine
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y)])
    n_subjects = len(np.unique(bipartite.triples[:, 0]))
    levels = RingIndex(bipartite).ring.zone_sequence(P).levels

    def ops(cut):
        budget = ResourceBudget(tick_mask=0)
        rows = list(engine.evaluate(
            bgp, timeout=budget, var_order=[X, Y], first_range=cut
        ))
        return budget.ops, rows

    top = int(bipartite.triples[:, 0].max())
    spent, rows = ops((top + 1, bipartite.n_nodes))
    assert rows == [] and n_subjects > 2 * levels
    assert spent <= levels
    spent, rows = ops((top, bipartite.n_nodes))
    assert {row[X] for row in rows} == {top}
    assert spent <= levels + 2 * len(rows) + 1
