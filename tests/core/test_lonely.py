"""§4.2 lonely leaves: each lonely range is decoded once per leaf binding.

Lonely patterns share no variable, so the rows under one binding of the
shared variables are the cross product of per-pattern enumerations, and
a pattern's range depends on that binding alone.  The engine decodes a
range that fits in one chunk (``BULK_CHUNK_ROWS`` rows) once per leaf
and replays it for every row of the patterns before it; a longer range
is decoded chunk by chunk again for each of those rows.  Either way the
rows, their order and every op charged are those of decoding per row:
the op-cap sweep below was recorded on the engine that did.  Under a
solution cap the innermost pattern's first chunk holds no more rows
than the cap has left, and later chunks are full again, so a consumer
that reads past the cap sees the uncapped stream.
"""

import numpy as np
import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.core.iterators import BULK_CHUNK_ROWS
from repro.core.ltj import LeapfrogTrieJoin
from repro.core.system import RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.graph.generators import wikidata_like
from repro.reliability.budget import ResourceBudget
from tests.util import as_solution_set, naive_evaluate

X, Y, Z = Var("x"), Var("y"), Var("z")
#: ``?x 1 ?y . ?x 0 ?z``: one leaf per hub, two lonely patterns under it.
TWO_LONELY = BasicGraphPattern([TriplePattern(X, 1, Y), TriplePattern(X, 0, Z)])


def _star(spokes: int, short: int) -> Graph:
    """Hub 0 with ``short`` predicate-1 edges and ``spokes`` predicate-0
    edges."""
    s = np.zeros(spokes + short, dtype=np.int64)
    p = np.r_[np.zeros(spokes, dtype=np.int64), np.ones(short, dtype=np.int64)]
    o = np.r_[np.arange(1, spokes + 1), np.arange(1, short + 1)]
    return Graph(np.stack([s, p, o], axis=1), n_nodes=spokes + 1, n_predicates=2)


def test_each_range_is_decoded_once_per_leaf():
    stats: dict = {}
    rows = RingIndex(_star(5, 3)).evaluate(TWO_LONELY, stats=stats)
    assert len(rows) == 15
    assert stats["bulk_rows"] == 3 + 3 * 5  # charged per outer row
    assert stats["bulk_decodes"] == 2  # decoding per outer row: 1 + 3


def test_a_range_longer_than_a_chunk_is_not_kept():
    """The inner range spans two chunks: it is decoded again for each of
    the three outer rows, 1 + 3 * 2 decodes, as when nothing was kept."""
    spokes = BULK_CHUNK_ROWS + 808
    stats: dict = {}
    rows = RingIndex(_star(spokes, 3)).evaluate(TWO_LONELY, stats=stats)
    assert len(rows) == 3 * spokes
    assert stats["bulk_decodes"] == 7


@pytest.fixture(scope="module")
def long_star():
    """Three outer rows over an inner range a chunk and 808 rows long,
    and the unlimited rows in order."""
    index = RingIndex(_star(BULK_CHUNK_ROWS + 808, 3))
    return index, [dict(row) for row in index.evaluate(TWO_LONELY)]


@pytest.mark.parametrize("k", [1, 7, 1000, BULK_CHUNK_ROWS])
def test_a_limit_decodes_the_rows_it_admits(long_star, k):
    """The inner range's first chunk holds the ``k`` rows the limit
    admits, not a full chunk: 3 outer rows plus ``k`` inner ones."""
    index, full = long_star
    stats: dict = {}
    rows = index.evaluate(TWO_LONELY, limit=k, stats=stats)
    assert [dict(row) for row in rows] == full[:k]
    assert stats["bulk_rows"] == 3 + k
    assert stats["bulk_decodes"] == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_projection_reads_past_the_first_chunk(long_star, k):
    """``?y`` changes once per inner range: its dedup needs up to every
    row, far more than ``k``, and finds the first ``k`` projections."""
    index, full = long_star
    distinct = []
    for row in full:
        if {Y: row[Y]} not in distinct:
            distinct.append({Y: row[Y]})
    rows = index.evaluate(TWO_LONELY, limit=k, project=[Y])
    assert [dict(row) for row in rows] == distinct[:k]


def test_the_engine_read_past_its_cap_yields_the_uncapped_stream(long_star):
    index, full = long_star
    engine = LeapfrogTrieJoin(index.iterator, index.graph.n_triples)
    budget = ResourceBudget(max_solutions=5)
    rows = []
    for row in engine.evaluate(TWO_LONELY, timeout=budget):
        rows.append(dict(row))
        budget.admit_solution()
    assert budget.solutions == len(full) > 5
    assert rows == full


def test_a_range_narrowed_by_a_bound_variable_is_not_kept():
    """``?r ?p ?r`` repeats ``?r``: the walk binds it value by value and
    bulk-decodes ``?p`` under each, a range that depends on the value.
    Replaying one of those for the next outer row would be wrong."""
    R, P = Var("r"), Var("p")
    triples = np.array(
        [[1, 0, 2], [1, 0, 3], [4, 0, 4], [4, 1, 4], [5, 1, 5], [5, 2, 6]]
    )
    graph = Graph(triples, n_nodes=7, n_predicates=3)
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(R, P, R)])
    rows = RingIndex(graph).evaluate(bgp)
    assert len(rows) == 3 * 3
    assert as_solution_set(rows) == naive_evaluate(graph, bgp)


@pytest.fixture(scope="module")
def ledger_workload():
    """The cost ledger's graph and queries (``test_cost_ledger.py``)."""
    graph = wikidata_like(4000, seed=0)
    by_shape = generate_wgpb_queries(graph, queries_per_shape=2, seed=0)
    return RingIndex(graph), by_shape


def test_a_limit_decodes_only_what_it_reaches(ledger_workload):
    """T3's three lonely patterns: the first row needs one chunk of each."""
    index, by_shape = ledger_workload
    stats: dict = {}
    assert len(index.evaluate(by_shape["T3"][0], limit=1, stats=stats)) == 1
    assert stats["bulk_decodes"] == 3


#: ``(max_ops, rows admitted, budget.ops)`` of a ``partial=True`` run
#: with ``tick_mask=0``, recorded while every outer row decoded its
#: inner ranges again: keeping the decoded chunks moves no stop point.
OP_CAP_SWEEP = {
    "T3": [
        (1, 0, 2), (13, 0, 14), (100, 54, 101), (500, 432, 501),
        (1000, 918, 1001), (2000, 1872, 2001), (3333, 3132, 3334),
        (7609, 7105, 7610), (11111, 10293, 11112), (15217, 12546, 15218),
        (15218, 12547, 15218), (27761, 12547, 15218), (27762, 12547, 15218),
    ],
    "P3": [
        (1, 0, 2), (13, 0, 14), (100, 0, 101), (500, 395, 501),
        (1000, 948, 1001), (2000, 1896, 2001), (3333, 3240, 3334),
        (7609, 7227, 7610), (11111, 9863, 11112), (15217, 13433, 15218),
        (15218, 13433, 15219), (27761, 23338, 27762), (27762, 23338, 27762),
    ],
}


@pytest.mark.parametrize("shape", sorted(OP_CAP_SWEEP))
def test_op_caps_stop_where_decoding_per_row_stopped(ledger_workload, shape):
    index, by_shape = ledger_workload
    bgp = by_shape[shape][0]
    sweep = []
    for cap, _rows, _ops in OP_CAP_SWEEP[shape]:
        budget = ResourceBudget(max_ops=cap, tick_mask=0)
        rows = index.evaluate(bgp, budget=budget, partial=True)
        sweep.append((cap, len(rows), budget.ops))
    assert sweep == OP_CAP_SWEEP[shape]
