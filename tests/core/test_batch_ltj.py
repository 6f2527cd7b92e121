"""The batch-leap LTJ path: equivalence, accounting, memo and faults.

The bulk-decode fast path must be *observably identical* to the scalar
walk except for speed: same solution sets (differential vs naive
evaluation), same resource-budget semantics (bulk rows charge ops via
``tick_many``), and same failure behaviour under injected faults.  The
engine duck-types ``solutions_bulk``, so the scalar side is a ring whose
iterators hide it — the path every baseline index takes.  The
ring-level extras (LRU leap memo, perf counters) are covered here too.
"""

import numpy as np
import pytest

from repro.core import QueryTimeout, RingIndex
from repro.core.interface import QueryExecutionError
from repro.core.iterators import RingIterator
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.generators import random_graph
from repro.perf import KERNEL_COUNTERS, measuring
from repro.reliability.budget import ResourceBudget
from repro.reliability.faults import Fault, InjectedFault, inject_faults
from tests.util import as_solution_set, naive_evaluate

X, Y, Z = Var("x"), Var("y"), Var("z")

SHAPES = [
    BasicGraphPattern([TriplePattern(X, 0, Y)]),
    BasicGraphPattern([TriplePattern(X, Y, Z)]),
    BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)]),
    BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(X, 1, Z)]),
    BasicGraphPattern(
        [
            TriplePattern(X, 0, Y),
            TriplePattern(Y, 0, Z),
            TriplePattern(Z, 0, X),
        ]
    ),
    BasicGraphPattern([TriplePattern(X, X, Y)]),  # repeated variable
    BasicGraphPattern([TriplePattern(X, 0, X)]),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(400, n_nodes=25, n_predicates=3, seed=11)


@pytest.fixture(scope="module")
def batch_index(graph):
    return RingIndex(graph)


class ScalarRingIterator(RingIterator):
    solutions_bulk = None  # hidden from the engine's getattr probe


class ScalarRingIndex(RingIndex):
    def iterator(self, pattern):
        return ScalarRingIterator(self._ring, pattern)


@pytest.fixture(scope="module")
def scalar_index(graph):
    return ScalarRingIndex(graph)


@pytest.mark.parametrize("bgp", SHAPES, ids=[repr(s) for s in SHAPES])
def test_batch_matches_scalar_and_naive(graph, batch_index, scalar_index, bgp):
    batch = as_solution_set(batch_index.evaluate(bgp))
    scalar = as_solution_set(scalar_index.evaluate(bgp))
    assert batch == scalar
    assert batch == naive_evaluate(graph, bgp)


def test_bulk_path_fires_and_is_ablatable(batch_index, scalar_index):
    """Lonely-variable queries go through bulk decode iff the iterator
    offers ``solutions_bulk``."""
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y)])
    stats: dict = {}
    batch_index.evaluate(bgp, stats=stats)
    assert stats["bulk_rows"] > 0
    stats = {}
    scalar_index.evaluate(bgp, stats=stats)
    assert stats["bulk_rows"] == 0


def test_bulk_rows_charge_the_op_budget(batch_index):
    """Every bulk-decoded row ticks the budget (tick_many), so a tiny
    op cap must fire even when all rows come from one batch call."""
    bgp = BasicGraphPattern([TriplePattern(X, Y, Z)])
    with pytest.raises(QueryTimeout):
        batch_index.evaluate(bgp, budget=ResourceBudget(max_ops=10))
    # ...and a roomy budget records the actual row count.
    budget = ResourceBudget(max_ops=10**9)
    result = batch_index.evaluate(bgp, budget=budget)
    assert budget.ops >= len(result)


def test_perf_counters_observe_batch_kernels(batch_index):
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y)])
    with measuring():
        n = len(batch_index.evaluate(bgp))
        snapshot = KERNEL_COUNTERS.snapshot()
    assert not KERNEL_COUNTERS.enabled  # restored on exit
    assert snapshot["ring.decode_range"]["ops"] >= n
    assert any(k.startswith("bits.") for k in snapshot)


def test_leap_memo_hits_on_repetition(graph):
    index = RingIndex(graph)
    ring = index.ring
    ring.clear_leap_memo()
    bgp = BasicGraphPattern(
        [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z), TriplePattern(Z, 0, X)]
    )
    index.evaluate(bgp)
    first = ring.leap_memo_stats()
    index.evaluate(bgp)  # identical query: previously-computed leaps recur
    second = ring.leap_memo_stats()
    assert second["hits"] > first["hits"]
    ring.clear_leap_memo()
    cleared = ring.leap_memo_stats()
    assert (cleared["hits"], cleared["misses"], cleared["entries"]) == (0, 0, 0)


def test_leap_memo_bounded(graph):
    index = RingIndex(graph, leap_memo_size=4)
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)])
    index.evaluate(bgp)
    stats = index.ring.leap_memo_stats()
    assert stats["capacity"] == 4
    assert stats["entries"] <= 4


@pytest.mark.parametrize(
    "site", ["wavelet.extract_at", "bitvector.rank_many", "wavelet.rank_many"]
)
def test_batch_path_respects_injected_faults(batch_index, site):
    """Errors injected into the batch kernels surface as typed failures,
    never as silent wrong answers (chaos invariant on the fast path)."""
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z)])
    reference = as_solution_set(batch_index.evaluate(bgp))
    injector = inject_faults(
        Fault(site, probability=1.0, error=InjectedFault), seed=3
    )
    with injector:
        try:
            result = as_solution_set(batch_index.evaluate(bgp))
        except QueryExecutionError:
            result = None
    if injector.fired[site]:
        assert result is None or result == reference
    else:
        assert result == reference


def test_batch_results_decode_to_ints(batch_index):
    """Bulk-decoded bindings are Python ints, not numpy scalars."""
    bgp = BasicGraphPattern([TriplePattern(X, 0, Y)])
    for mu in batch_index.evaluate(bgp, limit=5):
        for value in mu.values():
            assert type(value) is int
            assert not isinstance(value, np.integer)
