"""Counts, not clocks: the deterministic cost ledger (ROADMAP item 10).

``LEDGER`` holds the exact engine counts — leaps, binds, bulk-decoded
rows, result rows — of the 17 WGPB shapes under every planning policy on
one seeded graph.  A change that only makes a leap *cheaper* (the fused
wavelet level loops) must leave every number here untouched; a change
that alters how many leaps are made shows up as a diff of this table,
reviewed like code, before any timing run.  ``SLICED`` pins the
``first_range`` clip the same way: leaps + binds summed over a fixed
4-way split of the first variable's domain.

Regenerate (after an intended algorithmic change) with::

    PYTHONPATH=src python tests/core/test_cost_ledger.py
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.bits.bitvector import BitVector
from repro.core.ltj import POLICIES
from repro.core.system import RingIndex
from repro.graph.generators import wikidata_like
from repro.sequences.wavelet_matrix import WaveletMatrix

LIMIT = 1000
COUNTS = ("leaps", "binds", "bulk_rows")

#: shape -> policy -> (leaps, binds, bulk_rows, rows), two instances each.
LEDGER: dict[str, dict[str, tuple[int, int, int, int]]] = {
    'P2': {
        'static': (260, 55, 1782, 1587),
        'rowcount': (260, 55, 1782, 1587),
        'distinct': (260, 55, 1782, 1587),
        'adaptive': (260, 55, 1782, 1587),
    },
    'P3': {
        'static': (10, 5, 2194, 2000),
        'rowcount': (10, 5, 2194, 2000),
        'distinct': (10, 5, 2194, 2000),
        'adaptive': (10, 5, 2194, 2000),
    },
    'P4': {
        'static': (771, 146, 2413, 2000),
        'rowcount': (771, 146, 2413, 2000),
        'distinct': (18039, 2353, 2407, 2000),
        'adaptive': (771, 146, 2413, 2000),
    },
    'T2': {
        'static': (4, 2, 2162, 2000),
        'rowcount': (4, 2, 2162, 2000),
        'distinct': (4, 2, 2162, 2000),
        'adaptive': (4, 2, 2162, 2000),
    },
    'T3': {
        'static': (6, 2, 2283, 2000),
        'rowcount': (6, 2, 2283, 2000),
        'distinct': (6, 2, 2283, 2000),
        'adaptive': (6, 2, 2283, 2000),
    },
    'T4': {
        'static': (8, 2, 2478, 2000),
        'rowcount': (8, 2, 2478, 2000),
        'distinct': (8, 2, 2478, 2000),
        'adaptive': (8, 2, 2478, 2000),
    },
    'Ti2': {
        'static': (4, 2, 2185, 2000),
        'rowcount': (4, 2, 2185, 2000),
        'distinct': (4, 2, 2185, 2000),
        'adaptive': (4, 2, 2185, 2000),
    },
    'Ti3': {
        'static': (6, 2, 2261, 2000),
        'rowcount': (6, 2, 2261, 2000),
        'distinct': (6, 2, 2261, 2000),
        'adaptive': (6, 2, 2261, 2000),
    },
    'Ti4': {
        'static': (8, 2, 2552, 2000),
        'rowcount': (8, 2, 2552, 2000),
        'distinct': (8, 2, 2552, 2000),
        'adaptive': (8, 2, 2552, 2000),
    },
    'J3': {
        'static': (6, 2, 2166, 2000),
        'rowcount': (6, 2, 2166, 2000),
        'distinct': (6, 2, 2166, 2000),
        'adaptive': (6, 2, 2166, 2000),
    },
    'J4': {
        'static': (8, 2, 2274, 2000),
        'rowcount': (8, 2, 2274, 2000),
        'distinct': (8, 2, 2274, 2000),
        'adaptive': (8, 2, 2274, 2000),
    },
    'Tr1': {
        'static': (2711, 390, 0, 55),
        'rowcount': (2327, 323, 0, 55),
        'distinct': (2711, 390, 0, 55),
        'adaptive': (2327, 323, 0, 55),
    },
    'Tr2': {
        'static': (4541, 647, 0, 32),
        'rowcount': (2985, 432, 0, 32),
        'distinct': (4541, 647, 0, 32),
        'adaptive': (2994, 441, 0, 32),
    },
    'S1': {
        'static': (7209, 1048, 0, 129),
        'rowcount': (4907, 694, 0, 129),
        'distinct': (7209, 1048, 0, 129),
        'adaptive': (4907, 694, 0, 129),
    },
    'S2': {
        'static': (21497, 3662, 0, 479),
        'rowcount': (8919, 1454, 0, 479),
        'distinct': (21497, 3662, 0, 479),
        'adaptive': (8919, 1454, 0, 479),
    },
    'S3': {
        'static': (22253, 3234, 0, 788),
        'rowcount': (10763, 1757, 0, 788),
        'distinct': (164977, 24155, 0, 788),
        'adaptive': (10763, 1757, 0, 788),
    },
    'S4': {
        'static': (7540, 2462, 0, 2000),
        'rowcount': (7540, 2462, 0, 2000),
        'distinct': (4084, 2030, 0, 2000),
        'adaptive': (4084, 2030, 0, 2000),
    },
}

#: shape -> policy -> leaps + binds over the 4 slices of ``_quarters``.
SLICED: dict[str, dict[str, int]] = {
    'P2': {'static': 132, 'rowcount': 132, 'distinct': 132, 'adaptive': 132},
    'P3': {'static': 494, 'rowcount': 494, 'distinct': 494, 'adaptive': 494},
    'P4': {'static': 343, 'rowcount': 343, 'distinct': 5248, 'adaptive': 343},
    'T2': {'static': 1086, 'rowcount': 1086, 'distinct': 1086, 'adaptive': 1086},
    'T3': {'static': 587, 'rowcount': 587, 'distinct': 587, 'adaptive': 587},
    'T4': {'static': 711, 'rowcount': 711, 'distinct': 711, 'adaptive': 711},
    'Ti2': {'static': 1233, 'rowcount': 1233, 'distinct': 1233, 'adaptive': 1233},
    'Ti3': {'static': 629, 'rowcount': 629, 'distinct': 629, 'adaptive': 629},
    'Ti4': {'static': 870, 'rowcount': 870, 'distinct': 870, 'adaptive': 870},
    'J3': {'static': 374, 'rowcount': 374, 'distinct': 374, 'adaptive': 374},
    'J4': {'static': 208, 'rowcount': 208, 'distinct': 208, 'adaptive': 208},
    'Tr1': {'static': 1596, 'rowcount': 1146, 'distinct': 1596, 'adaptive': 1146},
    'Tr2': {'static': 1295, 'rowcount': 1100, 'distinct': 1295, 'adaptive': 1116},
    'S1': {'static': 5500, 'rowcount': 3573, 'distinct': 5500, 'adaptive': 3573},
    'S2': {'static': 6517, 'rowcount': 2451, 'distinct': 6517, 'adaptive': 2451},
    'S3': {'static': 1662, 'rowcount': 1645, 'distinct': 1662, 'adaptive': 1645},
    'S4': {'static': 7794, 'rowcount': 4868, 'distinct': 355846, 'adaptive': 4280},
}


def _workload():
    graph = wikidata_like(4000, seed=0)
    return graph, generate_wgpb_queries(graph, queries_per_shape=2, seed=0)


def measure() -> dict[str, dict[str, tuple[int, int, int, int]]]:
    graph, by_shape = _workload()
    ledger: dict[str, dict[str, tuple[int, int, int, int]]] = {}
    for policy in POLICIES:
        index = RingIndex(graph, policy=policy)
        for shape, instances in by_shape.items():
            totals = [0, 0, 0, 0]
            for bgp in instances:
                stats: dict = {}
                rows = index.evaluate(bgp, limit=LIMIT, stats=stats)
                for i, key in enumerate(COUNTS):
                    totals[i] += stats.get(key, 0)
                totals[3] += len(rows)
            ledger.setdefault(shape, {})[policy] = tuple(totals)
    return ledger


def _quarters(universe: int) -> list[tuple[int, int]]:
    bounds = [i * universe // 4 for i in range(5)]
    return list(zip(bounds, bounds[1:]))


def measure_sliced() -> dict[str, dict[str, int]]:
    """The first instance of each shape, run as four ``first_range``
    slices (``LIMIT // 4`` rows each) with the first variable pinned
    the way the parallel driver pins it."""
    graph, by_shape = _workload()
    cuts = _quarters(max(graph.n_nodes, graph.n_predicates))
    sliced: dict[str, dict[str, int]] = {}
    for policy in POLICIES:
        engine = RingIndex(graph, policy=policy)._engine
        for shape, instances in by_shape.items():
            bgp = instances[0]
            _live, by_var, order, _lonely = engine._analyse(bgp)
            if policy == "static":
                pin = {"var_order": order}
            else:
                pin = {"first_var": engine.first_variable(order, by_var)}
            total = 0
            for cut in cuts:
                stats: dict = {}
                rows = engine.evaluate(bgp, stats=stats, first_range=cut, **pin)
                for _ in islice(rows, LIMIT // 4):
                    pass
                total += stats["leaps"] + stats["binds"]
            sliced.setdefault(shape, {})[policy] = total
    return sliced


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_ledger_covers_every_shape_and_policy(measured):
    assert set(measured) == set(LEDGER)
    for shape in LEDGER:
        assert set(measured[shape]) == set(POLICIES) == set(LEDGER[shape])


@pytest.mark.parametrize("policy", POLICIES)
def test_counts_match_the_ledger(measured, policy):
    got = {shape: measured[shape][policy] for shape in LEDGER}
    want = {shape: LEDGER[shape][policy] for shape in LEDGER}
    assert got == want


def test_sliced_counts_match_the_ledger():
    assert measure_sliced() == SLICED


#: The public BitVector callables the benchmark's tracer wraps.
BITVECTOR_CALLABLES = (
    "__getitem__", "rank1", "rank0", "select1", "select0", "next_one",
    "rank1_many", "rank0_many", "select1_many", "access_many",
)

FUSED_SCALAR_OPS = {
    "__getitem__": lambda wm: wm[17],
    "rank": lambda wm: wm.rank(3, 90),
    "rank_pair": lambda wm: wm.rank_pair(3, 5, 128),
    "select": lambda wm: wm.select(wm[17], 1),
    "next_in_range": lambda wm: wm.next_in_range(3, 128, 2),
    "distinct_in_range": lambda wm: list(wm.distinct_in_range(3, 128)),
}


@pytest.fixture
def bitvector_calls(monkeypatch):
    """Count entries into BitVector methods, the way the tracer does."""
    calls = {"n": 0}

    def counted(method):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in BITVECTOR_CALLABLES:
        monkeypatch.setattr(BitVector, name, counted(getattr(BitVector, name)))
    return calls


@pytest.mark.parametrize("op", FUSED_SCALAR_OPS)
def test_fused_ops_enter_no_bitvector_method(bitvector_calls, op):
    seq = np.random.default_rng(0).integers(0, 11, 128)
    wm = WaveletMatrix(seq, 11)
    FUSED_SCALAR_OPS[op](wm)
    assert bitvector_calls["n"] == 0
    wm._bits[0].rank1(5)  # the wrappers do count
    assert bitvector_calls["n"] == 1


if __name__ == "__main__":
    print("LEDGER = {")
    for shape, by_policy in measure().items():
        print(f"    {shape!r}: {{")
        for policy, counts in by_policy.items():
            print(f"        {policy!r}: {counts},")
        print("    },")
    print("}")
    print("SLICED = {")
    for shape, by_policy in measure_sliced().items():
        print(f"    {shape!r}: {by_policy},")
    print("}")
