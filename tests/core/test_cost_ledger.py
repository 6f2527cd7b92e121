"""Counts, not clocks: the deterministic cost ledger (ROADMAP item 10).

``LEDGER`` holds the exact engine counts — leaps, binds, bulk-decoded
rows, the chunk decodes behind them, result rows — of the 17 WGPB
shapes on one seeded graph.  A change that only makes a leap
*cheaper* (the fused wavelet level loops) must leave every number
here untouched; a change that alters how many leaps are made shows
up as a diff of this table, reviewed like code, before any timing
run.

A *leap* is one ``leap`` call on an iterator, or one value a lockstep
descent of backward iterators reaches (``Ring.backward_lockstep``: the
descent that replaces their leaps and binds).

Regenerate (after an intended algorithmic change) with::

    PYTHONPATH=src python tests/core/test_cost_ledger.py

which prints ``shape column: old → new`` for every changed cell
before the new table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.bits.bitvector import BitVector
from repro.core.system import RingIndex
from repro.graph.generators import wikidata_like
from repro.sequences.wavelet_matrix import WaveletMatrix

LIMIT = 1000
COUNTS = ("leaps", "binds", "bulk_rows", "bulk_decodes")
COLUMNS = (*COUNTS, "rows")

#: shape -> (leaps, binds, bulk_rows, bulk_decodes, rows), two
#: instances each.
LEDGER: dict[str, tuple[int, int, int, int, int]] = {
    'P2': (244, 55, 1760, 110, 1587),
    'P3': (7, 5, 2194, 6, 2000),
    'P4': (319, 146, 2413, 132, 2000),
    'T2': (2, 2, 2162, 4, 2000),
    'T3': (2, 2, 2283, 6, 2000),
    'T4': (2, 2, 2478, 8, 2000),
    'Ti2': (4, 2, 2185, 4, 2000),
    'Ti3': (6, 2, 2261, 6, 2000),
    'Ti4': (8, 2, 2552, 8, 2000),
    'J3': (6, 2, 2166, 6, 2000),
    'J4': (6, 2, 2274, 8, 2000),
    'Tr1': (1020, 390, 0, 0, 55),
    'Tr2': (963, 647, 0, 0, 32),
    'S1': (2035, 1048, 0, 0, 129),
    'S2': (3850, 3662, 0, 0, 479),
    'S3': (4425, 3234, 0, 0, 788),
    'S4': (2480, 2462, 0, 0, 2000),
}


def _workload():
    graph = wikidata_like(4000, seed=0)
    return graph, generate_wgpb_queries(graph, queries_per_shape=2, seed=0)


def measure() -> dict[str, tuple[int, int, int, int, int]]:
    graph, by_shape = _workload()
    index = RingIndex(graph)
    ledger: dict[str, tuple[int, int, int, int, int]] = {}
    for shape, instances in by_shape.items():
        totals = [0] * len(COLUMNS)
        for bgp in instances:
            stats: dict = {}
            rows = index.evaluate(bgp, limit=LIMIT, stats=stats)
            for i, key in enumerate(COUNTS):
                totals[i] += stats.get(key, 0)
            totals[-1] += len(rows)
        ledger[shape] = tuple(totals)
    return ledger


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_ledger_covers_every_shape(measured):
    assert set(measured) == set(LEDGER)


def test_counts_match_the_ledger(measured):
    assert measured == LEDGER


#: The public BitVector callables the benchmark's tracer wraps.
BITVECTOR_CALLABLES = (
    "__getitem__", "rank1", "rank0", "select1", "select0", "next_one",
    "rank1_many", "rank0_many", "select1_many", "access_many",
)

FUSED_SCALAR_OPS = {
    "__getitem__": lambda wm: wm[17],
    "access_rank": lambda wm: wm.access_rank(90),
    "rank": lambda wm: wm.rank(3, 90),
    "rank_pair": lambda wm: wm.rank_pair(3, 5, 128),
    "select": lambda wm: wm.select(wm[17], 1),
    "next_in_range": lambda wm: wm.next_in_range(3, 128, 2),
    "distinct_in_range": lambda wm: list(wm.distinct_in_range(3, 128)),
    # k = 1 and 3 run the generic loop, k = 2 the unrolled body.
    "intersect_ranges": lambda wm: [
        list(WaveletMatrix.intersect_ranges(
            [wm] * k, [(3, 128), (0, 90), (5, 128)][:k], 2
        ))
        for k in (1, 2, 3)
    ],
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


def changed_cells(ledger) -> list[str]:
    """``shape column: old → new`` for every cell that moved."""
    lines = []
    for shape, counts in ledger.items():
        old = LEDGER.get(shape, (None,) * len(counts))
        if len(old) != len(counts):  # a column was added or dropped
            lines.append(f"{shape}: {old} → {counts}")
            continue
        for column, was, now in zip(COLUMNS, old, counts):
            if was != now:
                lines.append(f"{shape} {column}: {was} → {now}")
    return lines


if __name__ == "__main__":
    ledger = measure()
    for line in changed_cells(ledger):
        print(f"# {line}")
    print("LEDGER = {")
    for shape, counts in ledger.items():
        print(f"    {shape!r}: {counts},")
    print("}")
