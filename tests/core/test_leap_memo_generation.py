"""Generation scoping of the backward-leap LRU memo.

The memo key carries the ring's *leap generation*: owners whose
mutation paths swap or rebuild backing state (the dynamic ring's
compaction) bump it, after which no entry
cached under an earlier generation can ever be served again — even if
the entry is still physically in the dict.  These tests pin that
contract with a sentinel wavelet matrix: a memo hit must *not* consult
the matrix, and an invalidated memo must.
"""

import pytest

from repro.core.dynamic import DynamicRingIndex
from repro.core.system import RingIndex
from repro.graph.generators import random_graph
from repro.graph.model import S
from repro.sequences.wavelet_matrix import WaveletMatrix

SENTINEL = 31337


@pytest.fixture()
def ring():
    return RingIndex(random_graph(300, n_nodes=40, n_predicates=3, seed=13)).ring


def test_memo_hit_skips_the_wavelet_matrix(ring, monkeypatch):
    original = ring.backward_leap(S, 0, ring.n, 0)
    assert original is not None
    monkeypatch.setattr(
        WaveletMatrix, "next_in_range", lambda self, lo, hi, c: SENTINEL
    )
    assert ring.backward_leap(S, 0, ring.n, 0) == original, (
        "repeated leap must be served from the memo, not the matrix"
    )
    assert ring.leap_memo_stats()["hits"] >= 1


def test_invalidate_retires_every_cached_leap(ring, monkeypatch):
    before = ring.leap_memo_stats()["generation"]
    ring.backward_leap(S, 0, ring.n, 0)  # seed one entry
    assert ring.leap_memo_stats()["entries"] == 1
    monkeypatch.setattr(
        WaveletMatrix, "next_in_range", lambda self, lo, hi, c: SENTINEL
    )
    ring.invalidate_leap_memo()
    stats = ring.leap_memo_stats()
    assert stats["generation"] == before + 1
    assert stats["entries"] == 0
    assert ring.backward_leap(S, 0, ring.n, 0) == SENTINEL, (
        "post-invalidation leap must re-consult the matrix"
    )


def test_generation_scopes_keys_even_without_clearing(ring, monkeypatch):
    """Stale entries are unreachable by *key*, not merely evicted."""
    ring.backward_leap(S, 0, ring.n, 0)
    stale = dict(ring._leap_memo)  # simulate entries surviving the clear
    ring.invalidate_leap_memo()
    ring._leap_memo.update(stale)
    monkeypatch.setattr(
        WaveletMatrix, "next_in_range", lambda self, lo, hi, c: SENTINEL
    )
    assert ring.backward_leap(S, 0, ring.n, 0) == SENTINEL


def test_dynamic_compaction_bumps_component_generations():
    graph = random_graph(200, n_nodes=60, n_predicates=4, seed=17)
    index = DynamicRingIndex(graph, buffer_threshold=8, auto_compact=False)
    [base] = index._rings
    base.backward_leap(S, 0, base.n, 0)  # seed a memo on the static ring
    assert base.leap_memo_stats()["entries"] == 1

    inserted = 0
    for s in range(60):
        if inserted >= 9:
            break
        if index.insert(s, 3, (s + 7) % 60):
            inserted += 1
    assert inserted >= 9
    index.compact()

    assert base in index._rings, "big ring should survive geometric merge"
    assert base.leap_generation >= 1
    assert base.leap_memo_stats()["entries"] == 0
    assert all(r.leap_generation >= 1 for r in index._rings)
