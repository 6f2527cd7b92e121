"""Short and long lonely decodes: one answer on both sides of the crossover.

``Ring.decode_range`` decodes a range of at most ``SHORT_DECODE_ROWS``
rows one row at a time (``WaveletMatrix.access_rank`` plus ``C`` per LF
step) and a longer one with batched numpy level steps.  The two paths
must hand back the same columns — keys, dtype and values — on every
bitvector backing: plain, RRR and a memory-mapped frozen pack.
"""

import numpy as np
import pytest

from repro.core import ring as ring_module
from repro.core.frozen import open_frozen_ring
from repro.core.ring import Ring, next_attr, prev_attr
from repro.core.system import RingIndex
from repro.graph.generators import random_graph
from repro.graph.model import O, P, S
from repro.perf import KERNEL_COUNTERS, measuring

CROSSOVER = ring_module.SHORT_DECODE_ROWS
SIZES = (0, 1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 64)


@pytest.fixture(scope="module")
def graph():
    return random_graph(900, n_nodes=120, n_predicates=5, seed=3)


@pytest.fixture(scope="module", params=["plain", "rrr", "mmap"])
def ring(request, graph, tmp_path_factory):
    if request.param == "mmap":
        path = str(tmp_path_factory.mktemp("decode") / "index.ring")
        RingIndex(graph).save_frozen(path)
        return open_frozen_ring(path, mmap=True)[0]
    return Ring(graph, compressed=request.param == "rrr")


def _zone_order(graph, zone: int) -> np.ndarray:
    """The triples in zone ``zone``'s order: sorted by ``zone``, then
    the attributes after it, cyclically."""
    t = graph.triples
    second, third = next_attr(zone), next_attr(next_attr(zone))
    return t[np.lexsort((t[:, third], t[:, second], t[:, zone]))]


def _decode(monkeypatch, ring, zone, lo, hi, n_attrs, short_rows):
    monkeypatch.setattr(ring_module, "SHORT_DECODE_ROWS", short_rows)
    return ring.decode_range(zone, lo, hi, n_attrs)


@pytest.mark.parametrize("n_attrs", (1, 2, 3))
@pytest.mark.parametrize("size", SIZES)
def test_both_paths_give_the_same_columns(
    monkeypatch, graph, ring, size, n_attrs
):
    for zone in (S, P, O):
        rows = _zone_order(graph, zone)
        for lo in (0, 101, ring.n - size):
            hi = lo + size
            scalar = _decode(monkeypatch, ring, zone, lo, hi, n_attrs, 10**9)
            batched = _decode(monkeypatch, ring, zone, lo, hi, n_attrs, -1)
            assert list(scalar) == list(batched) and len(scalar) == n_attrs
            attr = zone
            for key in scalar:
                attr = prev_attr(attr)
                assert key == attr
                for column in (scalar[key], batched[key]):
                    assert column.dtype == np.int64
                    assert column.shape == (size,)
                    assert column.tolist() == rows[lo:hi, attr].tolist()


def test_access_rank_is_access_then_rank(ring):
    for zone in (S, P, O):
        wm = ring.zone_sequence(zone)
        for i in range(0, len(wm), 7):
            symbol = wm[i]
            assert wm.access_rank(i) == (symbol, wm.rank(symbol, i))
        with pytest.raises(IndexError):
            wm.access_rank(len(wm))


def test_triple_is_unchanged_on_every_backing(graph, ring):
    for i in range(0, ring.n, 11):
        assert ring.triple(i) == tuple(int(x) for x in graph.triples[i])


def test_the_crossover_picks_the_path_and_both_are_counted(ring):
    for size, batched in ((CROSSOVER, False), (CROSSOVER + 1, True)):
        with measuring():
            ring.decode_range(S, 3, 3 + size, 2)
            snapshot = KERNEL_COUNTERS.snapshot()
        assert snapshot["ring.decode_range"]["ops"] == 2 * size
        assert ("wavelet.extract_at" in snapshot) == batched
