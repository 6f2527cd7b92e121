"""Property tests for the fused wavelet-matrix kernels.

Every scalar operation (``rank``, ``rank_pair``, ``select``,
``__getitem__``, ``next_in_range``, ``distinct_in_range``) and every
batch operation is compared with a brute-force reference on the decoded
sequence, over random ``(n, sigma)`` including the edges the fused loops
must get right: ``n in {0, 1, 64, 128}`` (``n % 64 == 0`` makes a
boundary equal to ``n`` index one word past the end), ``sigma == 1``,
non-power-of-two ``sigma``, ``lo == hi``, ``c >= sigma`` and
negative/overlong arguments — today's clamping is the contract.

The same checks run over three backings of one ring — RAM arrays, a
frozen pack opened with ``mmap=True`` (read-only views) and a shared-
memory attach — and over RRR levels, which the same loops ask through
their level objects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import open_frozen_ring, write_frozen_ring
from repro.core.ring import Ring
from repro.graph.dataset import Graph
from repro.graph.model import O, P, S
from repro.parallel.shm import attach_ring, detach_ring, export_ring
from repro.sequences.wavelet_matrix import WaveletMatrix

EDGE_LENGTHS = (0, 1, 64, 128)


@st.composite
def sequences(draw, max_n=200, max_sigma=40):
    """``(seq, sigma)``: lengths hit the word-boundary edges, alphabets
    hit 1, powers of two and everything between."""
    n = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(0, max_n))
    sigma = draw(st.sampled_from((1, 2, 8, 13)) | st.integers(1, max_sigma))
    seed = draw(st.integers(0, 2**32 - 1))
    seq = np.random.default_rng(seed).integers(0, sigma, n)
    return seq, sigma


def _rank(seq, sigma, c, i):
    if not 0 <= c < sigma:
        return 0
    return int(np.count_nonzero(seq[: min(max(i, 0), len(seq))] == c))


def _bit_reversed(x, levels):
    return int(format(x, f"0{levels}b")[::-1], 2)


def check_against_brute_force(wm, seq, sigma, seed):
    """Every operation of ``wm`` against ``seq``, probed at positions
    and symbols that straddle both ends of their ranges."""
    n = len(seq)
    rng = np.random.default_rng(seed)
    assert len(wm) == n and wm.sigma == sigma
    positions = sorted({-2, 0, 1, n - 1, n, n + 3, *rng.integers(-1, n + 2, 6)})
    positions = [int(p) for p in positions]
    symbols = sorted({-1, 0, sigma - 1, sigma, sigma + 5,
                      *(int(c) for c in rng.integers(0, sigma, 4))})

    # -- scalars -----------------------------------------------------------
    assert [wm[i] for i in range(n)] == seq.tolist()
    for bad in (-1, n):
        with pytest.raises(IndexError):
            wm[bad]
    for c in symbols:
        occurrences = np.flatnonzero(seq == c) if 0 <= c < sigma else []
        for i in positions:
            assert wm.rank(c, i) == _rank(seq, sigma, c, i)
            for j in positions:
                want = (_rank(seq, sigma, c, i), _rank(seq, sigma, c, j))
                assert wm.rank_pair(c, i, j) == want
                assert wm.count(c, i, j) == want[1] - want[0]
        if 0 <= c < sigma:
            for k, at in enumerate(occurrences, 1):
                assert wm.select(c, k) == at
            for k in (0, len(occurrences) + 1, -1):
                with pytest.raises(ValueError):
                    wm.select(c, k)
        else:
            with pytest.raises(ValueError):
                wm.select(c, 1)
    for lo in positions:
        for hi in positions:  # includes lo == hi and lo > hi
            window = seq[max(lo, 0):max(min(hi, n), 0)] if lo < hi else seq[:0]
            for c in symbols:
                candidates = window[window >= c]
                want = int(candidates.min()) if len(candidates) else None
                assert wm.next_in_range(lo, hi, c) == want
            values, counts = np.unique(window, return_counts=True)
            distinct = list(zip(values.tolist(), counts.tolist()))
            assert list(wm.distinct_in_range(lo, hi)) == distinct
            assert wm.count_distinct(lo, hi) == len(distinct)
            assert wm.distinct_estimate(lo, hi, max_nodes=1 << 20) == len(distinct)
            assert wm.min_in_range(lo, hi) == (distinct[0][0] if distinct else None)
            assert wm.extract(lo, hi).tolist() == window.tolist()

    # -- batch ---------------------------------------------------------------
    probe = np.array(positions, dtype=np.int64)
    for c in symbols:
        want = [_rank(seq, sigma, c, i) for i in positions]
        assert wm.rank_many(c, probe).tolist() == want
        assert wm.rank_many(c, probe.reshape(1, -1)).tolist() == [want]
        counts = wm.count_many(c, probe, probe[::-1])
        assert counts.tolist() == [b - a for a, b in zip(want, want[::-1])]
    assert wm.rank_many(0, np.empty(0, dtype=np.int64)).size == 0
    assert wm.to_numpy().tolist() == seq.tolist()
    if n:
        at = rng.integers(0, n, 12)
        values, bottoms = wm.extract_at(at, return_bottom=True)
        assert values.tolist() == seq[at].tolist()
        levels = wm.levels
        order = np.array([_bit_reversed(int(x), levels) for x in seq])
        present = np.unique(seq)
        starts = wm.bucket_starts(present)
        for s, start in zip(present.tolist(), starts.tolist()):
            assert start == np.count_nonzero(order < _bit_reversed(s, levels))
        for i, bottom in zip(at.tolist(), bottoms.tolist()):
            s = int(seq[i])
            start = starts[np.searchsorted(present, s)]
            assert bottom == start + _rank(seq, sigma, s, i)
    for bad in ([-1], [n]):
        with pytest.raises(IndexError):
            wm.extract_at(np.array(bad))


@given(sequences(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_fused_ops_match_brute_force(case, seed):
    seq, sigma = case
    wm = WaveletMatrix(seq, sigma)
    assert all(lv[-1] is None for lv in wm._loop)
    check_against_brute_force(wm, seq, sigma, seed)


@given(sequences(max_n=70, max_sigma=20), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_rrr_levels_agree_through_the_same_loops(case, seed):
    seq, sigma = case
    wm = WaveletMatrix(seq, sigma, compressed=True)
    assert all(lv[-1] is not None for lv in wm._loop)
    check_against_brute_force(wm, seq, sigma, seed)


@st.composite
def graphs(draw):
    """A small graph whose triple count hits the word-boundary edges."""
    n_nodes = draw(st.integers(1, 24))
    n_predicates = draw(st.integers(1, 5))
    capacity = n_nodes * n_predicates * n_nodes
    n = min(draw(st.sampled_from((1, 64, 128)) | st.integers(1, 160)), capacity)
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).choice(capacity, size=n, replace=False)
    s, rest = np.divmod(picks, n_predicates * n_nodes)
    p, o = np.divmod(rest, n_nodes)
    return Graph(np.stack([s, p, o], axis=1), n_nodes=n_nodes,
                 n_predicates=n_predicates)


@given(graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_three_backings_agree(tmp_path_factory, graph, seed):
    """RAM arrays, a read-only memory-mapped pack and a shared-memory
    attach serve the same fused loops over the same words."""
    ram = Ring(graph)
    path = tmp_path_factory.mktemp("fused") / "ring.ring"
    write_frozen_ring(ram, path, n_nodes=graph.n_nodes,
                      n_predicates=graph.n_predicates)
    mapped, _ = open_frozen_ring(path, mmap=True)
    with export_ring(ram) as shared:
        attached = attach_ring(shared.handle)
        try:
            t = graph.triples
            columns = {
                S: t[:, O],
                P: t[np.lexsort((t[:, S], t[:, O], t[:, P]))][:, S],
                O: t[np.lexsort((t[:, P], t[:, S], t[:, O]))][:, P],
            }
            for ring in (ram, mapped, attached):
                for zone, column in columns.items():
                    wm = ring.zone_sequence(zone)
                    assert all(lv[-1] is None for lv in wm._loop)
                    check_against_brute_force(wm, column, wm.sigma, seed)
                assert ring.triples().tolist() == t.tolist()
            for bv in mapped.zone_sequence(S)._bits:
                assert all(view.readonly for view in bv._views)
        finally:
            detach_ring(attached)
