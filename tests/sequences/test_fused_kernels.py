"""Property tests for the fused wavelet-matrix kernels.

Every scalar operation (``rank``, ``rank_pair``, ``select``,
``__getitem__``, ``next_in_range``, ``distinct_in_range``, the
``k``-matrix ``intersect_ranges``) and every batch operation is compared
with a brute-force reference on the decoded sequence, over random
``(n, sigma)`` including the edges the fused loops
must get right: ``n in {0, 1, 64, 128}`` (``n % 64 == 0`` makes a
boundary equal to ``n`` index one word past the end), ``sigma == 1``,
non-power-of-two ``sigma``, ``lo == hi``, ``c >= sigma`` and
negative/overlong arguments — today's clamping is the contract.

The same checks run over three backings of one ring — RAM arrays and
a frozen pack opened with ``mmap=True`` (read-only views) or read
eagerly into one buffer — and over RRR levels, which the same loops ask
through their level objects.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import open_frozen_ring, write_frozen_ring
from repro.core.ltj import BATCH_CROSSOVER
from repro.core.ring import Ring
from repro.graph.dataset import Graph
from repro.graph.model import O, P, S
from repro.perf.counters import measuring
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


def check_intersections(matrices, seqs, seed):
    """``intersect_ranges`` over ``matrices`` (one level count) against
    a set intersection of the decoded windows, for empty, full, random
    and ``hi = n`` ranges and ``c`` at 0, mid-range and past every
    alphabet; every yielded rank pair against :meth:`rank_pair`."""
    rng = np.random.default_rng(seed)
    sigma = max(wm.sigma for wm in matrices)
    picks = []
    for _ in range(6):
        ranges = []
        for seq in seqs:
            n = len(seq)
            kind = rng.integers(4)
            if kind == 0:
                lo = int(rng.integers(0, n + 1))
                ranges.append((lo, lo))  # empty
            elif kind == 1:
                ranges.append((0, n))  # full
            elif kind == 2:
                ranges.append((int(rng.integers(0, n + 1)), n))  # hi = n
            else:
                ends = sorted(int(x) for x in rng.integers(-1, n + 2, 2))
                ranges.append(tuple(ends))
        picks.append(ranges)
    for ranges in picks:
        windows = [
            set(seq[max(lo, 0):max(min(hi, len(seq)), 0)].tolist())
            for seq, (lo, hi) in zip(seqs, ranges)
        ]
        common = sorted(set.intersection(*windows))
        mid = int(rng.integers(0, sigma + 1))
        for c in (-1, 0, sigma // 2, mid, sigma, sigma + 3):
            got = list(WaveletMatrix.intersect_ranges(matrices, ranges, c))
            assert [v for v, _ in got] == [v for v in common if v >= c]
            for value, pairs in got:
                assert list(pairs) == [
                    wm.rank_pair(value, lo, hi)
                    for wm, (lo, hi) in zip(matrices, ranges)
                ]


@st.composite
def intersections(draw):
    """``k`` sequences of different lengths over alphabets of one level
    count (σ = 1 and 2 share one level; 5–8 share three)."""
    k = draw(st.integers(1, 3))
    sigma = draw(st.sampled_from((1, 2, 7, 8, 13)) | st.integers(1, 40))
    levels = max(1, (sigma - 1).bit_length())
    floor = 1 if levels == 1 else (1 << (levels - 1)) + 1
    seqs = []
    for _ in range(k):
        n = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(0, 150))
        own = draw(st.integers(floor, max(sigma, floor)))
        seed = draw(st.integers(0, 2**32 - 1))
        seqs.append((np.random.default_rng(seed).integers(0, own, n), own))
    return seqs


@given(intersections(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_intersect_ranges_matches_brute_force(case, compressed, seed):
    matrices = [
        WaveletMatrix(seq, own, compressed=compressed) for seq, own in case
    ]
    check_intersections(matrices, [seq for seq, _ in case], seed)


#: Problems per batched call: one, either side of the engine's
#: crossover, and more than a block.
BLOCK_SIZES = (1, BATCH_CROSSOVER - 1, BATCH_CROSSOVER, 300)


def check_batched_intersections(matrices, seqs, seed, sizes=BLOCK_SIZES):
    """``intersect_ranges_many`` against one scalar ``intersect_ranges``
    from ``0`` per problem: the same values with the same rank pairs,
    and resume points that reproduce the scalar search's
    ``on_backtrack`` calls — those in ``(0, v]`` before each value
    ``v``, the rest after the last.  Ranges are random with about a
    fifth left empty, and each call records one kernel entry."""
    rng = np.random.default_rng(seed)
    for size in sizes:
        los, his = [], []
        for seq in seqs:
            ends = np.sort(rng.integers(-1, len(seq) + 2, (2, size)), axis=0)
            empty = rng.random(size) < 0.2
            los.append(ends[0])
            his.append(np.where(empty, ends[0], ends[1]))
        with measuring() as counters:
            problem, values, below, upto, (r_problem, r_start) = (
                WaveletMatrix.intersect_ranges_many(matrices, los, his)
            )
            assert counters.calls("wavelet.intersect_ranges_many") == 1
            assert counters.ops("wavelet.intersect_ranges_many") == size
        assert problem.tolist() == sorted(problem.tolist())
        for r in range(size):
            ranges = [(int(lo[r]), int(hi[r])) for lo, hi in zip(los, his)]
            backtracks = []
            want = [
                (value, tuple(pairs), len(backtracks))
                for value, pairs in WaveletMatrix.intersect_ranges(
                    matrices, ranges, 0, lambda: backtracks.append(1)
                )
            ]
            starts = r_start[r_problem == r].tolist()
            assert starts == sorted(starts)
            assert all(start > 0 for start in starts)
            got = [
                (
                    int(values[i]),
                    tuple((int(b[i]), int(u[i])) for b, u in zip(below, upto)),
                    bisect_right(starts, int(values[i])),
                )
                for i in np.flatnonzero(problem == r)
            ]
            assert got == want
            assert len(starts) == len(backtracks)


@given(intersections(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_intersect_ranges_many_matches_the_scalar_kernel(case, compressed, seed):
    matrices = [
        WaveletMatrix(seq, own, compressed=compressed) for seq, own in case
    ]
    sizes = BLOCK_SIZES[:2] if compressed else BLOCK_SIZES
    check_batched_intersections(matrices, [seq for seq, _ in case], seed, sizes)


def test_intersect_ranges_many_needs_one_level_count():
    two, three = WaveletMatrix([0, 1], 2), WaveletMatrix([0, 5], 6)
    with pytest.raises(ValueError, match="level count"):
        WaveletMatrix.intersect_ranges_many(
            [two, three], [[0], [0]], [[2], [2]]
        )
    with pytest.raises(ValueError, match="needs a matrix"):
        WaveletMatrix.intersect_ranges_many([], [], [])


def test_intersect_ranges_needs_one_level_count():
    two, three = WaveletMatrix([0, 1], 2), WaveletMatrix([0, 5], 6)
    with pytest.raises(ValueError, match="level count"):
        WaveletMatrix.intersect_ranges([two, three], [(0, 2), (0, 2)])
    with pytest.raises(ValueError, match="one range per matrix"):
        WaveletMatrix.intersect_ranges([two], [(0, 2), (0, 2)])


def test_intersect_ranges_calls_back_on_every_backtrack():
    wm = WaveletMatrix(np.arange(16), 16)
    calls = []
    got = list(WaveletMatrix.intersect_ranges(
        [wm, wm], [(0, 16), (0, 16)], 0, lambda: calls.append(1)
    ))
    assert [v for v, _ in got] == list(range(16))
    assert len(calls) == 15  # every leaf after the first resumes a sibling


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
    """RAM arrays, a read-only memory-mapped pack and an eagerly read
    pack serve the same fused loops over the same words."""
    ram = Ring(graph)
    path = tmp_path_factory.mktemp("fused") / "ring.ring"
    write_frozen_ring(ram, path, n_nodes=graph.n_nodes,
                      n_predicates=graph.n_predicates)
    mapped, _ = open_frozen_ring(path, mmap=True)
    eager, _ = open_frozen_ring(path, mmap=False)
    t = graph.triples
    columns = {
        S: t[:, O],
        P: t[np.lexsort((t[:, S], t[:, O], t[:, P]))][:, S],
        O: t[np.lexsort((t[:, P], t[:, S], t[:, O]))][:, P],
    }
    for ring in (ram, mapped, eager):
        for zone, column in columns.items():
            wm = ring.zone_sequence(zone)
            assert all(lv[-1] is None for lv in wm._loop)
            check_against_brute_force(wm, column, wm.sigma, seed)
        # Zones S and P both hold node ids: one level count.
        for zones in ((S,), (S, P), (P, S, P)):
            check_intersections(
                [ring.zone_sequence(z) for z in zones],
                [columns[z] for z in zones], seed,
            )
            check_batched_intersections(
                [ring.zone_sequence(z) for z in zones],
                [columns[z] for z in zones], seed, BLOCK_SIZES[1:3],
            )
        assert ring.triples().tolist() == t.tolist()
    for bv in mapped.zone_sequence(S)._bits:
        assert all(view.readonly for view in bv._views)
