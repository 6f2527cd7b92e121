"""Unit and property tests for the plain rank/select bitvector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector


def naive_rank1(bits, i):
    return sum(bits[:i])


def naive_select1(bits, k):
    seen = 0
    for pos, b in enumerate(bits):
        seen += b
        if b and seen == k:
            return pos
    raise ValueError


class TestBasics:
    def test_empty(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.ones == 0
        assert bv.rank1(0) == 0

    def test_single_one(self):
        bv = BitVector([1])
        assert len(bv) == 1
        assert bv.ones == 1
        assert bv[0] == 1
        assert bv.rank1(1) == 1
        assert bv.select1(1) == 0

    def test_single_zero(self):
        bv = BitVector([0])
        assert bv.ones == 0
        assert bv.zeros == 1
        assert bv.select0(1) == 0

    def test_access_matches_input(self):
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1]
        bv = BitVector(bits)
        assert [bv[i] for i in range(len(bits))] == bits

    def test_access_out_of_range(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv[2]
        with pytest.raises(IndexError):
            bv[-1]

    def test_rank_all_positions_small(self):
        bits = [1, 0, 0, 1, 1, 0, 1]
        bv = BitVector(bits)
        for i in range(len(bits) + 1):
            assert bv.rank1(i) == naive_rank1(bits, i)
            assert bv.rank0(i) == i - naive_rank1(bits, i)

    def test_rank_clamps(self):
        bv = BitVector([1, 1, 0])
        assert bv.rank1(100) == 2
        assert bv.rank1(-3) == 0

    def test_select_errors(self):
        bv = BitVector([1, 0, 1])
        with pytest.raises(ValueError):
            bv.select1(0)
        with pytest.raises(ValueError):
            bv.select1(3)
        with pytest.raises(ValueError):
            bv.select0(2)

    def test_select0(self):
        bits = [0, 1, 0, 0, 1, 0]
        bv = BitVector(bits)
        zero_positions = [i for i, b in enumerate(bits) if not b]
        for k, pos in enumerate(zero_positions, start=1):
            assert bv.select0(k) == pos

    def test_next_one(self):
        bv = BitVector([0, 0, 1, 0, 1, 0])
        assert bv.next_one(0) == 2
        assert bv.next_one(2) == 2
        assert bv.next_one(3) == 4
        assert bv.next_one(5) is None
        assert bv.next_one(100) is None

    def test_from_positions(self):
        bv = BitVector.from_positions(10, [0, 5, 9])
        assert bv.to_bool_array().tolist() == [
            True, False, False, False, False, True, False, False, False, True,
        ]

    def test_from_positions_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector.from_positions(4, [4])

    def test_from_components_rejects_unviewable_buffers(self):
        # The scalar kernels index zero-copy views of the three buffers:
        # strided or wrong-endian ones must fail typed at adoption, not
        # later inside a query.
        src = BitVector.from_bool_array(np.arange(1300) % 3 == 0)
        parts = {"words": src._words, "super_": src._super, "rel": src._rel}

        def adopt(**swap):
            return BitVector.from_components(
                **{**parts, **swap}, n=len(src), ones=src.ones
            )

        assert adopt().rank1(700) == src.rank1(700)
        strided = np.repeat(src._words, 2)[::2]
        assert (strided == src._words).all() and not strided.flags.c_contiguous
        for swap in (
            {"words": strided},
            {"words": src._words.astype(">u8")},
            {"rel": src._rel.astype(">u2")},
            {"super_": src._super[:-1]},
        ):
            with pytest.raises(ValueError, match="buffer must be"):
                adopt(**swap)

    def test_word_boundaries(self):
        # Ones exactly at multiples of 64 exercise the partial-word path.
        n = 64 * 5
        positions = [0, 63, 64, 127, 128, 200, n - 1]
        bv = BitVector.from_positions(n, positions)
        for k, pos in enumerate(positions, start=1):
            assert bv.select1(k) == pos
        for pos in positions:
            assert bv[pos] == 1
            assert bv.rank1(pos + 1) - bv.rank1(pos) == 1

    def test_superblock_boundaries(self):
        # 8 words per superblock -> boundary at bit 512.
        n = 2048
        rng = np.random.default_rng(7)
        arr = rng.random(n) < 0.3
        bv = BitVector.from_bool_array(arr)
        prefix = np.concatenate([[0], np.cumsum(arr)])
        for i in [0, 1, 63, 64, 511, 512, 513, 1024, 2047, 2048]:
            assert bv.rank1(i) == prefix[i]

    def test_size_accounting_scales(self):
        small = BitVector.from_bool_array(np.zeros(64, dtype=bool))
        big = BitVector.from_bool_array(np.zeros(64 * 1024, dtype=bool))
        assert big.size_in_bits() > small.size_in_bits()
        # Overhead should stay well below 100% of the payload.
        assert big.size_in_bits() < 2 * 64 * 1024


class TestRandomised:
    @pytest.mark.parametrize("density", [0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 5000])
    def test_rank_select_roundtrip(self, n, density):
        rng = np.random.default_rng(n + int(density * 100))
        arr = rng.random(n) < density
        bv = BitVector.from_bool_array(arr)
        assert bv.ones == int(arr.sum())
        prefix = np.concatenate([[0], np.cumsum(arr)])
        for i in rng.integers(0, n + 1, size=50):
            assert bv.rank1(int(i)) == prefix[i]
        for k in range(1, bv.ones + 1, max(1, bv.ones // 40)):
            pos = bv.select1(k)
            assert arr[pos]
            assert bv.rank1(pos) == k - 1

    def test_select_rank_inverse(self):
        rng = np.random.default_rng(42)
        arr = rng.random(3000) < 0.2
        bv = BitVector.from_bool_array(arr)
        for k in range(1, bv.ones + 1):
            assert bv.rank1(bv.select1(k) + 1) == k


@given(st.lists(st.booleans(), max_size=400))
@settings(max_examples=60, deadline=None)
def test_property_rank_select_consistency(bits):
    bv = BitVector(bits)
    assert bv.ones == sum(bits)
    for i in range(0, len(bits) + 1, max(1, len(bits) // 10)):
        assert bv.rank1(i) == naive_rank1(bits, i)
    for k in range(1, sum(bits) + 1):
        assert bv.select1(k) == naive_select1(bits, k)


@given(st.integers(1, 300), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_property_rank0_rank1_partition(n, seed):
    rng = np.random.default_rng(seed)
    arr = rng.random(n) < 0.5
    bv = BitVector.from_bool_array(arr)
    for i in range(n + 1):
        assert bv.rank0(i) + bv.rank1(i) == i
