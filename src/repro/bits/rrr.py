"""RRR-style compressed bitvector (class/offset block encoding).

This mirrors the design of sdsl's ``rrr_vector`` that the paper uses for
the **C-Ring**: the bit string is split into blocks of ``block_size`` bits;
each block stores its *class* (its popcount, in ``ceil(log2(block_size+1))``
bits) and an *offset* (the rank of the block among all blocks of that
class, in ``ceil(log2(binom(block_size, class)))`` bits).  Runny bit
strings — such as the level bitvectors of a wavelet matrix built on a BWT —
have many blocks of class 0 or ``block_size``, whose offsets take 0 bits,
which is where the compression comes from (high-order entropy of the BWT,
[Mäkinen & Navarro 2008] as cited by the paper).

A *superblock* every ``SUPERBLOCK_BLOCKS`` blocks stores the absolute rank
and the absolute offset-stream bit position, so ``rank`` costs one
superblock lookup, at most ``SUPERBLOCK_BLOCKS - 1`` class lookups, and one
block decode.

The paper's sdsl parameter ``b`` (``b = 16`` for the C-Ring of Table 1,
``b = 64`` for the compression study of §5.2.1) corresponds to
``block_size = 15`` and ``block_size = 63`` here (one less, so the class
field stays within a round number of bits, as sdsl itself does).
"""

from __future__ import annotations

from math import comb
from typing import Iterable

import numpy as np

from repro.bits.bitvector import BitVector, _select_in_word
from repro.bits.packed import PackedIntArray, bits_needed

SUPERBLOCK_BLOCKS = 32
_SUPPORTED_BLOCK_SIZES = (15, 31, 63)


class _BlockCode:
    """Enumerative (combinatorial) coder for fixed-size blocks.

    The offset of a block with ``k`` ones is its 0-based rank in the
    lexicographic enumeration (MSB first) of all ``block_size``-bit words
    with exactly ``k`` ones.
    """

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.class_bits = bits_needed(block_size)
        self.offset_bits = [
            bits_needed(comb(block_size, k) - 1) if comb(block_size, k) > 1 else 0
            for k in range(block_size + 1)
        ]

    def encode(self, block: int) -> tuple[int, int]:
        """Return ``(class, offset)`` for a ``block_size``-bit block."""
        k = block.bit_count()
        offset = 0
        ones_left = k
        for pos in range(self.block_size - 1, -1, -1):
            if ones_left == 0:
                break
            if (block >> pos) & 1:
                offset += comb(pos, ones_left)
                ones_left -= 1
        return k, offset

    def decode(self, k: int, offset: int) -> int:
        """Inverse of :meth:`encode`."""
        block = 0
        ones_left = k
        for pos in range(self.block_size - 1, -1, -1):
            if ones_left == 0:
                break
            c = comb(pos, ones_left)
            if offset >= c:
                block |= 1 << pos
                offset -= c
                ones_left -= 1
        return block


_CODERS: dict[int, _BlockCode] = {}


def _coder(block_size: int) -> _BlockCode:
    if block_size not in _CODERS:
        _CODERS[block_size] = _BlockCode(block_size)
    return _CODERS[block_size]


class RRRBitVector:
    """Compressed bitvector with rank/select, compatible with
    :class:`~repro.bits.bitvector.BitVector`'s query interface."""

    __slots__ = (
        "_n",
        "_ones",
        "_block_size",
        "_coder",
        "_classes",
        "_offsets_words",
        "_offsets_bits",
        "_super_rank",
        "_super_offset",
    )

    def __init__(self, bits: Iterable[int], block_size: int = 15) -> None:
        if block_size not in _SUPPORTED_BLOCK_SIZES:
            raise ValueError(f"block_size must be one of {_SUPPORTED_BLOCK_SIZES}")
        arr = np.asarray(
            list(bits) if not isinstance(bits, np.ndarray) else bits
        ).astype(bool)
        self._n = len(arr)
        self._block_size = block_size
        self._coder = _coder(block_size)
        self._build(arr)

    @classmethod
    def from_bool_array(cls, arr: np.ndarray, block_size: int = 15) -> "RRRBitVector":
        return cls(np.asarray(arr, dtype=bool), block_size)

    def _build(self, arr: np.ndarray) -> None:
        bs = self._block_size
        nblocks = -(-max(self._n, 1) // bs)
        padded = np.zeros(nblocks * bs, dtype=bool)
        padded[: self._n] = arr
        blocks = padded.reshape(nblocks, bs)
        # MSB-first integer value per block for the enumerative coder.
        weights = (1 << np.arange(bs - 1, -1, -1)).astype(object)
        block_vals = (blocks.astype(object) * weights).sum(axis=1)

        classes = np.array([int(v).bit_count() for v in block_vals], dtype=np.uint8)
        coder = self._coder
        offset_stream: list[int] = []  # (offset, width) pairs flattened below
        widths = np.array([coder.offset_bits[k] for k in classes], dtype=np.int64)
        offsets = [coder.encode(int(v))[1] for v in block_vals]

        # Pack variable-width offsets into words.
        total_bits = int(widths.sum())
        nwords = -(-max(total_bits, 1) // 64)
        words = np.zeros(nwords, dtype=np.uint64)
        acc, acc_bits, w = 0, 0, 0
        for off, width in zip(offsets, widths):
            if width:
                acc |= int(off) << acc_bits
                acc_bits += int(width)
                while acc_bits >= 64:
                    words[w] = acc & 0xFFFFFFFFFFFFFFFF
                    acc >>= 64
                    acc_bits -= 64
                    w += 1
        if acc_bits:
            words[w] = acc & 0xFFFFFFFFFFFFFFFF
        self._offsets_words = words
        self._offsets_bits = total_bits

        nsuper = -(-nblocks // SUPERBLOCK_BLOCKS)
        rank_cum = np.zeros(nsuper + 1, dtype=np.uint64)
        off_cum = np.zeros(nsuper + 1, dtype=np.uint64)
        cranks = np.concatenate([[0], np.cumsum(classes.astype(np.uint64))])
        coffs = np.concatenate([[0], np.cumsum(widths.astype(np.uint64))])
        for s in range(nsuper + 1):
            b = min(s * SUPERBLOCK_BLOCKS, nblocks)
            rank_cum[s] = cranks[b]
            off_cum[s] = coffs[b]
        self._super_rank = rank_cum
        self._super_offset = off_cum
        self._classes = PackedIntArray(classes, width=self._coder.class_bits)
        self._ones = int(cranks[-1])

    # -- internal decoding ------------------------------------------------

    def _read_offset(self, bitpos: int, width: int) -> int:
        if width == 0:
            return 0
        w, off = bitpos >> 6, bitpos & 63
        value = int(self._offsets_words[w]) >> off
        got = 64 - off
        while got < width:
            w += 1
            value |= int(self._offsets_words[w]) << got
            got += 64
        return value & ((1 << width) - 1)

    def _block(self, b: int) -> tuple[int, int]:
        """Decode block ``b``; returns ``(class, bits-as-int MSB-first)``."""
        s = b // SUPERBLOCK_BLOCKS
        bitpos = int(self._super_offset[s])
        k = 0
        for j in range(s * SUPERBLOCK_BLOCKS, b):
            k = self._classes[j]
            bitpos += self._coder.offset_bits[k]
        k = self._classes[b]
        offset = self._read_offset(bitpos, self._coder.offset_bits[k])
        return k, self._coder.decode(k, offset)

    def _rank_to_block(self, b: int) -> tuple[int, int]:
        """Rank before block ``b`` and bit position of its offset."""
        s = b // SUPERBLOCK_BLOCKS
        rank = int(self._super_rank[s])
        bitpos = int(self._super_offset[s])
        for j in range(s * SUPERBLOCK_BLOCKS, b):
            k = self._classes[j]
            rank += k
            bitpos += self._coder.offset_bits[k]
        return rank, bitpos

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def zeros(self) -> int:
        return self._n - self._ones

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range [0, {self._n})")
        b, r = divmod(i, self._block_size)
        _, bits = self._block(b)
        return (bits >> (self._block_size - 1 - r)) & 1

    def rank1(self, i: int) -> int:
        if i <= 0:
            return 0
        if i >= self._n:
            return self._ones
        b, r = divmod(i, self._block_size)
        rank, bitpos = self._rank_to_block(b)
        if r == 0:
            return rank
        k = self._classes[b]
        offset = self._read_offset(bitpos, self._coder.offset_bits[k])
        bits = self._coder.decode(k, offset)
        # Keep only the top r bits of the MSB-first block.
        return rank + (bits >> (self._block_size - r)).bit_count()

    def rank0(self, i: int) -> int:
        i = min(max(i, 0), self._n)
        return i - self.rank1(i)

    def select1(self, k: int) -> int:
        if not 1 <= k <= self._ones:
            raise ValueError(f"select1({k}) out of range [1, {self._ones}]")
        s = int(np.searchsorted(self._super_rank, k, side="left")) - 1
        rank = int(self._super_rank[s])
        bitpos = int(self._super_offset[s])
        nblocks = len(self._classes)
        b = s * SUPERBLOCK_BLOCKS
        while b < nblocks:
            c = self._classes[b]
            if rank + c >= k:
                break
            rank += c
            bitpos += self._coder.offset_bits[c]
            b += 1
        c = self._classes[b]
        offset = self._read_offset(bitpos, self._coder.offset_bits[c])
        bits = self._coder.decode(c, offset)
        # Convert to LSB-first to reuse the word scanner.
        lsb = _reverse_bits(bits, self._block_size)
        return b * self._block_size + _select_in_word(lsb, k - rank)

    def select0(self, k: int) -> int:
        if not 1 <= k <= self.zeros:
            raise ValueError(f"select0({k}) out of range [1, {self.zeros}]")
        lo, hi = 0, self._n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.rank0(mid) < k:
                lo = mid
            else:
                hi = mid
        return lo

    # -- batch kernels (scalar-loop fallbacks) ------------------------------
    #
    # The compressed layout decodes blocks one at a time, so these exist
    # for interface parity with :class:`~repro.bits.bitvector.BitVector`:
    # the wavelet matrix and LTJ batch paths stay correct over the C-Ring,
    # they just do not get the plain-bitvector vectorisation win.

    def rank1_many(self, positions) -> np.ndarray:
        """``rank1`` over an array of positions (scalar loop inside)."""
        pos = np.asarray(positions, dtype=np.int64)
        return np.fromiter(
            (self.rank1(int(i)) for i in pos), dtype=np.int64, count=pos.size
        ).reshape(pos.shape)

    def rank0_many(self, positions) -> np.ndarray:
        """``rank0`` over an array of positions (scalar loop inside)."""
        pos = np.asarray(positions, dtype=np.int64)
        return np.clip(pos, 0, self._n) - self.rank1_many(pos)

    def select1_many(self, ks) -> np.ndarray:
        """``select1`` over an array of ranks (scalar loop inside)."""
        k = np.asarray(ks, dtype=np.int64)
        return np.fromiter(
            (self.select1(int(x)) for x in k), dtype=np.int64, count=k.size
        ).reshape(k.shape)

    def access_many(self, positions) -> np.ndarray:
        """Bit values at an array of positions (scalar loop inside)."""
        pos = np.asarray(positions, dtype=np.int64)
        return np.fromiter(
            (self[int(i)] for i in pos), dtype=np.uint8, count=pos.size
        ).reshape(pos.shape)

    def step_many(self, positions, want_bits: bool = False):
        """``(rank1_many, access_many or None)`` — the per-level step the
        wavelet matrix's batch kernels take (scalar loops inside)."""
        bits = self.access_many(positions).astype(np.int64) if want_bits else None
        return self.rank1_many(positions), bits

    def to_bool_array(self) -> np.ndarray:
        out = np.zeros(self._n, dtype=bool)
        for b in range(len(self._classes)):
            _, bits = self._block(b)
            base = b * self._block_size
            for r in range(self._block_size):
                pos = base + r
                if pos >= self._n:
                    break
                out[pos] = (bits >> (self._block_size - 1 - r)) & 1
        return out

    def size_in_bits(self) -> int:
        return (
            self._classes.size_in_bits()
            + 64 * len(self._offsets_words)
            + 64 * len(self._super_rank)
            + 64 * len(self._super_offset)
            + 192  # header
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RRRBitVector(n={self._n}, ones={self._ones}, "
            f"block_size={self._block_size})"
        )


def _reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def best_bitvector(arr: np.ndarray, compressed: bool, block_size: int = 15):
    """Factory used by the wavelet matrix: plain or RRR backend."""
    if compressed:
        return RRRBitVector.from_bool_array(arr, block_size)
    return BitVector.from_bool_array(arr)
