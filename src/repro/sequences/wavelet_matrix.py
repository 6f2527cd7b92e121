"""Wavelet matrix: a pointerless wavelet tree for large alphabets.

Follows Claude, Navarro & Ordóñez (2015), the structure the paper's
implementation uses (§4.4: "Because the alphabets are generally large, we
implemented the wavelet trees as wavelet matrices").  One bitvector per
bit of the alphabet width; level ``l`` holds, for every element as it
arrives at that level, bit number ``levels - 1 - l`` of its value
(MSB first).  Elements are stably partitioned between levels: zeros first,
then ones, with ``z[l]`` recording the number of zeros.

Supported operations (all ``O(levels)`` bitvector operations):

- ``access``/``rank``/``select`` — the FM-index primitives (Eq. 1–2 of the
  paper);
- ``next_in_range`` — the *range-next-value* operation of §2.3.4, the
  engine of the **backward leap** (Lemma 3.7);
- ``distinct_in_range`` — enumeration of the distinct symbols in a range
  with their multiplicities, the engine of the *lonely variables*
  optimisation (§4.2), in ``O(k log(σ/k))`` node visits;
- ``count`` — number of occurrences of a symbol in a range.

The matrix **owns its level loop**: every scalar operation is one loop
over ``_loop`` — per level the bitvector's ``(words, super, rel)``
memoryviews plus ``zeros, ones, shift`` — with the rank arithmetic
``super[p >> 9] + rel[p >> 6] + popcount(words[p >> 6] & mask)``
inlined, so over plain levels a leap enters no per-level object and
makes no Python call per level.  The **batch kernels** (``rank_many`` /
``count_many`` / ``extract_at`` / ``bucket_starts`` /
``distinct_estimate``) share one fused per-level numpy step
(``step_many`` of the level's bitvector).  See ``docs/INTERNALS.md``,
"The kernel layer".

The bitvector backend is pluggable: plain (:class:`BitVector`) for the
Ring, RRR-compressed for the C-Ring.  An RRR level has no flat words to
view; its ``_loop`` entry carries the level object instead and the same
loops ask it for ``rank1``/``select`` at that level.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

import numpy as np

from repro.bits.bitvector import BitVector, select0_in, select1_in
from repro.bits.rrr import RRRBitVector
from repro.perf.counters import KERNEL_COUNTERS as _perf


class WaveletMatrix:
    """Static sequence over ``[0, sigma)`` with rank/select/range queries.

    Parameters
    ----------
    values:
        The sequence, any integer iterable (``numpy`` array preferred).
    sigma:
        Alphabet size; inferred as ``max + 1`` when omitted.
    compressed:
        Use RRR bitvectors (C-Ring mode) instead of plain ones.
    block_size:
        RRR block size when ``compressed`` (paper's sdsl parameter ``b``,
        mapped as ``b=16 → 15``, ``b=64 → 63``).
    """

    __slots__ = ("_n", "_sigma", "_levels", "_bits", "_zeros", "_loop")

    def __init__(
        self,
        values,
        sigma: int | None = None,
        compressed: bool = False,
        block_size: int = 15,
    ) -> None:
        if isinstance(values, np.ndarray):
            seq = values.astype(np.int64, copy=False)
        elif hasattr(values, "__len__"):  # sequence/buffer: no list() copy
            seq = np.asarray(values, dtype=np.int64)
        else:  # lazy iterable / generator
            seq = np.fromiter(values, dtype=np.int64)
        if len(seq) and seq.min() < 0:
            raise ValueError("symbols must be non-negative")
        if sigma is None:
            sigma = int(seq.max()) + 1 if len(seq) else 1
        if len(seq) and int(seq.max()) >= sigma:
            raise ValueError("symbol outside alphabet")
        self._n = len(seq)
        self._sigma = sigma
        self._levels = max(1, (sigma - 1).bit_length())
        self._bits = []
        self._zeros = []
        current = seq
        for level in range(self._levels):
            shift = self._levels - 1 - level
            bits = ((current >> shift) & 1).astype(bool)
            if compressed:
                bv = RRRBitVector.from_bool_array(bits, block_size)
            else:
                bv = BitVector.from_bool_array(bits)
            self._bits.append(bv)
            self._zeros.append(int(len(bits) - bits.sum()))
            current = np.concatenate([current[~bits], current[bits]])
        self._adopt_levels()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_levels(
        cls,
        levels: list,
        zeros: list[int],
        *,
        n: int,
        sigma: int,
    ) -> "WaveletMatrix":
        """Adopt prebuilt per-level bitvectors without re-partitioning.

        The copy-free assembly path shared by the shared-memory attach,
        the frozen ``mmap_mode`` open and the streaming bulk builder:
        ``levels[l]`` is the level-``l`` bitvector (plain or RRR) and
        ``zeros[l]`` its zero count, exactly as ``__init__`` would have
        produced them.  Buffers are adopted as-is (views stay views).
        """
        wm = cls.__new__(cls)
        wm._n = int(n)
        wm._sigma = int(sigma)
        wm._levels = max(1, (wm._sigma - 1).bit_length())
        if len(levels) != wm._levels or len(zeros) != wm._levels:
            raise ValueError(
                f"expected {wm._levels} levels for sigma={sigma}, got "
                f"{len(levels)} bitvectors / {len(zeros)} zero counts"
            )
        for lvl, bv in enumerate(levels):
            if len(bv) != wm._n:
                raise ValueError(
                    f"level {lvl} has {len(bv)} bits, expected {n}"
                )
        wm._bits = list(levels)
        wm._zeros = [int(z) for z in zeros]
        wm._adopt_levels()
        return wm

    def _adopt_levels(self) -> None:
        """``_loop``: per level ``(words, super, rel, zeros, ones, shift,
        bv)`` — a plain level lends its three memoryviews (touching no
        page) and ``bv`` is ``None``; an RRR level has no words and is
        asked through ``bv``."""
        self._loop = tuple(
            (*bv._views, z, bv.ones, self._levels - 1 - level, None)
            if type(bv) is BitVector
            else (None, None, None, z, bv.ones, self._levels - 1 - level, bv)
            for level, (bv, z) in enumerate(zip(self._bits, self._zeros))
        )

    # -- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self._sigma

    @property
    def levels(self) -> int:
        """Number of bit levels (``ceil(log2 sigma)``, at least 1)."""
        return self._levels

    # In a plain level position ``p`` lives in word ``p >> 6`` at bit
    # ``p & 63`` of superblock ``p >> 9`` (64-bit words, 8 per
    # superblock).  Positions are level boundaries in ``[0, n]``; ``n``
    # itself has no word when ``n % 64 == 0``, hence the ``>= n`` guards
    # (a range's ``lo`` is below its ``hi <= n`` and needs none).

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        value = 0
        for words, sup, rel, z, _ones, _shift, bv in self._loop:
            if bv is None:
                word = words[i >> 6]
                off = i & 63
                bit = (word >> off) & 1
                before = (
                    sup[i >> 9] + rel[i >> 6]
                    + (word & ((1 << off) - 1)).bit_count()
                )
            else:
                bit, before = bv[i], bv.rank1(i)
            value = (value << 1) | bit
            i = z + before if bit else i - before
        return value

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self[i]

    # -- rank / select -------------------------------------------------------

    def _descend(self, symbol: int, a: int, b: int, c: int):
        """Map three boundaries in ``[0, n]`` down ``symbol``'s path in
        one descent; position 0 ends at the symbol's bucket start."""
        n = self._n
        for words, sup, rel, z, ones, shift, bv in self._loop:
            if bv is None:
                a1 = ones if a >= n else (
                    sup[a >> 9] + rel[a >> 6]
                    + (words[a >> 6] & ((1 << (a & 63)) - 1)).bit_count()
                )
                b1 = ones if b >= n else (
                    sup[b >> 9] + rel[b >> 6]
                    + (words[b >> 6] & ((1 << (b & 63)) - 1)).bit_count()
                )
                c1 = b1 if c == b else ones if c >= n else (
                    sup[c >> 9] + rel[c >> 6]
                    + (words[c >> 6] & ((1 << (c & 63)) - 1)).bit_count()
                )
            else:
                a1, b1, c1 = bv.rank1(a), bv.rank1(b), bv.rank1(c)
            if (symbol >> shift) & 1:
                a = z + a1
                b = z + b1
                c = z + c1
            else:
                a -= a1
                b -= b1
                c -= c1
        return a, b, c

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in the prefix ``[0, i)``."""
        if not 0 <= symbol < self._sigma or i <= 0:
            return 0
        i = min(i, self._n)
        start, end, _ = self._descend(symbol, 0, i, i)
        return end - start

    def rank_pair(self, symbol: int, lo: int, hi: int) -> tuple[int, int]:
        """``(rank(symbol, lo), rank(symbol, hi))`` in one descent — the
        LF step of a range (Eq. 2) maps both ends along the same path."""
        if not 0 <= symbol < self._sigma:
            return (0, 0)
        n = self._n
        start, lo, hi = self._descend(
            symbol, 0, min(max(lo, 0), n), min(max(hi, 0), n)
        )
        return (lo - start, hi - start)

    def count(self, symbol: int, lo: int, hi: int) -> int:
        """Occurrences of ``symbol`` in ``[lo, hi)``."""
        below, upto = self.rank_pair(symbol, lo, hi)
        return upto - below

    def rank_many(self, symbol: int, positions) -> np.ndarray:
        """``rank(symbol, ·)`` over a whole array of prefix ends.

        One descent serves every position: position 0 rides along as
        one more array element (it ends at the symbol's bucket start),
        so each level is a single fused step — O(levels) Python calls.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        pos = np.asarray(positions, dtype=np.int64)
        if symbol < 0 or symbol >= self._sigma:
            return np.zeros(pos.shape, dtype=np.int64)
        ends = np.append(np.clip(pos, 0, self._n), 0)
        for level in range(self._levels):
            ones, _ = self._bits[level].step_many(ends)
            if (symbol >> (self._levels - 1 - level)) & 1:
                ends = self._zeros[level] + ones
            else:
                ends -= ones
        out = (ends[:-1] - ends[-1]).reshape(pos.shape)
        if _perf.enabled:
            _perf.record(
                "wavelet.rank_many", pos.size, time.perf_counter() - started
            )
        return out

    def count_many(self, symbol: int, los, his) -> np.ndarray:
        """``count(symbol, ·, ·)`` over arrays of range bounds.

        Both bound arrays ride the same single descent (they are stacked
        into one position array), so the cost matches one
        :meth:`rank_many` call.
        """
        lo_arr = np.asarray(los, dtype=np.int64)
        hi_arr = np.asarray(his, dtype=np.int64)
        if lo_arr.shape != hi_arr.shape:
            raise ValueError("count_many bounds must have matching shapes")
        ranks = self.rank_many(
            symbol, np.concatenate([lo_arr.ravel(), hi_arr.ravel()])
        )
        half = lo_arr.size
        return (ranks[half:] - ranks[:half]).reshape(lo_arr.shape)

    def select(self, symbol: int, k: int) -> int:
        """Position of the k-th occurrence of ``symbol`` (``k >= 1``)."""
        if not 0 <= symbol < self._sigma:
            raise ValueError(f"symbol {symbol} outside alphabet")
        # One descent maps the whole sequence [0, n) to the symbol's
        # bucket [start, end): validates k and seeds the walk back up.
        start, end, _ = self._descend(symbol, 0, self._n, self._n)
        if not 1 <= k <= end - start:
            raise ValueError(
                f"select({symbol}, {k}): only {end - start} occurrences"
            )
        pos = start + k - 1
        for words, sup, rel, z, _ones, shift, bv in reversed(self._loop):
            if (symbol >> shift) & 1:
                j = pos - z + 1
                pos = select1_in(words, sup, rel, j) if bv is None else bv.select1(j)
            else:
                j = pos + 1
                pos = select0_in(words, sup, rel, j) if bv is None else bv.select0(j)
        return pos

    # -- range operations ------------------------------------------------------

    def next_in_range(self, lo: int, hi: int, c: int) -> Optional[int]:
        """Smallest symbol ``>= c`` occurring in positions ``[lo, hi)``.

        This is the *range-next-value* operation used by the backward leap
        (§2.3.4 / Lemma 3.7).  Returns ``None`` if no such symbol exists.
        Descends ``c``'s own path remembering the deepest non-empty right
        sibling — every symbol under it exceeds ``c``, and the deepest
        such subtree holds the smallest — then, unless ``c`` itself
        occurs, takes the leftmost path down from that sibling.
        """
        lo = max(lo, 0)
        n = self._n
        hi = min(hi, n)
        if lo >= hi or c >= self._sigma:
            return None
        c = max(c, 0)
        loop = self._loop
        sibling = None  # (first level below it, lo, hi, symbol prefix)
        for level, (words, sup, rel, z, ones, shift, bv) in enumerate(loop, 1):
            if bv is None:
                l1 = (
                    sup[lo >> 9] + rel[lo >> 6]
                    + (words[lo >> 6] & ((1 << (lo & 63)) - 1)).bit_count()
                )
                h1 = ones if hi >= n else (
                    sup[hi >> 9] + rel[hi >> 6]
                    + (words[hi >> 6] & ((1 << (hi & 63)) - 1)).bit_count()
                )
            else:
                l1, h1 = bv.rank1(lo), bv.rank1(hi)
            if (c >> shift) & 1:
                lo = z + l1
                hi = z + h1
            else:
                if l1 < h1:
                    sibling = (level, z + l1, z + h1, (c >> shift) | 1)
                lo -= l1
                hi -= h1
            if lo >= hi:
                break
        else:
            return c
        if sibling is None:
            return None
        level, lo, hi, value = sibling
        for words, sup, rel, z, ones, _shift, bv in loop[level:]:
            if bv is None:
                l1 = (
                    sup[lo >> 9] + rel[lo >> 6]
                    + (words[lo >> 6] & ((1 << (lo & 63)) - 1)).bit_count()
                )
                h1 = ones if hi >= n else (
                    sup[hi >> 9] + rel[hi >> 6]
                    + (words[hi >> 6] & ((1 << (hi & 63)) - 1)).bit_count()
                )
            else:
                l1, h1 = bv.rank1(lo), bv.rank1(hi)
            if lo - l1 < hi - h1:  # a zero in range: the smaller half
                lo -= l1
                hi -= h1
                value <<= 1
            else:
                lo = z + l1
                hi = z + h1
                value = (value << 1) | 1
        return value

    def distinct_in_range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol, multiplicity)`` for each distinct symbol in
        ``[lo, hi)``, in increasing symbol order.

        Cost is ``O(k log(σ/k))`` node visits for ``k`` distinct symbols —
        the §2.3.4 bound that makes the lonely-variables optimisation pay.
        Depth-first, left before right; only non-empty right siblings
        wait on the stack.
        """
        lo = max(lo, 0)
        n = self._n
        hi = min(hi, n)
        if lo >= hi:
            return
        loop = self._loop
        levels = self._levels
        level = prefix = 0
        pending = []
        while True:
            while level < levels:
                words, sup, rel, z, ones, _shift, bv = loop[level]
                if bv is None:
                    l1 = (
                        sup[lo >> 9] + rel[lo >> 6]
                        + (words[lo >> 6] & ((1 << (lo & 63)) - 1)).bit_count()
                    )
                    h1 = ones if hi >= n else (
                        sup[hi >> 9] + rel[hi >> 6]
                        + (words[hi >> 6] & ((1 << (hi & 63)) - 1)).bit_count()
                    )
                else:
                    l1, h1 = bv.rank1(lo), bv.rank1(hi)
                level += 1
                if lo - l1 < hi - h1:
                    if l1 < h1:
                        pending.append(
                            (level, z + l1, z + h1, (prefix << 1) | 1)
                        )
                    lo -= l1
                    hi -= h1
                    prefix <<= 1
                else:
                    lo = z + l1
                    hi = z + h1
                    prefix = (prefix << 1) | 1
            yield prefix, hi - lo
            if not pending:
                return
            level, lo, hi, prefix = pending.pop()

    def count_distinct(self, lo: int, hi: int) -> int:
        """Number of distinct symbols in ``[lo, hi)``."""
        return sum(1 for _ in self.distinct_in_range(lo, hi))

    def distinct_estimate(self, lo: int, hi: int, max_nodes: int = 64) -> int:
        """Cheap lower bound on the distinct symbols in ``[lo, hi)``.

        Descends level by level keeping the whole frontier of non-empty
        nodes in numpy arrays (one fused batch step per level — the same
        machinery as :meth:`count_many`), and stops as soon as the
        frontier exceeds ``max_nodes``.  The frontier size at any level
        is a lower bound on the number of distinct symbols below it, and
        the bound is *exact* whenever the walk reaches the bottom — so
        small ranges get an exact distinct count while large ones cost
        O(``max_nodes`` · levels) regardless of the range size.

        This is the statistic behind the cardinality-guided variable
        ordering: the branching factor a variable would contribute to
        the LTJ search tree, without enumerating any values.
        """
        lo = max(lo, 0)
        hi = min(hi, self._n)
        if lo >= hi:
            return 0
        los = np.array([lo], dtype=np.int64)
        his = np.array([hi], dtype=np.int64)
        prefixes = np.array([0], dtype=np.int64)
        for level in range(self._levels):
            ones, _ = self._bits[level].step_many(np.concatenate([los, his]))
            lo1, hi1 = ones[: los.size], ones[los.size:]
            lo0, hi0 = los - lo1, his - hi1
            z = self._zeros[level]
            child_lo = np.concatenate([lo0, z + lo1])
            child_hi = np.concatenate([hi0, z + hi1])
            child_prefix = np.concatenate(
                [prefixes << 1, (prefixes << 1) | 1]
            )
            live = child_lo < child_hi
            los, his = child_lo[live], child_hi[live]
            prefixes = child_prefix[live]
            if los.size > max_nodes:
                return int(los.size)
        return int(np.count_nonzero(prefixes < self._sigma))

    def min_in_range(self, lo: int, hi: int) -> Optional[int]:
        """Smallest symbol in ``[lo, hi)``."""
        return self.next_in_range(lo, hi, 0)

    # -- bulk decoding ----------------------------------------------------------

    def extract_at(
        self, positions, return_bottom: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Decode the symbols at an array of positions, level by level.

        With ``return_bottom=True`` additionally returns each position's
        final index at the (virtual) bottom level.  That index equals
        ``bucket_start(symbol) + rank(symbol, position)`` — the access
        descent *is* an LF step — which is what lets
        :meth:`~repro.core.ring.Ring.lf_many` decode whole ranges of
        triples without any per-position rank calls.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (int(pos.min()) < 0 or int(pos.max()) >= self._n):
            raise IndexError(f"position out of range [0, {self._n})")
        values = np.zeros(pos.shape, dtype=np.int64)
        cur = pos
        for level in range(self._levels):
            ones, bits = self._bits[level].step_many(cur, want_bits=True)
            values = (values << 1) | bits
            cur = np.where(bits, self._zeros[level] + ones, cur - ones)
        if _perf.enabled:
            _perf.record(
                "wavelet.extract_at", pos.size, time.perf_counter() - started
            )
        if return_bottom:
            return values, cur
        return values

    def bucket_starts(self, symbols) -> np.ndarray:
        """Bottom-level bucket start of each symbol (batched descent).

        The start of symbol ``s``'s bucket is obtained by descending
        position 0 along ``s``'s bit path — exactly the first phase of
        :meth:`select` — batched over an array of symbols in O(levels)
        Python calls.
        """
        syms = np.asarray(symbols, dtype=np.int64)
        starts = np.zeros(syms.shape, dtype=np.int64)
        for level in range(self._levels):
            bit = (syms >> (self._levels - 1 - level)) & 1
            ones, _ = self._bits[level].step_many(starts)
            starts = np.where(bit, self._zeros[level] + ones, starts - ones)
        return starts

    def extract(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Decode the contiguous slice ``[lo, hi)`` with the batch kernels."""
        hi = self._n if hi is None else min(hi, self._n)
        lo = max(lo, 0)
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        return self.extract_at(np.arange(lo, hi, dtype=np.int64))

    # -- accounting -------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Decode the whole sequence (vectorised level-by-level)."""
        return self.extract(0, self._n)

    def size_in_bits(self) -> int:
        """Bits retained by all level bitvectors plus the header."""
        return sum(bv.size_in_bits() for bv in self._bits) + 64 * (
            len(self._zeros) + 3
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaveletMatrix(n={self._n}, sigma={self._sigma}, "
            f"levels={self._levels})"
        )
