"""Plain bitvector with constant-time rank and fast select.

The layout follows the classical two-level scheme of Clark and Munro that
the paper cites for its ``o(n)``-bit rank/select support:

- the bits themselves live in little-endian 64-bit words (``numpy``),
- a *superblock* counter (64-bit) stores the number of ones before every
  group of ``WORDS_PER_SUPERBLOCK`` words,
- a *relative* counter (16-bit) stores, for every word, the number of ones
  between the start of its superblock and the word.

``rank1`` therefore costs one superblock lookup, one relative lookup and
one popcount.  ``select`` binary-searches the superblock counters and then
scans at most ``WORDS_PER_SUPERBLOCK`` words.

The scalar operations read the three arrays through zero-copy
``memoryview``s (:attr:`BitVector._views`): indexing one yields a plain
Python ``int`` — no numpy scalar, no ``int()`` — and works unchanged over
RAM arrays, shared-memory views and the read-only ``np.memmap`` of a
frozen pack.  :class:`~repro.sequences.wavelet_matrix.WaveletMatrix`
borrows the same views for its fused level loops.

Besides the scalar operations the class exposes the **batch kernels**
``rank1_many`` / ``rank0_many`` / ``select1_many`` / ``access_many``,
which answer a whole numpy array of queries in O(1) Python calls — the
foundation of the vectorised wavelet-matrix and LTJ fast paths (see
``docs/INTERNALS.md``, "The kernel layer").

Indexing conventions (used consistently across the library):

- positions are 0-based;
- ``rank1(i)`` counts ones in the half-open prefix ``[0, i)``;
- ``select1(k)`` returns the position of the k-th one with ``k >= 1``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Iterable, Optional

import numpy as np

from repro.perf.counters import KERNEL_COUNTERS as _perf

WORDS_PER_SUPERBLOCK = 8
_SUPER_SHIFT = 3  # log2(WORDS_PER_SUPERBLOCK)
_LOW6 = 63
_MASK64 = (1 << 64) - 1
_ONE = np.uint64(1)


if hasattr(np, "bitwise_count"):  # numpy >= 2: hardware popcount

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        """Vectorised popcount of an array of uint64 words."""
        return np.bitwise_count(words).astype(np.uint64)

    def _popcount_bytes(bytes_: np.ndarray) -> np.ndarray:
        """Vectorised popcount of a uint8 array (any shape)."""
        return np.bitwise_count(bytes_)

else:  # 16-bit-chunk lookup table fallback (numpy 1.x)

    _POPCOUNT16 = (
        np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8))
        .reshape(-1, 16)
        .sum(axis=1)
        .astype(np.uint8)
    )

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        """Vectorised popcount of an array of uint64 words."""
        halves = np.ascontiguousarray(words).view(np.uint16).reshape(-1, 4)
        counts = _POPCOUNT16[halves].sum(axis=1, dtype=np.uint64)
        return counts.reshape(words.shape)

    def _popcount_bytes(bytes_: np.ndarray) -> np.ndarray:
        """Vectorised popcount of a uint8 array (any shape)."""
        return _POPCOUNT16[:256][bytes_]


def _build_select_in_byte() -> np.ndarray:
    """``table[b, k-1]`` = position of the k-th set bit of byte ``b``."""
    table = np.zeros((256, 8), dtype=np.uint8)
    for byte in range(256):
        k = 0
        for bit in range(8):
            if (byte >> bit) & 1:
                table[byte, k] = bit
                k += 1
    return table


_SELECT_IN_BYTE = _build_select_in_byte()
_SELECT_IN_BYTE_ROWS = tuple(map(tuple, _SELECT_IN_BYTE.tolist()))


class BitVector:
    """A static bitvector supporting access, rank and select.

    Parameters
    ----------
    bits:
        Anything convertible to a 1-D boolean ``numpy`` array: a numpy
        array, a sized sequence/buffer (consumed without an intermediate
        Python list), or a plain iterable/generator.  Use
        :meth:`from_positions` or :meth:`from_bool_array` for the other
        common construction paths.
    """

    __slots__ = (
        "_n", "_words", "_super", "_rel", "_ones", "_word_prefix", "_views"
    )

    def __init__(self, bits: Iterable[int]) -> None:
        if isinstance(bits, np.ndarray):
            arr = bits
        elif hasattr(bits, "__len__"):  # sequence or buffer: no list() copy
            arr = np.asarray(bits)
        else:  # lazy iterable / generator
            arr = np.fromiter(bits, dtype=np.uint8)
        self._init_from_bool_array(arr.astype(bool, copy=False))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> "BitVector":
        """Build from a boolean ``numpy`` array without copying twice."""
        bv = cls.__new__(cls)
        bv._init_from_bool_array(np.asarray(arr, dtype=bool))
        return bv

    @classmethod
    def from_packed_words(cls, words: np.ndarray, n: int) -> "BitVector":
        """Build from pre-packed little-endian uint64 words.

        ``words`` must hold exactly ``ceil(max(n, 1) / 64)`` words with
        every bit past position ``n`` clear (the builder's invariant);
        the rank counters are recomputed here, so the result is
        byte-identical to :meth:`from_bool_array` on the same bits.
        """
        arr = np.ascontiguousarray(words, dtype=np.uint64).reshape(-1)
        expected = -(-max(int(n), 1) // 64)
        if len(arr) != expected:
            raise ValueError(
                f"packed words length {len(arr)} != {expected} for n={n}"
            )
        bv = cls.__new__(cls)
        bv._n = int(n)
        bv._words = arr
        bv._word_prefix = None
        bv._build_counters()
        return bv

    @classmethod
    def from_components(
        cls,
        words: np.ndarray,
        super_: np.ndarray,
        rel: np.ndarray,
        *,
        n: int,
        ones: int,
    ) -> "BitVector":
        """Adopt prebuilt payload + counter buffers without copying.

        The buffers may be views into shared memory or a ``np.memmap``
        over the frozen on-disk layout — this is the copy-free
        ``mmap_mode`` constructor.  Only O(1) shape/dtype validation is
        performed; use :func:`repro.reliability.integrity.verify_index`
        (or ``verify=True`` on the frozen open path) for content checks.
        """
        bv = cls.__new__(cls)
        bv._n = int(n)
        nwords = -(-max(bv._n, 1) // 64)
        nsuper = -(-nwords // WORDS_PER_SUPERBLOCK)
        for name, buf, dtype, length in (
            ("words", words, np.uint64, nwords),
            ("super", super_, np.uint64, nsuper + 1),
            ("rel", rel, np.uint16, nwords),
        ):
            # ``dtype !=`` also rejects a wrong-endian buffer; the
            # scalar views need plain C-contiguous native words.
            if (
                buf.dtype != dtype
                or buf.shape != (length,)
                or not buf.flags.c_contiguous
            ):
                raise ValueError(
                    f"{name} buffer must be {length} contiguous "
                    f"{np.dtype(dtype).name}, got {buf.shape} {buf.dtype}"
                )
        bv._words = words
        bv._super = super_
        bv._rel = rel
        bv._ones = int(ones)
        bv._word_prefix = None
        bv._adopt_views()
        return bv

    @classmethod
    def from_positions(cls, n: int, positions: Iterable[int]) -> "BitVector":
        """Build a length-``n`` bitvector with ones at ``positions``."""
        arr = np.zeros(n, dtype=bool)
        pos = np.fromiter(positions, dtype=np.int64)
        if len(pos):
            if pos.min() < 0 or pos.max() >= n:
                raise ValueError("position out of range")
            arr[pos] = True
        return cls.from_bool_array(arr)

    def _init_from_bool_array(self, arr: np.ndarray) -> None:
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        self._n = len(arr)
        padded_len = -(-max(self._n, 1) // 64) * 64
        padded = np.zeros(padded_len, dtype=bool)
        padded[: self._n] = arr
        # Pack into little-endian words: bit i of word w is position 64*w+i.
        bytes_ = np.packbits(padded.reshape(-1, 8), axis=1, bitorder="little")
        self._words = bytes_.reshape(-1, 8).copy().view(np.uint64).reshape(-1)
        self._word_prefix: Optional[np.ndarray] = None
        self._build_counters()

    def _build_counters(self) -> None:
        counts = _popcount_words(self._words)
        nwords = len(self._words)
        nsuper = -(-nwords // WORDS_PER_SUPERBLOCK)
        padded = np.zeros(nsuper * WORDS_PER_SUPERBLOCK, dtype=np.uint64)
        padded[:nwords] = counts
        grouped = padded.reshape(nsuper, WORDS_PER_SUPERBLOCK)
        per_super = grouped.sum(axis=1)
        self._super = np.zeros(nsuper + 1, dtype=np.uint64)
        np.cumsum(per_super, out=self._super[1:])
        rel = np.cumsum(grouped, axis=1)
        rel_shifted = np.zeros_like(rel)
        rel_shifted[:, 1:] = rel[:, :-1]
        self._rel = rel_shifted.reshape(-1)[:nwords].astype(np.uint16)
        self._ones = int(self._super[-1])
        self._adopt_views()

    def _adopt_views(self) -> None:
        """``(words, super, rel)`` as memoryviews: what every scalar
        operation indexes.  Zero-copy and page-free — safe at adoption
        of a cold memory-mapped pack."""
        self._views = (
            memoryview(self._words),
            memoryview(self._super),
            memoryview(self._rel),
        )

    def _word_prefix_counts(self) -> np.ndarray:
        """``out[w]`` = ones strictly before word ``w`` (lazy, cached).

        A reconstructible acceleration mirror for the batch select kernel
        (one int64 per word), analogous to the query mirror of
        :class:`~repro.core.counts.PackedCounts` — it is not part of the
        accounted index size.
        """
        if self._word_prefix is None:
            sb = np.arange(len(self._words)) // WORDS_PER_SUPERBLOCK
            self._word_prefix = (
                self._super[sb] + self._rel.astype(np.uint64)
            ).astype(np.int64)
        return self._word_prefix

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def ones(self) -> int:
        """Total number of set bits."""
        return self._ones

    @property
    def zeros(self) -> int:
        """Total number of unset bits."""
        return self._n - self._ones

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range [0, {self._n})")
        return (self._views[0][i >> 6] >> (i & _LOW6)) & 1

    def rank1(self, i: int) -> int:
        """Number of ones in positions ``[0, i)``; ``0 <= i <= len``."""
        if 0 < i < self._n:
            words, sup, rel = self._views
            w = i >> 6
            return (
                sup[w >> _SUPER_SHIFT]
                + rel[w]
                + (words[w] & ((1 << (i & _LOW6)) - 1)).bit_count()
            )
        return self._ones if i > 0 else 0

    def rank0(self, i: int) -> int:
        """Number of zeros in positions ``[0, i)``."""
        if 0 < i < self._n:
            return i - self.rank1(i)
        return self._n - self._ones if i > 0 else 0

    def select1(self, k: int) -> int:
        """Position of the k-th one (``1 <= k <= ones``)."""
        if not 1 <= k <= self._ones:
            raise ValueError(f"select1({k}) out of range [1, {self._ones}]")
        return select1_in(*self._views, k)

    def select0(self, k: int) -> int:
        """Position of the k-th zero (``1 <= k <= zeros``)."""
        if not 1 <= k <= self.zeros:
            raise ValueError(f"select0({k}) out of range [1, {self.zeros}]")
        return select0_in(*self._views, k)

    def next_one(self, i: int) -> Optional[int]:
        """Smallest position ``>= i`` holding a one, or ``None``."""
        if i < 0:
            i = 0
        if i >= self._n:
            return None
        r = self.rank1(i)
        if r >= self._ones:
            return None
        return self.select1(r + 1)

    # -- batch kernels -----------------------------------------------------

    def rank1_many(self, positions) -> np.ndarray:
        """``rank1`` over a whole array of positions in O(1) Python calls.

        Out-of-range positions clamp exactly like the scalar version
        (``<= 0`` → 0, ``>= n`` → :attr:`ones`).  Returns ``int64``.
        """
        pos = np.asarray(positions, dtype=np.int64)
        return self.step_many(np.clip(pos, 0, self._n))[0]

    def rank0_many(self, positions) -> np.ndarray:
        """``rank0`` over a whole array of positions (``int64``)."""
        pos = np.asarray(positions, dtype=np.int64)
        return np.clip(pos, 0, self._n) - self.rank1_many(pos)

    def select1_many(self, ks) -> np.ndarray:
        """``select1`` over a whole array of ranks in O(1) Python calls.

        Every ``k`` must satisfy ``1 <= k <= ones`` (as in the scalar
        version).  Returns ``int64`` positions.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        k = np.asarray(ks, dtype=np.int64)
        if k.size == 0:
            return np.empty(k.shape, dtype=np.int64)
        if int(k.min()) < 1 or int(k.max()) > self._ones:
            raise ValueError(
                f"select1_many: ranks must lie in [1, {self._ones}]"
            )
        prefix = self._word_prefix_counts()
        w = np.searchsorted(prefix, k, side="left") - 1
        words = self._words[w]
        k_in_word = k - prefix[w]
        bytes_ = words.view(np.uint8).reshape(-1, 8)
        byte_pop = _popcount_bytes(bytes_)
        cum = np.cumsum(byte_pop, axis=1, dtype=np.int64)
        byte_idx = (cum < k_in_word[:, None]).sum(axis=1)
        rows = np.arange(len(k_in_word))
        prev = cum[rows, byte_idx] - byte_pop[rows, byte_idx]
        k_in_byte = k_in_word - prev
        pos_in_byte = _SELECT_IN_BYTE[bytes_[rows, byte_idx], k_in_byte - 1]
        out = (w << 6) + (byte_idx << 3) + pos_in_byte
        if _perf.enabled:
            _perf.record(
                "bits.select1_many", k.size, time.perf_counter() - started
            )
        return out

    def access_many(self, positions) -> np.ndarray:
        """Bit values at an array of positions (``uint8`` zeros/ones)."""
        started = time.perf_counter() if _perf.enabled else 0.0
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (int(pos.min()) < 0 or int(pos.max()) >= self._n):
            raise IndexError(
                f"bit index out of range [0, {self._n}) in access_many"
            )
        words = self._words[pos >> 6]
        rem = (pos & _LOW6).astype(np.uint64)
        out = ((words >> rem) & _ONE).astype(np.uint8)
        if _perf.enabled:
            _perf.record(
                "bits.access_many", pos.size, time.perf_counter() - started
            )
        return out

    def step_many(
        self, positions: np.ndarray, want_bits: bool = False
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The wavelet matrix's fused batch step: ``(ones before each
        position, bit at each position or None)`` as ``int64``.

        One gather of ``words[pos >> 6]`` serves both answers.  Callers
        pass ``int64`` positions that are in range by construction —
        ``[0, n]``, or ``[0, n)`` with ``want_bits`` — so nothing is
        clamped; only ``pos == n`` with ``n % 64 == 0``, one word past
        the end, is redirected.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        w = positions >> 6
        past_end = None
        if not self._n & _LOW6 and not want_bits:
            past_end = positions == self._n
            w = w - past_end  # any valid word; the count is patched below
        word = self._words[w]
        off = (positions & _LOW6).astype(np.uint64)
        ones = (
            self._super[w >> _SUPER_SHIFT]
            + self._rel[w]
            + _popcount_words(word & ((_ONE << off) - _ONE))
        ).astype(np.int64)
        if past_end is not None:
            ones[past_end] = self._ones
        bits = ((word >> off) & _ONE).astype(np.int64) if want_bits else None
        if _perf.enabled:
            _perf.record(
                "bits.step_many", positions.size, time.perf_counter() - started
            )
        return ones, bits

    # -- bulk access -------------------------------------------------------

    def to_bool_array(self) -> np.ndarray:
        """Materialise the bits as a boolean array (testing/debug)."""
        bits = np.unpackbits(
            self._words.view(np.uint8), bitorder="little"
        ).astype(bool)
        return bits[: self._n]

    # -- accounting --------------------------------------------------------

    def size_in_bits(self) -> int:
        """Total retained size: payload words plus rank counters."""
        return (
            64 * len(self._words)
            + 64 * len(self._super)
            + 16 * len(self._rel)
            + 128  # header: length, ones, pointers
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(n={self._n}, ones={self._ones})"


def select1_in(words, sup, rel, k: int) -> int:
    """Position of the k-th one over a ``(words, super, rel)`` view
    triple (``1 <= k <= ones``, unchecked): ``bisect`` on the superblock
    counters, then a scan of at most ``WORDS_PER_SUPERBLOCK`` relative
    counters."""
    sb = bisect_left(sup, k) - 1  # sup[sb] < k <= sup[sb + 1]
    k -= sup[sb]
    w = sb << _SUPER_SHIFT
    last = min(w + WORDS_PER_SUPERBLOCK, len(words)) - 1
    while w < last and rel[w + 1] < k:
        w += 1
    return (w << 6) + _select_in_word(words[w], k - rel[w])


def select0_in(words, sup, rel, k: int) -> int:
    """Position of the k-th zero — :func:`select1_in` on the complement,
    whose counters are ``bits before - ones before``.  The padding past
    ``n`` reads as zeros, all of them after the real ones asked for."""
    sb = bisect_left(
        range(len(sup)), k, key=lambda s: (s << (6 + _SUPER_SHIFT)) - sup[s]
    ) - 1
    k -= (sb << (6 + _SUPER_SHIFT)) - sup[sb]
    w = first = sb << _SUPER_SHIFT
    last = min(w + WORDS_PER_SUPERBLOCK, len(words)) - 1
    while w < last and ((w + 1 - first) << 6) - rel[w + 1] < k:
        w += 1
    k -= ((w - first) << 6) - rel[w]
    return (w << 6) + _select_in_word(~words[w] & _MASK64, k)


def _select_in_word(word: int, k: int) -> int:
    """Position (0-based) of the k-th set bit of ``word`` (``k >= 1``):
    halve by popcount down to a byte, then one table lookup."""
    pos = 0
    for width in (32, 16, 8):
        below = (word & ((1 << width) - 1)).bit_count()
        if k > below:
            k -= below
            word >>= width
            pos += width
    return pos + _SELECT_IN_BYTE_ROWS[word & 0xFF][k - 1]
