"""Cumulative-count arrays: the ring's ``C`` components.

The paper stores ``C`` either as a plain array or — footnote 2 — "as a
bitvector to save space for large alphabets.  In this case the binary
search is replaced by ``c_x = select_0(D, q) - q``".  Both layouts live
here behind one interface:

- :class:`PackedCounts` — the plain layout: a monotone integer array
  (bit-packed for the space accounting), binary search via numpy;
- :class:`EliasFanoCounts` — the succinct layout: the monotone sequence
  in Elias–Fano encoding, searches via rank/select on its high part.

Operations (all the ring needs):

- ``access(v)``      — ``C[v]``: number of triples with value < v;
- ``bucket_of(q)``   — the value whose range contains row ``q``
  (the paper's ``select_0`` trick / our binary search);
- ``next_nonempty(c)`` — smallest value ``>= c`` that occurs at all.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Protocol

import numpy as np

from repro.bits.elias_fano import EliasFano


class CumulativeCounts(Protocol):
    """What :class:`~repro.core.ring.Ring` requires of a C array."""

    def __len__(self) -> int: ...

    def access(self, v: int) -> int: ...

    def access_many(self, vs) -> np.ndarray: ...

    def bucket_of(self, q: int) -> int: ...

    def next_nonempty(self, c: int) -> int | None: ...

    def size_in_bits(self) -> int: ...


def counts_from_column(column: np.ndarray, sigma: int) -> np.ndarray:
    """The raw cumulative array: ``out[v]`` = #values < v, length σ+1."""
    counts = (
        np.bincount(column, minlength=sigma)
        if len(column)
        else np.zeros(sigma, dtype=np.int64)
    )
    out = np.zeros(sigma + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class PackedCounts:
    """Plain layout.

    Queries run on a 64-bit numpy mirror — scalar ones through a
    zero-copy ``memoryview`` of it (plain ints, ``bisect``), batch ones
    vectorised; the accounted size is the ``ceil(log2(n+1))``-bit packed
    width the array information-theoretically occupies — the mirror is
    a reconstructible acceleration structure, consistent with how the
    paper counts its plain ``C`` arrays.
    """

    def __init__(self, cumulative: np.ndarray) -> None:
        self._c = np.asarray(cumulative, dtype=np.int64)
        if len(self._c) == 0 or (np.diff(self._c) < 0).any():
            raise ValueError("cumulative counts must be non-decreasing")
        self._view = memoryview(self._c)
        self._n = self._view[-1]

    @classmethod
    def from_raw(
        cls, cumulative: np.ndarray, *, validate: bool = True
    ) -> "PackedCounts":
        """Adopt a cumulative array without copying (e.g. a pack's mmap view).

        With ``validate=False`` the O(σ) monotonicity scan is skipped —
        the frozen open path defers it to the layout verifier so a
        memory-mapped open touches no pages beyond the last entry.
        """
        if validate:
            return cls(cumulative)
        pc = cls.__new__(cls)
        pc._c = np.asarray(cumulative, dtype=np.int64)
        if len(pc._c) == 0:
            raise ValueError("cumulative counts must be non-empty")
        pc._view = memoryview(pc._c)
        pc._n = pc._view[-1]
        return pc

    def __len__(self) -> int:
        return len(self._c)

    def access(self, v: int) -> int:
        return self._view[v]

    def access_many(self, vs) -> np.ndarray:
        """``C[v]`` over an array of values (one fancy-index call)."""
        return self._c[np.asarray(vs, dtype=np.int64)]

    def bucket_of(self, q: int) -> int:
        """Largest ``v`` with ``C[v] <= q`` (the row's value bucket)."""
        return bisect_right(self._view, q) - 1

    def next_nonempty(self, c: int) -> int | None:
        if c >= len(self._c) - 1:
            return None
        base = self._view[max(c, 0)]
        if base >= self._n:
            return None
        v = bisect_right(self._view, base) - 1
        return v if v < len(self._c) - 1 else None

    def raw(self) -> np.ndarray:
        """The cumulative array itself (testing/inspection)."""
        return self._c

    def size_in_bits(self) -> int:
        entry_bits = max(1, int(self._n).bit_length())
        return entry_bits * len(self._c) + 128


class EliasFanoCounts:
    """Succinct layout (paper footnote 2): Elias–Fano over the array."""

    def __init__(self, cumulative: np.ndarray) -> None:
        c = np.asarray(cumulative, dtype=np.int64)
        if len(c) == 0 or (np.diff(c) < 0).any():
            raise ValueError("cumulative counts must be non-decreasing")
        self._n = int(c[-1])
        self._ef = EliasFano(c, universe=self._n + 1)

    def __len__(self) -> int:
        return len(self._ef)

    def access(self, v: int) -> int:
        return self._ef[v]

    def access_many(self, vs) -> np.ndarray:
        """``C[v]`` over an array of values (scalar-loop fallback)."""
        v = np.asarray(vs, dtype=np.int64)
        return np.fromiter(
            (self._ef[int(x)] for x in v), dtype=np.int64, count=v.size
        ).reshape(v.shape)

    def bucket_of(self, q: int) -> int:
        return self._ef.rank_lt(q + 1) - 1

    def next_nonempty(self, c: int) -> int | None:
        last = len(self._ef) - 1
        if c >= last:
            return None
        base = self.access(max(c, 0))
        if base >= self._n:
            return None
        v = self._ef.rank_lt(base + 1) - 1
        return v if v < last else None

    def raw(self) -> np.ndarray:
        """Materialise the cumulative array (testing/inspection)."""
        return np.fromiter(self._ef, dtype=np.int64, count=len(self._ef))

    def size_in_bits(self) -> int:
        return self._ef.size_in_bits() + 64


def make_counts(
    column: np.ndarray, sigma: int, succinct: bool = False
) -> CumulativeCounts:
    """Build a C array in the requested layout."""
    cumulative = counts_from_column(column, sigma)
    return EliasFanoCounts(cumulative) if succinct else PackedCounts(cumulative)
