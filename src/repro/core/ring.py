"""The ring index (§3–§4 of the paper).

Representation (§4.1, the split form): instead of one wavelet tree over
the shifted 3n-symbol bended BWT, the ring keeps one wavelet matrix per
zone with identifiers in non-shifted form:

- ``seq[S]``  — the *objects* of the triples sorted by ``(s, p, o)``
  (the paper's ``BWT_o``),
- ``seq[P]``  — the *subjects* sorted by ``(p, o, s)`` (``BWT_s``),
- ``seq[O]``  — the *predicates* sorted by ``(o, s, p)`` (``BWT_p``),

plus three cumulative-count arrays ``C[S]``, ``C[P]``, ``C[O]`` over the
subject, predicate and object values respectively.  Zone ``z``'s sequence
holds the attribute that *cyclically precedes* ``z`` (the BWT symbol), so
an LF step moves S → O → P → S — one step backwards around the cyclic
triple (Lemma 3.3).  No suffix array is ever materialised: because the
text is a concatenation of sorted stratified triples, the three zones are
obtained directly by three sorts (see DESIGN.md §6.1; the equivalence
with Definition 3.1 is asserted by the test-suite against
:mod:`repro.text`).

The ring *replaces* the graph: :meth:`Ring.triple` recovers any triple in
``O(log U)``, exactly as §3.1.2 describes.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core.counts import make_counts
from repro.graph.dataset import Graph
from repro.graph.model import O, P, S
from repro.perf.counters import KERNEL_COUNTERS as _perf
from repro.sequences.wavelet_matrix import WaveletMatrix

ZoneState = tuple[int, int, int]  # (zone attribute, lo, hi) with [lo, hi)

_MEMO_MISS = object()  # sentinel: None is a cacheable leap answer

#: Capacity (entries) of each ring's LRU backward-leap memo.
LEAP_MEMO_SIZE = 1 << 16

#: Longest range :meth:`Ring.decode_range` decodes row by row; a longer
#: one takes the batched numpy steps.  Break-even is near 24–32 rows
#: (table in ``decode_range``); 16 keeps a margin.
SHORT_DECODE_ROWS = 16


def prev_attr(attr: int) -> int:
    """Attribute cyclically preceding ``attr`` (o before s, s before p…)."""
    return (attr - 1) % 3


def next_attr(attr: int) -> int:
    """Attribute cyclically following ``attr``."""
    return (attr + 1) % 3


class Ring:
    """Bended-BWT index over a :class:`~repro.graph.Graph`.

    Parameters
    ----------
    graph:
        Source triples (sorted, deduplicated by the Graph container).
    compressed:
        Use RRR bitvectors inside the wavelet matrices — the **C-Ring**.
    block_size:
        RRR block size (paper's sdsl ``b``; 15 ≈ the paper's ``b=16``
        C-Ring, 63 ≈ its ``b=64`` compression-study variant).
    """

    def __init__(
        self,
        graph: Graph,
        compressed: bool = False,
        block_size: int = 15,
        succinct_counts: bool = False,
    ) -> None:
        triples = graph.triples
        self._n = len(triples)
        # LRU memo for backward leaps, keyed (zone, lo, hi, c).  The ring
        # is immutable, so a memoised leap is never stale; repeated seeks
        # inside one query (leapfrog revisits the same ranges as it
        # cycles through the iterators) hit instead of re-descending the
        # wavelet matrix.
        self._leap_memo: OrderedDict[tuple[int, int, int, int], Optional[int]]
        self._leap_memo = OrderedDict()
        self._leap_memo_hits = 0
        self._leap_memo_misses = 0
        self._sigma = (graph.n_nodes, graph.n_predicates, graph.n_nodes)
        self._compressed = compressed

        # Zone S holds objects in (s, p, o) order; Graph stores triples
        # already sorted that way.
        spo = triples
        pos = triples[np.lexsort((triples[:, S], triples[:, O], triples[:, P]))]
        osp = triples[np.lexsort((triples[:, P], triples[:, S], triples[:, O]))]
        self._seq = {
            S: WaveletMatrix(
                spo[:, O], self._sigma[O], compressed, block_size
            ),
            P: WaveletMatrix(
                pos[:, S], self._sigma[S], compressed, block_size
            ),
            O: WaveletMatrix(
                osp[:, P], self._sigma[P], compressed, block_size
            ),
        }
        self._c = {
            attr: make_counts(
                triples[:, attr], self._sigma[attr], succinct_counts
            )
            for attr in (S, P, O)
        }

    @classmethod
    def from_components(
        cls,
        seq: dict,
        counts: dict,
        *,
        n: int,
        sigma: tuple[int, int, int],
        compressed: bool = False,
    ) -> "Ring":
        """Assemble a ring from prebuilt zone sequences and C components.

        The copy-free path shared by the frozen pack reader (eager or
        memory-mapped, :mod:`repro.core.frozen`) and the streaming bulk
        builder: ``seq`` maps zones to wavelet matrices, ``counts``
        maps attributes to C components.  Nothing is copied; the result
        has a fresh leap memo.
        """
        ring = cls.__new__(cls)
        ring._n = int(n)
        ring._sigma = tuple(int(x) for x in sigma)
        ring._compressed = bool(compressed)
        if set(seq) != {S, P, O} or set(counts) != {S, P, O}:
            raise ValueError("seq/counts must cover exactly the zones S, P, O")
        ring._seq = dict(seq)
        ring._c = dict(counts)
        ring._leap_memo = OrderedDict()
        ring._leap_memo_hits = 0
        ring._leap_memo_misses = 0
        return ring

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of indexed triples."""
        return self._n

    @property
    def compressed(self) -> bool:
        return self._compressed

    def sigma(self, attr: int) -> int:
        """Universe size of attribute ``attr``."""
        return self._sigma[attr]

    def zone_sequence(self, zone: int) -> WaveletMatrix:
        """The wavelet matrix of ``zone`` (symbols of ``prev_attr(zone)``)."""
        return self._seq[zone]

    def c_array(self, attr: int) -> np.ndarray:
        """Cumulative counts of attribute ``attr``'s values (raw array)."""
        return self._c[attr].raw()

    def counts(self, attr: int):
        """The C component itself (plain or Elias–Fano layout)."""
        return self._c[attr]

    # -- LF machinery -----------------------------------------------------------

    def backward_step(
        self, zone: int, lo: int, hi: int, symbol: int
    ) -> ZoneState:
        """Batch LF step (Eq. 2): prepend ``symbol`` to the bound run.

        Maps the range ``[lo, hi)`` of zone ``zone`` to the range of
        rotations additionally starting with ``symbol`` in zone
        ``prev_attr(zone)``.  May return an empty range.
        """
        target = prev_attr(zone)
        wm = self._seq[zone]
        base = self._c[target].access(symbol)
        below, upto = wm.rank_pair(symbol, lo, hi)
        return (target, base + below, base + upto)

    def attribute_range(self, attr: int, value: int) -> ZoneState:
        """Range of rotations starting with ``value`` at attribute ``attr``."""
        c = self._c[attr]
        if not 0 <= value < self._sigma[attr]:
            return (attr, 0, 0)
        return (attr, c.access(value), c.access(value + 1))

    def pattern_range(self, constants: dict[int, int]) -> Optional[ZoneState]:
        """Lemma 3.6: locate the occurrences of a triple pattern.

        ``constants`` maps bound positions to values.  Returns the zone
        state whose range points at the occurrences (the zone is the
        first bound attribute of the cyclic run), or ``None`` when the
        pattern has no occurrences.  With no constants the full zone S is
        returned (any zone would do).
        """
        if not constants:
            return (S, 0, self._n)
        for attr, value in constants.items():
            if not 0 <= value < self._sigma[attr]:
                return None
        run = self._cyclic_run(tuple(sorted(constants)))
        value = constants[run[-1]]
        state = self.attribute_range(run[-1], value)
        if state[1] >= state[2]:
            return None
        for attr in reversed(run[:-1]):
            state = self.backward_step(state[0], state[1], state[2], constants[attr])
            if state[1] >= state[2]:
                return None
        return state

    @staticmethod
    def _cyclic_run(positions: tuple[int, ...]) -> tuple[int, ...]:
        """Order bound positions as a cyclically contiguous run.

        Any subset of {S, P, O} is contiguous on a 3-cycle; the run start
        is chosen so the whole subset follows consecutively.
        """
        if positions == (S, O):
            return (O, S)  # cyclically o precedes s
        return positions

    # -- leaps (Lemma 3.7) ---------------------------------------------------------

    def next_value(self, attr: int, c: int) -> Optional[int]:
        """Smallest value ``>= c`` of attribute ``attr`` present in the
        graph (the unconstrained leap, answered from ``C`` alone)."""
        if c < 0:
            c = 0
        if c >= self._sigma[attr]:
            return None
        return self._c[attr].next_nonempty(c)

    def backward_leap(
        self, zone: int, lo: int, hi: int, c: int
    ) -> Optional[int]:
        """Smallest value ``>= c`` of ``prev_attr(zone)`` co-occurring with
        the bound run: range-next-value on the zone's wavelet matrix,
        behind the LRU leap memo."""
        memo = self._leap_memo
        key = (zone, lo, hi, c)
        value = memo.get(key, _MEMO_MISS)
        if value is not _MEMO_MISS:
            memo.move_to_end(key)
            self._leap_memo_hits += 1
            if _perf.enabled:
                _perf.record("ring.leap_memo_hit", 1)
            return value
        self._leap_memo_misses += 1
        value = self._seq[zone].next_in_range(lo, hi, c)
        memo[key] = value
        if len(memo) > LEAP_MEMO_SIZE:
            memo.popitem(last=False)
        return value

    def backward_lockstep(
        self,
        states: Sequence[ZoneState],
        c: int,
        on_backtrack: Optional[Callable[[], None]] = None,
    ) -> Iterator[tuple[int, list[ZoneState]]]:
        """Backward leaps and binds of ``k`` bound runs, fused.

        Yields, increasing, every value ``v >= c`` that a backward leap
        would admit from *each* of ``states`` (whose zones must have
        matrices of one level count), together with the zone states
        :meth:`backward_step` would map them to under ``v`` — so the
        caller binds without descending again.  One lockstep descent of
        the matrices (:meth:`WaveletMatrix.intersect_ranges`, looked up
        at call time so a fault patched onto the class reaches it)
        replaces the leapfrog's ``k`` leaps per agreed value plus its
        ``k`` bind descents.  Not memoised.
        """
        matrices, ranges, targets = [], [], []
        for zone, lo, hi in states:
            target = prev_attr(zone)
            matrices.append(self._seq[zone])
            ranges.append((lo, hi))
            targets.append((target, self._c[target].access))
        for value, ranks in WaveletMatrix.intersect_ranges(
            matrices, ranges, c, on_backtrack
        ):
            stepped = []
            for (target, access), (below, upto) in zip(targets, ranks):
                base = access(value)
                stepped.append((target, base + below, base + upto))
            yield value, stepped

    def backward_lockstep_many(
        self, zones: Sequence[int], los, his
    ) -> tuple[np.ndarray, np.ndarray, list[tuple], tuple]:
        """:meth:`backward_lockstep` from ``0`` for a block of problems
        at once.

        Problem ``r`` holds one bound run per zone of ``zones`` (whose
        matrices share one level count), run ``i`` over ``[los[i][r],
        his[i][r])``.  Returns ``(problem, values, stepped, resumes)``:
        the agreed values of every problem from
        :meth:`WaveletMatrix.intersect_ranges_many` (looked up at
        call time, like the scalar kernel, so a patched fault reaches
        it), ``stepped[i] = (target, lo, hi)`` with the arrays of the
        ranges run ``i`` steps to under each value, and the scalar
        searches' backtracks as ``resumes``.  The ``C`` bases come from
        one ``access_many`` per run.
        """
        problem, values, below, upto, resumes = (
            WaveletMatrix.intersect_ranges_many(
                [self._seq[zone] for zone in zones], los, his
            )
        )
        stepped = []
        for zone, rank_lo, rank_hi in zip(zones, below, upto):
            target = prev_attr(zone)
            base = self._c[target].access_many(values)
            stepped.append((target, base + rank_lo, base + rank_hi))
        return problem, values, stepped, resumes

    def leap_memo_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the backward-leap memo."""
        return {
            "hits": self._leap_memo_hits,
            "misses": self._leap_memo_misses,
            "entries": len(self._leap_memo),
            "capacity": LEAP_MEMO_SIZE,
        }

    def clear_leap_memo(self) -> None:
        """Drop every memoised leap (counters reset too)."""
        self._leap_memo.clear()
        self._leap_memo_hits = 0
        self._leap_memo_misses = 0

    def forward_leap(self, attr: int, d: int, c: int) -> Optional[int]:
        """Smallest value ``>= c`` of ``next_attr(attr)`` among triples
        whose ``attr`` equals ``d`` (§3.2.2, the forward case).

        In zone ``B = next_attr(attr)`` the BWT symbols are ``attr``
        values; the first occurrence of ``d`` at a zone-B position whose
        rotation starts with a value ``>= c`` names the answer, recovered
        by binary search on ``C[B]``.
        """
        target = next_attr(attr)
        if c < 0:
            c = 0
        if c >= self._sigma[target] or not 0 <= d < self._sigma[attr]:
            return None
        wm = self._seq[target]
        start = self._c[target].access(c)
        before = wm.rank(d, start)
        # d occurs in the zone once per triple holding it: C, not a descent.
        if before >= self._c[attr].access(d + 1) - self._c[attr].access(d):
            return None
        q = wm.select(d, before + 1)
        value = self._c[target].bucket_of(q)
        return value if value < self._sigma[target] else None

    # -- triple retrieval --------------------------------------------------------

    def triple(self, i: int) -> tuple[int, int, int]:
        """Recover the i-th triple in ``(s, p, o)`` order in O(log U).

        This is why the ring *replaces* the raw data (§3.1.2): the index
        is the graph.
        """
        if not 0 <= i < self._n:
            raise IndexError(f"triple index {i} out of range [0, {self._n})")
        o, rank = self._seq[S].access_rank(i)
        p, rank = self._seq[O].access_rank(self._c[O].access(o) + rank)
        s = self._seq[P][self._c[P].access(p) + rank]
        return (s, p, o)

    def triples(self) -> np.ndarray:
        """Every triple as an ``(n, 3)`` int64 array in ``(s, p, o)``
        order: row ``i`` equals :meth:`triple` of ``i``, decoded in bulk
        (one batched descent per attribute, not one per cell)."""
        columns = self.decode_range(S, 0, self._n, 3)
        return np.stack([columns[S], columns[P], columns[O]], axis=1)

    def contains(self, s: int, p: int, o: int) -> bool:
        """Membership test via Lemma 3.6."""
        return self.pattern_range({S: s, P: p, O: o}) is not None

    # -- bulk decoding (the batch-leap substrate) ------------------------------

    def lf_many(
        self, zone: int, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch LF step: decode + map an array of zone positions at once.

        Returns ``(values, mapped)`` where ``values[i]`` is the symbol of
        ``prev_attr(zone)`` at ``positions[i]`` and ``mapped[i]`` its LF
        image in zone ``prev_attr(zone)`` — the vectorised form of the
        two-line body of :meth:`triple`.  The per-position rank is free:
        the wavelet matrix's access descent already ends at
        ``bucket_start(value) + rank(value, position)`` (see
        :meth:`~repro.sequences.wavelet_matrix.WaveletMatrix.extract_at`),
        so only one batched descent per *distinct* value remains.
        """
        wm = self._seq[zone]
        target = prev_attr(zone)
        values, bottoms = wm.extract_at(positions, return_bottom=True)
        uniques, inverse = np.unique(values, return_inverse=True)
        ranks = bottoms - wm.bucket_starts(uniques)[inverse]
        mapped = self._c[target].access_many(uniques)[inverse] + ranks
        return values, mapped

    def decode_range(
        self, zone: int, lo: int, hi: int, n_attrs: int
    ) -> dict[int, np.ndarray]:
        """Decode ``n_attrs`` attributes of every triple in ``[lo, hi)``.

        Walks backwards from ``zone`` (the direction LF steps go:
        ``prev_attr(zone)`` first), so with the range of Lemma 3.6 in
        hand the result holds exactly the *unbound* attributes of every
        matching triple, aligned by row — the bulk engine behind the
        lonely-variables batch path.  A range of more than
        :data:`SHORT_DECODE_ROWS` rows takes O(levels) batched numpy
        steps per attribute, whatever its length; one of at most that
        many rows is decoded row by row, one scalar
        :meth:`~repro.sequences.wavelet_matrix.WaveletMatrix.access_rank`
        descent and one ``C`` access per LF step.  Both give the same
        int64 columns.  Microseconds per call, batched / row by row, on
        uniform rings whose first matrix has 12 or 19 levels (2-vCPU
        Xeon host, CPython 3.11, numpy 2):

        ==================  =======  =======  ========  ========
        levels x attrs      1 row    16 rows  24 rows   32 rows
        ==================  =======  =======  ========  ========
        12 x 1              142/10   146/97   159/142   155/220
        12 x 2              440/19   459/251  472/376   471/504
        19 x 2              706/29   699/399  729/586   753/805
        19 x 3              991/36   1006/522 1012/786  1035/1027
        ==================  =======  =======  ========  ========
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        if not 1 <= n_attrs <= 3:
            raise ValueError("n_attrs must be in [1, 3]")
        lo, hi = max(lo, 0), min(hi, self._n)
        if hi - lo <= SHORT_DECODE_ROWS:
            out = self._decode_short(zone, lo, hi, n_attrs)
        else:
            out = {}
            positions = np.arange(lo, hi, dtype=np.int64)
            current = zone
            for step in range(n_attrs):
                if step == n_attrs - 1:  # last attribute: no LF map needed
                    out[prev_attr(current)] = self._seq[current].extract_at(
                        positions
                    )
                else:
                    values, positions = self.lf_many(current, positions)
                    out[prev_attr(current)] = values
                    current = prev_attr(current)
        if _perf.enabled:
            _perf.record(
                "ring.decode_range",
                max(hi - lo, 0) * n_attrs,
                time.perf_counter() - started,
            )
        return out

    def _decode_short(
        self, zone: int, lo: int, hi: int, n_attrs: int
    ) -> dict[int, np.ndarray]:
        """:meth:`decode_range` of a short range, one row at a time."""
        steps = []
        for _ in range(n_attrs):
            target = prev_attr(zone)
            steps.append((self._seq[zone], self._c[target].access, target))
            zone = target
        *mapped, (last, _, _) = steps
        columns = [[] for _ in steps]
        for row in range(lo, hi):
            pos = row
            for (wm, access, _), column in zip(mapped, columns):
                value, rank = wm.access_rank(pos)
                column.append(value)
                pos = access(value) + rank
            columns[-1].append(last[pos])
        return {
            target: np.array(column, dtype=np.int64)
            for (_, _, target), column in zip(steps, columns)
        }

    def count_pattern(self, constants: dict[int, int]) -> int:
        """Number of triples matching the bound positions (on-the-fly
        statistics of §4.3: exact, in O(log U))."""
        state = self.pattern_range(constants)
        return 0 if state is None else state[2] - state[1]

    # -- accounting -----------------------------------------------------------------

    def size_in_bits(self) -> int:
        """Wavelet matrices plus the three C arrays (stored packed)."""
        seq_bits = sum(wm.size_in_bits() for wm in self._seq.values())
        c_bits = sum(c.size_in_bits() for c in self._c.values())
        return seq_bits + c_bits + 256

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "C-Ring" if self._compressed else "Ring"
        return f"{kind}(n={self._n}, nodes={self._sigma[S]}, preds={self._sigma[P]})"
