"""Rings over d-ary relations (Theorem 6.1) and the multi-ring system.

A :class:`RelationRing` fixes one cyclic order of the ``d`` attributes
and stores ``d`` zones — zone ``j`` holds the tuples sorted by the
rotation starting at cyclic position ``j``, represented by the wavelet
matrix of the *preceding* attribute's values (the BWT symbol), plus a
``C`` array per position.  Exactly the arity-3 ring, generalised.

Leaps extend a cyclically-contiguous bound run *backwards* in
``O(log U)``; extending *forwards* verifies candidates with an
``O(d log U)`` LF-walk per step, matching the §6 cost analysis ("we can
extend the range to include the preceding column in O(log U) time, but
extending the range forwards takes O(d log U)").

Since a single cyclic order cannot keep every bound set contiguous once
``d >= 4``, :class:`RelationalRingSystem` indexes the ``cbtw(d)``-many
rings computed by :func:`repro.relational.orders.find_cover` and routes
each leap to a ring that supports it — Table 3's CBTW row in executable
form.  Variables repeated inside one tuple pattern are rejected, exactly
as the paper's §6 scopes them out.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.interface import first_candidate
from repro.core.ltj import LeapfrogTrieJoin
from repro.graph.model import BasicGraphPattern, Var
from repro.relational.orders import Cycle, find_cover
from repro.relational.relation import Relation, RelationPattern
from repro.sequences.wavelet_matrix import WaveletMatrix


class UnsupportedEliminationOrder(Exception):
    """No indexed ring supports the requested leap (cover too small)."""


class RelationRing:
    """One cyclic order over a d-ary relation."""

    def __init__(self, relation: Relation, order: Sequence[int]) -> None:
        order = tuple(order)
        d = relation.arity
        if sorted(order) != list(range(d)):
            raise ValueError("order must be a permutation of the attributes")
        self.order = order
        self._d = d
        self._n = relation.n
        self._sigmas = relation.sigmas
        self._position_of = {attr: j for j, attr in enumerate(order)}
        t = relation.tuples
        self._seq: list[WaveletMatrix] = []
        self._c: list[np.ndarray] = []
        for j in range(d):
            rot = [order[(j + i) % d] for i in range(d)]
            # numpy lexsort: last key is primary.
            sort_idx = np.lexsort(tuple(t[:, a] for a in reversed(rot)))
            prev_attr = order[(j - 1) % d]
            self._seq.append(
                WaveletMatrix(t[sort_idx, prev_attr], self._sigmas[prev_attr])
            )
            attr = order[j]
            counts = (
                np.bincount(t[:, attr], minlength=self._sigmas[attr])
                if len(t)
                else np.zeros(self._sigmas[attr], dtype=np.int64)
            )
            c = np.zeros(self._sigmas[attr] + 1, dtype=np.int64)
            np.cumsum(counts, out=c[1:])
            self._c.append(c)

    # -- geometry -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def arity(self) -> int:
        return self._d

    def run_for(self, bound_attrs: frozenset[int]) -> Optional[tuple[int, int]]:
        """``(start_position, length)`` if the attributes form a
        cyclically contiguous run in this ring's order, else ``None``."""
        k = len(bound_attrs)
        if k == 0 or k == self._d:
            return (0, k)
        positions = {self._position_of[a] for a in bound_attrs}
        for start in positions:
            if all((start + i) % self._d in positions for i in range(k)):
                return (start, k)
        return None

    # -- ranges ------------------------------------------------------------------

    def backward_step(
        self, zone: int, lo: int, hi: int, symbol: int
    ) -> tuple[int, int, int]:
        target = (zone - 1) % self._d
        base = int(self._c[target][symbol])
        wm = self._seq[zone]
        return (target, base + wm.rank(symbol, lo), base + wm.rank(symbol, hi))

    def range_for_run(
        self, start: int, values: Sequence[int]
    ) -> Optional[tuple[int, int, int]]:
        """Zone state of the run at positions ``start .. start+len-1``
        holding ``values`` (in run order); ``None`` when empty."""
        k = len(values)
        if k == 0:
            return (start, 0, self._n)
        for i, v in enumerate(values):
            attr = self.order[(start + i) % self._d]
            if not 0 <= v < self._sigmas[attr]:
                return None
        last_pos = (start + k - 1) % self._d
        c = self._c[last_pos]
        v = values[-1]
        state = (last_pos, int(c[v]), int(c[v + 1]))
        for i in range(k - 2, -1, -1):
            if state[1] >= state[2]:
                return None
            state = self.backward_step(state[0], state[1], state[2], values[i])
        return state if state[1] < state[2] else None

    # -- leaps ------------------------------------------------------------------------

    def next_value(self, attr: int, c: int) -> Optional[int]:
        pos = self._position_of[attr]
        carr = self._c[pos]
        if c < 0:
            c = 0
        if c >= self._sigmas[attr]:
            return None
        base = int(carr[c])
        if base >= self._n:
            return None
        value = int(np.searchsorted(carr, base, side="right")) - 1
        return value if value < self._sigmas[attr] else None

    def backward_leap(
        self, zone: int, lo: int, hi: int, c: int
    ) -> Optional[int]:
        return self._seq[zone].next_in_range(lo, hi, c)

    def forward_leap(
        self, start: int, values: Sequence[int], c: int
    ) -> Optional[int]:
        """Smallest value ``>= c`` of the attribute *after* the run.

        Candidates are zone-``t`` rows preceded by the run's last value;
        each is verified by walking LF backwards across the whole run
        (O(|run| log U) per candidate — the §6 forward-extension cost).
        """
        k = len(values)
        t = (start + k) % self._d
        attr = self.order[t]
        if c < 0:
            c = 0
        if c >= self._sigmas[attr]:
            return None
        wm = self._seq[t]
        carr = self._c[t]
        last_value = values[-1]
        rank = wm.rank(last_value, int(carr[c]))
        total = wm.rank(last_value, self._n)
        while rank < total:
            q = wm.select(last_value, rank + 1)
            if self._verify_run(t, q, start, values):
                value = int(np.searchsorted(carr, q, side="right")) - 1
                return value if value < self._sigmas[attr] else None
            rank += 1
        return None

    def _verify_run(
        self, zone: int, row: int, start: int, values: Sequence[int]
    ) -> bool:
        """Check that the rotation at (zone, row) is preceded by the run."""
        k = len(values)
        # First step consumes the (already matched) last run value.
        state_zone, state_row = zone, row
        for i in range(k - 1, -1, -1):
            symbol = self._seq[state_zone][state_row]
            if symbol != values[i]:
                return False
            target = (state_zone - 1) % self._d
            state_row = int(self._c[target][symbol]) + self._seq[state_zone].rank(
                symbol, state_row
            )
            state_zone = target
        return True

    # -- retrieval ------------------------------------------------------------------------

    def tuple_at(self, i: int) -> tuple[int, ...]:
        """Recover the i-th tuple (sorted by this ring's cyclic order)."""
        if not 0 <= i < self._n:
            raise IndexError(f"tuple index {i} out of range [0, {self._n})")
        out = [0] * self._d
        zone, row = 0, i
        for _ in range(self._d):
            symbol = self._seq[zone][row]
            prev_pos = (zone - 1) % self._d
            out[self.order[prev_pos]] = symbol
            row = int(self._c[prev_pos][symbol]) + self._seq[zone].rank(symbol, row)
            zone = prev_pos
        return tuple(out)

    def size_in_bits(self) -> int:
        seq_bits = sum(wm.size_in_bits() for wm in self._seq)
        entry_bits = max(1, int(self._n).bit_length())
        c_bits = sum(entry_bits * len(c) for c in self._c)
        return seq_bits + c_bits + 256


class RelationRingIterator:
    """LTJ trie-iterator over a set of rings covering class CBTW."""

    def __init__(self, rings: Sequence[RelationRing],
                 pattern: RelationPattern) -> None:
        if pattern.has_repeated_variable():
            raise UnsupportedEliminationOrder(
                "repeated variables in one tuple pattern are outside the "
                "d-ary ring's wco scope (paper §6)"
            )
        self._rings = rings
        self._pattern = pattern
        self._constants: dict[int, int] = dict(pattern.constants())
        self._var_position = {
            var: pattern.variable_positions(var)[0] for var in pattern.variables()
        }
        self._stack: list[Var] = []

    @property
    def pattern(self) -> RelationPattern:
        return self._pattern

    def _bound_attrs(self) -> frozenset[int]:
        return frozenset(self._constants)

    def _run_values(self, ring: RelationRing, start: int, k: int) -> list[int]:
        return [
            self._constants[ring.order[(start + i) % ring.arity]] for i in range(k)
        ]

    def count(self) -> int:
        bound = self._bound_attrs()
        if not bound:
            return self._rings[0].n
        for ring in self._rings:
            run = ring.run_for(bound)
            if run is not None:
                state = ring.range_for_run(
                    run[0], self._run_values(ring, run[0], run[1])
                )
                return 0 if state is None else state[2] - state[1]
        # Bound set contiguous in no ring (can happen transiently when an
        # explicit variable order sidesteps the cover); conservative.
        return self._rings[0].n

    def leap(self, var: Var, c: int) -> Optional[int]:
        pos = self._var_position[var]
        bound = self._bound_attrs()
        if not bound:
            return self._rings[0].next_value(pos, c)
        # Prefer a backward leap: a ring where bound ∪ {attr} is a run
        # with the new attribute at the front.
        for ring in self._rings:
            run = ring.run_for(bound)
            if run is None:
                continue
            start, k = run
            before = ring.order[(start - 1) % ring.arity]
            if before == pos:
                state = ring.range_for_run(start, self._run_values(ring, start, k))
                if state is None:
                    return None
                return ring.backward_leap(state[0], state[1], state[2], c)
        for ring in self._rings:
            run = ring.run_for(bound)
            if run is None:
                continue
            start, k = run
            after = ring.order[(start + k) % ring.arity]
            if after == pos:
                return ring.forward_leap(
                    start, self._run_values(ring, start, k), c
                )
        raise UnsupportedEliminationOrder(
            f"no indexed ring supports extending {sorted(bound)} by {pos}"
        )

    def bind(self, var: Var, value: int) -> None:
        self._stack.append(var)
        self._constants[self._var_position[var]] = value

    def unbind(self, var: Var) -> None:
        if not self._stack or self._stack[-1] != var:
            raise ValueError("unbind order violation")
        self._stack.pop()
        del self._constants[self._var_position[var]]

    def values(self, var: Var) -> Iterator[int]:
        c = 0
        while True:
            value = self.leap(var, c)
            if value is None:
                return
            yield value
            c = value + 1

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        return first_candidate(candidates)


class RelationalRingSystem:
    """Worst-case-optimal joins over d-ary relations with CBTW rings."""

    name = "RelationalRing"

    def __init__(
        self,
        relation: Relation,
        orders: Sequence[Cycle] | None = None,
    ) -> None:
        self._relation = relation
        if orders is None:
            orders = find_cover("cbtw", relation.arity)
        self._rings = [RelationRing(relation, o) for o in orders]
        self._engine = LeapfrogTrieJoin(self.iterator, relation.n)

    @property
    def rings(self) -> list[RelationRing]:
        return list(self._rings)

    @property
    def orders(self) -> list[Cycle]:
        return [r.order for r in self._rings]

    def iterator(self, pattern: RelationPattern) -> RelationRingIterator:
        return RelationRingIterator(self._rings, pattern)

    def evaluate(
        self,
        patterns: Sequence[RelationPattern],
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> list[dict[Var, int]]:
        """Join the tuple patterns (Theorem 6.1)."""
        bgp = BasicGraphPattern(list(patterns))
        out = []
        for solution in self._engine.evaluate(bgp, timeout=timeout):
            out.append(solution)
            if limit is not None and len(out) >= limit:
                break
        return out

    def size_in_bits(self) -> int:
        return sum(r.size_in_bits() for r in self._rings)
