"""The ring trie-iterator: ``leap`` with bind/unbind state (§3.2, §4.2).

A :class:`RingIterator` wraps one triple pattern.  It keeps the pattern's
current constants (original ones plus values bound by LTJ) and the zone
range ``A[s..e]`` of Lemma 3.6, *maintained incrementally* across binds —
the paper's §4.2 first optimisation ("for each t we maintain the values
s_i, e_i instead of computing them from scratch during each leap").

Leap dispatch (Lemma 3.7) for a variable at position ``pos``:

- no constants bound → answer from the ``C`` array of ``pos`` alone;
- ``pos`` cyclically precedes the run start → **backward leap**
  (range-next-value on the zone's wavelet matrix);
- exactly one constant, ``pos`` follows it → **forward leap**
  (rank/select on the next zone, then binary search on its ``C``).

In arity 3 these cases are exhaustive.  Variables repeated inside one
pattern (outside the paper's wco guarantee; cf. its §6 discussion) are
handled soundly by candidate generation + verification.

LTJ skips the backward leaps when it can: it reads every backward
iterator's range off :meth:`RingIterator.zone_state`, descends them
together, and binds each with the stepped range the descent found.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.interface import first_candidate, pattern_constants
from repro.core.ring import Ring, ZoneState, next_attr, prev_attr
from repro.graph.model import O, S, TriplePattern, Var

#: Rows decoded per chunk by :meth:`RingIterator.solutions_bulk` — bounds
#: peak memory and keeps budget/timeout checks responsive on huge ranges.
#: A first chunk may be shorter: under a solution cap LTJ asks for only
#: the rows the cap has left, so a ``limit`` does not decode 8192 rows.
BULK_CHUNK_ROWS = 8192


class RingIterator:
    """Trie-iterator (Definition 2.1) over a :class:`~repro.core.ring.Ring`."""

    def __init__(self, ring: Ring, pattern: TriplePattern) -> None:
        self._ring = ring
        self._pattern = pattern
        self._constants: dict[int, int] = pattern_constants(pattern)
        self._var_positions = {
            var: tuple(pattern.variable_positions(var))
            for var in pattern.variables()
        }
        # Undo stack: (var, positions, saved_state, saved_empty).
        self._stack: list[tuple[Var, tuple[int, ...], Optional[ZoneState], bool]] = []
        self._empty = False
        self._state: Optional[ZoneState] = None  # None => no constants bound
        if self._constants:
            state = ring.pattern_range(self._constants)
            if state is None:
                self._empty = True
            else:
                self._state = state

    # -- inspection ---------------------------------------------------------

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def count(self) -> int:
        """Matching triples under the current constants (exact, §4.3)."""
        if self._empty:
            return 0
        if self._state is None:
            return self._ring.n
        return self._state[2] - self._state[1]

    def selectivity(self) -> float:
        """The paper's ``c(t) = (e - s + 1) / n`` statistic."""
        return self.count() / max(self._ring.n, 1)

    @property
    def ring(self) -> Ring:
        return self._ring

    def zone_state(self) -> Optional[ZoneState]:
        """The maintained Lemma 3.6 range, or ``None`` when nothing is
        bound (exposed for LTJ's lockstep descent of backward
        iterators)."""
        return None if self._empty else self._state

    def distinct_estimate(self, var: Var, max_nodes: int = 64) -> int:
        """Lower bound on the distinct admissible values of ``var``.

        The branching factor this pattern would contribute if ``var``
        were eliminated next — the statistic the cardinality-guided
        variable ordering ranks by.  Answered from the wavelet matrix
        in O(``max_nodes`` · levels) when ``var`` sits just behind the
        bound run (:meth:`WaveletMatrix.distinct_estimate`), from the
        ``C`` array when nothing is bound, and by the range size (a
        safe upper bound used as a tie-breaking proxy) otherwise.
        """
        if self._empty:
            return 0
        positions = self._var_positions[var]
        if len(positions) != 1:
            return self.count()
        pos = positions[0]
        ring = self._ring
        if self._state is None:
            c = ring.c_array(pos)
            return int(np.count_nonzero(np.diff(c)))
        zone, lo, hi = self._state
        if pos == prev_attr(zone):
            wm = ring.zone_sequence(zone)
            return wm.distinct_estimate(lo, hi, max_nodes=max_nodes)
        return hi - lo

    def leap_direction(self, var: Var) -> str:
        """How a leap on ``var`` would be answered from the current state:
        ``"backward"`` (range-next-value), ``"forward"`` (rank/select on
        the next zone), ``"free"`` (C array alone) or ``"repeated"``.

        Exposed so LTJ can descend the backward iterators of a variable
        in lockstep, and so the unidirectional-ring ablation can route
        forward leaps to a second, reversed ring.
        """
        positions = self._var_positions[var]
        if len(positions) != 1:
            return "repeated"
        if self._state is None:
            return "free"
        if positions[0] == prev_attr(self._state[0]):
            return "backward"
        return "forward"

    # -- leap ------------------------------------------------------------------

    def leap(self, var: Var, c: int) -> Optional[int]:
        """Smallest value ``>= c`` for ``var`` keeping the pattern
        satisfiable, or ``None``."""
        if self._empty:
            return None
        positions = self._var_positions[var]
        if len(positions) == 1:
            return self._leap_single(positions[0], c)
        return self._leap_repeated(positions, c)

    def _leap_single(self, pos: int, c: int) -> Optional[int]:
        ring = self._ring
        if self._state is None:
            return ring.next_value(pos, c)
        zone, lo, hi = self._state
        if pos == prev_attr(zone):
            return ring.backward_leap(zone, lo, hi, c)
        if len(self._constants) == 1 and pos == next_attr(zone):
            return ring.forward_leap(zone, self._constants[zone], c)
        raise AssertionError(
            f"unreachable leap case: pos={pos}, zone={zone}, "
            f"constants={sorted(self._constants)}"
        )

    def _leap_repeated(self, positions: tuple[int, ...], c: int) -> Optional[int]:
        """Candidate-and-verify leap for a twice-occurring variable.

        Candidates come from relaxing all but the first occurrence; each
        is verified with a full Lemma 3.6 range computation.  Correct but
        only wco when equalities are frequent in the data — the paper
        makes the same concession (§6).
        """
        probe_pos = positions[0]
        # A value must fit every position it occupies (a subject/object id
        # can exceed the predicate universe, e.g. for (?x, ?x, o)).
        ceiling = min(self._ring.sigma(pos) for pos in positions)
        while True:
            candidate = self._probe_leap(probe_pos, c)
            if candidate is None or candidate >= ceiling:
                return None
            trial = dict(self._constants)
            for pos in positions:
                trial[pos] = candidate
            if self._ring.pattern_range(trial) is not None:
                return candidate
            c = candidate + 1

    def _probe_leap(self, pos: int, c: int) -> Optional[int]:
        """Leap for ``pos`` ignoring the variable's other occurrences."""
        ring = self._ring
        if self._state is None:
            return ring.next_value(pos, c)
        zone, lo, hi = self._state
        if pos == prev_attr(zone):
            return ring.backward_leap(zone, lo, hi, c)
        if len(self._constants) == 1 and pos == next_attr(zone):
            return ring.forward_leap(zone, self._constants[zone], c)
        # Run of length 2 with the probe on its far side cannot happen for
        # single-occurrence vars but can for relaxed repeated ones; fall
        # back to value-by-value verification against the C array.
        return ring.next_value(pos, c)

    # -- bind / unbind --------------------------------------------------------------

    def bind(
        self, var: Var, value: int, state: Optional[ZoneState] = None
    ) -> None:
        """Fix ``var := value``; maintains the zone range incrementally.

        ``state``, when given, is the range the bind would compute,
        already found by a lockstep descent from :meth:`zone_state`;
        it is adopted without descending again.
        """
        positions = self._var_positions[var]
        self._stack.append((var, positions, self._state, self._empty))
        if self._empty:
            return
        ring = self._ring
        if len(positions) > 1:
            for pos in positions:
                self._constants[pos] = value
            found = ring.pattern_range(self._constants)
            if found is None:
                self._empty = True
            else:
                self._state = found
            return
        pos = positions[0]
        if state is not None:
            self._state = state
        elif self._state is None:
            self._state = ring.attribute_range(pos, value)
        else:
            zone, lo, hi = self._state
            if pos == prev_attr(zone):
                self._state = ring.backward_step(zone, lo, hi, value)
            elif len(self._constants) == 1 and pos == next_attr(zone):
                base = ring.attribute_range(pos, value)
                self._state = ring.backward_step(
                    base[0], base[1], base[2], self._constants[zone]
                )
            else:  # pragma: no cover - unreachable for arity 3
                raise AssertionError("unreachable bind case")
        self._constants[pos] = value
        if self._state[1] >= self._state[2]:
            self._empty = True

    def unbind(self, var: Var) -> None:
        """Undo the most recent bind (must match LIFO order)."""
        if not self._stack:
            raise ValueError("unbind without matching bind")
        top_var, positions, state, empty = self._stack.pop()
        if top_var != var:
            self._stack.append((top_var, positions, state, empty))
            raise ValueError(f"unbind order violation: expected {top_var}, got {var}")
        for pos in positions:
            self._constants.pop(pos, None)
        self._state = state
        self._empty = empty

    # -- enumeration (lonely variables, §4.2) ----------------------------------------

    def values(self, var: Var) -> Iterator[int]:
        """Distinct admissible values of ``var``, increasing.

        Uses the wavelet matrix's ``distinct_in_range`` (O(k log(σ/k)))
        when ``var`` sits just behind the bound run — the §4.2 lonely
        variables fast path — and repeated leaps otherwise.
        """
        if self._empty:
            return
        positions = self._var_positions[var]
        if len(positions) == 1 and self._state is not None:
            zone, lo, hi = self._state
            if positions[0] == prev_attr(zone):
                wm = self._ring.zone_sequence(zone)
                for value, _count in wm.distinct_in_range(lo, hi):
                    yield value
                return
        c = 0
        while True:
            value = self.leap(var, c)
            if value is None:
                return
            yield value
            c = value + 1

    def solutions_bulk(
        self, vars_: Iterable[Var], first: int = BULK_CHUNK_ROWS
    ) -> Optional[Iterator[tuple[dict[Var, np.ndarray], int]]]:
        """Batch enumeration of this pattern's remaining lonely bindings.

        Once the shared variables are bound, the pattern's Lemma 3.6
        range points at its matching triples, whose *unbound* attributes
        are exactly the cyclic predecessors of the range's zone; bulk-
        decoding the range (:meth:`~repro.core.ring.Ring.decode_range`)
        therefore yields one solution row per triple — all rows distinct,
        because the bound attributes are fixed and triples are unique.

        Returns ``None`` when the fast path does not apply (a repeated
        variable, or ``vars_`` not matching the unbound positions) —
        callers then fall back to the scalar enumeration.  Otherwise
        yields ``({var: column}, n_rows)`` chunks, columns row-aligned:
        the first of at most ``first`` rows, every later one of
        :data:`BULK_CHUNK_ROWS`.
        """
        vars_ = list(vars_)
        positions: dict[Var, int] = {}
        for var in vars_:
            var_pos = self._var_positions[var]
            if len(var_pos) != 1:
                return None  # repeated variable: verify-per-value instead
            positions[var] = var_pos[0]
        if self._state is None:
            zone, lo, hi = S, 0, self._ring.n
        else:
            zone, lo, hi = self._state
        unbound = []
        attr = zone
        for _ in vars_:
            attr = prev_attr(attr)
            unbound.append(attr)
        if set(unbound) != set(positions.values()):
            return None
        if self._empty:
            lo = hi  # no rows; still answer through the fast path

        def chunks() -> Iterator[tuple[dict[Var, np.ndarray], int]]:
            start, stop = lo, min(lo + min(first, BULK_CHUNK_ROWS), hi)
            while start < stop:
                decoded = self._ring.decode_range(zone, start, stop, len(vars_))
                yield (
                    {var: decoded[positions[var]] for var in vars_},
                    stop - start,
                )
                start, stop = stop, min(stop + BULK_CHUNK_ROWS, hi)

        return chunks()

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        """Pick the candidate enumerable backwards from the current run."""
        candidates = list(candidates)
        if self._state is not None:
            target = prev_attr(self._state[0])
            for var in candidates:
                if target in self._var_positions[var]:
                    return var
        else:
            # Nothing bound: start with the object, so subsequent
            # variables of this pattern continue backwards (o → p → s).
            for var in candidates:
                if O in self._var_positions[var]:
                    return var
        return first_candidate(candidates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingIterator({self._pattern!r}, count={self.count()})"
