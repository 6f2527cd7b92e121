"""Shared protocols for graph indexes and pattern iterators.

Both the ring and the baseline indexes plug into the same
:class:`~repro.core.ltj.LeapfrogTrieJoin` engine through the
:class:`PatternIterator` protocol — the trie-iterator abstraction of
Definition 2.1 extended with the bind/unbind state the engine drives.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Protocol, runtime_checkable

from repro.graph.model import TriplePattern, Var


class QueryError(Exception):
    """Base class for every typed query-evaluation failure.

    The serving layer (:class:`~repro.core.system.BaseQuerySystem`)
    guarantees that evaluation only ever raises subclasses of this (or
    returns correct results) — the contract the fault-injection suite in
    ``tests/reliability`` enforces.
    """


class QueryTimeout(QueryError):
    """Raised by engines when a query exceeds its time or op budget."""


class QueryCancelled(QueryError):
    """Raised when an external CancellationToken is triggered."""


class UnsupportedQueryError(QueryError):
    """The index cannot evaluate this query shape (by design)."""


class QueryExecutionError(QueryError):
    """An engine failed mid-evaluation; carries the failing BGP.

    Wraps unexpected internal errors (e.g. a corrupted structure read or
    an injected fault) so callers never see raw engine internals.  The
    original exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, bgp=None) -> None:
        super().__init__(message)
        self.bgp = bgp


@runtime_checkable
class PatternIterator(Protocol):
    """Per-triple-pattern state machine used by LTJ.

    Implementations maintain the set of values bound so far for the
    pattern's variables.  ``leap`` is Definition 2.1 evaluated *under the
    current bindings*: the smallest constant ``>= c`` for ``var`` such
    that the partially-substituted pattern still has matches.
    """

    def leap(self, var: Var, c: int) -> Optional[int]:
        """Smallest eliminator ``>= c`` of ``var``, or ``None``."""
        ...

    def bind(self, var: Var, value: int) -> None:
        """Fix ``var := value`` (must be a value ``leap`` admitted)."""
        ...

    def unbind(self, var: Var) -> None:
        """Undo the most recent ``bind`` (LIFO discipline)."""
        ...

    def count(self) -> int:
        """Number of triples matching the current partial binding."""
        ...

    def values(self, var: Var) -> Iterator[int]:
        """Distinct admissible values of ``var`` in increasing order."""
        ...

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        """Which of ``candidates`` this iterator enumerates cheapest."""
        ...


def leap_based_values(iterator: PatternIterator, var: Var) -> Iterator[int]:
    """Default ``values`` implementation: repeated leaps.

    Correct for every iterator; specialised iterators (e.g. the ring's
    backward enumeration via ``distinct_in_range``) override it when a
    cheaper path exists.
    """
    c = 0
    while True:
        value = iterator.leap(var, c)
        if value is None:
            return
        yield value
        c = value + 1


def first_candidate(candidates: Iterable[Var]) -> Var:
    """Fallback ``preferred_lonely``: any candidate."""
    for var in candidates:
        return var
    raise ValueError("no candidates")


def pattern_constants(pattern: TriplePattern) -> dict[int, int]:
    """Bound positions of an *encoded* pattern as ``{position: id}``.

    Accepts any integral constant (plain or ``numpy``); strings mean the
    pattern was never dictionary-encoded, which is a caller bug.
    """
    out = {}
    for pos, term in enumerate(pattern.terms):
        if not isinstance(term, Var):
            try:
                out[pos] = operator.index(term)
            except TypeError:
                raise TypeError(
                    f"engine patterns must be dictionary-encoded, got {term!r}"
                ) from None
    return out
