"""Cyclic *unidirectional* indexing (the Brisaboa-et-al. regime).

Figure 2's middle scheme: triples are cyclic but the index can only
extend patterns in one direction, so **two** orders are needed to cover
all triple patterns (class CTW of §6, versus the ring's CBW/CBTW one).

We realise it with two rings — one over the natural cycle ``s → p → o``
and one over the reversed cycle ``s → o → p`` (triples re-encoded as
``(s, o, p)``) — and forbid forward leaps: whenever the natural ring
would need a forward leap, the reversed ring answers it backwards.
This isolates exactly the paper's bidirectionality contribution: same
query algorithm, twice the space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


from repro.core.iterators import RingIterator
from repro.core.ring import Ring
from repro.core.system import BaseLTJSystem
from repro.graph.dataset import Graph
from repro.graph.model import O, P, S, TriplePattern, Var


def _reversed_graph(graph: Graph) -> Graph:
    """Re-encode triples as ``(s, o, p)`` so a standard ring indexes the
    reversed cycle.  Universes are padded so both id spaces fit."""
    t = graph.triples
    swapped = t[:, [S, O, P]] if len(t) else t
    return Graph(
        swapped,
        n_nodes=max(graph.n_nodes, graph.n_predicates),
        n_predicates=max(graph.n_nodes, 1),
    )


def _swap_pattern(pattern: TriplePattern) -> TriplePattern:
    """Map a pattern into the reversed ring's coordinates."""
    return TriplePattern(pattern.s, pattern.o, pattern.p)


class CyclicUnidirectionalIterator:
    """Backward-only leaps, routed to whichever ring supports them."""

    def __init__(self, forward_ring: Ring, reversed_ring: Ring,
                 pattern: TriplePattern) -> None:
        self._it1 = RingIterator(forward_ring, pattern)
        self._it2 = RingIterator(reversed_ring, _swap_pattern(pattern))
        self._pattern = pattern

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def count(self) -> int:
        return self._it1.count()

    def _route(self, var: Var) -> RingIterator:
        direction = self._it1.leap_direction(var)
        if direction in ("backward", "free", "repeated"):
            return self._it1
        return self._it2  # forward in ring 1 == backward in ring 2

    def leap(self, var: Var, c: int) -> Optional[int]:
        return self._route(var).leap(var, c)

    def bind(self, var: Var, value: int) -> None:
        self._it1.bind(var, value)
        self._it2.bind(var, value)

    def unbind(self, var: Var) -> None:
        self._it2.unbind(var)
        self._it1.unbind(var)

    def values(self, var: Var) -> Iterator[int]:
        return self._route(var).values(var)

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        return self._it1.preferred_lonely(candidates)


class CyclicUnidirectionalIndex(BaseLTJSystem):
    """LTJ over two backward-only rings (CTW-class ablation)."""

    name = "Cyclic-2R"

    def __init__(self, graph: Graph, **engine_options) -> None:
        super().__init__(graph, **engine_options)
        self._ring1 = Ring(graph)
        self._ring2 = Ring(_reversed_graph(graph))

    def iterator(self, pattern: TriplePattern) -> CyclicUnidirectionalIterator:
        return CyclicUnidirectionalIterator(self._ring1, self._ring2, pattern)

    def size_in_bits(self) -> int:
        return self._ring1.size_in_bits() + self._ring2.size_in_bits()
