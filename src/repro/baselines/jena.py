"""Jena / Jena-LTJ / Blazegraph regimes: B+tree triple orders.

- :class:`JenaIndex`: the reference SPARQL store regime — B+trees in the
  three orders ``spo``, ``pos``, ``osp`` (which cover *lookups* for every
  constant mask but cannot support wco leaps) and pairwise nested-loop
  index joins.
- :class:`JenaLTJIndex`: Hogan et al.'s LTJ on top of Jena — all six
  orders in B+trees, driven by the same LTJ engine as the ring.
- :class:`BlazegraphIndex`: Blazegraph's triples mode — the same three
  orders as Jena, with hash joins (the engine behind the Wikidata Query
  Service per §5.1).
"""

from __future__ import annotations

from typing import Iterator

from repro.baselines.btree import BTreeOrder
from repro.baselines.pairwise import PairwiseJoinEngine, PairwiseSystemMixin
from repro.baselines.sorted_orders import ALL_ORDERS, OrderSet, OrderSetIterator
from repro.core.interface import pattern_constants
from repro.core.system import BaseLTJSystem, BaseQuerySystem
from repro.graph.dataset import Graph
from repro.graph.model import O, P, S, TriplePattern

THREE_ORDERS = ((S, P, O), (P, O, S), (O, S, P))


class _BTreeScanProvider:
    """Pattern scans over a set of B+tree orders."""

    def __init__(self, orders: OrderSet) -> None:
        self._orders = orders

    def _covering(self, constants: dict[int, int]):
        bound = frozenset(constants)
        for perm, order in self._orders.orders.items():
            if set(perm[: len(bound)]) == bound:
                return order, [constants[a] for a in perm[: len(bound)]]
        raise LookupError(f"no order covers constant mask {sorted(bound)}")

    def scan_pattern(
        self, pattern: TriplePattern
    ) -> Iterator[tuple[int, int, int]]:
        order, values = self._covering(pattern_constants(pattern))
        return order.scan(values)

    def estimate_pattern(self, pattern: TriplePattern) -> int:
        order, values = self._covering(pattern_constants(pattern))
        lo, hi = order.prefix_range(values)
        return hi - lo


class JenaIndex(PairwiseSystemMixin, BaseQuerySystem):
    """Three B+tree orders, nested-loop pairwise joins (non-wco)."""

    name = "Jena"

    def __init__(self, graph: Graph, fanout: int = 64) -> None:
        super().__init__(graph)
        self._orders = OrderSet(
            graph,
            THREE_ORDERS,
            order_factory=lambda g, p: BTreeOrder(g, p, fanout),
        )
        self._engine = PairwiseJoinEngine(
            _BTreeScanProvider(self._orders), method="nested"
        )

    def size_in_bits(self) -> int:
        return self._orders.size_in_bits()


class BlazegraphIndex(PairwiseSystemMixin, BaseQuerySystem):
    """Three B+tree orders, hash pairwise joins (non-wco)."""

    name = "Blazegraph"

    def __init__(self, graph: Graph, fanout: int = 64) -> None:
        super().__init__(graph)
        self._orders = OrderSet(
            graph,
            THREE_ORDERS,
            order_factory=lambda g, p: BTreeOrder(g, p, fanout),
        )
        self._engine = PairwiseJoinEngine(
            _BTreeScanProvider(self._orders), method="hash"
        )

    def size_in_bits(self) -> int:
        return self._orders.size_in_bits()


class JenaLTJIndex(BaseLTJSystem):
    """All six B+tree orders, wco LTJ (the Jena-LTJ regime)."""

    name = "Jena-LTJ"

    def __init__(
        self, graph: Graph, fanout: int = 64, **engine_options
    ) -> None:
        super().__init__(graph, **engine_options)
        self._orders = OrderSet(
            graph,
            ALL_ORDERS,
            order_factory=lambda g, p: BTreeOrder(g, p, fanout),
        )

    def iterator(self, pattern: TriplePattern) -> OrderSetIterator:
        return OrderSetIterator(self._orders, pattern)

    def size_in_bits(self) -> int:
        return self._orders.size_in_bits()
