"""The flat 6-order wco index (EmptyHeaded regime).

"In the (traditional) flat indexing scheme, we require six orders for wco
joins using LTJ" (§1, Figure 2).  This system materialises all ``3! = 6``
sorted permutations of the triples and runs the same LTJ engine as the
ring on top of them.  It is the fast-but-fat end of the paper's
space/time trade-off: expect the best raw leap constants (binary search
on flat arrays beats wavelet-matrix navigation) at several times the
ring's space.
"""

from __future__ import annotations

from repro.baselines.sorted_orders import ALL_ORDERS, OrderSet, OrderSetIterator
from repro.core.system import BaseLTJSystem
from repro.graph.dataset import Graph
from repro.graph.model import TriplePattern


class FlatTrieIndex(BaseLTJSystem):
    """LTJ over all six sorted triple orders."""

    name = "FlatTrie"

    def __init__(self, graph: Graph, **engine_options) -> None:
        super().__init__(graph, **engine_options)
        self._orders = OrderSet(graph, ALL_ORDERS)

    def iterator(self, pattern: TriplePattern) -> OrderSetIterator:
        return OrderSetIterator(self._orders, pattern)

    def size_in_bits(self) -> int:
        return self._orders.size_in_bits()
