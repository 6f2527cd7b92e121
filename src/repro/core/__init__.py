"""The paper's contribution: the ring index and Leapfrog TrieJoin.

- :class:`~repro.core.ring.Ring` — the bended-BWT index of §3, engineered
  per §4.1 as three per-attribute wavelet matrices plus three ``C``
  arrays.  ``compressed=True`` yields the **C-Ring** (RRR bitvectors).
- :class:`~repro.core.iterators.RingIterator` — the trie-iterator
  (Definition 2.1) over a ring: ``leap`` in ``O(log U)`` per Lemma 3.7.
- :class:`~repro.core.ltj.LeapfrogTrieJoin` — Algorithm 1, generic over
  any index exposing the iterator protocol, with the §4.3 on-the-fly
  variable ordering and the §4.2 lonely-variables optimisation.
- :class:`~repro.core.system.RingIndex` — the packaged query engine
  (build from a :class:`~repro.graph.Graph`, evaluate basic graph
  patterns, measure space); a query is one frozen
  :class:`~repro.core.system.Request`.
"""

from repro.core.interface import (
    QueryCancelled,
    QueryError,
    QueryExecutionError,
    QueryTimeout,
    UnsupportedQueryError,
)
from repro.core.ltj import LeapfrogTrieJoin
from repro.core.ring import Ring
from repro.core.system import CompressedRingIndex, QueryResult, Request, RingIndex

__all__ = [
    "CompressedRingIndex",
    "LeapfrogTrieJoin",
    "QueryCancelled",
    "QueryError",
    "QueryExecutionError",
    "QueryResult",
    "QueryTimeout",
    "Request",
    "Ring",
    "RingIndex",
    "UnsupportedQueryError",
]
