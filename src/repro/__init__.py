"""repro — a reproduction of *Worst-Case Optimal Graph Joins in Almost
No Space* (Arroyuelo, Hogan, Navarro, Reutter, Rojas-Ledesma, Soto;
SIGMOD 2021).

Public API tour:

>>> from repro import Graph, RingIndex
>>> graph = Graph.from_string_triples([("a", "knows", "b")])
>>> index = RingIndex(graph)
>>> index.evaluate("?x knows ?y", decode=True)
[{'x': 'a', 'y': 'b'}]

Subpackages: :mod:`repro.bits` (succinct substrate),
:mod:`repro.sequences` (wavelet matrices), :mod:`repro.text` (BWT
machinery), :mod:`repro.graph` (data model), :mod:`repro.core` (ring +
LTJ), :mod:`repro.baselines` (the paper's competitor regimes),
:mod:`repro.relational` (§6 d-ary rings, Table 3),
:mod:`repro.bench` (evaluation harness).
"""

from repro.core import (
    CompressedRingIndex,
    QueryCancelled,
    QueryError,
    QueryExecutionError,
    QueryResult,
    QueryTimeout,
    Request,
    RingIndex,
)
from repro.core.dynamic import DynamicRingIndex
from repro.graph import (
    BasicGraphPattern,
    Dictionary,
    Graph,
    Triple,
    TriplePattern,
    Var,
    parse_bgp,
)
from repro.reliability import (
    CancellationToken,
    IndexIntegrityError,
    ResourceBudget,
)

__version__ = "1.0.0"

__all__ = [
    "BasicGraphPattern",
    "CancellationToken",
    "CompressedRingIndex",
    "Dictionary",
    "DynamicRingIndex",
    "Graph",
    "IndexIntegrityError",
    "QueryCancelled",
    "QueryError",
    "QueryExecutionError",
    "QueryResult",
    "QueryTimeout",
    "Request",
    "ResourceBudget",
    "RingIndex",
    "Triple",
    "TriplePattern",
    "Var",
    "parse_bgp",
    "__version__",
]
