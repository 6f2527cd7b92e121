"""Property test of the one elimination order on a dynamic ring.

Under any interleaving of inserts, deletes, compactions and queries on
a dynamic ring:

- the dynamic index returns the *same solution multiset* as a static
  :class:`~repro.core.system.RingIndex` rebuilt from the live triples
  at that instant (buffer, tombstones and compaction may change where a
  triple lives, never the answer);
- it enumerates *deterministically* (two evaluations stream identical
  bytes);
- a :class:`~repro.cache.CachedQuerySystem` serve is byte-identical —
  same rows, same order — to a fresh evaluation of the index at that
  instant.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CachedQuerySystem
from repro.core.dynamic import DynamicRingIndex
from repro.core.system import RingIndex
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, TriplePattern, Var

N_NODES = 8
N_PREDICATES = 2

triples = st.tuples(
    st.integers(0, N_NODES - 1),
    st.integers(0, N_PREDICATES - 1),
    st.integers(0, N_NODES - 1),
)

VARIABLE_NAMES = ["x", "y", "z", "w"]


@st.composite
def bgps(draw):
    """1-3 patterns over a tiny variable pool (joins arise naturally)."""
    n_patterns = draw(st.integers(1, 3))
    patterns = []
    for _ in range(n_patterns):
        terms = []
        for bound in range(3):
            if draw(st.booleans()):
                terms.append(Var(draw(st.sampled_from(VARIABLE_NAMES))))
            else:
                limit = N_PREDICATES if bound == 1 else N_NODES
                terms.append(draw(st.integers(0, limit - 1)))
        patterns.append(TriplePattern(*terms))
    return BasicGraphPattern(patterns)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), triples),
        st.tuples(st.just("delete"), triples),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("query"), bgps()),
    ),
    min_size=4,
    max_size=16,
)


def canon(result):
    """Order-independent multiset encoding."""
    return sorted(
        tuple(sorted((v.name, c) for v, c in mu.items())) for mu in result
    )


def byte_rows(result):
    """Order- and insertion-order-sensitive encoding (byte identity)."""
    return [list(mu.items()) for mu in result]


def static_index(live):
    rows = np.array(sorted(live), dtype=np.int64).reshape(-1, 3)
    return RingIndex(Graph(rows, n_nodes=N_NODES, n_predicates=N_PREDICATES))


@given(ops=operations, initial=st.lists(triples, max_size=10, unique=True))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_policies_agree_and_cache_per_policy(ops, initial):
    live = set(initial)
    base = np.array(sorted(live), dtype=np.int64).reshape(-1, 3)
    graph = Graph(base, n_nodes=N_NODES, n_predicates=N_PREDICATES)
    index = DynamicRingIndex(graph, buffer_threshold=6, auto_compact=False)
    cached = CachedQuerySystem(index)

    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            cached.insert(*arg)
            live.add(arg)
        elif op == "delete":
            cached.delete(*arg)
            live.discard(arg)
        elif op == "compact":
            index._compact()
        else:
            fresh = index.evaluate(arg)
            # Same multiset as a from-scratch static index, always.
            assert canon(fresh) == canon(static_index(live).evaluate(arg)), (
                f"step {step}: dynamic answer of {arg!r} diverged from a "
                f"rebuilt static index"
            )
            # Determinism and byte-identical cached serves (asked twice:
            # the second is usually a hit).
            assert byte_rows(index.evaluate(arg)) == byte_rows(fresh)
            for _ in range(2):
                served = cached.evaluate(arg)
                assert byte_rows(served) == byte_rows(fresh), (
                    f"step {step}: cached serve diverged on {arg!r}"
                )
