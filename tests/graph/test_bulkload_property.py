"""Property tests: streaming ≡ parallel ≡ in-memory build (ISSUES 9, 10).

For *any* triple multiset, presented in *any* order with *any*
duplication, built with *any* chunk size, *any* worker count and *any*
merge fan-in:

- the external-memory :func:`~repro.graph.bulkload.bulk_build` pack is
  **byte-identical** to ``RingIndex(graph).save_frozen`` of the same
  logical graph — file and manifest both — whether its wavelet and
  count passes ran inline (``workers=0``) or on a forked worker pool
  (``workers>=1``), and whether the k-way merge ran in one pass or
  recursed through tiny fan-ins;
- the memmapped load of that pack answers a full scan and a join
  exactly like the in-memory index.

Byte-identity is the strongest possible equivalence: it subsumes every
query-level property and makes packs content-addressable (same logical
graph, same bytes, same sha256 — regardless of how or where they were
built).
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RingIndex
from repro.graph import bulkload
from repro.graph.bulkload import bulk_build
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, TriplePattern, Var

N_NODES = 12
N_PREDICATES = 3

X, Y, Z = Var("x"), Var("y"), Var("z")
SCAN = BasicGraphPattern([TriplePattern(X, Var("p"), Y)])
JOIN = BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)])

triples = st.tuples(
    st.integers(0, N_NODES - 1),
    st.integers(0, N_PREDICATES - 1),
    st.integers(0, N_NODES - 1),
)


@st.composite
def noisy_inputs(draw):
    """A triple set plus a duplicated, shuffled presentation of it."""
    rows = draw(st.lists(triples, min_size=0, max_size=120))
    extra = draw(st.lists(st.sampled_from(rows), max_size=40)) if rows else []
    presented = rows + extra
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    order = rng.permutation(len(presented))
    chunk = draw(st.integers(1, 50))
    return rows, [presented[i] for i in order], chunk


def _rows(index, bgp):
    return [dict(mu) for mu in index.evaluate(bgp)]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(noisy_inputs())
def test_streaming_equals_in_memory(tmp_path_factory, case):
    rows, presented, chunk = case
    tmp = tmp_path_factory.mktemp("bulkprop")
    arr = (
        np.array(rows, dtype=np.int64).reshape(-1, 3)
        if rows
        else np.empty((0, 3), dtype=np.int64)
    )
    graph = Graph(arr, n_nodes=N_NODES, n_predicates=N_PREDICATES)
    reference = str(tmp / "reference.ring")
    RingIndex(graph).save_frozen(reference)

    out = str(tmp / "streamed.ring")
    presented_arr = (
        np.array(presented, dtype=np.int64).reshape(-1, 3)
        if presented
        else np.empty((0, 3), dtype=np.int64)
    )
    bulk_build(
        iter(presented_arr),
        out,
        chunk_triples=chunk,
        n_nodes=N_NODES,
        n_predicates=N_PREDICATES,
    )

    with open(out, "rb") as a, open(reference, "rb") as b:
        assert a.read() == b.read()
    with open(out + ".config.json") as a, open(
        reference + ".config.json"
    ) as b:
        assert a.read() == b.read()

    mapped = RingIndex.load(out, mmap=True)
    fresh = RingIndex(graph)
    assert _rows(mapped, SCAN) == _rows(fresh, SCAN)
    assert _rows(mapped, JOIN) == _rows(fresh, JOIN)


@st.composite
def parallel_cases(draw):
    """A noisy presentation plus a (workers, fan-in) build configuration."""
    rows, presented, chunk = draw(noisy_inputs())
    workers = draw(st.sampled_from([0, 1, 2]))
    fanin = draw(st.sampled_from([2, 3, 64]))
    return rows, presented, chunk, workers, fanin


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(parallel_cases())
def test_parallel_equals_serial_equals_in_memory(tmp_path_factory, case):
    rows, presented, chunk, workers, fanin = case
    tmp = tmp_path_factory.mktemp("bulkpar")
    arr = (
        np.array(rows, dtype=np.int64).reshape(-1, 3)
        if rows
        else np.empty((0, 3), dtype=np.int64)
    )
    graph = Graph(arr, n_nodes=N_NODES, n_predicates=N_PREDICATES)
    reference = str(tmp / "reference.ring")
    RingIndex(graph).save_frozen(reference)

    presented_arr = (
        np.array(presented, dtype=np.int64).reshape(-1, 3)
        if presented
        else np.empty((0, 3), dtype=np.int64)
    )
    out = str(tmp / "parallel.ring")
    # The function-scoped monkeypatch fixture cannot serve @given.
    with mock.patch.object(bulkload, "MERGE_FANIN", fanin):
        bulk_build(
            iter(presented_arr),
            out,
            chunk_triples=chunk,
            n_nodes=N_NODES,
            n_predicates=N_PREDICATES,
            workers=workers,
        )

    with open(out, "rb") as a, open(reference, "rb") as b:
        assert a.read() == b.read()
    with open(out + ".config.json") as a, open(
        reference + ".config.json"
    ) as b:
        assert a.read() == b.read()
