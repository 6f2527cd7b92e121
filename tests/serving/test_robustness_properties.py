"""Property tests for the serving tier's two load-bearing guarantees.

1. **Retry backoff never blows the parent deadline** — however
   aggressive the :class:`RetryPolicy`, the coordinator clamps every
   inter-attempt delay to the parent budget's remaining time, so a
   query against entirely dead shards returns (flagged partial) within
   the caller's timeout plus scheduling slack.
2. **Failover is invisible in the bytes** — under any schedule of
   kills, restarts (of the set, or of one member behind its back), and
   writes that leaves at least one clean live replica, a
   :class:`ReplicaSet` answers byte-identically to a single never-killed
   copy receiving the same writes.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import (
    CircuitBreaker,
    InProcessEndpoint,
    ReplicaSet,
    RetryPolicy,
    ShardCoordinator,
    ShardedRingIndex,
)
from repro.serving.sharding import _memory_factory
from tests.serving.conftest import N_NODES, WORKLOAD, random_graph

pytestmark = pytest.mark.serving

_GRAPH = random_graph(n_triples=120, seed=41)


@given(
    timeout=st.floats(0.02, 0.25),
    max_attempts=st.integers(2, 5),
    base_delay=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=8, deadline=None)
def test_retry_backoff_never_exceeds_parent_deadline(
    timeout, max_attempts, base_delay, seed
):
    shards = ShardedRingIndex.from_graph(_GRAPH, 2)
    coord = ShardCoordinator(
        shards,
        retry_policy=RetryPolicy(
            max_attempts=max_attempts,
            base_delay=base_delay,
            max_delay=10.0,  # deliberately far beyond the deadline
            seed=seed,
        ),
        breaker_factory=lambda: CircuitBreaker(failure_threshold=100),
        shard_timeout=10.0,
    )
    try:
        for sid in range(shards.n_shards):
            shards.kill_shard(sid)
        started = time.monotonic()
        result = coord.evaluate(WORKLOAD[0], partial=True, timeout=timeout)
        elapsed = time.monotonic() - started
        assert not result.shards.complete
        assert list(result) == []
        # Generous slack for a loaded 1-CPU box; the unclamped backoff
        # alone would exceed this by an order of magnitude.
        assert elapsed <= timeout + 0.6
    finally:
        shards.shutdown()


_STEP = st.one_of(
    st.tuples(st.just("kill"), st.integers(0, 2)),
    st.tuples(st.just("restart"), st.just(0)),
    st.tuples(st.just("restart member"), st.integers(0, 2)),
    st.tuples(st.just("write"), st.integers(0, N_NODES * N_NODES - 1)),
    st.tuples(st.just("query"), st.integers(0, len(WORKLOAD) - 1)),
)


@given(steps=st.lists(_STEP, max_size=10))
@example(  # a member restarted directly comes back without the write
    steps=[
        ("write", 0),
        ("kill", 1),
        ("restart member", 1),
        ("kill", 0),
        ("kill", 2),
        ("query", 1),
    ]
)
@settings(max_examples=10, deadline=None)
def test_failover_byte_identical_to_single_copy(steps):
    rs = ReplicaSet(
        [
            InProcessEndpoint(_memory_factory(_GRAPH, 256), {"workers": 1})
            for _ in range(3)
        ]
    )
    single = InProcessEndpoint(_memory_factory(_GRAPH, 256), {"workers": 1})
    try:
        for step in steps:
            kind, arg = step
            if kind == "kill":
                # Never kill the last clean live replica: with none
                # left the contract is a typed failure, not an answer.
                if [r for r in rs._eligible() if r != arg]:
                    rs.kill(arg)
            elif kind == "restart":
                rs.restart()
            elif kind == "restart member":
                rs.replicas[arg].restart()
            elif kind == "write":
                s, o = divmod(arg, N_NODES)
                rs.insert(s, 1, o)
                single.insert(s, 1, o)
            else:
                bgp = WORKLOAD[arg]
                got = rs.evaluate(bgp, timeout=30.0)
                want = single.evaluate(bgp, timeout=30.0)
                assert list(got) == list(want)
                assert not got.truncated
        rs.restart()
        final = rs.evaluate(WORKLOAD[1], timeout=30.0)
        assert list(final) == list(single.evaluate(WORKLOAD[1], timeout=30.0))
    finally:
        rs.shutdown()
        single.shutdown()
