"""The result cache layered over the shard coordinator.

The coordinator's canonical row order makes its answers
byte-identically cacheable; the shard-generation vector (incarnation +
per-engine generation per shard) keys invalidation, so writes, crashes
and restarts each flush exactly what they must.
"""

import pytest

from repro.cache import CachedQuerySystem
from repro.serving import CircuitBreaker, RetryPolicy, ShardCoordinator
from tests.serving.conftest import WORKLOAD
from tests.serving.test_breaker import FakeClock

pytestmark = [pytest.mark.serving, pytest.mark.cache]

from repro.graph import BasicGraphPattern, TriplePattern, Var

JOIN = WORKLOAD[2]
JOIN_RENAMED = BasicGraphPattern(
    [
        TriplePattern(Var("a"), 0, Var("b")),
        TriplePattern(Var("b"), 1, Var("c")),
    ]
)


@pytest.fixture
def clock():
    """The breakers' clock: their reset window passes only when advanced."""
    return FakeClock()


@pytest.fixture
def cached(sharded, clock):
    coord = ShardCoordinator(
        sharded,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=2, reset_timeout=0.05, clock=clock
        ),
    )
    return CachedQuerySystem(coord, capacity_bytes=1 << 20)


class TestHits:
    def test_repeat_query_hits_byte_identically(self, cached):
        first = list(cached.evaluate(JOIN))
        again = list(cached.evaluate(JOIN))
        assert again == first
        assert cached.result_cache.stats()["hits"] == 1

    def test_renamed_query_hits_the_same_entry(self, cached):
        first = list(cached.evaluate(JOIN))
        renamed = cached.evaluate(JOIN_RENAMED)
        assert cached.result_cache.stats()["hits"] == 1
        # Same values in canonical positions, different variable names.
        assert [sorted(mu.values()) for mu in renamed] == [
            sorted(mu.values()) for mu in first
        ]


class TestInvalidation:
    def test_write_invalidates(self, cached, sharded):
        cached.evaluate(JOIN)
        sharded.insert(3, 0, 4)
        cached.evaluate(JOIN)
        assert cached.result_cache.stats()["hits"] == 0
        assert cached.result_cache.stats()["misses"] == 2

    def test_kill_and_restart_each_change_the_generation(self, cached, sharded):
        g0 = cached.cache_generation()
        sharded.kill_shard(0)
        g1 = cached.cache_generation()
        sharded.restart_shard(0)
        g2 = cached.cache_generation()
        assert len({g0, g1, g2}) == 3

    def test_restarted_memory_shard_serves_fresh_not_stale(self, cached, sharded):
        baseline = list(cached.evaluate(JOIN, partial=True))
        sharded.kill_shard(0)
        sharded.restart_shard(0)
        # Memory shards restart to their initial partition, so the data
        # is unchanged — but the lookup must still MISS (new incarnation),
        # not trust a pre-crash entry.
        after = cached.evaluate(JOIN, partial=True)
        assert list(after) == baseline
        assert cached.result_cache.stats()["hits"] == 0


class TestPartialResults:
    def test_partial_results_never_stored(self, cached, sharded, clock):
        sharded.kill_shard(2)
        degraded = cached.evaluate(JOIN, partial=True)
        assert degraded.truncated
        assert cached.result_cache.stats()["stores"] == 0
        # And the degraded answer did not poison a later complete one.
        sharded.restart_shard(2)
        clock.advance(0.06)  # breaker reset window
        recovered = cached.evaluate(JOIN, partial=True)
        assert not recovered.truncated
        assert len(recovered) >= len(degraded)
