"""Scatter-gather coordinator: correctness, degradation, recovery.

The acceptance scenario of the serving tier: with 4 shards and one of
them killed, the coordinator returns a deterministic partial result
tagged with exactly the shards that answered; the victim's breaker
opens, goes half-open after the reset window, and an unfaulted re-run
after restart is byte-identical to the complete answer.
"""

import time

import numpy as np
import pytest

from repro.core.interface import QueryTimeout
from repro.core.system import RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.reliability.budget import ResourceBudget
from repro.reliability.faults import Fault, InjectedFault, inject_faults
from repro.serving import (
    CircuitBreaker,
    RetryPolicy,
    ShardCoordinator,
    ShardedRingIndex,
    ShardUnavailable,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serving.sharding import partition_graph
from tests.serving.conftest import WORKLOAD, X, Y, Z, random_graph
from tests.serving.test_breaker import FakeClock
from tests.util import as_solution_set

pytestmark = pytest.mark.serving

JOIN = WORKLOAD[2]  # two-hop join


def fast_coordinator(shards, **kw):
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=2, base_delay=0.001, seed=0))
    kw.setdefault(
        "breaker_factory",
        lambda: CircuitBreaker(failure_threshold=2, reset_timeout=0.05),
    )
    return ShardCoordinator(shards, **kw)


def reference_rows(graph, bgp, **kw):
    return as_solution_set(RingIndex(graph).evaluate(bgp, **kw))


class TestCompletePath:
    @pytest.mark.parametrize("bgp", WORKLOAD, ids=["single", "scan", "join", "cycle"])
    def test_matches_serial_reference(self, graph, sharded, bgp):
        coord = fast_coordinator(sharded)
        result = coord.evaluate(bgp)
        assert result.shards.complete
        assert result.shards.answered == (0, 1, 2, 3)
        assert not result.truncated
        assert as_solution_set(result) == reference_rows(graph, bgp)

    def test_row_order_independent_of_shard_count(self, graph):
        outputs = []
        for n in (1, 3):
            with ShardedRingIndex.from_graph(graph, n) as shards:
                outputs.append(list(fast_coordinator(shards).evaluate(JOIN)))
        assert outputs[0] == outputs[1], "canonical order must not depend on sharding"

    def test_constant_subject_routes_to_single_shard(self, sharded, monkeypatch):
        import repro.serving.coordinator as co

        dispatched = []
        real = co.dispatch_shard

        def recording(endpoint, query, **kw):
            dispatched.append(endpoint)
            return real(endpoint, query, **kw)

        monkeypatch.setattr(co, "dispatch_shard", recording)
        subject = 5
        bgp = BasicGraphPattern([TriplePattern(subject, 0, Y)])
        fast_coordinator(sharded).evaluate(bgp)
        owner = sharded.endpoints[sharded.shard_for(subject)]
        assert dispatched == [owner]

    def test_limit_applied_after_canonical_sort(self, sharded):
        coord = fast_coordinator(sharded)
        full = list(coord.evaluate(JOIN))
        limited = coord.evaluate(JOIN, limit=3)
        assert list(limited) == full[:3]
        assert not limited.truncated, "stopping at the limit is not a truncation"
        assert limited.shards.complete, "limit is not a shard failure"

    def test_projection_dedupes(self, graph, sharded):
        coord = fast_coordinator(sharded)
        projected = coord.evaluate(JOIN, project=[X])
        expected = {
            frozenset({(X, dict(s)[X])})
            for s in reference_rows(graph, JOIN)
        }
        assert as_solution_set(projected) == expected
        assert len(projected) == len(expected), "projection must deduplicate"

    def test_string_queries_are_parsed(self, graph, sharded):
        # All-variable text (constants would need a dictionary graph,
        # same as BaseQuerySystem.evaluate).
        result = fast_coordinator(sharded).evaluate("?a ?p ?b")
        expected = reference_rows(
            graph,
            BasicGraphPattern([TriplePattern(Var("a"), Var("p"), Var("b"))]),
        )
        assert as_solution_set(result) == expected

    def test_ops_folded_into_parent_budget(self, sharded):
        budget = ResourceBudget()
        fast_coordinator(sharded).evaluate(JOIN, budget=budget)
        assert budget.ops > 0, "shard + local-join work must be accounted"


class TestDegradation:
    def test_acceptance_kill_degrade_recover(self, graph, sharded):
        """Kill a shard, degrade to a flagged partial answer, restart it
        and recover the complete answer, end to end."""
        # The breakers run on a fake clock: the open-state assertions
        # below hold however long the reference evaluations take on a
        # loaded host, and the reset window passes only when advanced.
        clock = FakeClock()
        coord = fast_coordinator(
            sharded,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=0.5, clock=clock
            ),
        )
        complete = list(coord.evaluate(JOIN, partial=True))
        victim = 2

        sharded.kill_shard(victim)
        degraded = coord.evaluate(JOIN, partial=True)
        # Tagged with exactly the shards that answered.
        assert degraded.shards.failed == (victim,)
        assert degraded.shards.answered == (0, 1, 3)
        assert not degraded.shards.complete
        assert degraded.truncated
        assert degraded.interrupted_by == "shard-failure"
        # The partial answer is the EXACT evaluation over the union of
        # the surviving partitions — no half-shard mixtures, no lies.
        parts = partition_graph(graph, 4)
        survivors = np.vstack(
            [parts[sid].triples for sid in (0, 1, 3)]
        )
        surviving_graph = Graph(
            survivors, n_nodes=graph.n_nodes, n_predicates=graph.n_predicates
        )
        assert as_solution_set(degraded) == reference_rows(surviving_graph, JOIN)
        assert as_solution_set(degraded) <= as_solution_set(complete)
        # Deterministic: an identical degraded re-run is byte-identical.
        rerun = coord.evaluate(JOIN, partial=True)
        assert list(rerun) == list(degraded)
        assert rerun.shards.failed == (victim,)
        # The victim's breaker opened (2 consecutive failures in one
        # evaluate: the join has two patterns, each dispatched to it).
        assert coord.breakers[victim].state == OPEN
        # ...and refuses straight away, without touching the dead shard.
        refused = coord.evaluate(JOIN, partial=True)
        assert refused.shards.failed == (victim,)
        assert coord.stats()["breaker_refusals"] > 0

        # Restart; after the reset window the breaker half-opens.
        sharded.restart_shard(victim)
        clock.advance(0.6)
        assert coord.breakers[victim].state == HALF_OPEN
        # The unfaulted re-run is byte-identical to the complete answer
        # and the probe successes re-close the breaker.
        recovered = coord.evaluate(JOIN, partial=True)
        assert list(recovered) == complete
        assert recovered.shards.complete
        assert not recovered.truncated
        assert coord.breakers[victim].state == CLOSED
        assert coord.breakers[victim].stats()["closed"] >= 1

    def test_partial_false_raises_shard_unavailable(self, sharded):
        sharded.kill_shard(1)
        coord = fast_coordinator(sharded)
        with pytest.raises(ShardUnavailable) as info:
            coord.evaluate(JOIN)
        assert info.value.shard_ids == (1,)

    def test_mid_query_kill_never_lies(self, graph, sharded, monkeypatch):
        """Kill the victim between the fan-out and its first gather: the
        answer must be either complete-and-exact or flagged-and-subset,
        never a silently wrong middle ground."""
        import repro.serving.coordinator as co

        victim = 1
        real = co.gather_block
        fired = {"done": False}

        def killing_gather(future, timeout):
            if not fired["done"]:
                fired["done"] = True
                sharded.kill_shard(victim)
            return real(future, timeout)

        monkeypatch.setattr(co, "gather_block", killing_gather)
        coord = fast_coordinator(sharded)
        result = coord.evaluate(JOIN, partial=True)
        assert fired["done"]
        if result.shards.complete:
            assert as_solution_set(result) == reference_rows(graph, JOIN)
        else:
            assert result.shards.failed == (victim,)
            assert result.truncated
            assert as_solution_set(result) <= reference_rows(graph, JOIN)

    def test_all_shards_down_yields_empty_partial(self, sharded):
        for sid in range(4):
            sharded.kill_shard(sid)
        result = fast_coordinator(sharded).evaluate(JOIN, partial=True)
        assert len(result) == 0
        assert result.shards.failed == (0, 1, 2, 3)
        assert result.truncated

    def test_expired_budget_flagged_as_timeout_under_partial(self, sharded):
        result = fast_coordinator(sharded).evaluate(
            JOIN, timeout=0.0, partial=True
        )
        assert result.truncated
        assert result.interrupted_by == "timeout"

    def test_expired_budget_raises_without_partial(self, sharded):
        with pytest.raises(QueryTimeout):
            fast_coordinator(sharded).evaluate(JOIN, timeout=0.0)


class TestRetry:
    def test_transient_dispatch_fault_is_retried_to_success(self, graph, sharded):
        coord = fast_coordinator(sharded)
        with inject_faults(
            Fault("shard.dispatch", error=InjectedFault, max_fires=1), seed=3
        ):
            result = coord.evaluate(JOIN, partial=True)
        assert result.shards.complete, "one transient fault must be absorbed"
        assert as_solution_set(result) == reference_rows(graph, JOIN)
        assert coord.stats()["retries"] >= 1

    def test_persistent_faults_exhaust_retries_and_degrade(self, sharded):
        coord = fast_coordinator(sharded)
        with inject_faults(
            Fault("shard.gather", error=InjectedFault, probability=1.0), seed=3
        ):
            result = coord.evaluate(JOIN, partial=True)
        assert not result.shards.complete
        assert result.truncated
        stats = coord.stats()
        assert stats["shard_failures"] > 0

    def test_backoff_clamped_to_parent_deadline(self, sharded):
        # Huge backoff + short deadline: the retry sleep must be clamped
        # so the evaluate returns (flagged) around the deadline, not
        # after the full backoff schedule.
        coord = ShardCoordinator(
            sharded,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=30.0, jitter=0.0, seed=0
            ),
        )
        with inject_faults(
            Fault("shard.gather", error=InjectedFault, probability=1.0), seed=3
        ):
            start = time.monotonic()
            result = coord.evaluate(JOIN, timeout=0.3, partial=True)
            elapsed = time.monotonic() - start
        assert elapsed < 5.0, "backoff slept past the parent deadline"
        assert result.truncated
