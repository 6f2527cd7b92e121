"""Unit tests of the adaptive variable-selection policies.

Covers the policy surface end to end: validation, the per-query
decision-log stats, the explicit estimate-miss fallback, the counted
degradation to static order when the ranking itself breaks (chaos site
``plan.rerank``), the multiset/byte-identity guarantees across policies,
and the adaptive-planning gates as exact leap counts (Veldhuizen's cost
unit, arXiv 1210.0481) — deterministic where a wall-clock ratio is not.
"""

import pytest

from repro.bench.wgpb import generate_wgpb_queries
from repro.core import RingIndex
from repro.core.dynamic import DynamicRingIndex
from repro.core.ltj import DECISION_LOG_CAP, POLICIES, rank_candidates
from repro.graph.generators import skewed_graph, wikidata_like
from repro.graph.model import BasicGraphPattern, TriplePattern, Var
from repro.reliability.faults import Fault, InjectedFault, inject_faults

S, A, B = Var("s"), Var("a"), Var("b")

TWO_WING = BasicGraphPattern(
    [TriplePattern(S, 0, A), TriplePattern(S, 1, B), TriplePattern(A, 2, B)]
)


def canon(result):
    """Policy-independent multiset encoding (binding order varies)."""
    return sorted(
        tuple(sorted((v.name, c) for v, c in mu.items())) for mu in result
    )


@pytest.fixture(scope="module")
def graph():
    return skewed_graph(n_hubs=12, fan=6, noise=80, seed=1)


def test_unknown_policy_rejected(graph):
    with pytest.raises(ValueError, match="unknown policy"):
        RingIndex(graph, policy="greedy")


def test_policy_property_exposed(graph):
    for policy in POLICIES:
        assert RingIndex(graph, policy=policy).policy == policy


def test_all_policies_same_multiset(graph):
    reference = canon(RingIndex(graph).evaluate(TWO_WING))
    assert reference, "workload query must have solutions"
    for policy in POLICIES:
        rows = canon(RingIndex(graph, policy=policy).evaluate(TWO_WING))
        assert rows == reference, policy


def test_per_policy_enumeration_deterministic(graph):
    for policy in POLICIES:
        index = RingIndex(graph, policy=policy)
        first = [dict(mu) for mu in index.evaluate(TWO_WING)]
        second = [dict(mu) for mu in index.evaluate(TWO_WING)]
        assert first == second, policy


def test_adaptive_diverges_and_logs_decisions(graph):
    stats: dict = {}
    index = RingIndex(graph, policy="adaptive")
    list(index.evaluate(TWO_WING, stats=stats))
    assert stats["policy"] == "adaptive"
    assert stats["reranks"] > 0
    # The workload is built so no static order survives: half the hubs
    # must flip the elimination order of ?a / ?b.
    assert stats["rerank_divergence"] > 0
    assert stats["rerank_fallbacks"] == 0
    assert stats["estimate_misses"] == 0
    log = stats["decision_log"]
    assert 0 < len(log) <= DECISION_LOG_CAP
    for depth, name, estimate in log:
        assert isinstance(depth, int) and depth >= 0
        assert name in {"s", "a", "b"}
        assert isinstance(estimate, int) and estimate >= 0


def _leaps(graph, queries, policy, limit=None):
    """Total ``stats["leaps"]`` and the canonical rows per query."""
    index = RingIndex(graph, policy=policy)
    total, rows = 0, []
    for bgp in queries:
        stats: dict = {}
        rows.append(canon(index.evaluate(bgp, limit=limit, stats=stats)))
        assert stats.get("rerank_fallbacks", 0) == 0
        assert stats.get("estimate_misses", 0) == 0
        total += stats["leaps"]
    return total, rows


def test_adaptive_halves_leaps_on_skewed_hubs():
    # Half the hubs want ?a eliminated before ?b and half the reverse,
    # so every static order pays the wide wing on half of them
    # (4 543 leaps static vs 636 adaptive when this gate was written).
    graph = skewed_graph(n_hubs=64, fan=32, noise=500, seed=0)
    static, static_rows = _leaps(graph, [TWO_WING], "static")
    adaptive, adaptive_rows = _leaps(graph, [TWO_WING], "adaptive")
    assert adaptive_rows == static_rows and static_rows[0]
    assert adaptive <= 0.5 * static, (adaptive, static)


def test_adaptive_leaps_bounded_on_uniform_mix():
    # Where the static order is already near-optimal re-ranking may not
    # cost more than 10% extra leaps over the 17 WGPB shapes
    # (35 085 adaptive vs 66 842 static over these 34 instances).
    graph = wikidata_like(4000, seed=0)
    by_shape = generate_wgpb_queries(graph, queries_per_shape=2, seed=0)
    queries = [bgp for instances in by_shape.values() for bgp in instances]
    static, static_rows = _leaps(graph, queries, "static", limit=1000)
    adaptive, adaptive_rows = _leaps(graph, queries, "adaptive", limit=1000)
    for expected, got in zip(static_rows, adaptive_rows):
        assert len(got) == len(expected)
        if len(expected) < 1000:  # a truncated prefix is order-dependent
            assert got == expected
    assert adaptive <= 1.10 * static, (adaptive, static)


def test_static_policy_keeps_plain_stats(graph):
    stats: dict = {}
    list(RingIndex(graph).evaluate(TWO_WING, stats=stats))
    assert stats["policy"] == "static"
    assert "reranks" not in stats  # no dynamic machinery on the static path


def test_rerank_fault_degrades_to_static_order(graph):
    reference = canon(RingIndex(graph).evaluate(TWO_WING))
    index = RingIndex(graph, policy="adaptive")
    stats: dict = {}
    fault = Fault("plan.rerank", probability=1.0, error=InjectedFault)
    with inject_faults(fault, seed=3):
        rows = canon(index.evaluate(TWO_WING, stats=stats))
    assert fault.fired >= 1
    assert rows == reference
    assert stats["rerank_fallbacks"] >= 1
    # After the first failure the rest of the query runs statically:
    # exactly one fault fires per query, not one per depth.
    assert fault.fired == 1


def test_estimate_miss_counted_on_union_iterators():
    # A dynamic ring with a non-empty buffer serves _UnionIterators,
    # which expose no distinct_estimate — the engine must count the
    # explicit fallback instead of silently treating None as a bound.
    graph = wikidata_like(300, seed=2)
    index = DynamicRingIndex(graph, buffer_threshold=64, auto_compact=False,
                             policy="distinct")
    index.insert(0, 0, 1)  # keep the write buffer non-empty
    bgp = BasicGraphPattern(
        [TriplePattern(S, 0, A), TriplePattern(A, 1, B), TriplePattern(S, 2, B)]
    )
    stats: dict = {}
    rows = canon(index.evaluate(bgp, stats=stats))
    reference = DynamicRingIndex(graph, buffer_threshold=64,
                                 auto_compact=False)
    reference.insert(0, 0, 1)
    assert rows == canon(reference.evaluate(bgp))
    assert stats["estimate_misses"] > 0


def test_plan_reports_policy_and_first_variable(graph):
    index = RingIndex(graph, policy="adaptive")
    plan = index.explain(TWO_WING)
    assert plan["policy"] == "adaptive"
    assert plan["first_variable"] in plan["variable_order"]
    static_plan = RingIndex(graph).explain(TWO_WING)
    assert static_plan["policy"] == "static"
    assert static_plan["first_variable"] == static_plan["variable_order"][0]


def test_rank_candidates_tie_breaks_on_static_rank(graph):
    # "adaptive" fills root_distinct, which the "distinct" call needs.
    index = RingIndex(graph, policy="adaptive")
    engine = index._engine
    encoded = index.graph.encode_bgp(TWO_WING)
    _live, by_var, order, _lonely = engine._analyse(encoded, None)
    state = engine._policy_state(order, by_var)
    var, estimate = rank_candidates(
        "rowcount", list(order), by_var, state.static_rank, state.root_distinct
    )
    assert var in order
    assert estimate >= 0
    # Ties must resolve to the earliest static rank, never by name.
    tied, _ = rank_candidates(
        "distinct", list(reversed(order)), by_var,
        state.static_rank, {k: 1 for k in state.root_distinct},
    )
    assert tied is order[0]
