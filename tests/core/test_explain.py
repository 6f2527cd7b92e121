"""Tests for the query-plan introspection API (§4.3 statistics)."""

import pytest

from repro.core import RingIndex
from repro.graph import Var, parse_bgp
from repro.graph.generators import nobel_graph


@pytest.fixture(scope="module")
def nobel():
    return RingIndex(nobel_graph())


class TestExplain:
    def test_figure4_plan(self, nobel):
        plan = nobel.explain("?x nom ?y . ?x win ?z . ?z adv ?y")
        # All three variables occur in two patterns: none lonely.
        assert plan["lonely_variables"] == []
        assert sorted(v.name for v in plan["variable_order"]) == ["x", "y", "z"]
        assert plan["uses_lonely_optimisation"]
        assert plan["uses_cardinality_ordering"]

    def test_cardinalities_are_exact(self, nobel):
        plan = nobel.explain("?x nom ?y . ?x win ?z . ?z adv ?y")
        cards = sorted(plan["pattern_cardinalities"].values())
        assert cards == [4, 4, 5]  # adv: 4, win: 4, nom: 5

    def test_selective_pattern_ordered_first(self, nobel):
        # adv (4 triples) is more selective than nom (5): its variables
        # should be eliminated before the nom-only parts.
        plan = nobel.explain("?x nom ?y . ?z adv ?y")
        assert plan["variable_order"][0] == Var("y")

    def test_lonely_detection(self, nobel):
        plan = nobel.explain("?x nom ?y . ?x win ?z")
        assert set(plan["lonely_variables"]) == {Var("y"), Var("z")}
        assert plan["variable_order"] == [Var("x")]

    def test_single_pattern_all_lonely(self, nobel):
        plan = nobel.explain("?x adv ?y")
        assert plan["variable_order"] == []
        assert set(plan["lonely_variables"]) == {Var("x"), Var("y")}

    def test_unknown_constant(self, nobel):
        plan = nobel.explain("?x madeup ?y")
        assert plan.get("empty")

    def test_empty_pattern_agrees_with_evaluate(self, nobel):
        # Every constant encodes, but Bohr never won anything: evaluate
        # and plan_signature say "no solutions", and so must the plan —
        # with the zero cardinality visible instead of an order.
        query = "Bohr win ?y . ?y adv ?z . ?z adv ?x"
        assert nobel.evaluate(query) == []
        encoded = nobel.graph.encode_bgp(parse_bgp(query))
        assert nobel._engine.plan_signature(encoded) is None
        plan = nobel.explain(query)
        assert plan["empty"]
        assert plan["variable_order"] == []
        assert sorted(plan["pattern_cardinalities"].values()) == [0, 4, 4]

    def test_ordering_flag_off(self):
        index = RingIndex(nobel_graph(), use_ordering=False)
        plan = index.explain("?x nom ?y . ?z adv ?y . ?z win ?x")
        assert not plan["uses_cardinality_ordering"]
        # Order falls back to first-appearance order.
        assert [v.name for v in plan["variable_order"]] == ["x", "y", "z"]

    def test_lonely_flag_off(self):
        index = RingIndex(nobel_graph(), use_lonely=False)
        plan = index.explain("?x nom ?y")
        assert plan["lonely_variables"] == []
        assert len(plan["variable_order"]) == 2
