"""End-to-end LTJ tests over the ring, cross-checked against brute force."""

from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.wgpb import generate_wgpb_queries
from repro.core import CompressedRingIndex, QueryTimeout, RingIndex
from repro.core.iterators import RingIterator
from repro.core.ltj import POLICIES
from repro.core.ring import Ring
from repro.graph import BasicGraphPattern, TriplePattern, Var, parse_bgp
from repro.graph.dataset import Graph
from repro.graph.generators import (
    clique_graph,
    nobel_graph,
    path_graph,
    random_graph,
    wikidata_like,
)
from tests.util import as_solution_set, naive_evaluate

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


@pytest.fixture(scope="module")
def nobel():
    return RingIndex(nobel_graph())


def encoded(graph, text):
    return graph.encode_bgp(parse_bgp(text))


def check_against_naive(graph, bgp, index=None, **options):
    index = index or RingIndex(graph)
    got = as_solution_set(index.evaluate(bgp, **options))
    expected = naive_evaluate(graph, bgp)
    assert got == expected
    return got


class TestRingIterator:
    def test_count_tracks_bindings(self):
        g = nobel_graph()
        ring = Ring(g)
        p_nom = g.dictionary.predicate_id("nom")
        it = RingIterator(ring, TriplePattern(X, p_nom, Y))
        assert it.count() == 5
        nobel_id = g.dictionary.node_id("Nobel")
        assert it.leap(X, 0) == nobel_id
        it.bind(X, nobel_id)
        assert it.count() == 5
        bohr = g.dictionary.node_id("Bohr")
        assert it.leap(Y, 0) == bohr
        it.bind(Y, bohr)
        assert it.count() == 1
        it.unbind(Y)
        it.unbind(X)
        assert it.count() == 5

    def test_unbind_order_enforced(self):
        ring = Ring(nobel_graph())
        it = RingIterator(ring, TriplePattern(X, 0, Y))
        it.bind(X, 0)
        it.bind(Y, 2)
        with pytest.raises(ValueError):
            it.unbind(X)
        it.unbind(Y)
        it.unbind(X)
        with pytest.raises(ValueError):
            it.unbind(X)

    def test_leap_on_unknown_constant_pattern(self):
        g = nobel_graph()
        ring = Ring(g)
        it = RingIterator(ring, TriplePattern(X, 2, 99999 % g.n_nodes))
        # Whatever the state, leap never crashes and count is consistent.
        assert it.count() >= 0

    def test_values_backward_enumeration(self):
        g = nobel_graph()
        ring = Ring(g)
        p_adv = g.dictionary.predicate_id("adv")
        it = RingIterator(ring, TriplePattern(X, p_adv, Y))
        # Backward from zone P enumerates subjects of adv triples.
        subjects = sorted(
            g.dictionary.node_id(s) for s in ["Bohr", "Thomson", "Thorne", "Wheeler"]
        )
        assert list(it.values(X)) == subjects

    def test_values_forward_falls_back_to_leaps(self):
        g = nobel_graph()
        ring = Ring(g)
        nobel_id = g.dictionary.node_id("Nobel")
        it = RingIterator(ring, TriplePattern(nobel_id, Y, Z))
        # Y follows the bound subject: forward enumeration.
        assert list(it.values(Y)) == sorted(
            {t[1] for t in g.triples if t[0] == nobel_id}
        )


class TestSinglePatternQueries:
    @pytest.mark.parametrize("query", [
        "?x adv ?y",
        "?x nom ?y",
        "Nobel win ?x",
        "?x adv Bohr",
        "?x ?p Bohr",
        "Nobel ?p ?x",
        "?x ?p ?y",
        "Bohr adv Thomson",
    ])
    def test_matches_naive(self, query):
        g = nobel_graph()
        bgp = encoded(g, query)
        check_against_naive(g, bgp)

    def test_fully_bound_present(self, nobel):
        g = nobel.graph
        bgp = encoded(g, "Bohr adv Thomson")
        assert nobel.evaluate(bgp) == [{}]

    def test_fully_bound_absent(self, nobel):
        g = nobel.graph
        bgp = encoded(g, "Thomson adv Bohr")
        assert nobel.evaluate(bgp) == []

    def test_unknown_label_yields_empty(self, nobel):
        assert nobel.evaluate("?x madeup ?y") == []

    def test_string_query_decode(self, nobel):
        out = nobel.evaluate("?z adv Bohr", decode=True)
        assert out == [{"z": "Wheeler"}]


class TestFigure4:
    """The paper's running query (Figure 4) has exactly 3 solutions."""

    QUERY = "?x nom ?y . ?x win ?z . ?z adv ?y"

    def test_three_solutions(self, nobel):
        out = nobel.evaluate(self.QUERY, decode=True)
        triples = {(s["x"], s["y"], s["z"]) for s in out}
        assert triples == {
            ("Nobel", "Strutt", "Thomson"),
            ("Nobel", "Thomson", "Bohr"),
            ("Nobel", "Wheeler", "Thorne"),
        }

    def test_matches_naive(self, nobel):
        g = nobel.graph
        check_against_naive(g, encoded(g, self.QUERY), index=nobel)

    def test_compressed_ring_agrees(self):
        g = nobel_graph()
        comp = CompressedRingIndex(g)
        assert as_solution_set(
            comp.evaluate(encoded(g, self.QUERY))
        ) == naive_evaluate(g, encoded(g, self.QUERY))


class TestJoinShapes:
    def test_path_join(self):
        g = path_graph(6)
        bgp = BasicGraphPattern(
            [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z)]
        )
        sols = check_against_naive(g, bgp)
        assert len(sols) == 5  # paths of length 2 in a 6-edge path

    def test_triangle_on_clique(self):
        g = clique_graph(5)
        bgp = BasicGraphPattern(
            [
                TriplePattern(X, 0, Y),
                TriplePattern(Y, 0, Z),
                TriplePattern(Z, 0, X),
            ]
        )
        sols = check_against_naive(g, bgp)
        assert len(sols) == 5 * 4 * 3  # ordered triangles in K5

    def test_star_join(self):
        g = wikidata_like(400, seed=3)
        p0 = 0
        bgp = BasicGraphPattern(
            [
                TriplePattern(X, p0, Y),
                TriplePattern(X, p0, Z),
            ]
        )
        check_against_naive(g, bgp)

    def test_constant_object_join(self):
        g = nobel_graph()
        bgp = encoded(g, "?x adv ?y . Nobel win ?y")
        check_against_naive(g, bgp)

    def test_variable_predicate_join(self):
        g = nobel_graph()
        bgp = encoded(g, "?x ?p ?y . ?y ?q ?z")
        check_against_naive(g, bgp)

    def test_repeated_variable_in_pattern(self):
        # Self-loops: add one to a clique graph.
        triples = np.vstack([clique_graph(4).triples, [[2, 0, 2]]])
        g = Graph(triples)
        bgp = BasicGraphPattern([TriplePattern(X, 0, X)])
        sols = check_against_naive(g, bgp)
        assert sols == {frozenset({(X, 2)}.__iter__())} or len(sols) == 1

    def test_repeated_variable_join(self):
        triples = np.vstack([clique_graph(4).triples, [[2, 0, 2], [3, 0, 3]]])
        g = Graph(triples)
        bgp = BasicGraphPattern(
            [TriplePattern(X, 0, X), TriplePattern(X, 0, Y)]
        )
        check_against_naive(g, bgp)

    def test_disconnected_patterns(self):
        g = nobel_graph()
        bgp = encoded(g, "?x adv ?y . Nobel win ?z")
        check_against_naive(g, bgp)


class TestEngineOptions:
    def test_limit(self, nobel):
        out = nobel.evaluate("?x nom ?y", limit=2)
        assert len(out) == 2

    def test_timeout_fires(self):
        g = wikidata_like(2000, seed=0)
        index = RingIndex(g)
        bgp = BasicGraphPattern(
            [TriplePattern(X, Var("p1"), Y), TriplePattern(Y, Var("p2"), Z)]
        )
        with pytest.raises(QueryTimeout):
            index.evaluate(bgp, timeout=1e-4)

    def test_explicit_var_order(self, nobel):
        g = nobel.graph
        bgp = encoded(g, self_query := "?x nom ?y . ?x win ?z . ?z adv ?y")
        for order in ([X, Y, Z], [Z, Y, X], [Y, Z, X]):
            got = as_solution_set(nobel.evaluate(bgp, var_order=order))
            assert got == naive_evaluate(g, bgp)

    def test_bad_var_order_rejected(self, nobel):
        g = nobel.graph
        bgp = encoded(g, "?x nom ?y . ?x win ?z . ?z adv ?y")
        with pytest.raises(ValueError):
            nobel.evaluate(bgp, var_order=[X])

    def test_lonely_optimisation_off_agrees(self):
        g = wikidata_like(300, seed=9)
        plain = RingIndex(g)
        no_lonely = RingIndex(g, use_lonely=False)
        bgp = BasicGraphPattern(
            [TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z)]
        )
        assert as_solution_set(plain.evaluate(bgp)) == as_solution_set(
            no_lonely.evaluate(bgp)
        )

    def test_ordering_off_agrees(self):
        g = wikidata_like(300, seed=10)
        plain = RingIndex(g)
        no_order = RingIndex(g, use_ordering=False)
        bgp = BasicGraphPattern(
            [TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z), TriplePattern(X, 2, Z)]
        )
        assert as_solution_set(plain.evaluate(bgp)) == as_solution_set(
            no_order.evaluate(bgp)
        )

    def test_stats_are_per_evaluation(self):
        # A RingIndex owns one engine and broker threads share it: a
        # second evaluation started mid-drain must not steal (or drop)
        # the first caller's telemetry.
        g = wikidata_like(300, seed=10)
        index = RingIndex(g, policy="adaptive")
        engine = index._engine
        bgp = BasicGraphPattern(
            [TriplePattern(X, 0, Y), TriplePattern(Y, 1, Z), TriplePattern(X, 2, Z)]
        )
        solo: dict = {}
        rows = list(engine.evaluate(bgp, stats=solo))
        assert solo["leaps"] > 2 and solo["reranks"] > 0

        first: dict = {}
        second: dict = {}
        g1 = engine.evaluate(bgp, stats=first)
        head = next(g1)
        g2 = engine.evaluate(bgp)  # stats=None used to silence g1's
        next(g2)
        g3 = engine.evaluate(bgp, stats=second)
        next(g3)
        assert [head, *g1] == rows
        assert [*g3] == rows[1:]
        assert first == solo
        assert second == solo

    def test_count_helper(self, nobel):
        assert nobel.count("?x nom ?y") == 5

    def test_bytes_per_triple_positive(self, nobel):
        assert nobel.bytes_per_triple() > 0


SLICE_ROWS = 500


def _cuts(values, universe, k):
    """``k`` ascending ``[lo, hi)`` ranges covering ``[0, universe)``.

    Inner boundaries alternate between a solution value and one past it
    (on and between values), and the last one repeats (an empty range).
    """
    if k == 1:
        return [(0, universe)]
    inner = sorted(
        values[i * len(values) // (k - 1)] + i % 2 for i in range(1, k - 1)
    )
    bounds = [0, *inner, inner[-1], universe]
    return list(zip(bounds, bounds[1:]))


class TestSliceContract:
    """``first_range`` slices concatenate to the unrestricted rows.

    The parallel driver's contract, asserted on the engine itself: for
    every WGPB shape and policy the ascending concatenation of disjoint
    slices of the first variable's domain is list-equal to the one
    unrestricted enumeration — through the seek loop (a shared first
    variable) and, with the lonely pass off and a single-pattern
    variable first, through the single-iterator sweep.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        graph = wikidata_like(400, seed=5)
        return graph, generate_wgpb_queries(graph, queries_per_shape=1, seed=1)

    @pytest.mark.parametrize("sweep", [False, True], ids=["seek", "sweep"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_slices_concatenate_to_the_whole(self, workload, policy, sweep):
        graph, by_shape = workload
        engine = RingIndex(graph, policy=policy, use_lonely=not sweep)._engine
        universe = max(graph.n_nodes, graph.n_predicates)
        swept = 0
        for shape, (bgp,) in by_shape.items():
            _live, by_var, order, _lonely = engine._analyse(bgp)
            first = order[0] if policy == "static" else engine.first_variable(
                order, by_var
            )
            if sweep:
                first = next((v for v in order if len(by_var[v]) == 1), first)
            swept += len(by_var[first]) == 1
            if policy == "static":
                pin = {"var_order": [first] + [v for v in order if v != first]}
            else:
                pin = {"first_var": first}
            whole = list(islice(engine.evaluate(bgp, **pin), SLICE_ROWS))
            assert whole, shape
            values = sorted({mu[first] for mu in whole})
            for k in (1, 3, 8):
                cuts = _cuts(values, universe, k)
                assert len(cuts) == k
                pieces = chain.from_iterable(
                    engine.evaluate(bgp, first_range=cut, **pin) for cut in cuts
                )
                assert list(islice(pieces, SLICE_ROWS)) == whole, (shape, k)
        assert (swept > 0) == sweep

    def test_first_range_needs_a_shared_variable(self, nobel):
        bgp = encoded(nobel.graph, "?x adv ?y")  # both variables lonely
        with pytest.raises(ValueError, match="shared join variable"):
            list(nobel._engine.evaluate(bgp, first_range=(0, 5)))

    def test_first_var_needs_a_dynamic_policy(self, nobel):
        bgp = encoded(nobel.graph, "?x nom ?y . ?x win ?z")
        assert nobel.policy == "static"
        with pytest.raises(ValueError, match="dynamic policy"):
            list(nobel._engine.evaluate(bgp, first_var=X))


@st.composite
def graph_and_query(draw):
    triples = draw(
        st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    graph = Graph(np.array(sorted(triples)), n_nodes=6, n_predicates=3)
    variables = [X, Y, Z, W]
    n_patterns = draw(st.integers(1, 3))
    patterns = []
    for _ in range(n_patterns):
        terms = []
        for pos, bound in enumerate([st.integers(0, 5), st.integers(0, 2),
                                     st.integers(0, 5)]):
            use_var = draw(st.booleans())
            if use_var:
                terms.append(variables[draw(st.integers(0, 3))])
            else:
                terms.append(draw(bound))
        patterns.append(TriplePattern(*terms))
    if not any(p.variables() for p in patterns):
        patterns[0] = TriplePattern(X, patterns[0].p, patterns[0].o)
    return graph, BasicGraphPattern(patterns)


@given(graph_and_query())
@settings(max_examples=60, deadline=None)
def test_property_ltj_equals_naive(data):
    graph, bgp = data
    index = RingIndex(graph)
    assert as_solution_set(index.evaluate(bgp)) == naive_evaluate(graph, bgp)
