"""Tests for the Ring structure itself: zones, LF, ranges, leaps, triples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import Ring, next_attr, prev_attr
from repro.graph.dataset import Graph
from repro.graph.generators import nobel_graph, random_graph, wikidata_like
from repro.graph.model import O, P, S


@pytest.fixture(scope="module")
def nobel_ring():
    return Ring(nobel_graph())


class TestCycle:
    def test_prev_next_inverse(self):
        for attr in (S, P, O):
            assert prev_attr(next_attr(attr)) == attr
            assert next_attr(prev_attr(attr)) == attr

    def test_cycle_order(self):
        # Backwards from s is o, from o is p, from p is s (§3.1).
        assert prev_attr(S) == O
        assert prev_attr(O) == P
        assert prev_attr(P) == S


class TestConstruction:
    def test_zone_sequences_match_definition(self):
        """DESIGN.md §6.1: zone contents = per-sort columns, and they agree
        with the literal Definition 3.1 bended BWT (Lemma 3.3 bridge)."""
        g = nobel_graph()
        ring = Ring(g)
        t = g.triples
        # Zone S: objects in (s,p,o) order.
        assert ring.zone_sequence(S).to_numpy().tolist() == t[:, O].tolist()
        pos = t[np.lexsort((t[:, S], t[:, O], t[:, P]))]
        assert ring.zone_sequence(P).to_numpy().tolist() == pos[:, S].tolist()
        osp = t[np.lexsort((t[:, P], t[:, S], t[:, O]))]
        assert ring.zone_sequence(O).to_numpy().tolist() == osp[:, P].tolist()

    def test_matches_literal_bended_bwt(self):
        """The split zones equal the Definition 3.1 bended BWT zones."""
        from repro.text.bwt import bended_bwt, triple_text

        g = wikidata_like(300, seed=2)
        universe = max(g.n_nodes, g.n_predicates)
        text = triple_text(g.triples, universe)
        bstar = bended_bwt(text)
        n = g.n_triples
        ring = Ring(g)
        assert ring.zone_sequence(S).to_numpy().tolist() == (
            bstar[:n] - 2 * universe
        ).tolist()
        assert ring.zone_sequence(P).to_numpy().tolist() == bstar[n : 2 * n].tolist()
        assert ring.zone_sequence(O).to_numpy().tolist() == (
            bstar[2 * n :] - universe
        ).tolist()

    def test_empty_graph(self):
        ring = Ring(Graph(np.zeros((0, 3))))
        assert ring.n == 0
        assert ring.pattern_range({S: 0}) is None or ring.n == 0
        assert ring.triples().shape == (0, 3)

    def test_c_arrays_are_cumulative(self, nobel_ring):
        for attr in (S, P, O):
            c = nobel_ring.c_array(attr)
            assert c[0] == 0
            assert c[-1] == nobel_ring.n
            assert (np.diff(c) >= 0).all()


class TestTripleRetrieval:
    def test_recovers_every_triple(self):
        g = wikidata_like(500, seed=1)
        ring = Ring(g)
        recovered = [ring.triple(i) for i in range(ring.n)]
        assert recovered == [tuple(t) for t in g.triples]
        bulk = ring.triples()  # the same rows, decoded in bulk
        assert bulk.dtype == np.int64 and bulk.shape == (ring.n, 3)
        assert bulk.tolist() == g.triples.tolist()

    def test_recovers_compressed(self):
        g = wikidata_like(200, seed=4)
        ring = Ring(g, compressed=True)
        assert [ring.triple(i) for i in range(ring.n)] == [
            tuple(t) for t in g.triples
        ]
        assert ring.triples().tolist() == g.triples.tolist()

    def test_out_of_range(self, nobel_ring):
        with pytest.raises(IndexError):
            nobel_ring.triple(13)
        with pytest.raises(IndexError):
            nobel_ring.triple(-1)

    def test_contains(self, nobel_ring):
        g = nobel_graph()
        for t in g:
            assert nobel_ring.contains(*t)
        assert not nobel_ring.contains(0, 0, 0) or (0, 0, 0) in g


class TestPatternRange:
    """Lemma 3.6: |range| equals the number of matching triples."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_naive_all_masks(self, seed):
        g = random_graph(120, n_nodes=12, n_predicates=4, seed=seed)
        ring = Ring(g)
        triples = [tuple(t) for t in g.triples]
        rng = np.random.default_rng(seed)
        for _ in range(60):
            s = int(rng.integers(0, 12))
            p = int(rng.integers(0, 4))
            o = int(rng.integers(0, 12))
            for mask in range(1, 8):
                constants = {}
                if mask & 1:
                    constants[S] = s
                if mask & 2:
                    constants[P] = p
                if mask & 4:
                    constants[O] = o
                expected = sum(
                    1
                    for t in triples
                    if all(t[pos] == v for pos, v in constants.items())
                )
                assert ring.count_pattern(constants) == expected, constants

    def test_empty_constants_is_everything(self, nobel_ring):
        assert nobel_ring.count_pattern({}) == 13

    def test_absent_constant(self, nobel_ring):
        # Predicate id 3 does not exist (only 0..2).
        assert nobel_ring.pattern_range({P: 3}) is None


class TestLeaps:
    def test_next_value(self):
        g = Graph(np.array([[0, 0, 5], [0, 0, 7], [3, 1, 5]]))
        ring = Ring(g)
        # Subjects present: 0, 3.
        assert ring.next_value(S, 0) == 0
        assert ring.next_value(S, 1) == 3
        assert ring.next_value(S, 4) is None
        # Objects present: 5, 7.
        assert ring.next_value(O, 0) == 5
        assert ring.next_value(O, 6) == 7
        assert ring.next_value(O, 8) is None

    def test_backward_leap_matches_naive(self):
        g = random_graph(80, n_nodes=10, n_predicates=3, seed=7)
        ring = Ring(g)
        triples = [tuple(t) for t in g.triples]
        for p in range(3):
            state = ring.pattern_range({P: p})
            if state is None:
                continue
            zone, lo, hi = state
            # Backward from zone P enumerates subjects of triples with p.
            subjects = sorted({t[S] for t in triples if t[P] == p})
            for c in range(12):
                expected = next((s for s in subjects if s >= c), None)
                assert ring.backward_leap(zone, lo, hi, c) == expected

    def test_forward_leap_matches_naive(self):
        g = random_graph(80, n_nodes=10, n_predicates=3, seed=8)
        ring = Ring(g)
        triples = [tuple(t) for t in g.triples]
        for p in range(3):
            # Forward from P=p enumerates objects of triples with p.
            objects = sorted({t[O] for t in triples if t[P] == p})
            for c in range(12):
                expected = next((o for o in objects if o >= c), None)
                assert ring.forward_leap(P, p, c) == expected

    def test_forward_leap_subject_to_predicate(self):
        g = Graph(np.array([[2, 0, 1], [2, 3, 1], [4, 1, 1]]), n_predicates=5)
        ring = Ring(g)
        assert ring.forward_leap(S, 2, 0) == 0
        assert ring.forward_leap(S, 2, 1) == 3
        assert ring.forward_leap(S, 2, 4) is None
        assert ring.forward_leap(S, 4, 0) == 1

    def test_leaps_out_of_universe(self, nobel_ring):
        assert nobel_ring.next_value(P, 99) is None
        assert nobel_ring.forward_leap(P, 0, 99) is None


class TestSpace:
    def test_ring_close_to_packed_representation(self):
        """Theorem 3.4 shape: ring ≈ |G| + o(|G|) (plain bitvector
        overhead included, cf. the 57% figure of §5.2.1)."""
        g = wikidata_like(5000, seed=0)
        ring = Ring(g)
        packed = g.packed_size_in_bits()
        assert ring.size_in_bits() < 2.2 * packed
        assert ring.size_in_bits() > 0.8 * packed

    def test_compressed_ring_smaller(self):
        g = wikidata_like(5000, seed=0)
        plain = Ring(g)
        comp = Ring(g, compressed=True)
        assert comp.size_in_bits() < plain.size_in_bits()


@given(
    st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_ring_replaces_graph(triple_set):
    """For any graph: every triple is recoverable and every count exact."""
    triples = np.array(sorted(triple_set), dtype=np.int64)
    g = Graph(triples, n_nodes=8, n_predicates=3)
    ring = Ring(g)
    assert [ring.triple(i) for i in range(ring.n)] == [tuple(t) for t in g.triples]
    for s, p, o in triple_set:
        assert ring.contains(s, p, o)
        assert ring.count_pattern({S: s, P: p, O: o}) == 1
