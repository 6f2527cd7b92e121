"""The hash-join oracle against brute force, and its answer checks."""

import itertools

import numpy as np
import pytest

import oracle


def brute_force(triples, bgp):
    """Every assignment of graph values to the variables, filtered."""
    names = oracle.variables(bgp)
    facts = set(map(tuple, triples.tolist()))
    nodes = sorted(set(triples[:, 0]) | set(triples[:, 2]))
    predicates = sorted(set(triples[:, 1]))
    domains = []
    for name in names:
        in_p = any(p[1] == name for p in bgp)
        in_so = any(name in (p[0], p[2]) for p in bgp)
        domains.append(sorted(set(predicates if in_p else [])
                              | set(nodes if in_so else [])))
    rows = []
    for values in itertools.product(*domains):
        env = dict(zip(names, values))
        if all(tuple(env.get(t, t) for t in p) in facts for p in bgp):
            rows.append(values)
    return sorted(rows)


def small_graph(seed, n=40, n_nodes=7, n_predicates=3):
    rng = np.random.default_rng(seed)
    return np.unique(
        np.stack([rng.integers(0, n_nodes, n), rng.integers(0, n_predicates, n),
                  rng.integers(0, n_nodes, n)], axis=1), axis=0)


BGPS = [
    (("?x", 0, "?y"),),
    (("?x", 0, "?y"), ("?y", 1, "?z")),
    (("?x", 0, "?y"), ("?y", 1, "?z"), ("?z", 2, "?x")),            # triangle
    (("?x", 0, "?y"), ("?x", 1, "?z"), ("?w", 2, "?x")),            # star
    (("?x", "?p", "?y"), ("?y", "?p", "?z")),                       # shared predicate
    ((3, 0, "?y"), ("?y", "?p", 2)),                                # constants
    (("?x", 0, "?x"),),                                             # repeated variable
    (("?x", 1, "?y"), ("?a", 2, "?b")),                             # cartesian product
    ((1, 0, 2), ("?x", 1, "?y")),                                   # existence filter
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bgp", BGPS)
def test_solve_matches_brute_force(seed, bgp):
    triples = small_graph(seed)
    store = oracle.TripleSet(triples, 7, 3)
    names, rows, work = oracle.solve(store, bgp)
    assert names == oracle.variables(bgp)
    assert rows.tolist() == [list(r) for r in brute_force(triples, bgp)]
    assert work >= len(rows)


def test_join_overflow_is_refused():
    store = oracle.TripleSet(small_graph(0), 7, 3)
    with pytest.raises(oracle.OracleOverflow):
        oracle.solve(store, (("?x", 1, "?y"), ("?a", 2, "?b")), max_rows=5)


def test_tripleset_replays_writes():
    base = small_graph(1)
    store = oracle.TripleSet(base, 7, 3)
    fresh = next(
        (s, p, o) for s in range(7) for p in range(3) for o in range(7)
        if not store.contains(s, p, o)
    )
    n = len(store)
    assert store.insert(*fresh) and not store.insert(*fresh)
    assert store.contains(*fresh) and len(store) == n + 1
    assert store.match((fresh[0], fresh[1], "?o")).tolist().count(list(fresh)) == 1
    assert store.delete(*fresh) and not store.delete(*fresh)
    assert (store.triples() == base).all()


def answer(store, bgp):
    names, rows, _ = oracle.solve(store, bgp)
    return [dict(zip(names, map(int, row))) for row in rows]


def test_check_rows_accepts_the_truth_and_names_each_defect():
    triples = small_graph(2)
    store = oracle.TripleSet(triples, 7, 3)
    bgp = (("?x", 0, "?y"), ("?y", 1, "?z"))
    rows = answer(store, bgp)
    assert len(rows) > 2
    assert oracle.check_rows(store, bgp, rows, None) is None
    assert oracle.check_rows(store, bgp, rows[::-1], None) is None  # order-free
    assert "oracle has" in oracle.check_rows(store, bgp, rows[:-1], None)
    assert "duplicate" in oracle.check_rows(store, bgp, rows + rows[:1], None)
    forged = [dict(rows[0], **{"?z": 6 if rows[0]["?z"] != 6 else 5})] + rows[1:]
    assert oracle.check_rows(store, bgp, forged, None) is not None
    assert "lacks" in oracle.check_rows(store, bgp, [{"?x": 1, "?y": 2}], None)
    assert "unknown" in oracle.check_rows(
        store, bgp, [dict(rows[0], **{"?q": 1})], None)


def test_check_rows_limit_semantics():
    store = oracle.TripleSet(small_graph(3), 7, 3)
    bgp = (("?x", "?p", "?y"),)
    rows = answer(store, bgp)
    # Reaching the limit with sound, distinct rows proves truth >= limit.
    assert oracle.check_rows(store, bgp, rows[:5], 5) is None
    assert "over limit" in oracle.check_rows(store, bgp, rows[:6], 5)
    # Below the limit the answer must be complete.
    assert oracle.check_rows(store, bgp, rows[:5], 6) is not None
    unsound = [dict(rows[0], **{"?x": 6, "?p": 2, "?y": 6})] + rows[1:5]
    if not store.contains(6, 2, 6):
        assert "unsound" in oracle.check_rows(store, bgp, unsound, 5)
