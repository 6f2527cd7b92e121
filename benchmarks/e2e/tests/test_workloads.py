"""The vendored input generators: determinism, isomorphism, schedules."""

import numpy as np

import oracle
import workloads

SIZES = workloads.QUICK


def test_same_seed_same_inputs_other_seed_other_bytes():
    a, b = workloads.wgpb_inputs(3, SIZES), workloads.wgpb_inputs(3, SIZES)
    c = workloads.wgpb_inputs(4, SIZES)
    assert a.sha256 == b.sha256 != c.sha256
    assert [q.text for q in a.queries] == [q.text for q in b.queries]
    for make in (lambda s: workloads.serve_inputs(s, SIZES, writes=True),
                 lambda s: workloads.shard_inputs(s, SIZES),
                 lambda s: workloads.bulk_inputs(s, SIZES)):
        assert make(3).sha256 == make(3).sha256 != make(4).sha256


def test_seeds_draw_isomorphic_copies_of_one_instance():
    a, b = workloads.wgpb_inputs(0, SIZES), workloads.wgpb_inputs(7, SIZES)
    assert a.triples.shape == b.triples.shape and not (a.triples == b.triples).all()

    def degree_profile(t):
        return (sorted(np.bincount(t[:, 1]).tolist()),
                sorted(np.bincount(t[:, 0]).tolist()),
                sorted(np.bincount(t[:, 2]).tolist()))

    assert degree_profile(a.triples) == degree_profile(b.triples)
    # Same multiset of shapes, and each query has as many answers.
    assert sorted(q.shape for q in a.queries) == sorted(q.shape for q in b.queries)
    counts = []
    for inputs in (a, b):
        store = inputs.truth()
        counts.append(sorted(
            len(oracle.solve(store, q.bgp)[1]) for q in inputs.queries if q.cyclic))
    assert counts[0] == counts[1]


def test_wgpb_walks_guarantee_an_answer():
    inputs = workloads.wgpb_inputs(1, SIZES)
    store = inputs.truth()
    assert {q.shape for q in inputs.queries} == set(workloads.WGPB_SHAPES)
    for q in inputs.queries:
        if len(q.bgp) <= 2:
            assert len(oracle.solve(store, q.bgp)[1]) >= 1, q.text
        assert q.cyclic == (q.shape in workloads.CYCLIC_SHAPES)


def test_isomorphic_variant_is_the_same_query_renamed():
    rng = np.random.default_rng(0)
    bgp = (("?a", 3, "?b"), ("?b", "?c", 9), ("?a", 1, "?a"))
    variant, back = workloads.isomorphic_variant(bgp, rng)
    assert sorted(back.values()) == ["?a", "?b", "?c"]
    restored = tuple(tuple(back.get(t, t) for t in p) for p in variant)
    assert sorted(restored, key=str) == sorted(bgp, key=str)
    assert workloads.bgp_text(variant) != workloads.bgp_text(bgp)


def test_pool_is_bounded_and_distinct():
    inputs = workloads.serve_inputs(0, SIZES, writes=False)
    store = inputs.truth()
    texts = [workloads.bgp_text(b) for b in inputs.pool]
    assert len(set(texts)) == len(texts) == SIZES.serve_pool
    total = 0
    for bgp in inputs.pool:
        names, rows, work = oracle.solve(store, bgp)
        assert workloads.MIN_ROWS <= len(rows) <= workloads.MAX_ROWS
        assert work <= workloads.MAX_WORK
        total += workloads.cache_entry_bytes(len(rows), len(names))
    assert total == inputs.working_set_bytes


def test_hot_schedule_is_skewed_with_every_fourth_query_renamed():
    inputs = workloads.serve_inputs(0, SIZES, writes=False)
    assert all(r.kind == "Q" for r in inputs.requests)
    renamed = [r.renamed is not None for r in inputs.requests]
    assert renamed == [(i + 1) % 4 == 0 for i in range(len(renamed))]
    asked = np.bincount([r.pool_id for r in inputs.requests],
                        minlength=len(inputs.pool))
    assert asked[0] == asked.max() and asked[:4].sum() > asked[-20:].sum()


def test_write_schedule_always_changes_the_store():
    sizes = workloads.FULL
    inputs = workloads.serve_inputs(2, sizes, writes=True)
    store = inputs.truth()
    kinds = [r.kind for r in inputs.requests]
    assert len(kinds) == sizes.rw_warm + sizes.rw_lines
    # The 32nd INSERT and the 32nd DELETE (--threshold 32) fall inside the
    # timed lines, with a fifth of them still to come.
    for kind in "ID":
        at = [i for i, k in enumerate(kinds) if k == kind][31]
        assert sizes.rw_warm < at < len(kinds) - sizes.rw_lines // 5
    hot = workloads.serve_inputs(2, sizes, writes=False)
    asked = {workloads.bgp_text(b) for b in inputs.pool}
    assert asked < {workloads.bgp_text(b) for b in hot.pool}
    for bgp in inputs.pool:
        assert len(oracle.solve(store, bgp)[1]) <= workloads.RW_MAX_ROWS
    for r in inputs.requests:
        if r.kind == "I":
            assert store.insert(*r.triple), r.line
            assert 0 <= r.triple[1] < inputs.n_predicates
            assert max(r.triple[0], r.triple[2]) < inputs.n_nodes
        elif r.kind == "D":
            assert store.delete(*r.triple), r.line


def test_shard_pool_routes_a_quarter_to_a_single_owner():
    inputs = workloads.shard_inputs(0, SIZES)
    store = inputs.truth()
    constant_subject = sum(
        any(not oracle.is_var(p[0]) for p in bgp) for bgp in inputs.pool)
    assert constant_subject >= 0.2 * len(inputs.pool)
    for bgp in inputs.pool:
        assert sum(len(store.match(p)) for p in bgp) <= workloads.MAX_GATHER
    assert sorted(r.pool_id for r in inputs.requests if r.kind == "Q") == list(
        range(len(inputs.pool)))
    assert sum(r.kind == "I" for r in inputs.requests) == 2 * len(inputs.pool) // 5


def test_table2_mix_matches_the_published_shares():
    rng = np.random.default_rng(5)
    triples, _, _ = workloads.wikidata_like(np.random.default_rng(1), 2000)
    kinds = {}
    sizes = []
    for _ in range(3000):
        bgp = workloads.realworld_bgp(triples, rng)
        sizes.append(len(bgp))
        for s, p, o in bgp:
            key = (not oracle.is_var(s), not oracle.is_var(p), not oracle.is_var(o))
            kinds[key] = kinds.get(key, 0) + 1
    total = sum(kinds.values())
    assert abs(np.mean(sizes) - workloads.MEAN_PATTERNS) < 0.15
    # Chaining replaces some kept subjects by the shared variable, so
    # only the two dominant kinds are checked.
    assert abs(kinds[(False, True, False)] / total - 0.515) < 0.06
    assert abs(kinds[(False, True, True)] / total - 0.383) < 0.06


def test_bulk_probes_are_anchored_or_scans():
    inputs = workloads.bulk_inputs(0, SIZES)
    assert len(inputs.probes) == SIZES.probes
    store = inputs.truth()
    other = workloads.bulk_inputs(1, SIZES)
    assert (inputs.rows != other.rows).any()
    assert (store.triples() == other.truth().triples()).all()
    for q in inputs.probes:
        constants = [t for p in q.bgp for t in (p[0], p[2]) if not oracle.is_var(t)]
        assert constants or q.shape == "scan"
        assert len(oracle.solve(store, q.bgp)[1]) >= 1
