"""Input generators, vendored so that no edit under ``src/`` can change
what the benchmark feeds the program.

Everything derives from two numbers.  :data:`BASE_SEED` fixes the
*benchmark instance*: graph structure, query pools, popularity ranks —
the way WGPB is one fixed query set over one fixed graph.  ``--seed``
then draws a *renaming* of that instance — predicate ids spread, in
order, over a larger universe; variables renamed; query order shuffled —
plus the request and write schedules, the isomorphic variants and the
triples written.  Runs of different seeds therefore do the same joins on
different bytes, which is what lets a 10-second run repeat to a few
percent while the host is quiet (README, "Host noise").  Node ids are
deliberately *not* redrawn.  Measured while
sizing, as the spread (interquartile range / median) of the cyclic and
acyclic WGPB medians over ten seeds: a fully seed-drawn graph 18 %; the
base graph under a random permutation of node ids 100 % (a limit-1000
query pays for whatever region of the id order it enumerates first);
under an order-preserving spread of node ids over a 25 % larger universe
still 10 % (other bit patterns, other wavelet-matrix paths); with node
ids kept 3-4 %, which is this host's timing noise in its quiet minutes.  Seed 0 is the
development seed, seed 7 the held-out one for verifying claims.

BGP form: a tuple of patterns; a pattern is ``(s, p, o)``; a term is an
``int`` id or a ``"?name"`` variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle
from harness import sha256_of

BASE_SEED = 20210620  # SIGMOD 2021

# -- sizes ---------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what ``BENCHMARK.json`` measures.  A
    workload's *pass* is the fixed list of operations a run repeats."""

    wgpb_triples: int
    wgpb_per_shape: int
    wgpb_per_cyclic_shape: int
    serve_triples: int
    serve_pool: int
    #: Lines of a ``serve_hot`` pass, made of whole blocks of ``hot_block``.
    hot_lines: int
    hot_block: int
    #: ``serve_rw``: untimed warm-up lines, then the lines of a pass.
    rw_warm: int
    rw_lines: int
    shard_triples: int
    #: A ``shard_scatter`` pass asks every pool BGP once, with two
    #: INSERTs per five queries.
    shard_pool: int
    build_rows: int
    build_chunk: int
    probes: int
    setup_reps: int
    #: Requests of the traced run: fixed counts, so that at one seed the
    #: per-layer counts repeat exactly whatever the host's speed.
    traced_wgpb: int
    traced_hot: int
    traced_rw: int
    traced_shard: int


FULL = Sizes(
    wgpb_triples=6_000, wgpb_per_shape=5, wgpb_per_cyclic_shape=2,
    serve_triples=10_000, serve_pool=500,
    hot_lines=1_200, hot_block=600, rw_warm=100, rw_lines=400,
    shard_triples=10_000, shard_pool=100,
    build_rows=1_600_000, build_chunk=200_000,
    probes=120, setup_reps=3,
    traced_wgpb=36, traced_hot=1_200, traced_rw=500, traced_shard=140,
)
QUICK = Sizes(
    wgpb_triples=1_500, wgpb_per_shape=1, wgpb_per_cyclic_shape=1,
    serve_triples=3_000, serve_pool=40,
    hot_lines=200, hot_block=100, rw_warm=20, rw_lines=80,
    shard_triples=1_500, shard_pool=10,
    build_rows=60_000, build_chunk=10_000,
    probes=20, setup_reps=1,
    traced_wgpb=17, traced_hot=200, traced_rw=100, traced_shard=14,
)

#: Answers a served BGP may have (``repro serve`` has no LIMIT verb: an
#: unbounded join streams until the server's timeout).
MIN_ROWS, MAX_ROWS = 1, 600
#: Oracle work (matched triples + joined rows) a served BGP may cost —
#: the deterministic stand-in for "evaluates cold in <= 0.25 s".
MAX_WORK = 10_000
#: The read/write mix asks only the pool's BGPs up to this many rows and
#: this much oracle work: nearly all of its reads miss (every write
#: empties the cache) and cost ~0.3 ms a row, so one popular 450-row BGP
#: (there is one among the first ten) would alone make up half of a pass.
RW_MAX_ROWS, RW_MAX_WORK = 100, 3_000
#: Share of the read/write mix's lines that write, and DELETEs among
#: those writes.  The store freezes its insert buffer into a new static
#: component when ``--threshold`` inserts have gathered and folds its
#: tombstones away in one full compaction when as many deletes have.  The
#: benchmark serves with ``--threshold 32`` (the CLI's default is 64; the
#: pass is half the 1 200 lines first planned), so at 10 % + 10 % of the
#: lines both fall on about the 320th line: after the warm-up lines,
#: inside every pass, with reads left behind them to feel it.
WRITE_SHARE = 0.20
DELETE_SHARE = 0.5
#: Triples a sharded BGP may pull from the shards (the coordinator
#: gathers every match of every pattern).
MAX_GATHER = 1_200

# -- graphs ----------------------------------------------------------------------


def _zipf_choice(rng, n: int, size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return rng.choice(n, size=size, p=weights / weights.sum())


def wikidata_like(rng, n_triples: int) -> tuple[np.ndarray, int, int]:
    """A Wikidata-shaped graph: few Zipf-skewed predicates, many nodes
    with Zipf-skewed degrees.  Returns ``(triples, n_nodes, n_predicates)``
    with ``triples`` sorted and duplicate-free."""
    n_nodes = max(16, int(n_triples * 0.6))
    n_predicates = max(8, n_triples // 2_000)
    factor = 1.3
    while True:
        m = int(n_triples * factor)
        cand = np.unique(
            np.stack(
                [
                    _zipf_choice(rng, n_nodes, m, 0.8),
                    _zipf_choice(rng, n_predicates, m, 1.1),
                    _zipf_choice(rng, n_nodes, m, 0.8),
                ],
                axis=1,
            ),
            axis=0,
        )
        if len(cand) >= n_triples:
            pick = np.sort(rng.choice(len(cand), size=n_triples, replace=False))
            return cand[pick].astype(np.int64), n_nodes, n_predicates
        factor *= 1.5


def uniform_rows(rng, n_rows: int, n_nodes: int, n_predicates: int) -> np.ndarray:
    """Uniform ``(n, 3)`` int64 rows, duplicates included (the builder
    deduplicates)."""
    return np.stack(
        [
            rng.integers(0, n_nodes, n_rows),
            rng.integers(0, n_predicates, n_rows),
            rng.integers(0, n_nodes, n_rows),
        ],
        axis=1,
    ).astype(np.int64)


# -- WGPB shapes -------------------------------------------------------------------

#: The 17 shapes of the Wikidata Graph Pattern Benchmark (Figure 7 of the
#: paper): directed edges over variable indexes.
WGPB_SHAPES: dict[str, tuple[tuple[int, int], ...]] = {
    "P2": ((0, 1), (1, 2)),
    "P3": ((0, 1), (1, 2), (2, 3)),
    "P4": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "T2": ((0, 1), (0, 2)),
    "T3": ((0, 1), (0, 2), (0, 3)),
    "T4": ((0, 1), (0, 2), (0, 3), (0, 4)),
    "Ti2": ((1, 0), (2, 0)),
    "Ti3": ((1, 0), (2, 0), (3, 0)),
    "Ti4": ((1, 0), (2, 0), (3, 0), (4, 0)),
    "J3": ((1, 0), (0, 2), (3, 0)),
    "J4": ((1, 0), (0, 2), (3, 0), (0, 4)),
    "Tr1": ((0, 1), (1, 2), (2, 0)),
    "Tr2": ((0, 1), (1, 2), (0, 2)),
    "S1": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "S2": ((0, 1), (1, 2), (2, 3), (0, 3)),
    "S3": ((0, 1), (1, 2), (3, 2), (3, 0)),
    "S4": ((0, 1), (2, 1), (2, 3), (0, 3)),
}
CYCLIC_SHAPES = frozenset(("Tr1", "Tr2", "S1", "S2", "S3", "S4"))
ACYCLIC_PROBE_SHAPES = ("P2", "P3", "T2", "Ti2", "J3")


class Adjacency:
    """Edge tables sorted by subject and by object, for random walks."""

    def __init__(self, triples: np.ndarray) -> None:
        self._by_s = triples[np.argsort(triples[:, 0], kind="stable")]
        self._by_o = triples[np.argsort(triples[:, 2], kind="stable")]

    def random_edge(self, rng):
        return self._by_s[int(rng.integers(0, len(self._by_s)))]

    def edges_from(self, s: int) -> np.ndarray:
        lo, hi = np.searchsorted(self._by_s[:, 0], [s, s + 1])
        return self._by_s[lo:hi]

    def edges_to(self, o: int) -> np.ndarray:
        lo, hi = np.searchsorted(self._by_o[:, 2], [o, o + 1])
        return self._by_o[lo:hi]


def instantiate_shape(edges, adj: Adjacency, rng, max_attempts: int = 200,
                      anchored: bool = False):
    """One random-walk instance of a shape: nodes stay variables, the
    walked predicates become constants, so the walk itself is a solution
    (the WGPB construction).  ``anchored`` pins variable 0 to the node
    the walk gave it (a neighbourhood lookup instead of a whole-graph
    join).  ``None`` if every walk dead-ends."""
    for _ in range(max_attempts):
        nodes: dict[int, int] = {}
        predicates: list[int] = []
        for src, dst in edges:
            if src in nodes and dst in nodes:
                cand = adj.edges_from(nodes[src])
                cand = cand[cand[:, 2] == nodes[dst]]
            elif src in nodes:
                cand = adj.edges_from(nodes[src])
            elif dst in nodes:
                cand = adj.edges_to(nodes[dst])
            else:
                cand = adj.random_edge(rng)[None, :]
            if len(cand) == 0:
                break
            row = cand[int(rng.integers(0, len(cand)))]
            nodes.setdefault(src, int(row[0]))
            nodes.setdefault(dst, int(row[2]))
            predicates.append(int(row[1]))
        else:
            def term(v):
                return nodes[0] if anchored and v == 0 else f"?x{v}"

            return tuple(
                (term(src), predicates[i], term(dst))
                for i, (src, dst) in enumerate(edges)
            )
    return None


# -- the Table 2 pattern-type mix ----------------------------------------------------

#: (keep_s, keep_p, keep_o) -> share of triple patterns, section 5.3.
PATTERN_TYPE_MIX = (
    ((False, True, False), 0.515),
    ((False, True, True), 0.383),
    ((False, False, False), 0.067),
    ((True, False, False), 0.012),
    ((True, True, False), 0.012),
    ((False, False, True), 0.011),
    ((True, False, True), 0.0004),
)
MEAN_PATTERNS, MAX_PATTERNS = 2.4, 22


def realworld_bgp(triples: np.ndarray, rng, constant_subject: bool = False):
    """One query with the published Wikidata-log statistics: geometric
    size (mean 2.4), the pattern-type mix above, each pattern seeded from
    a real triple and chained to the previous one through a variable."""
    kinds = [k for k, _ in PATTERN_TYPE_MIX]
    probs = np.array([w for _, w in PATTERN_TYPE_MIX])
    probs = probs / probs.sum()
    size = min(max(int(rng.geometric(1.0 / MEAN_PATTERNS)), 1), MAX_PATTERNS)
    fresh = iter(f"?v{i}" for i in range(3 * size))
    patterns = []
    prev = None
    for i in range(size):
        s_id, p_id, o_id = (int(v) for v in triples[int(rng.integers(0, len(triples)))])
        keep_s, keep_p, keep_o = kinds[int(rng.choice(len(kinds), p=probs))]
        if constant_subject and i == 0:
            keep_s = True
        s = s_id if keep_s else next(fresh)
        p = p_id if keep_p else next(fresh)
        o = o_id if keep_o else next(fresh)
        if prev is not None and not keep_s:
            s = prev
        if oracle.is_var(o):
            prev = o
        elif oracle.is_var(s):
            prev = s
        patterns.append((s, p, o))
    return tuple(patterns)


# -- text, renaming, relabelling -------------------------------------------------------


def bgp_text(bgp) -> str:
    return " . ".join(" ".join(str(t) for t in pattern) for pattern in bgp)


def canonical_names(bgp):
    """Rename variables ``?a, ?b, ...`` in first-appearance order."""
    names = {v: f"?{chr(ord('a') + i)}" for i, v in enumerate(oracle.variables(bgp))}
    return tuple(tuple(names.get(t, t) for t in pattern) for pattern in bgp)


def isomorphic_variant(bgp, rng):
    """The same query to a canonicaliser, different text: variables get
    fresh random names and the patterns are permuted.  Returns the
    variant and its ``{new name: old name}`` map."""
    found = oracle.variables(bgp)
    tags = rng.choice(9000, size=len(found), replace=False) + 1000
    names = {v: f"?r{int(tag)}" for v, tag in zip(found, tags)}
    order = rng.permutation(len(bgp))
    variant = tuple(
        tuple(names.get(t, t) for t in bgp[int(i)]) for i in order
    )
    return variant, {new: old for old, new in names.items()}


def renamed_in_order(bgp, rng):
    """Fresh variable names that sort like the old ones (the engine
    breaks planning ties on names), patterns left in place: new text,
    same plan."""
    found = sorted(oracle.variables(bgp))
    tags = np.sort(rng.choice(9000, size=len(found), replace=False)) + 1000
    names = {v: f"?r{int(tag)}" for v, tag in zip(found, tags)}
    return tuple(tuple(names.get(t, t) for t in pattern) for pattern in bgp)


@dataclass
class Relabel:
    """The seed's renaming of constants: predicate ids mapped, in
    order, onto a random subset of a universe a quarter larger; node ids
    kept (see the module docstring for what redrawing them costs)."""

    predicates: np.ndarray
    n_nodes: int
    n_predicates: int

    @classmethod
    def draw(cls, rng, n_nodes: int, n_predicates: int) -> "Relabel":
        wide_predicates = n_predicates + max(n_predicates // 4, 2)
        return cls(
            np.sort(rng.choice(wide_predicates, size=n_predicates, replace=False)),
            n_nodes, wide_predicates,
        )

    def triples(self, triples: np.ndarray) -> np.ndarray:
        out = triples.copy()
        out[:, 1] = self.predicates[triples[:, 1]]
        return out[np.lexsort((out[:, 2], out[:, 1], out[:, 0]))]

    def bgp(self, bgp):
        return tuple(
            (s, p if oracle.is_var(p) else int(self.predicates[p]), o)
            for s, p, o in bgp
        )


def zipf_block(n_items: int, size: int, exponent: float = 1.0) -> np.ndarray:
    """``size`` item ranks in which item ``i`` occurs in proportion to
    ``1 / (i + 1) ** exponent`` (largest remainders make up the total).

    The schedules repeat such blocks, each freshly shuffled by the seed:
    every seed then asks the same multiset of queries in another order.
    Independent Zipf draws instead let the handful of expensive misses a
    10-second run meets swing its throughput by +-10 % and its tail
    percentiles by more (measured while sizing)."""
    weights = 1.0 / np.arange(1, n_items + 1) ** exponent
    shares = weights / weights.sum() * size
    counts = np.floor(shares).astype(int)
    short = size - int(counts.sum())
    counts[np.argsort(-(shares - counts), kind="stable")[:short]] += 1
    return np.repeat(np.arange(n_items), counts)


def cache_entry_bytes(n_rows: int, n_columns: int) -> int:
    """The result cache's own size model of one entry
    (``repro.cache.result_cache.estimate_entry_bytes``), restated to size
    the hot workload's working set against ``--cache-mb``."""
    return 120 + n_rows * (72 + 48 * n_columns)


# -- per-workload inputs -----------------------------------------------------------------


def _rngs(seed: int, stream: int):
    """``(base, drawn)`` generators: the fixed instance and the seed's."""
    return (
        np.random.default_rng([BASE_SEED, stream]),
        np.random.default_rng([int(seed), stream, 1]),
    )


@dataclass
class GraphInputs:
    triples: np.ndarray
    n_nodes: int
    n_predicates: int

    def truth(self) -> oracle.TripleSet:
        return oracle.TripleSet(self.triples, self.n_nodes, self.n_predicates)


@dataclass
class WgpbQuery:
    shape: str
    cyclic: bool
    bgp: tuple
    text: str


@dataclass
class WgpbInputs(GraphInputs):
    queries: list[WgpbQuery] = field(default_factory=list)
    sha256: str = ""


def wgpb_inputs(seed: int, sizes: Sizes) -> WgpbInputs:
    """Random-walk instances of each of the 17 shapes (fewer of the
    cyclic ones, which cost ~15x more each), in a shuffled order."""
    base, drawn = _rngs(seed, 1)
    triples, n_nodes, n_predicates = wikidata_like(base, sizes.wgpb_triples)
    adj = Adjacency(triples)
    relabel = Relabel.draw(drawn, n_nodes, n_predicates)
    queries = []
    for shape, edges in WGPB_SHAPES.items():
        cyclic = shape in CYCLIC_SHAPES
        for _ in range(
            sizes.wgpb_per_cyclic_shape if cyclic else sizes.wgpb_per_shape
        ):
            bgp = instantiate_shape(edges, adj, base)
            if bgp is None:
                raise RuntimeError(f"no {shape} instance in the base graph")
            bgp = renamed_in_order(relabel.bgp(bgp), drawn)
            queries.append(WgpbQuery(shape, cyclic, bgp, bgp_text(bgp)))
    queries = [queries[int(i)] for i in drawn.permutation(len(queries))]
    out = WgpbInputs(
        relabel.triples(triples), relabel.n_nodes, relabel.n_predicates, queries)
    out.sha256 = sha256_of(out.triples, "\n".join(q.text for q in queries))
    return out


@dataclass
class Request:
    """One protocol line.  ``kind`` is ``Q``/``I``/``D``; queries carry
    their pool index and, for a renamed variant, the map from the sent
    variable names back to the pool's; writes carry the triple."""

    kind: str
    line: str
    pool_id: int = -1
    renamed: dict | None = None
    triple: tuple | None = None


@dataclass
class ServeInputs(GraphInputs):
    pool: list[tuple] = field(default_factory=list)
    requests: list[Request] = field(default_factory=list)
    working_set_bytes: int = 0
    sha256: str = ""


def _bounded_pool(triples, n_nodes, n_predicates, rng, size: int,
                  constant_subject_share: float = 0.0,
                  max_gather: int | None = None) -> tuple[list, list, int]:
    """``size`` distinct Table-2-mix BGPs whose full answer has
    ``MIN_ROWS..MAX_ROWS`` rows within ``MAX_WORK`` oracle work; also
    returns each one's ``(rows, oracle work)`` and the result cache bytes
    the pool's answers would occupy."""
    store = oracle.TripleSet(triples, n_nodes, n_predicates)
    pool: list[tuple] = []
    works: list[tuple[int, int]] = []
    seen: set[str] = set()
    cache_bytes = 0
    attempts = 0
    while len(pool) < size:
        attempts += 1
        if attempts > 400 * size:
            raise RuntimeError("the base graph yields too few bounded BGPs")
        force = len(pool) < constant_subject_share * size
        bgp = canonical_names(realworld_bgp(triples, rng, constant_subject=force))
        text = bgp_text(bgp)
        if text in seen or not oracle.variables(bgp):
            continue
        # Cheap rejections first: the matched triples alone bound the
        # work from below (and are what a coordinator would gather).
        matched = sum(len(store.match(p)) for p in bgp)
        if matched > (MAX_WORK if max_gather is None else max_gather):
            continue
        if len(bgp) == 1 and not MIN_ROWS <= matched <= MAX_ROWS:
            continue
        try:
            names, rows, work = oracle.solve(store, bgp, max_rows=MAX_WORK)
        except oracle.OracleOverflow:
            continue
        if not MIN_ROWS <= len(rows) <= MAX_ROWS or work > MAX_WORK:
            continue
        seen.add(text)
        pool.append(bgp)
        works.append((len(rows), work))
        cache_bytes += cache_entry_bytes(len(rows), len(names))
    return pool, works, cache_bytes


def _query_request(pool, pool_id: int, variant: bool, rng) -> Request:
    bgp, renamed = pool[pool_id], None
    if variant:
        bgp, renamed = isomorphic_variant(bgp, rng)
    return Request("Q", "QUERY " + bgp_text(bgp), pool_id=pool_id, renamed=renamed)


def _fresh_triples(rng, relabel: Relabel, taken: set, n: int,
                   n_nodes: int, n_predicates: int) -> list[tuple]:
    """``n`` triples absent from the graph, drawn from the graph's own
    skewed distributions (in base ids, then relabelled)."""
    out: list[tuple] = []
    while len(out) < n:
        m = 2 * (n - len(out)) + 8
        s = _zipf_choice(rng, n_nodes, m, 0.8)
        p = relabel.predicates[_zipf_choice(rng, n_predicates, m, 1.1)]
        o = _zipf_choice(rng, n_nodes, m, 0.8)
        for triple in zip(s.tolist(), p.tolist(), o.tolist()):
            if triple not in taken and len(out) < n:
                taken.add(triple)
                out.append(triple)
    return out


def serve_inputs(seed: int, sizes: Sizes, writes: bool) -> ServeInputs:
    """One pass of ``repro serve`` traffic, in shuffled blocks of fixed
    make-up: Zipf(1.0)-popular queries over a pool of bounded BGPs, every
    4th query an isomorphic variant; with ``writes``, preceded by
    ``rw_warm`` warm-up lines of the same make-up, and
    :data:`WRITE_SHARE` of each block writes — INSERTs of fresh triples
    and, :data:`DELETE_SHARE` of the writes, DELETEs of base triples."""
    base, drawn = _rngs(seed, 2)
    triples, n_nodes, n_predicates = wikidata_like(base, sizes.serve_triples)
    pool, works, cache_bytes = _bounded_pool(
        triples, n_nodes, n_predicates, base, sizes.serve_pool
    )
    if writes:
        pool = [bgp for bgp, (rows, work) in zip(pool, works)
                if rows <= RW_MAX_ROWS and work <= RW_MAX_WORK]
    relabel = Relabel.draw(drawn, n_nodes, n_predicates)
    triples = relabel.triples(triples)
    pool = [relabel.bgp(bgp) for bgp in pool]
    blocks = [sizes.rw_warm, sizes.rw_lines] if writes else (
        [sizes.hot_block] * (sizes.hot_lines // sizes.hot_block))
    taken = set(map(tuple, triples.tolist()))
    inserts = iter(_fresh_triples(
        drawn, relabel, taken, sum(blocks) if writes else 0, n_nodes, n_predicates))
    deletes = iter(drawn.permutation(len(triples)).tolist())
    requests = []
    n_queries = 0
    for block in blocks:
        n_writes = round(block * WRITE_SHARE) if writes else 0
        n_deletes = round(n_writes * DELETE_SHARE)
        # Pool ranks for the queries, -1 for INSERT, -2 for DELETE.
        make_up = np.concatenate([
            zipf_block(len(pool), block - n_writes),
            np.full(n_writes - n_deletes, -1), np.full(n_deletes, -2),
        ])
        for code in drawn.permutation(make_up).tolist():
            if code >= 0:
                n_queries += 1
                requests.append(_query_request(pool, code, n_queries % 4 == 0, drawn))
            elif code == -2:
                t = tuple(int(v) for v in triples[next(deletes)])
                requests.append(Request("D", "DELETE %d %d %d" % t, triple=t))
            else:
                t = next(inserts)
                requests.append(Request("I", "INSERT %d %d %d" % t, triple=t))
    out = ServeInputs(triples, relabel.n_nodes, relabel.n_predicates, pool,
                      requests, cache_bytes)
    out.sha256 = sha256_of(triples, "\n".join(r.line for r in requests))
    return out


def shard_inputs(seed: int, sizes: Sizes) -> ServeInputs:
    """One pass of ``repro shard-serve`` traffic: bounded BGPs, a quarter
    of them with a constant subject (single-owner routing), each asked
    once; two INSERTs of fresh, seed-drawn triples per five queries.  The
    order of the queries belongs to the base instance: a query costs
    more the more INSERTs precede it (the shards then answer from ring
    and buffer), and a seed-drawn order alone moved ``throughput_ops``
    between 101 and 123 and ``read_p90_ms`` between 42 and 55 from seed
    to seed, each seed repeating its own value to 2 %."""
    base, drawn = _rngs(seed, 3)
    triples, n_nodes, n_predicates = wikidata_like(base, sizes.shard_triples)
    pool, _, _ = _bounded_pool(
        triples, n_nodes, n_predicates, base, sizes.shard_pool,
        constant_subject_share=0.25, max_gather=MAX_GATHER,
    )
    relabel = Relabel.draw(drawn, n_nodes, n_predicates)
    triples = relabel.triples(triples)
    pool = [relabel.bgp(bgp) for bgp in pool]
    taken = set(map(tuple, triples.tolist()))
    inserts = iter(_fresh_triples(
        drawn, relabel, taken, len(pool), n_nodes, n_predicates))
    requests: list[Request] = []
    for j, pool_id in enumerate(base.permutation(len(pool)).tolist()):
        requests.append(_query_request(pool, pool_id, False, drawn))
        if j % 5 in (1, 3):
            t = next(inserts)
            requests.append(Request("I", "INSERT %d %d %d" % t, triple=t))
    out = ServeInputs(triples, relabel.n_nodes, relabel.n_predicates, pool, requests)
    out.sha256 = sha256_of(triples, "\n".join(r.line for r in requests))
    return out


@dataclass
class BulkInputs:
    rows: np.ndarray
    n_nodes: int
    n_predicates: int
    probes: list[WgpbQuery] = field(default_factory=list)
    sha256: str = ""

    def truth(self) -> oracle.TripleSet:
        return oracle.TripleSet(self.rows, self.n_nodes, self.n_predicates)


def bulk_inputs(seed: int, sizes: Sizes) -> BulkInputs:
    """Uniform rows (one node per five rows, 64 predicates) in a
    seed-drawn order — other spill runs, the same pack — and the probes:
    acyclic random-walk shapes anchored at the walk's first node
    (neighbourhood lookups), every sixth a one-pattern scan cut at the
    limit.  Unanchored joins over a uniform graph cost 1-7 s each here
    (two 37 K-value lists leapfrogged for a handful of matches), and a
    graph this sparse has no triangles to walk."""
    base, drawn = _rngs(seed, 4)
    n_nodes = max(sizes.build_rows // 5, 16)
    rows = uniform_rows(base, sizes.build_rows, n_nodes, 64)
    adj = Adjacency(rows)
    probes = []
    for i in range(sizes.probes):
        if i % 6 == 5:
            shape = "scan"
            bgp = (("?x0", int(adj.random_edge(base)[1]), "?x1"),)
        else:
            shape = ACYCLIC_PROBE_SHAPES[i % len(ACYCLIC_PROBE_SHAPES)]
            bgp = instantiate_shape(WGPB_SHAPES[shape], adj, base, anchored=True)
            if bgp is None:
                raise RuntimeError(f"no {shape} probe in the graph")
        bgp = renamed_in_order(bgp, drawn)
        probes.append(WgpbQuery(shape, False, bgp, bgp_text(bgp)))
    probes = [probes[int(i)] for i in drawn.permutation(len(probes))]
    rows = rows[drawn.permutation(len(rows))]
    return BulkInputs(rows, n_nodes, 64, probes,
                      sha256_of(rows, "\n".join(q.text for q in probes)))
