"""Synthetic graph generators standing in for the paper's Wikidata data.

The paper indexes (a) an 81.4 M-triple Wikidata sub-graph for WGPB and
(b) the full 958.8 M-triple Wikidata graph.  Neither is available here
(nor tractable in pure Python), so we synthesise graphs that preserve the
statistics WGPB behaviour depends on:

- a small predicate universe versus a large node universe
  (Wikidata sub-graph: 2 101 predicates vs 52.0 M nodes);
- Zipf-skewed predicate frequencies (a few hub predicates dominate);
- Zipf-skewed node degrees (hub entities), with most nodes of low degree;
- enough connectivity that random walks can instantiate the 17 WGPB
  shapes with non-empty answers.

Determinism: every generator takes a ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dataset import Graph

#: The 13-triple graph of the paper's Figure 3 (Nobel laureates).
NOBEL_TRIPLES = [
    ("Bohr", "adv", "Thomson"),
    ("Thomson", "adv", "Strutt"),
    ("Thorne", "adv", "Wheeler"),
    ("Wheeler", "adv", "Bohr"),
    ("Nobel", "nom", "Bohr"),
    ("Nobel", "nom", "Strutt"),
    ("Nobel", "nom", "Thomson"),
    ("Nobel", "nom", "Thorne"),
    ("Nobel", "nom", "Wheeler"),
    ("Nobel", "win", "Bohr"),
    ("Nobel", "win", "Strutt"),
    ("Nobel", "win", "Thomson"),
    ("Nobel", "win", "Thorne"),
]


def nobel_graph() -> Graph:
    """The running example of the paper (Figure 3)."""
    return Graph.from_string_triples(NOBEL_TRIPLES)


def _zipf_choice(
    rng: np.random.Generator, n: int, size: int, exponent: float
) -> np.ndarray:
    """Sample ``size`` values from ``[0, n)`` with Zipf-like skew."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    weights /= weights.sum()
    return rng.choice(n, size=size, p=weights)


def wikidata_like(
    n_triples: int = 20_000,
    n_nodes: int | None = None,
    n_predicates: int | None = None,
    predicate_exponent: float = 1.1,
    node_exponent: float = 0.8,
    seed: int = 0,
) -> Graph:
    """A Wikidata-shaped random graph.

    Defaults mirror the WGPB sub-graph's proportions: roughly one node
    per 1.6 triples and one predicate per 39 000 triples (with floors so
    small graphs stay interesting).
    """
    if n_nodes is None:
        n_nodes = max(16, int(n_triples * 0.6))
    if n_predicates is None:
        n_predicates = max(8, n_triples // 2_000)
    rng = np.random.default_rng(seed)
    # Oversample: deduplication loses some rows.
    factor = 1.3
    triples = None
    while True:
        m = int(n_triples * factor)
        s = _zipf_choice(rng, n_nodes, m, node_exponent)
        p = _zipf_choice(rng, n_predicates, m, predicate_exponent)
        o = _zipf_choice(rng, n_nodes, m, node_exponent)
        cand = np.unique(np.stack([s, p, o], axis=1), axis=0)
        if len(cand) >= n_triples:
            pick = rng.choice(len(cand), size=n_triples, replace=False)
            triples = cand[pick]
            break
        factor *= 1.5
    return Graph(triples, n_nodes=n_nodes, n_predicates=n_predicates)


def path_graph(length: int, predicate_id: int = 0) -> Graph:
    """A simple directed path ``0 -> 1 -> … -> length`` (tests/examples)."""
    s = np.arange(length, dtype=np.int64)
    triples = np.stack(
        [s, np.full(length, predicate_id, dtype=np.int64), s + 1], axis=1
    )
    return Graph(triples, n_nodes=length + 1, n_predicates=predicate_id + 1)


def clique_graph(k: int, predicate_id: int = 0) -> Graph:
    """A directed clique on ``k`` nodes (worst-case join fodder)."""
    s, o = np.meshgrid(np.arange(k), np.arange(k))
    mask = s != o
    triples = np.stack(
        [
            s[mask].astype(np.int64),
            np.full(int(mask.sum()), predicate_id, dtype=np.int64),
            o[mask].astype(np.int64),
        ],
        axis=1,
    )
    return Graph(triples, n_nodes=k, n_predicates=predicate_id + 1)


def random_graph(
    n_triples: int, n_nodes: int, n_predicates: int, seed: int = 0
) -> Graph:
    """Uniform random graph (no skew); handy for property tests."""
    rng = np.random.default_rng(seed)
    capacity = n_nodes * n_nodes * n_predicates
    n_triples = min(n_triples, capacity)
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < n_triples:
        missing = n_triples - len(seen)
        s = rng.integers(0, n_nodes, missing * 2 + 4)
        p = rng.integers(0, n_predicates, missing * 2 + 4)
        o = rng.integers(0, n_nodes, missing * 2 + 4)
        for row in zip(s.tolist(), p.tolist(), o.tolist()):
            seen.add(row)
            if len(seen) == n_triples:
                break
    triples = np.array(sorted(seen), dtype=np.int64)
    return Graph(triples, n_nodes=n_nodes, n_predicates=n_predicates)
