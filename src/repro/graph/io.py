"""Persistence for graphs and indexes.

Graphs serialise to a single ``.npz`` (triple array + universes +
optional dictionary labels).  The static ``RingIndex.save`` persists
its *source graph and configuration* this way and rebuilds on load:
ring construction is linear-ish and fast (§4.4 reports 6.4 M
triples/minute for the C++ version; our numpy construction path keeps
the same shape), and it is the only form a compressed C-Ring has.
Durable-store checkpoints do not: they hold each ring as its frozen
pack (:mod:`repro.core.frozen`) and open it without a rebuild; only
their ``universe.npz`` (universes + dictionary, no triples) is written
here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.graph.dataset import Graph
from repro.graph.dictionary import Dictionary


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write a graph (and its dictionary, if any) to ``path`` (.npz)."""
    payload: dict = {
        "triples": graph.triples,
        "n_nodes": np.array([graph.n_nodes], dtype=np.int64),
        "n_predicates": np.array([graph.n_predicates], dtype=np.int64),
    }
    d = graph.dictionary
    if d is not None:
        meta = {
            "nodes": list(d.nodes()),
            "predicates": list(d.predicates()),
        }
        payload["dictionary_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
    np.savez_compressed(str(path), **payload)


def load_graph(path: str | Path) -> Graph:
    """Inverse of :func:`save_graph`."""
    with np.load(str(path)) as data:
        triples = data["triples"]
        n_nodes = int(data["n_nodes"][0])
        n_predicates = int(data["n_predicates"][0])
        dictionary = None
        if "dictionary_json" in data:
            meta = json.loads(bytes(data["dictionary_json"]).decode())
            dictionary = Dictionary()
            for label in meta["nodes"]:
                dictionary.add_node(label)
            for label in meta["predicates"]:
                dictionary.add_predicate(label)
    if dictionary is not None:
        return Graph(triples, dictionary=dictionary)
    return Graph(triples, n_nodes=n_nodes, n_predicates=n_predicates)
