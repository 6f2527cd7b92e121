"""Subject-hash sharding of a graph across supervised shard engines.

A :class:`ShardedRingIndex` splits a graph's triples by
``shard_of(subject)`` — a splitmix64 finalizer, so shard assignment is
stable across processes and independent of Python's salted ``hash`` —
and serves each partition through one
:class:`~repro.serving.endpoint.EngineEndpoint`: an
:class:`~repro.serving.endpoint.InProcessEndpoint` (engine + private
broker), that same endpoint in a child process, or a replica set of
either.  Because the ring is succinct, N shards cost barely more than
one index over the union; what the split buys is *blast-radius
containment*: a crashed or wedged shard takes out only its partition,
and the coordinator (:mod:`repro.serving.coordinator`) degrades to the
survivors.

Deployment axes, same object afterwards:

- :meth:`ShardedRingIndex.from_graph` — in-memory shards
  (:class:`~repro.core.dynamic.DynamicRingIndex`); a restarted shard
  recovers to its *initial* partition (writes after construction are
  lost — the non-durable trade-off, stated rather than hidden);
- :meth:`ShardedRingIndex.create_durable` / :meth:`recover` — per-shard
  :class:`~repro.reliability.wal.DurableDynamicRing` directories
  (``shard-00/``, ``shard-01/``, …) beside a ``SHARDS.json`` manifest;
  a restarted shard replays its WAL, so every acknowledged write
  survives a kill;
- ``processes=True`` (durable modes) — each store runs in its own OS
  process behind a :class:`~repro.serving.process.ProcessEndpoint`, so
  a crash is genuine process death and recovery a genuine respawn;
- ``replicas=N`` — every partition is held by a
  :class:`~repro.serving.replica.ReplicaSet` of N endpoints (directory
  layout ``shard-SS/replica-R/``), giving transparent read failover.

All ids stay *global* (every shard shares the parent universe sizes),
so per-shard solutions need no translation before merging.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.dynamic import DynamicRingIndex
from repro.graph.dataset import Graph
from repro.reliability.integrity import SPOT_CHECK_SAMPLES, IndexIntegrityError
from repro.serving.endpoint import InProcessEndpoint, generation_entry
from repro.serving.replica import ReplicaSet

__all__ = [
    "shard_of",
    "shard_vector",
    "partition_graph",
    "write_shards_manifest",
    "read_shards_manifest",
    "verify_sharded_dir",
    "ShardedRingIndex",
]

MANIFEST_NAME = "SHARDS.json"
_MASK64 = (1 << 64) - 1


def write_shards_manifest(
    directory,
    *,
    n_shards: int,
    n_nodes: int,
    n_predicates: int,
    replicas: int = 1,
    transport: str = "inproc",
) -> dict:
    """Publish ``SHARDS.json`` for a durable sharded layout.

    Shared by :meth:`ShardedRingIndex.create_durable` and the bulk
    builder's sharded emit (:func:`repro.graph.bulkload.bulk_build_sharded`),
    so both produce manifests :func:`read_shards_manifest` accepts.
    Written to a ``.tmp`` file and renamed into place, so a reader
    sees either no manifest or a whole one.
    """
    manifest = {
        "version": 2,
        "n_shards": int(n_shards),
        "n_nodes": int(n_nodes),
        "n_predicates": int(n_predicates),
        "replicas": int(replicas),
        "transport": transport,
    }
    path = Path(directory) / MANIFEST_NAME
    tmp = path.with_name(MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, path)
    return manifest


def read_shards_manifest(directory) -> dict:
    """The one reader of ``SHARDS.json``; returns it normalised (version-1
    manifests mean in-process, one replica).  A torn, foreign or
    incomplete manifest raises
    :class:`~repro.reliability.integrity.IndexIntegrityError` naming the
    file."""
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text())
        manifest = {
            "version": raw["version"],
            "n_shards": int(raw["n_shards"]),
            "n_nodes": int(raw["n_nodes"]),
            "n_predicates": int(raw["n_predicates"]),
            "replicas": int(raw.get("replicas", 1)),
            "transport": raw.get("transport", "inproc"),
        }
    except KeyError as exc:
        raise IndexIntegrityError(path, f"shard manifest lacks {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise IndexIntegrityError(path, f"unreadable shard manifest: {exc}") from exc
    if (
        manifest["version"] not in (1, 2)
        or min(manifest["n_shards"], manifest["replicas"]) < 1
        or manifest["transport"] not in ("inproc", "process")
    ):
        raise IndexIntegrityError(path, f"unsupported shard manifest {raw}")
    return manifest


def verify_sharded_dir(directory, samples: int = SPOT_CHECK_SAMPLES) -> dict:
    """``repro verify`` over a sharded layout: :func:`read_shards_manifest`,
    then :func:`~repro.reliability.wal.verify_dynamic_dir` on every shard
    and replica directory, each member's checks prefixed by its path."""
    from repro.reliability.wal import verify_dynamic_dir

    directory = Path(directory)
    manifest = read_shards_manifest(directory)
    report: dict = {
        "path": str(directory),
        "kind": "sharded",
        "manifest": f"{MANIFEST_NAME}: {manifest['n_shards']} shard(s) x "
        f"{manifest['replicas']} replica(s), {manifest['transport']}",
        "checks": [],
        "n_triples": 0,
        "n_nodes": manifest["n_nodes"],
        "n_predicates": manifest["n_predicates"],
        "compressed": False,
    }
    tails = []
    for sid in range(manifest["n_shards"]):
        for rid, member in enumerate(
            _replica_dirs(directory, sid, manifest["replicas"])
        ):
            name = member.relative_to(directory).as_posix()
            sub = verify_dynamic_dir(member, samples=samples)
            report["checks"] += [f"{name}: {c}" for c in sub["checks"]]
            tails += [f"{name}: {sub['wal_tail']}"] if "wal_tail" in sub else []
            report["n_triples"] += sub["n_triples"] if rid == 0 else 0
    if tails:
        report["wal_tail"] = "; ".join(tails)
    return report


def shard_of(subject: int, n_shards: int) -> int:
    """Stable shard id of a subject (splitmix64 finalizer mod ``n_shards``).

    Deterministic across processes and runs — unlike builtin ``hash``,
    which is salted per interpreter — so a manifest written by one
    process routes identically in every other.
    """
    z = (int(subject) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z % n_shards


def shard_vector(subjects: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized :func:`shard_of` over an array of subject ids."""
    z = subjects.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(n_shards)).astype(np.int64)


def partition_graph(graph: Graph, n_shards: int) -> list[Graph]:
    """Split a graph into ``n_shards`` disjoint subgraphs by subject hash.

    Every partition keeps the parent's universe sizes (and dictionary),
    so ids remain global and per-shard answers merge without remapping.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    arr = graph.triples
    if len(arr):
        owner = shard_vector(arr[:, 0], n_shards)
    else:
        owner = np.empty(0, dtype=np.int64)
    return [
        Graph(
            arr[owner == sid],
            n_nodes=graph.n_nodes,
            n_predicates=graph.n_predicates,
            dictionary=graph.dictionary,
        )
        for sid in range(n_shards)
    ]


def _memory_factory(initial: Graph, buffer_threshold: int):
    def factory():
        return DynamicRingIndex(
            initial, buffer_threshold=buffer_threshold, auto_compact=False
        )

    return factory


#: ``DurableDynamicRing.recover``-only keywords that ``create`` rejects.
_RECOVER_ONLY_OPTIONS = ("mmap", "verify")


def _create_options(wal_options: dict) -> dict:
    return {
        k: v for k, v in wal_options.items() if k not in _RECOVER_ONLY_OPTIONS
    }


def _durable_factory(shard_dir: Path, initial: Optional[Graph], wal_options: dict):
    """First call creates the store (when ``initial`` is given); every
    later call — i.e. every supervisor restart — recovers via the WAL.
    Recovery honours the full option set (including ``mmap=True`` to
    serve checkpointed rings off their frozen packs); creation drops
    the recover-only keys."""
    from repro.reliability.wal import DurableDynamicRing

    state = {"created": initial is None}

    def factory():
        if not state["created"]:
            state["created"] = True
            return DurableDynamicRing.create(
                shard_dir, initial, **_create_options(wal_options)
            )
        store, _report = DurableDynamicRing.recover(shard_dir, **wal_options)
        return store

    return factory


def _replica_dirs(directory: Path, sid: int, replicas: int) -> list[Path]:
    """On-disk layout: ``shard-SS/`` solo, ``shard-SS/replica-R/`` replicated."""
    shard_dir = directory / f"shard-{sid:02d}"
    if replicas == 1:
        return [shard_dir]
    return [shard_dir / f"replica-{rid}" for rid in range(replicas)]


def _one_shard(members: list):
    """A shard's endpoint: its only member, or a set of its replicas."""
    return members[0] if len(members) == 1 else ReplicaSet(members)


def _build_durable_shard(
    dirs: list[Path],
    initial: Optional[Graph],
    processes: bool,
    broker_options: Optional[dict],
    wal_options: dict,
):
    """One durable shard: an endpoint per replica dir."""
    members = []
    for d in dirs:
        factory = _durable_factory(d, initial, wal_options)
        if not processes:
            members.append(InProcessEndpoint(factory, broker_options))
            continue
        from repro.serving.process import ProcessEndpoint

        if initial is not None:
            # The child opens the store through ``recover``, so it must
            # exist before the first spawn.
            factory().close(checkpoint=True)
        members.append(
            ProcessEndpoint(d, store_options=wal_options, broker_options=broker_options)
        )
    return _one_shard(members)


class ShardedRingIndex:
    """N supervised shard engines addressed by subject hash.

    This class owns shard *placement and lifecycle* only — routing
    writes, killing/restarting shards, aggregating generations and
    stats.  Query evaluation across shards lives in
    :class:`~repro.serving.coordinator.ShardCoordinator`.
    """

    def __init__(
        self,
        endpoints: list,  # EngineEndpoint per shard (endpoint or ReplicaSet)
        universe: Graph,
        directory: Optional[Path] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("need at least one shard")
        self.endpoints = endpoints
        self._universe = universe
        self.directory = directory

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        n_shards: int,
        buffer_threshold: int = 64,
        broker_options: Optional[dict] = None,
        *,
        replicas: int = 1,
    ) -> "ShardedRingIndex":
        """In-memory shards over a hash-partition of ``graph``."""
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        endpoints = []
        for part in partition_graph(graph, n_shards):
            factory = _memory_factory(part, buffer_threshold)
            endpoints.append(
                _one_shard(
                    [InProcessEndpoint(factory, broker_options) for _ in range(replicas)]
                )
            )
        return cls(endpoints, _universe_of(graph))

    @classmethod
    def create_durable(
        cls,
        directory,
        graph: Graph,
        n_shards: int,
        broker_options: Optional[dict] = None,
        *,
        replicas: int = 1,
        processes: bool = False,
        **wal_options,
    ) -> "ShardedRingIndex":
        """Durable shards under ``directory`` (one WAL'd store each)."""
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_shards_manifest(
            directory,
            n_shards=n_shards,
            n_nodes=graph.n_nodes,
            n_predicates=graph.n_predicates,
            replicas=replicas,
            transport="process" if processes else "inproc",
        )
        parts = partition_graph(graph, n_shards)
        endpoints = [
            _build_durable_shard(
                _replica_dirs(directory, sid, replicas),
                part,
                processes,
                broker_options,
                wal_options,
            )
            for sid, part in enumerate(parts)
        ]
        return cls(endpoints, _universe_of(graph), directory)

    @classmethod
    def recover(
        cls,
        directory,
        broker_options: Optional[dict] = None,
        *,
        processes: Optional[bool] = None,
        **wal_options,
    ) -> "ShardedRingIndex":
        """Reopen a durable sharded index from its manifest + WALs.

        ``processes`` defaults to whatever transport the manifest was
        created with (version-1 manifests mean in-process, one replica).
        """
        directory = Path(directory)
        manifest = read_shards_manifest(directory)
        if processes is None:
            processes = manifest["transport"] == "process"
        universe = Graph(
            np.empty((0, 3), dtype=np.int64),
            n_nodes=manifest["n_nodes"],
            n_predicates=manifest["n_predicates"],
        )
        endpoints = [
            _build_durable_shard(
                _replica_dirs(directory, sid, manifest["replicas"]),
                None,
                processes,
                broker_options,
                wal_options,
            )
            for sid in range(manifest["n_shards"])
        ]
        return cls(endpoints, universe, directory)

    # -- addressing ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.endpoints)

    def shard_for(self, subject: int) -> int:
        return shard_of(subject, self.n_shards)

    @property
    def graph(self) -> Graph:
        """The shared universe (sizes + dictionary; no triples).

        Enough for :meth:`Graph.encode_bgp` / ``decode_solution`` at the
        coordinator — the actual triples live in the shards.
        """
        return self._universe

    @property
    def n_triples(self) -> int:
        """Total across *alive* shards (a down shard contributes 0)."""
        total = 0
        for ep in self.endpoints:
            try:
                total += int(getattr(ep, "n_triples", 0) or 0)
            except Exception:
                pass  # a shard dying mid-probe counts 0, like down
        return total

    # -- writes --------------------------------------------------------------

    def insert(self, s: int, p: int, o: int) -> bool:
        return self.endpoints[self.shard_for(s)].insert(s, p, o)

    def delete(self, s: int, p: int, o: int) -> bool:
        return self.endpoints[self.shard_for(s)].delete(s, p, o)

    # -- lifecycle -----------------------------------------------------------

    def kill_shard(self, sid: int) -> None:
        """Crash one shard (chaos hook; no checkpoint, WAL left as-is)."""
        self.endpoints[sid].kill()

    def restart_shard(self, sid: int) -> None:
        self.endpoints[sid].restart()

    def shutdown(self, checkpoint: bool = True) -> None:
        for ep in self.endpoints:
            ep.shutdown(checkpoint=checkpoint)

    def __enter__(self) -> "ShardedRingIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- cache integration ---------------------------------------------------

    def cache_generation(self) -> tuple:
        """Shard-generation vector: ``(incarnation, engine_generation)``
        per shard, with a ``"down"`` marker while a shard is dead.

        Any write bumps its shard's engine generation; any crash or
        restart changes the incarnation or the marker — either way the
        vector differs and every cached result keyed on it is stale.
        """
        return tuple(generation_entry(ep) for ep in self.endpoints)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate readiness/liveness plus per-shard endpoint stats."""
        shards = [ep.stats() for ep in self.endpoints]
        live = [ep.alive for ep in self.endpoints]
        ready = [a and ep.health_check() for a, ep in zip(live, self.endpoints)]
        return {
            "n_shards": self.n_shards,
            "live": sum(live),
            "ready": all(ready),
            "n_triples": self.n_triples,
            "shards": shards,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedRingIndex(n_shards={self.n_shards}, live={sum(ep.alive for ep in self.endpoints)})"


def _universe_of(graph: Graph) -> Graph:
    return Graph(
        np.empty((0, 3), dtype=np.int64),
        n_nodes=graph.n_nodes,
        n_predicates=graph.n_predicates,
        dictionary=graph.dictionary,
    )
