"""The ``repro`` command line: build, query, verify and inspect indexes.

Examples::

    python -m repro build data.nt -o nobel.npz
    python -m repro query nobel.npz "?x adv ?y . Nobel win ?y"
    python -m repro query nobel.npz "?x ?p ?y" --timeout 1 --partial
    python -m repro explain nobel.npz "?x nom ?y . ?x win ?z . ?z adv ?y"
    python -m repro plan nobel.npz "?x adv ?y . ?y win ?z"
    python -m repro path nobel.npz "adv+" --source Thorne
    python -m repro verify nobel.npz
    python -m repro stats nobel.npz
    python -m repro serve store/ --create --n-nodes 1000 --n-predicates 16
    python -m repro shard-serve cluster/ --create --shards 4 --processes
    python -m repro recover store/

Input formats for ``build``: ``.nt`` files go through the N-Triples
loader; anything else is parsed as whitespace-separated ``s p o`` lines.
The benchmark entry points live under ``python -m repro.bench``.

``serve`` runs a durable dynamic ring (WAL + checkpoints, see
:mod:`repro.reliability.wal`) behind a :class:`QueryBroker`;
``shard-serve`` runs supervised durable shards behind a scatter-gather
coordinator.  Both speak one line protocol on stdin through
:mod:`repro.serving.frontend` — ``INSERT s p o`` / ``DELETE s p o`` /
``QUERY <bgp>`` / ``STATS`` / ``QUIT``, plus ``CHECKPOINT`` (serve) or
``KILL n`` / ``RESTART n`` (shard-serve) — one line at a time, so
``--max-in-flight`` can only shed on a socket session.  EOF, QUIT and
SIGTERM shut down cleanly: SIGTERM interrupts only the idle read, so a
request already running completes and is answered before the final
checkpoint.  ``recover`` replays the WAL against the latest checkpoint
and reports what it did; ``verify`` accepts those directories too.

Failure conventions (the serving-layer contract): user mistakes —
nonexistent files, unreadable or corrupted indexes, malformed queries —
print a one-line ``error: …`` on stderr and exit 1; a query timeout
exits 2 (unless ``--partial`` asked for graceful degradation).
Tracebacks are reserved for actual bugs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core import CompressedRingIndex, QueryTimeout, Request, RingIndex
from repro.core.interface import QueryCancelled, QueryExecutionError
from repro.graph.dataset import Graph
from repro.graph.ntriples import NTriplesError, load_ntriples
from repro.reliability.integrity import IndexIntegrityError, verify_index

EXIT_ERROR = 1
EXIT_TIMEOUT = 2


def _load_graph_file(path: str, strict: bool = True, stats=None) -> Graph:
    if path.endswith(".nt"):
        return load_ntriples(path, strict=strict, stats=stats)
    return Graph.from_file(path)


def cmd_build(args) -> None:
    start = time.perf_counter()
    if args.workers or args.shards:
        # Pool passes and sharded layouts are built by the streaming
        # builder only.
        args.stream = True
    if args.workers < 0:
        raise SystemExit("error: --workers must be non-negative")
    if args.shards is not None and args.shards < 1:
        raise SystemExit("error: --shards must be positive")
    if args.shards is not None:
        if args.compressed or args.frozen:
            raise SystemExit(
                "error: --shards emits a sharded durable layout; "
                "it is incompatible with --compressed/--frozen"
            )
        from repro.graph.bulkload import bulk_build_sharded

        build_stats: dict = {}
        manifest = bulk_build_sharded(
            args.input,
            args.output,
            n_shards=args.shards,
            chunk_triples=args.chunk_triples,
            workers=args.workers,
            stats=build_stats,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        )
        elapsed = time.perf_counter() - start
        print(
            f"shard-indexed {build_stats['n_triples']} triples "
            f"({manifest['n_nodes']} nodes, "
            f"{manifest['n_predicates']} predicates) into "
            f"{manifest['n_shards']} shard(s) "
            f"in {elapsed:.2f}s -> {args.output}"
        )
        for sid, count in enumerate(build_stats["shard_triples"]):
            print(f"  shard-{sid:02d}: {count} triples")
        print(
            f"pack bytes: {build_stats['pack_bytes']} "
            f"({build_stats['runs_spilled']} spilled run(s), "
            f"{build_stats['deduplicated']} duplicate(s) dropped); "
            f"serve with: repro shard-serve {args.output} --mmap ..."
        )
        return
    if args.stream:
        # Out-of-core path: never holds the triple set in memory, and
        # always emits a frozen pack (the streaming builder writes the
        # succinct arrays directly into the on-disk layout).
        if args.compressed:
            raise SystemExit(
                "error: --stream builds plain frozen packs; "
                "--compressed needs the in-memory builder"
            )
        from repro.graph.bulkload import bulk_build

        build_stats: dict = {}
        manifest = bulk_build(
            args.input,
            args.output,
            chunk_triples=args.chunk_triples,
            workers=args.workers,
            stats=build_stats,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        )
        elapsed = time.perf_counter() - start
        print(
            f"stream-indexed {manifest['n_triples']} triples "
            f"({manifest['n_nodes']} nodes, "
            f"{manifest['n_predicates']} predicates) "
            f"in {elapsed:.2f}s -> {args.output}"
        )
        print(
            f"pack size: {manifest['file_size']} bytes "
            f"({build_stats['runs_spilled']} spilled run(s), "
            f"{build_stats['deduplicated']} duplicate(s) dropped); "
            f"open with --mmap for O(1) RAM"
        )
        return
    stats: dict = {}
    graph = _load_graph_file(args.input, strict=not args.lenient, stats=stats)
    cls = CompressedRingIndex if args.compressed else RingIndex
    index = cls(graph)
    if args.frozen:
        if args.compressed:
            raise SystemExit(
                "error: compressed rings have no flat layout; "
                "--frozen requires a plain ring"
            )
        index.save_frozen(args.output)
    else:
        index.save(args.output)
    elapsed = time.perf_counter() - start
    if stats.get("bad_lines"):
        print(
            f"warning: skipped {stats['bad_lines']} malformed line(s)",
            file=sys.stderr,
        )
    print(
        f"indexed {graph.n_triples} triples "
        f"({graph.n_nodes} nodes, {graph.n_predicates} predicates) "
        f"in {elapsed:.2f}s -> {args.output}"
    )
    print(f"index size: {index.bytes_per_triple():.2f} bytes/triple")


def cmd_query(args) -> None:
    index = RingIndex.load(args.index, mmap=args.mmap)
    solutions = index.evaluate(Request.of(
        args.query,
        limit=args.limit,
        timeout=args.timeout,
        decode=True,
        partial=args.partial,
    ))
    if args.json:
        print(json.dumps(list(solutions), indent=2))
    else:
        for mu in solutions:
            print("  ".join(f"{k}={v}" for k, v in sorted(mu.items())))
        suffix = (
            f" (truncated: {solutions.interrupted_by})"
            if solutions.truncated
            else ""
        )
        print(f"-- {len(solutions)} solution(s){suffix}")


def _report_empty(plan: dict) -> None:
    """Say *why* a plan is empty: an unsatisfiable pattern, or (no
    cardinalities at all) a constant the dictionary does not hold."""
    empty = [p for p, n in plan["pattern_cardinalities"].items() if n == 0]
    if empty:
        print(f"pattern {empty[0]} matches no triple: 0 solutions")
    else:
        print("query references constants absent from the graph: 0 solutions")


def cmd_explain(args) -> None:
    index = RingIndex.load(args.index)
    plan = index.explain(args.query)
    if plan.get("empty"):
        _report_empty(plan)
        return
    order = " -> ".join(v.name for v in plan["variable_order"]) or "(none)"
    lonely = ", ".join(v.name for v in plan["lonely_variables"]) or "(none)"
    print(f"elimination order : {order}")
    print(f"lonely variables  : {lonely}")
    print("pattern cardinalities (exact, via Lemma 3.6 ranges):")
    for pattern, count in plan["pattern_cardinalities"].items():
        print(f"  {pattern:<40} {count}")


def cmd_plan(args) -> None:
    """The cardinality-guided plan, with each variable's score."""
    index = RingIndex.load(args.index)
    stats_cache = None
    if getattr(args, "stats_cache", None):
        from repro.cache import PlanStatsCache

        # A content token scopes the memo to this exact index: a file
        # captured against different contents loads as empty.
        graph = index.graph
        token = ("static", graph.n_triples, graph.n_nodes,
                 graph.n_predicates)
        stats_cache = PlanStatsCache.load(
            args.stats_cache, generation_source=lambda: token
        )
        index._engine.stats_cache = stats_cache
    bgp = _coerce_query(args.query, index.graph)
    plan = index.explain(bgp)
    if stats_cache is not None:
        stats_cache.save(args.stats_cache)
        memo = stats_cache.stats()
        print(f"stats cache       : {args.stats_cache} "
              f"({memo['entries']} entries, {memo['hits']} hits this run)")
    if plan.get("empty"):
        _report_empty(plan)
        return
    scores = plan.get("variable_scores", {})
    order = plan["variable_order"]
    print("elimination order (cheapest distinct-count first):")
    for var in order:
        print(f"  {var.name:<8} ~{scores.get(var.name, '?')} distinct values")
    lonely = ", ".join(v.name for v in plan["lonely_variables"]) or "(none)"
    print(f"lonely variables  : {lonely}")
    print("pattern cardinalities (exact, via Lemma 3.6 ranges):")
    for pattern, count in plan["pattern_cardinalities"].items():
        print(f"  {pattern:<40} {count}")


def cmd_path(args) -> None:
    index = RingIndex.load(args.index)
    nodes = index.evaluate_path(args.expression, args.source, decode=True)
    for label in sorted(nodes):
        print(label)
    print(f"-- {len(nodes)} node(s)")


def cmd_verify(args) -> None:
    report = verify_index(args.index)
    print(f"index    : {report['path']}")
    print(f"manifest : {report['manifest']}")
    print(
        f"contents : {report['n_triples']} triples, "
        f"{report['n_nodes']} nodes, {report['n_predicates']} predicates"
        + (" (compressed)" if report["compressed"] else "")
        + (f" ({report['kind']})" if report.get("kind") in ("dynamic", "sharded") else "")
    )
    for check in report["checks"]:
        print(f"  ok: {check}")
    if report.get("wal_tail"):
        print(f"  note: {report['wal_tail']}")
    print("index integrity: OK")


def _coerce_query(text: str, graph: Graph):
    """Parse a BGP; on id-only graphs, digit constants become ids."""
    from repro.serving.frontend import coerce_query

    return coerce_query(text, graph)


def _serve_line(line: str, store, broker, decode: bool) -> bool:
    """Answer one ``repro serve`` line on stdout; ``False`` on QUIT
    (``decode`` follows the store's graph; the argument is ignored)."""
    from repro.serving.frontend import LineFrontend, StoreService

    keep_going, lines = LineFrontend(StoreService(store, broker)).dispatch(line)
    for out in lines:
        print(out)
    return keep_going


def cmd_serve(args) -> None:
    # Lazy: pulls in the WAL + broker machinery only this command needs.
    import numpy as np

    from repro.reliability.broker import QueryBroker
    from repro.reliability.wal import DurableDynamicRing
    from repro.serving.frontend import LineFrontend, StoreService

    if args.create:
        universe = Graph(
            np.empty((0, 3), dtype=np.int64),
            n_nodes=args.n_nodes,
            n_predicates=args.n_predicates,
        )
        store = DurableDynamicRing.create(
            args.directory, universe, buffer_threshold=args.threshold,
        )
        print(f"created {args.directory} "
              f"({args.n_nodes} nodes, {args.n_predicates} predicates)")
    else:
        store, report = DurableDynamicRing.recover(
            args.directory, buffer_threshold=args.threshold, mmap=args.mmap,
        )
        print(f"recovered: {report.summary()}"
              + (" (memmapped checkpoints)" if args.mmap else ""))
    served_index = store
    if args.cache:
        from repro.cache import CachedQuerySystem

        served_index = CachedQuerySystem(
            store, capacity_bytes=args.cache_mb << 20
        )
        print(f"cache enabled ({args.cache_mb} MiB)")
    broker = QueryBroker(
        served_index,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_timeout=args.timeout,
        maintenance_interval=args.maintenance_interval,
    )
    service = StoreService(store, broker,
                           final_checkpoint=not args.no_final_checkpoint)
    LineFrontend(service).serve_lines()


def cmd_shard_serve(args) -> None:
    # Lazy: pulls in the whole serving tier only this command needs.
    import numpy as np

    from repro.serving import (
        LineFrontend,
        ShardCoordinator,
        ShardedRingIndex,
        ShardService,
        ShardSupervisor,
    )

    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if args.create:
        universe = Graph(
            np.empty((0, 3), dtype=np.int64),
            n_nodes=args.n_nodes,
            n_predicates=args.n_predicates,
        )
        shards = ShardedRingIndex.create_durable(
            args.directory,
            universe,
            args.shards,
            buffer_threshold=args.threshold,
            broker_options={"workers": args.workers},
            replicas=args.replicas,
            processes=args.processes,
        )
        mode = "process" if args.processes else "in-process"
        print(f"created {args.directory}: {args.shards} durable shard(s) "
              f"x{args.replicas} replica(s), {mode} "
              f"({args.n_nodes} nodes, {args.n_predicates} predicates)")
    else:
        shards = ShardedRingIndex.recover(
            args.directory,
            buffer_threshold=args.threshold,
            broker_options={"workers": args.workers},
            processes=True if args.processes else None,
            mmap=args.mmap,
        )
        print(f"recovered {shards.n_shards} shard(s), "
              f"{shards.n_triples} triple(s)"
              + (" (memmapped checkpoints)" if args.mmap else ""))
    served = ShardCoordinator(shards, shard_timeout=args.shard_timeout)
    if args.cache:
        # The wrapper delegates every coordinator hook (shards, graph,
        # stats) transparently, so the frontend serves through it as-is.
        from repro.cache import CachedQuerySystem

        served = CachedQuerySystem(served, capacity_bytes=args.cache_mb << 20)
        print(f"cache enabled ({args.cache_mb} MiB)")
    service = ShardService(
        served,
        ShardSupervisor(shards, interval=args.supervise_interval),
        default_timeout=args.timeout,
        final_checkpoint=not args.no_final_checkpoint,
    )
    LineFrontend(service, max_in_flight=args.max_in_flight).serve_lines()


def cmd_recover(args) -> None:
    from repro.reliability.wal import DurableDynamicRing

    store, report = DurableDynamicRing.recover(args.directory)
    try:
        print(f"store     : {args.directory}")
        print(f"recovered : {report.summary()}")
        for check in report.checks:
            print(f"  ok: {check}")
        if args.checkpoint:
            print(f"checkpoint: {store.checkpoint()}")
    finally:
        store.close()


def cmd_stats(args) -> None:
    index = RingIndex.load(args.index)
    graph = index.graph
    print(f"triples            : {graph.n_triples}")
    print(f"nodes              : {graph.n_nodes}")
    print(f"predicates         : {graph.n_predicates}")
    print(f"index bytes/triple : {index.bytes_per_triple():.2f}")
    print(f"packed bytes/triple: {graph.packed_size_in_bits() / 8 / max(graph.n_triples, 1):.2f}")
    print(f"compressed ring    : {index.ring.compressed}")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (every subcommand)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Ring-index graph store (SIGMOD 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index a triple file")
    p.add_argument("input", help=".nt file, whitespace 's p o' lines, or "
                                 "(with --stream) also raw int64 .bin/.npy")
    p.add_argument("-o", "--output", required=True, help="index path (.npz)")
    p.add_argument("--compressed", action="store_true",
                   help="build the C-Ring (RRR bitvectors)")
    p.add_argument("--lenient", action="store_true",
                   help="skip (and count) malformed N-Triples lines")
    p.add_argument("--frozen", action="store_true",
                   help="save a memory-mappable frozen pack instead of a "
                        "rebuild-on-load .npz")
    p.add_argument("--stream", action="store_true",
                   help="external-memory build: bounded-RAM chunked sort "
                        "runs + streaming merge, emits a frozen pack "
                        "without ever holding the triple set in memory")
    p.add_argument("--chunk-triples", type=int, default=1_000_000,
                   help="scan/sort working-set bound for --stream "
                        "(default 1e6 triples)")
    p.add_argument("--workers", type=int, default=0,
                   help="build-worker processes for the streaming "
                        "path's wavelet and count passes (implies "
                        "--stream; output stays byte-identical to the "
                        "serial build)")
    p.add_argument("--shards", type=int, default=None,
                   help="emit a ready-to-serve sharded durable layout "
                        "(SHARDS.json + per-shard stores) instead of one "
                        "pack; implies --stream, serve via 'repro "
                        "shard-serve <dir> --mmap'")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="evaluate a basic graph pattern")
    p.add_argument("index")
    p.add_argument("query", help="e.g. \"?x adv ?y . Nobel win ?y\"")
    p.add_argument("--limit", type=int, default=1000)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--partial", action="store_true",
                   help="on timeout, return the solutions found so far "
                        "instead of failing")
    p.add_argument("--json", action="store_true")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map a frozen pack instead of loading it "
                        "into RAM (O(working set) memory)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="show the §4.3 evaluation plan")
    p.add_argument("index")
    p.add_argument("query")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "plan",
        help="cardinality-guided order and variable scores",
    )
    p.add_argument("index")
    p.add_argument("query")
    p.add_argument("--stats-cache", default=None,
                   help="persistent planner-statistics memo (JSON); "
                        "loaded before planning, saved after")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("path", help="regular path query from a node")
    p.add_argument("index")
    p.add_argument("expression", help="e.g. 'adv+' or '^win/nom'")
    p.add_argument("--source", required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="check index integrity (checksum + "
                                      "structural self-check)")
    p.add_argument("index")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="index statistics")
    p.add_argument("index")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="run a crash-safe dynamic store (WAL + broker) on stdin",
    )
    p.add_argument("directory", help="durable index directory")
    p.add_argument("--create", action="store_true",
                   help="initialise a fresh store instead of recovering")
    p.add_argument("--n-nodes", type=int, default=1024,
                   help="node universe size for --create")
    p.add_argument("--n-predicates", type=int, default=32,
                   help="predicate universe size for --create")
    p.add_argument("--threshold", type=int, default=64,
                   help="buffer size that triggers a freeze into a ring")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue bound; beyond it queries are shed")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-query deadline in seconds")
    p.add_argument("--maintenance-interval", type=float, default=0.05,
                   help="seconds between background compaction/checkpoint "
                        "steps")
    p.add_argument("--no-final-checkpoint", action="store_true",
                   help="skip the checkpoint normally taken on shutdown")
    p.add_argument("--cache", action="store_true",
                   help="serve repeated queries from the canonical result "
                        "cache (invalidated on every write/checkpoint) and "
                        "coalesce concurrent identical submissions")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="result-cache byte budget in MiB (with --cache)")
    p.add_argument("--mmap", action="store_true",
                   help="recover checkpointed rings memory-mapped from "
                        "their frozen packs (O(working set) RAM)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "shard-serve",
        help="run a supervised, sharded scatter-gather tier on stdin",
    )
    p.add_argument("directory", help="sharded store directory (SHARDS.json)")
    p.add_argument("--create", action="store_true",
                   help="initialise fresh durable shards instead of "
                        "recovering")
    p.add_argument("--shards", type=int, default=4,
                   help="number of subject-hash shards for --create")
    p.add_argument("--n-nodes", type=int, default=1024,
                   help="node universe size for --create")
    p.add_argument("--n-predicates", type=int, default=32,
                   help="predicate universe size for --create")
    p.add_argument("--threshold", type=int, default=64,
                   help="per-shard buffer size that triggers a freeze")
    p.add_argument("--workers", type=int, default=2,
                   help="broker worker threads per shard")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-query deadline in seconds")
    p.add_argument("--shard-timeout", type=float, default=None,
                   help="per-shard sub-query deadline in seconds")
    p.add_argument("--max-in-flight", type=int, default=8,
                   help="concurrent query cap; excess load is shed with "
                        "a typed rejection")
    p.add_argument("--supervise-interval", type=float, default=0.1,
                   help="seconds between supervisor health sweeps")
    p.add_argument("--processes", action="store_true",
                   help="run each shard replica in its own OS process "
                        "(ProcessEndpoint; crash isolation + real "
                        "kill -9 recovery)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replicas per shard partition (2 gives transparent "
                        "primary->secondary read failover)")
    p.add_argument("--no-final-checkpoint", action="store_true",
                   help="skip the per-shard checkpoint taken on shutdown")
    p.add_argument("--cache", action="store_true",
                   help="serve repeated queries from the canonical result "
                        "cache keyed on the shard-generation vector")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="result-cache byte budget in MiB (with --cache)")
    p.add_argument("--mmap", action="store_true",
                   help="recover each shard's checkpointed rings "
                        "memory-mapped from their frozen packs")
    p.set_defaults(func=cmd_shard_serve)

    p = sub.add_parser(
        "recover",
        help="replay the WAL over the latest checkpoint and report",
    )
    p.add_argument("directory", help="durable index directory")
    p.add_argument("--checkpoint", action="store_true",
                   help="fold the replayed tail into a fresh checkpoint")
    p.set_defaults(func=cmd_recover)
    return parser


def _silence_stdout() -> None:
    """Point stdout's descriptor at ``/dev/null``, so the interpreter's
    exit-time flush of what is still buffered does not hit the closed
    pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except QueryTimeout:
        print("error: query timed out", file=sys.stderr)
        raise SystemExit(EXIT_TIMEOUT) from None
    except QueryCancelled:
        print("error: query cancelled", file=sys.stderr)
        raise SystemExit(EXIT_TIMEOUT) from None
    except BrokenPipeError:
        # The reader went away (``| head -1``): not an error.
        _silence_stdout()
        raise SystemExit(0) from None
    except (
        OSError,
        NTriplesError,
        IndexIntegrityError,
        QueryExecutionError,
        ValueError,
        KeyError,
    ) as exc:
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR) from None


if __name__ == "__main__":
    main()
