"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
metrics.  ``BENCHMARK.json`` restates it (``tests/test_registry.py`` keeps
the two in step); the README tables are written from it."""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS: dict[str, str] = {
    "wgpb_static": (
        "the 17 WGPB shapes as random-walk instances, in process on a static ring: "
        "only the succinct core (ltj, iterators, ring, wavelet matrix, bitvector) works"
    ),
    "serve_hot": (
        "read-only Zipf traffic to a repro serve subprocess, working set about 4x "
        "the result cache: canonicaliser, LRU, broker, line frontend and pipe work"
    ),
    "serve_rw": (
        "80/10/10 query/insert/delete to the same server with a cache that fits, then "
        "kill -9 and recover: WAL fsync, invalidation, dynamic buffer, compaction work"
    ),
    "shard_scatter": (
        "uncached bounded BGPs and inserts to repro shard-serve over 2 process shards: "
        "only here coordinator scatter/gather, pipe RPC and the asyncio frontend run"
    ),
    "bulk_build": (
        "out-of-core bulk_build of a uniform graph into a frozen pack in fresh child "
        "processes, then mmapped probes: the write path and the space half of the claim"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    applies: tuple[str, ...]
    meaning: str
    #: Where the metric does not apply, the driver's JSON carries this
    #: metric's value instead (the contract wants every key on every
    #: workload); the suite print-out omits it.
    mirrors: str | None = None


_ALL = tuple(WORKLOADS)

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, _ALL,
             "input generation + index/store build + server start to `ready`, "
             "fastest of the run's set-ups"),
    EndToEnd("throughput_ops", "ops/s", "higher", 0.25, _ALL,
             "operations of a pass / the sum of their latencies, one caller "
             "(bulk_build: mmapped probe queries)"),
    EndToEnd("read_p50_ms", "ms", "lower", 0.25, _ALL,
             "median latency per query / QUERY line, send to last row "
             "(bulk_build: mmapped probe queries)"),
    EndToEnd("read_p90_ms", "ms", "lower", 0.25, _ALL,
             "90th percentile of the same"),
    EndToEnd("write_p50_ms", "ms", "lower", 0.25, ("serve_rw", "shard_scatter"),
             "median latency per acknowledged INSERT/DELETE", mirrors="read_p50_ms"),
    EndToEnd("write_p90_ms", "ms", "lower", 0.25, ("serve_rw", "shard_scatter"),
             "90th percentile of the same", mirrors="read_p90_ms"),
    EndToEnd("acyclic_p50_ms", "ms", "lower", 0.25, ("wgpb_static",),
             "median over the queries of the 11 path/star shapes",
             mirrors="read_p50_ms"),
    EndToEnd("cyclic_p50_ms", "ms", "lower", 0.25, ("wgpb_static",),
             "median over the queries of the 6 triangle/square shapes",
             mirrors="read_p50_ms"),
    EndToEnd("build_ktriples_per_s", "ktriples/s", "higher", 0.25, _ALL,
             "distinct triples / fastest wall of the index build, in thousands "
             "(bulk_build: the measured builds; elsewhere the set-up's build)"),
    EndToEnd("disk_bytes_per_triple", "B", "lower", 0.01, _ALL,
             "bytes of the persisted index (pack, or store directory) / triples"),
    EndToEnd("index_bytes_per_triple", "B", "lower", 0.01, _ALL,
             "size_in_bits() / 8 / n, the paper's Table 1 unit"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.08, _ALL,
             "VmHWM of the process under test (bench process, server pid, "
             "build child)"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # "metric@workload" the layer metric is expected to move


def _layer(prefix: str, moves: str, *items) -> tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{prefix}{suffix}", unit, better, moves)
        for suffix, unit, better in items
    )


PER_LAYER: tuple[PerLayer, ...] = (
    *_layer("", "read_p50_ms@serve_hot",
            ("frontend.self_ms", "ms", "lower"),
            ("transport.pipe_ms", "ms", "lower")),
    *_layer("reliability.broker.", "read_p50_ms,throughput_ops@serve_hot",
            ("self_ms", "ms", "lower"),
            ("queue_wait_ms", "ms", "lower"),
            ("admission_hits", "count", "higher"),
            ("rejected", "count", "lower"),
            ("maintenance_runs", "count", "lower")),
    *_layer("cache.", "read_p50_ms,throughput_ops@serve_hot;read_p90_ms@serve_rw",
            ("hit_share", "ratio", "higher"),
            ("canonical.self_ms", "ms", "lower"),
            ("lookup_ms", "ms", "lower"),
            ("store_ms", "ms", "lower"),
            ("evictions", "count", "lower"),
            ("invalidated", "count", "lower"),
            ("bytes_per_row", "B", "lower")),
    *_layer("", "acyclic_p50_ms@wgpb_static",
            ("core.system.self_ms", "ms", "lower"),
            ("graph.parser.parse_ms", "ms", "lower")),
    *_layer("core.ltj.", "cyclic_p50_ms,read_p90_ms@wgpb_static",
            ("self_share", "ratio", "lower"),
            ("ops_per_row", "count", "lower"),
            ("plan_ms", "ms", "lower"),
            ("bulk_row_share", "ratio", "higher"),
            ("timeouts", "count", "lower")),
    *_layer("core.iterators.", "cyclic_p50_ms@wgpb_static",
            ("self_share", "ratio", "lower"),
            ("leap_calls", "count", "lower"),
            ("leap_us", "us", "lower"),
            ("leaps_per_row", "count", "lower"),
            ("bind_calls", "count", "lower")),
    *_layer("core.ring.", "cyclic_p50_ms@wgpb_static",
            ("self_share", "ratio", "lower"),
            ("backward_leap_calls", "count", "lower"),
            ("forward_leap_calls", "count", "lower"),
            ("memo_hit_share", "ratio", "higher")),
    *_layer("sequences.wavelet_matrix.", "cyclic_p50_ms@wgpb_static",
            ("self_share", "ratio", "lower"),
            ("calls_per_leap", "count", "lower"),
            ("batch_ops_per_call", "count", "higher")),
    *_layer("bits.bitvector.", "cyclic_p50_ms@wgpb_static",
            ("self_share", "ratio", "lower"),
            ("calls_per_leap", "count", "lower"),
            ("rank_ns", "ns", "lower"),
            ("select_ns", "ns", "lower")),
    *_layer("bits.rrr.", "index_bytes_per_triple@wgpb_static (ROADMAP item 5)",
            ("bytes_per_triple", "B", "lower"),
            ("slowdown_ratio", "ratio", "lower")),
    *_layer("core.dynamic.", "read_p90_ms,write_p90_ms@serve_rw",
            ("insert_ms", "ms", "lower"),
            ("compactions", "count", "lower"),
            ("compact_s", "s", "lower"),
            ("components", "count", "lower"),
            ("union_overhead_ratio", "ratio", "lower")),
    *_layer("reliability.wal.", "write_p50_ms@serve_rw;recover_s: setup_s@serve_hot",
            ("append_ms", "ms", "lower"),
            ("fsyncs_per_write", "count", "lower"),
            ("bytes_per_write", "B", "lower"),
            ("checkpoints", "count", "lower"),
            ("checkpoint_s", "s", "lower"),
            ("recover_s", "s", "lower")),
    *_layer("serving.", "read_p50_ms,write_p50_ms@shard_scatter",
            ("coordinator.self_ms", "ms", "lower"),
            ("coordinator.scatter_ms", "ms", "lower"),
            ("coordinator.join_ms", "ms", "lower"),
            ("coordinator.gathered_rows_per_row", "ratio", "lower"),
            ("coordinator.single_owner_share", "ratio", "higher"),
            ("coordinator.retries", "count", "lower"),
            ("process.rpc_ms", "ms", "lower"),
            ("process.rpc_calls_per_query", "count", "lower"),
            ("sharding.insert_ms", "ms", "lower"),
            ("breaker.open_events", "count", "lower")),
    *_layer("graph.bulkload.", "build_ktriples_per_s,peak_rss_mb@bulk_build",
            ("scan_s", "s", "lower"),
            ("merge_s", "s", "lower"),
            ("wavelet_s", "s", "lower"),
            ("counts_s", "s", "lower"),
            ("runs_spilled", "count", "lower"),
            ("bytes_read_per_input_byte", "ratio", "lower"),
            ("extra_pass_bytes", "B", "lower"),
            ("rss_over_pack", "ratio", "lower")),
    *_layer("core.frozen.", "read_p50_ms,setup_s@bulk_build",
            ("open_ms", "ms", "lower"),
            ("mmap_over_ram_ratio", "ratio", "lower")),
    *_layer("trace.", "none (health of the trace itself)",
            ("overhead_ratio", "ratio", "lower"),
            ("unattributed_share", "ratio", "lower")),
    # Correctness figures.  They are end-to-end, but 0 on a healthy
    # commit, and the contract admits no end-to-end metric that is 0;
    # the driver's JSON carries them as `failed` / `attempted` as well.
    *_layer("", "every workload (any failure rejects a claim)",
            ("failed_share", "ratio", "lower"),
            ("lost_write_share", "ratio", "lower")),
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def fill_end_to_end(workload: str, measured: dict[str, float]) -> dict[str, float]:
    """Every end-to-end metric for the driver's JSON: measured values
    where the metric applies, the mirrored metric's value elsewhere."""
    out = {}
    for metric in END_TO_END:
        if workload in metric.applies:
            out[metric.name] = measured[metric.name]
        else:
            out[metric.name] = measured[metric.mirrors]
    return out
