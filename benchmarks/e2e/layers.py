"""The tracing plan: which public callables of each layer get a timing
wrapper during a traced run, and how the spans fold into the per-layer
metrics of :mod:`registry`.

Layers are the program's module names.  Everything here reaches the
program through its importable names only and is undone when the
:class:`Session` exits.
"""

from __future__ import annotations

import os
import time

import numpy as np

import registry
from harness import median
from tracer import BACKGROUND, Tracer

#: The succinct core, innermost last.
CORE_LAYERS = (
    "core.ltj", "core.iterators", "core.ring",
    "sequences.wavelet_matrix", "bits.bitvector",
)


class Session:
    """One traced run: a calibrated tracer with the requested layer
    groups installed, the kernel counters on, and the observation sinks
    the metrics read."""

    def __init__(self, *groups: str) -> None:
        self.tracer = Tracer()
        self.tracer.calibrate()
        self.groups = groups
        self.ltj_stats: list[dict] = []
        self._ltj_seen = 0
        self.eval_ops = 0
        self.eval_rows = 0
        self.bulk_rows = 0
        self.ltj_leaps = 0
        self.stored_rows = 0
        self.stored_bytes = 0
        self.gathered = 0
        self.joined_rows = 0
        self.target_lists = 0
        self.single_owner = 0
        self.wal_frames: list[int] = []
        self._wal_last: dict[int, int] = {}
        self._counters = None

    def __enter__(self) -> "Session":
        from repro.perf.counters import KERNEL_COUNTERS

        self._counters = KERNEL_COUNTERS
        self._counters_were = KERNEL_COUNTERS.enabled
        KERNEL_COUNTERS.reset()
        KERNEL_COUNTERS.enabled = True
        for group in self.groups:
            getattr(self, f"_install_{group}")()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.restore()
        self._counters.enabled = self._counters_were

    # -- installation ----------------------------------------------------------

    def _install_core(self) -> None:
        from repro.bits.bitvector import BitVector
        from repro.cache import system as cache_system
        from repro.core import system as core_system
        from repro.core.iterators import RingIterator
        from repro.core.ltj import LeapfrogTrieJoin
        from repro.core.ring import Ring
        from repro.graph import parser
        from repro.sequences.wavelet_matrix import WaveletMatrix
        from repro.serving import coordinator

        tr = self.tracer
        tr.install(
            parser, "parse_bgp", "graph.parser", keep=True,
            also=[(core_system, "parse_bgp"), (cache_system, "parse_bgp"),
                  (coordinator, "parse_bgp")],
        )
        tr.install(core_system.BaseQuerySystem, "evaluate", "core.system",
                   keep=True, observe=self._saw_evaluation)

        # The engine only counts leaps and bulk rows into a caller's
        # stats dict; hand it one on every evaluation.
        evaluate = LeapfrogTrieJoin.evaluate
        sink = self.ltj_stats

        def evaluate_with_stats(engine, bgp, timeout=None, var_order=None,
                                stats=None, **more):
            if stats is None:
                stats = {}
            sink.append(stats)
            return evaluate(engine, bgp, timeout=timeout, var_order=var_order,
                            stats=stats, **more)

        tr.patch(LeapfrogTrieJoin, "evaluate", evaluate_with_stats)
        tr.install(LeapfrogTrieJoin, "evaluate", "core.ltj", "next", generator=True)
        tr.install(LeapfrogTrieJoin, "_analyse", "core.ltj", "plan")
        tr.install(LeapfrogTrieJoin, "plan_signature", "core.ltj")
        for attr in ("__init__", "count", "distinct_estimate", "leap", "bind",
                     "unbind", "values"):
            tr.install(RingIterator, attr, "core.iterators")
        tr.install(RingIterator, "solutions_bulk", "core.iterators", generator=True)
        for attr in ("backward_leap", "forward_leap", "next_value", "backward_step",
                     "attribute_range", "pattern_range", "decode_range", "lf_many",
                     "contains", "triple", "count_pattern"):
            tr.install(Ring, attr, "core.ring")
        for attr in ("__getitem__", "rank", "count", "rank_many", "count_many",
                     "select", "next_in_range", "distinct_in_range",
                     "count_distinct", "distinct_estimate", "min_in_range",
                     "extract_at", "bucket_starts", "extract"):
            tr.install(WaveletMatrix, attr, "sequences.wavelet_matrix")
        for attr in ("__getitem__", "rank1", "rank0", "select1", "select0",
                     "next_one", "rank1_many", "rank0_many", "select1_many",
                     "access_many"):
            tr.install(BitVector, attr, "bits.bitvector")

    def _install_store(self) -> None:
        """Broker, cache, dynamic ring and WAL: the ``repro serve`` stack."""
        from repro.cache import system as cache_system
        from repro.cache.result_cache import ResultCache
        from repro.core import dynamic
        from repro.reliability.broker import QueryBroker
        from repro.reliability.wal import DurableDynamicRing, WriteAheadLog
        from repro.serving import coordinator

        tr = self.tracer
        tr.install(QueryBroker, "evaluate", "reliability.broker", keep=True)
        tr.install(QueryBroker, "submit", "reliability.broker", keep=True)
        cached = cache_system.CachedQuerySystem
        tr.install(cached, "evaluate", "cache", keep=True)
        tr.install(cached, "cache_probe", "cache", keep=True)
        tr.install(cached, "_safe_serve", "cache", "lookup", keep=True)
        tr.install(cached, "_safe_store", "cache", "store", keep=True)
        tr.install(ResultCache, "store", "cache", "lru_store",
                   observe=self._saw_cache_store)
        tr.install(
            cache_system, "canonicalize", "cache.canonical", keep=True,
            also=[(coordinator, "canonicalize")],
        )
        tr.install(cache_system, "canonical_pattern", "cache.canonical")
        for attr in ("insert", "delete"):
            tr.install(dynamic.DynamicRingIndex, attr, "core.dynamic", keep=True)
        tr.install(dynamic.DynamicRingIndex, "_compact", "core.dynamic",
                   "compact", keep=True)
        tr.install(dynamic.DynamicRingIndex, "snapshot", "core.dynamic")
        for attr in ("__init__", "count", "leap", "bind", "unbind", "values"):
            tr.install(dynamic._UnionIterator, attr, "core.dynamic")
        for attr in ("insert", "delete"):
            tr.install(DurableDynamicRing, attr, "reliability.wal", keep=True)
        tr.install(WriteAheadLog, "append", "reliability.wal", keep=True,
                   observe=self._saw_wal_append)
        tr.install(DurableDynamicRing, "checkpoint", "reliability.wal", keep=True)
        tr.install(os, "fsync", "os", "fsync")

    def _install_sharded(self) -> None:
        from repro.serving.coordinator import ShardCoordinator
        from repro.serving.process import ProcessEndpoint
        from repro.serving.sharding import ShardedRingIndex

        tr = self.tracer
        tr.install(ShardCoordinator, "evaluate", "serving.coordinator", keep=True)
        tr.install(ShardCoordinator, "_scatter_gather", "serving.coordinator",
                   "scatter", keep=True)
        tr.install(ShardCoordinator, "_local_join", "serving.coordinator",
                   "join", keep=True, observe=self._saw_local_join)
        tr.install(ShardCoordinator, "_targets", "serving.coordinator",
                   "targets", observe=self._saw_targets)
        for attr in ("insert", "delete"):
            tr.install(ShardedRingIndex, attr, "serving.sharding", keep=True)
        tr.install(ProcessEndpoint, "_rpc", "serving.process", "rpc", keep=True)

        # An evaluate RPC is in flight while others are: an overlapping
        # span from the request's send to its future's completion.
        request = ProcessEndpoint._request
        clock = time.perf_counter_ns

        def timed_request(endpoint, kind, payload, transform=None):
            t0 = clock()
            future = request(endpoint, kind, payload, transform)
            future.add_done_callback(
                lambda _f: tr.async_span("serving.process", kind, t0, clock())
            )
            return future

        tr.patch(ProcessEndpoint, "_request", timed_request)

    def _install_build(self) -> None:
        from repro.core import frozen
        from repro.graph import bulkload

        tr = self.tracer
        for attr in ("_scan_source", "_run_build_tasks", "_build_wavelet_streaming",
                     "_counts_from_keys"):
            tr.install(bulkload, attr, "graph.bulkload", keep=True)
        tr.install(frozen.PackWriter, "finish", "core.frozen", keep=True)
        tr.install(
            frozen, "write_pack_manifest", "core.frozen", keep=True,
            also=[(bulkload, "write_pack_manifest")],
        )
        tr.install(frozen, "open_frozen_ring", "core.frozen", keep=True)

    # -- observation sinks -------------------------------------------------------

    def _saw_evaluation(self, args, kwargs, result) -> None:
        self.eval_rows += len(result)
        if result.budget is not None:
            self.eval_ops += result.budget.ops
        if len(self.ltj_stats) > self._ltj_seen:
            self._ltj_seen = len(self.ltj_stats)
            stats = self.ltj_stats[-1]
            self.ltj_leaps += stats.get("leaps", 0)
            if stats.get("bulk_rows", 0):
                self.bulk_rows += len(result)

    def _saw_cache_store(self, args, kwargs, result) -> None:
        from repro.cache.result_cache import estimate_entry_bytes

        rows = args[3]
        if result:
            self.stored_rows += len(rows)
            self.stored_bytes += estimate_entry_bytes(rows)

    def _saw_wal_append(self, args, kwargs, end_offset) -> None:
        last = self._wal_last.get(id(args[0]))
        if last is not None and end_offset > last:
            self.wal_frames.append(end_offset - last)
        self._wal_last[id(args[0])] = end_offset

    def _saw_local_join(self, args, kwargs, result) -> None:
        self.gathered += len(args[2])
        self.joined_rows += len(result)

    def _saw_targets(self, args, kwargs, result) -> None:
        self.target_lists += 1
        self.single_owner += len(result) == 1

    # -- folding -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this session can measure from its
        spans and sinks; the caller adds what only it knows and leaves
        the layers that did not run at 0."""
        tr = self.tracer
        fold = tr.fold()
        out = dict.fromkeys(registry.PER_LAYER_NAMES, 0.0)
        wall = fold.corrected_wall_ns()
        if not wall:
            return out

        def self_ms(layer: str) -> float:
            per_request = fold.layer_self_by_request_ns(layer)
            return median(per_request) / 1e6 if per_request else 0.0

        def span_ms(layer: str, name: str) -> float:
            durations = fold.durations_ns(layer, name)
            return median(durations) / 1e6 if durations else 0.0

        out["frontend.self_ms"] = self_ms("frontend")
        out["reliability.broker.self_ms"] = self_ms("reliability.broker")
        out["reliability.broker.queue_wait_ms"] = self._queue_wait_ms()
        out["cache.canonical.self_ms"] = self_ms("cache.canonical")
        out["cache.lookup_ms"] = span_ms("cache", "lookup")
        out["cache.store_ms"] = span_ms("cache", "store")
        if self.stored_rows:
            out["cache.bytes_per_row"] = self.stored_bytes / self.stored_rows
        out["core.system.self_ms"] = self_ms("core.system")
        out["graph.parser.parse_ms"] = self_ms("graph.parser")
        for layer in CORE_LAYERS:
            out[f"{layer}.self_share"] = fold.layer_self_ns(layer) / wall
        rows = max(self.eval_rows, 1)
        out["core.ltj.ops_per_row"] = self.eval_ops / rows
        plans = fold.calls("core.ltj", "plan")
        if plans:
            out["core.ltj.plan_ms"] = fold.total_ns("core.ltj", "plan") / plans / 1e6
        out["core.ltj.bulk_row_share"] = self.bulk_rows / rows
        leaps = fold.calls("core.iterators", "leap")
        out["core.iterators.leap_calls"] = leaps
        if leaps:
            # Inclusive of the ring/wavelet/bitvector wrappers below it:
            # comparable between commits, not an absolute cost.
            out["core.iterators.leap_us"] = max(
                fold.total_ns("core.iterators", "leap") / leaps - tr.inner_ns, 0.0
            ) / 1e3
            out["sequences.wavelet_matrix.calls_per_leap"] = (
                fold.layer_calls("sequences.wavelet_matrix") / leaps
            )
            out["bits.bitvector.calls_per_leap"] = (
                fold.layer_calls("bits.bitvector") / leaps
            )
        out["core.iterators.leaps_per_row"] = self.ltj_leaps / rows
        out["core.iterators.bind_calls"] = fold.calls("core.iterators", "bind")
        out["core.ring.backward_leap_calls"] = fold.calls("core.ring", "backward_leap")
        out["core.ring.forward_leap_calls"] = fold.calls("core.ring", "forward_leap")
        if out["core.ring.backward_leap_calls"]:
            out["core.ring.memo_hit_share"] = (
                self._counters.ops("ring.leap_memo_hit")
                / out["core.ring.backward_leap_calls"]
            )
        kernels = {
            name: k for name, k in self._counters.snapshot().items()
            if name.startswith("wavelet.")
        }
        calls = sum(k["calls"] for k in kernels.values())
        if calls:
            out["sequences.wavelet_matrix.batch_ops_per_call"] = (
                sum(k["ops"] for k in kernels.values()) / calls
            )
        out["core.dynamic.insert_ms"] = span_ms("core.dynamic", "insert")
        out["core.dynamic.compactions"] = fold.calls("core.dynamic", "compact")
        out["core.dynamic.compact_s"] = fold.total_ns("core.dynamic", "compact") / 1e9
        out["reliability.wal.append_ms"] = span_ms("reliability.wal", "append")
        if self.wal_frames:
            out["reliability.wal.bytes_per_write"] = median(self.wal_frames)
        out["reliability.wal.checkpoints"] = fold.calls("reliability.wal", "checkpoint")
        out["reliability.wal.checkpoint_s"] = (
            fold.total_ns("reliability.wal", "checkpoint") / 1e9
        )
        out["serving.coordinator.self_ms"] = self_ms("serving.coordinator")
        out["serving.coordinator.scatter_ms"] = span_ms("serving.coordinator", "scatter")
        out["serving.coordinator.join_ms"] = span_ms("serving.coordinator", "join")
        if self.joined_rows:
            out["serving.coordinator.gathered_rows_per_row"] = (
                self.gathered / self.joined_rows
            )
        if self.target_lists:
            out["serving.coordinator.single_owner_share"] = (
                self.single_owner / self.target_lists
            )
        rpcs = [e - s for _, layer, name, s, e in tr.async_spans
                if layer == "serving.process" and name == "evaluate"]
        if rpcs:
            out["serving.process.rpc_ms"] = median(rpcs) / 1e6
        queries = fold.calls("serving.coordinator", "evaluate")
        if queries:
            out["serving.process.rpc_calls_per_query"] = len(rpcs) / queries
        out["serving.sharding.insert_ms"] = span_ms("serving.sharding", "insert")
        root = fold.by_callable.get(("request", "request"))
        if root:
            out["trace.unattributed_share"] = tr.corrected_self_ns(root) / wall
        return out

    def report(self, result, metrics: dict, triples: np.ndarray, n_nodes: int,
               plain_wall: float, traced_wall: float, trace_path, seed: int) -> None:
        """What every traced run ends with: the untraced bitvector
        micro on the workload's own bits, the trace's overhead, the
        shares, and the trace file."""
        rank_ns, select_ns = bitvector_micro(triples, n_nodes)
        metrics["bits.bitvector.rank_ns"] = rank_ns
        metrics["bits.bitvector.select_ns"] = select_ns
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        metrics["failed_share"] = result.failed / max(result.attempted, 1)
        result.layers = metrics
        result.info = {"traced_requests": result.attempted, "untraced_s": plain_wall,
                       "traced_s": traced_wall, **self.shares()}
        self.tracer.write(trace_path, {"workload": result.workload, "seed": seed})

    def fsyncs_in(self, request_ids) -> int:
        """``os.fsync`` calls made while the given requests ran."""
        fold = self.tracer.fold()
        return sum(
            fold.by_request.get(rid, {}).get("os", [0])[0] for rid in request_ids
        )

    def shares(self) -> dict[str, float]:
        """Where the requests' wall time went: every layer's self share
        (they add up to 1), the succinct core's sum, and the core's share
        of the median request — printed beside the metrics."""
        fold = self.tracer.fold()
        wall = fold.corrected_wall_ns()
        layers_seen = sorted({
            layer for rid in fold.requests() for layer in fold.by_request[rid]
        })
        out = {
            f"share.{layer}": fold.layer_self_ns(layer) / wall for layer in layers_seen
        }
        out["core_share"] = sum(out.get(f"share.{layer}", 0.0) for layer in CORE_LAYERS)
        out["core_share_of_median_request"] = self.core_share_of_median_request()
        return out

    def core_share_of_median_request(self) -> float:
        """The same share request by request, then the median: what the
        core costs the *typical* request (0 when most are cache hits)."""
        fold = self.tracer.fold()
        fix = self.tracer.corrected_self_ns
        shares = []
        for rid in fold.requests():
            cells = fold.by_request[rid]
            total = sum(fix(cell) for cell in cells.values())
            core = sum(fix(cells[layer]) for layer in CORE_LAYERS if layer in cells)
            shares.append(core / total if total else 0.0)
        return median(shares)

    def _queue_wait_ms(self) -> float:
        """Median time from the broker's enqueue (end of ``submit``) to
        the start of the worker's evaluation, over the requests that
        reached a worker."""
        submitted: dict[int, int] = {}
        started: dict[int, int] = {}
        for _, rid, layer, name, t0, t1, _ in self.tracer.spans:
            if rid == BACKGROUND:
                continue
            if layer == "reliability.broker" and name == "submit":
                submitted[rid] = t1
            elif layer == "cache" and name == "evaluate":
                started.setdefault(rid, t0)
        waits = [
            max(started[rid] - submitted[rid], 0) for rid in started if rid in submitted
        ]
        return median(waits) / 1e6 if waits else 0.0


def bitvector_micro(triples: np.ndarray, n_nodes: int, calls: int = 20_000):
    """Untraced ``(rank_ns, select_ns)`` of the program's bitvector on a
    bit pattern of the workload's own data (the top bit of the object
    column, what the first wavelet level stores)."""
    from repro.bits.bitvector import BitVector

    bits = triples[:, 2] * 2 >= n_nodes
    bv = BitVector.from_bool_array(bits)
    ones = max(int(bits.sum()), 1)
    rng = np.random.default_rng(0)
    positions = rng.integers(0, len(bits) + 1, calls).tolist()
    ranks = rng.integers(1, ones + 1, calls).tolist()
    rank1, select1 = bv.rank1, bv.select1
    t0 = time.perf_counter_ns()
    for i in positions:
        rank1(i)
    t1 = time.perf_counter_ns()
    for k in ranks:
        select1(k)
    t2 = time.perf_counter_ns()
    return (t1 - t0) / calls, (t2 - t1) / calls
