"""``serve_hot`` and ``serve_rw``: a real ``python -m repro serve``
subprocess driven over stdin/stdout by one caller waiting for each reply
(the server reads one line at a time, so that *is* its real traffic).

``serve_hot`` is read-only, Zipf-skewed, with a result cache about a
quarter of the working set: the canonicaliser, the LRU, the broker, the
line frontend and the pipe do most of the work and LTJ runs on misses
only.  ``serve_rw`` sends the cheaper of the same queries with 10 %
INSERTs and 10 % DELETEs to a cache that would fit everything: every
write is WAL-appended and fsynced, bumps the generation and so empties
the cache, fills the dynamic buffer and triggers compaction; every pass
ends with ``kill -9``, and the run with a recovery and an audit of every
acknowledged write.  A cache change that buys hit rate at the cost of
invalidation bookkeeping shows as opposite moves on the two.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

import layers
import oracle
import workloads
from harness import (
    LineServer, RunResult, best_latencies, copy_dir, dir_bytes, fresh_dir, median, ms,
    parse_rows, percentile, sha256_of, timed_passes, timed_setups,
)

HOT_CACHE_MB = 1
RW_CACHE_MB = 64  # the CLI's default
WORKERS = 2
TIMEOUT_S = 10.0
THRESHOLD = 32  # see workloads.WRITE_SHARE
#: Seconds a FULL pass of either workload takes on the reference host
#: (harness.timed_passes).
PASS_S = 1.25


def _argv(workload: str, directory) -> list[str]:
    argv = ["serve", str(directory), "--cache", "--workers", str(WORKERS),
            "--timeout", str(int(TIMEOUT_S)), "--threshold", str(THRESHOLD),
            "--no-final-checkpoint"]
    if workload == "serve_hot":
        argv += ["--cache-mb", str(HOT_CACHE_MB)]
    return argv


def _inputs(workload: str, seed: int, sizes):
    return workloads.serve_inputs(seed, sizes, writes=workload == "serve_rw")


def _create_store(inputs, directory):
    """Build the durable store; returns build seconds and bytes/triple
    of the in-memory index."""
    from repro.graph.dataset import Graph
    from repro.reliability.wal import DurableDynamicRing

    graph = Graph(inputs.triples, n_nodes=inputs.n_nodes,
                  n_predicates=inputs.n_predicates)
    t0 = time.perf_counter()
    store = DurableDynamicRing.create(str(directory), graph,
                                      buffer_threshold=THRESHOLD)
    build_s = time.perf_counter() - t0
    index_bytes = store.size_in_bits() / 8 / len(inputs.triples)
    store.close()
    return build_s, index_bytes


def _start(workload: str, seed: int, sizes):
    """One whole set-up: inputs, store, server up to ``ready``."""
    inputs = _inputs(workload, seed, sizes)
    directory = fresh_dir(f"{workload}/store")
    build_s, index_bytes = _create_store(inputs, directory)
    disk = dir_bytes(directory)
    server = LineServer(_argv(workload, directory))
    return (inputs, directory, server, index_bytes, disk), build_s


# -- verification ----------------------------------------------------------------


class Auditor:
    """Replays a request log against the oracle: every query reply is
    compared with the oracle's answer on the graph as the acknowledged
    writes before it left it."""

    def __init__(self, inputs, result: RunResult) -> None:
        self.inputs = inputs
        self.result = result
        self.store = inputs.truth()
        self.truths: dict[int, np.ndarray] = {}
        self.names = [oracle.variables(bgp) for bgp in inputs.pool]
        self.last_write: dict[tuple, bool] = {}
        self.cached = 0
        self.queries = 0

    def _truth(self, pool_id: int) -> np.ndarray:
        if pool_id not in self.truths:
            self.truths[pool_id] = oracle.solve(self.store, self.inputs.pool[pool_id])[1]
        return self.truths[pool_id]

    def _wrote(self, triple) -> None:
        # Drop the cached truth of every pool BGP a pattern of which the
        # written triple matches.
        for pool_id in list(self.truths):
            for pattern in self.inputs.pool[pool_id]:
                if all(oracle.is_var(t) or t == v for t, v in zip(pattern, triple)):
                    del self.truths[pool_id]
                    break

    def check(self, request, reply: list[str]) -> str:
        """Account one request; returns its canonical answer text."""
        result = self.result
        result.attempted += 1
        last = reply[-1].rstrip("\n")
        if request.kind == "Q":
            self.queries += 1
            if not last.startswith("-- "):
                result.fail(f"{request.line}: {last}")
                return last
            rows, trailer = parse_rows(reply)
            self.cached += trailer.endswith("(cached)")
            if int(trailer.split()[1]) != len(rows):
                result.fail(f"{request.line}: trailer disagrees with rows")
            if request.renamed:
                rows = [{request.renamed[k]: v for k, v in row.items()} for row in rows]
            why = oracle.check_rows(
                self.store, self.inputs.pool[request.pool_id], rows, None,
                truth=self._truth(request.pool_id),
            )
            if why:
                result.fail(f"{request.line}: {why}")
            names = self.names[request.pool_id]
            return repr(sorted(tuple(row.get(v) for v in names) for row in rows))
        insert = request.kind == "I"
        if last != ("ok inserted" if insert else "ok deleted"):
            result.fail(f"{request.line}: {last}")
            return last
        (self.store.insert if insert else self.store.delete)(*request.triple)
        self.last_write[request.triple] = insert
        self._wrote(request.triple)
        return last

    def check_pass(self, samples) -> str:
        """Account the samples in order; returns the hash of their
        canonical answers."""
        inputs = self.inputs
        return sha256_of("\n".join(
            self.check(inputs.requests[i], reply) for i, _, reply in samples))

    def lost_writes(self, directory) -> int:
        """Acknowledged writes whose effect the store recovered from
        ``directory`` lacks."""
        from repro.reliability.wal import DurableDynamicRing

        store, _ = DurableDynamicRing.recover(str(directory), buffer_threshold=THRESHOLD)
        try:
            lost = sum(
                store.contains(*triple) != present
                for triple, present in self.last_write.items()
            )
            if not lost and store.n_triples != len(self.store):
                self.result.fail("recovered store differs from the replayed oracle")
        finally:
            store.close()
        return lost


# -- the measured run -----------------------------------------------------------------


def _drive(server: LineServer, requests, first: int = 0):
    """Send ``requests[first:]``; a sample is ``(index, seconds, reply)``."""
    samples = []
    for i in range(first, len(requests)):
        seconds_i, reply = server.request(requests[i].line)
        samples.append((i, seconds_i, reply))
    return samples


def _measured(result: RunResult, requests, passes, first: int = 0) -> dict:
    """Throughput and latency percentiles of the pass, each position at
    its fastest over the passes."""
    best = best_latencies(passes)
    kinds = [request.kind for request in requests[first:]]
    reads = [ms(s) for s, kind in zip(best, kinds) if kind == "Q"]
    writes = [ms(s) for s, kind in zip(best, kinds) if kind != "Q"]
    result.info.update(passes=len(passes), lines=len(best), queries=len(reads),
                       measured_s=sum(map(sum, passes)))
    measured = {
        "throughput_ops": len(best) / sum(best),
        "read_p50_ms": median(reads),
        "read_p90_ms": percentile(reads, 90),
    }
    if writes:
        result.info["writes"] = len(writes)
        measured["write_p50_ms"] = median(writes)
        measured["write_p90_ms"] = percentile(writes, 90)
    return measured


def _run_hot(result: RunResult, seed: int, seconds: float, sizes) -> None:
    """Read-only: set up ``setup_reps`` times, then repeat the pass on
    the last server.  The pass's working set is several times the cache,
    so the LRU ends every pass in the same state whatever state it began
    in: after one untimed pass, every timed pass meets the same hits and
    misses at the same lines."""
    (inputs, _, server, index_bytes, disk), setup_s, build_s = timed_setups(
        sizes.setup_reps,
        lambda rep: _start("serve_hot", seed, sizes),
        teardown=lambda state: state[2].quit(),
    )
    result.inputs_sha256 = inputs.sha256
    samples = []
    try:
        _drive(server, inputs.requests)  # warm-up

        def one_pass():
            samples.append(_drive(server, inputs.requests))
            return [s for _, s, _ in samples[-1]]

        passes = timed_passes(one_pass, seconds, PASS_S)
        rss = server.peak_rss_mb()
    finally:
        server.quit()
    auditor = Auditor(inputs, result)
    result.answers_sha256 = auditor.check_pass(samples[0])
    # Later passes send the same lines to the same graph: the oracle has
    # spoken, their rows only have to repeat the first pass's.
    for later in samples[1:]:
        for (i, _, first), (_, _, reply) in zip(samples[0], later):
            result.attempted += 1
            auditor.queries += 1
            auditor.cached += reply[-1].rstrip().endswith("(cached)")
            if reply[:-1] != first[:-1] or reply[-1].split()[:2] != first[-1].split()[:2]:
                result.fail(f"{inputs.requests[i].line}: answer changed between passes")
    result.measured = _measured(result, inputs.requests, passes)
    _common(result, inputs, auditor, setup_s, build_s, index_bytes, disk, rss,
            HOT_CACHE_MB)


def _run_rw(result: RunResult, seed: int, seconds: float, sizes) -> None:
    """Read/write: every pass starts from a fresh store and server (the
    set-ups this run times), sends the warm-up lines untimed and the pass
    timed, and ends in ``kill -9``; the last pass's directory is then
    recovered and audited for every acknowledged write."""
    setups, builds, rss, digests = [], [], [], []
    kept = {}

    def one_pass():
        t0 = time.perf_counter()
        (inputs, directory, server, index_bytes, disk), build_s = _start(
            "serve_rw", seed, sizes)
        setups.append(time.perf_counter() - t0)
        builds.append(build_s)
        try:
            warm = _drive(server, inputs.requests[: sizes.rw_warm])
            timed = _drive(server, inputs.requests, sizes.rw_warm)
            rss.append(server.peak_rss_mb())
        finally:
            # A crash: recovery must find every acknowledged write in
            # the bytes fsynced before it.
            server.kill()
        auditor = Auditor(inputs, result)
        digests.append(auditor.check_pass(warm + timed))
        kept.update(inputs=inputs, auditor=auditor, directory=directory,
                    index_bytes=index_bytes, disk=disk)
        return [s for _, s, _ in timed]

    passes = timed_passes(one_pass, seconds, PASS_S)
    inputs, auditor = kept["inputs"], kept["auditor"]
    result.inputs_sha256 = inputs.sha256
    result.answers_sha256 = digests[0]
    if len(set(digests)) > 1:
        result.fail("answers changed between passes")
    lost = auditor.lost_writes(kept["directory"])
    for _ in range(lost):
        result.fail("acknowledged write lost across kill -9")
    result.measured = _measured(result, inputs.requests, passes, sizes.rw_warm)
    result.info["lost_write_share"] = lost / max(len(auditor.last_write), 1)
    _common(result, inputs, auditor, min(setups), min(builds),
            kept["index_bytes"], kept["disk"], max(rss), RW_CACHE_MB)


def _common(result, inputs, auditor, setup_s, build_s, index_bytes, disk, rss,
            cache_mb) -> None:
    n_triples = len(inputs.triples)
    result.measured.update({
        "setup_s": setup_s,
        "build_ktriples_per_s": n_triples / build_s / 1e3,
        "disk_bytes_per_triple": disk / n_triples,
        "index_bytes_per_triple": index_bytes,
        "peak_rss_mb": rss,
    })
    result.info.update({
        "triples": n_triples, "pool": len(inputs.pool),
        "cached_share": auditor.cached / max(auditor.queries, 1),
        "working_set_mb": inputs.working_set_bytes / 2**20, "cache_mb": cache_mb,
    })


def run(seed: int, seconds: float, sizes, workload: str) -> RunResult:
    result = RunResult(workload)
    (_run_rw if workload == "serve_rw" else _run_hot)(result, seed, seconds, sizes)
    return result


# -- the traced run -------------------------------------------------------------------


def _serve_in_process(directory, workload: str, requests, trace_groups=()):
    """Answer ``requests`` through the objects ``repro serve`` builds,
    in this process; with ``trace_groups`` under a
    :class:`layers.Session` entered once those objects exist (recovery
    is timed untraced).  Returns ``(samples, wall, facts, session)``."""
    from repro.__main__ import _serve_line
    from repro.cache import CachedQuerySystem
    from repro.core.interface import QueryExecutionError, QueryTimeout
    from repro.reliability.broker import QueryBroker
    from repro.reliability.wal import DurableDynamicRing

    t0 = time.perf_counter()
    store, _ = DurableDynamicRing.recover(str(directory), buffer_threshold=THRESHOLD)
    recover_s = time.perf_counter() - t0
    mb = RW_CACHE_MB if workload == "serve_rw" else HOT_CACHE_MB
    served = CachedQuerySystem(store, capacity_bytes=mb << 20)
    broker = QueryBroker(served, workers=WORKERS, queue_depth=64,
                         default_timeout=TIMEOUT_S, maintenance_interval=0.05)
    samples, components = [], []
    session = tracer = None
    try:
        with contextlib.ExitStack() as outer:
            outer.enter_context(broker)
            if trace_groups:
                session = outer.enter_context(layers.Session(*trace_groups))
                tracer = session.tracer
            start = time.perf_counter()
            for i, request in enumerate(requests):
                buffer = io.StringIO()
                if request.kind == "Q":
                    components.append(store.n_components)
                t0 = time.perf_counter()
                with contextlib.ExitStack() as stack:
                    if tracer:
                        stack.enter_context(tracer.request(i))
                        stack.enter_context(tracer.span("frontend", "_serve_line"))
                    stack.enter_context(contextlib.redirect_stdout(buffer))
                    try:
                        _serve_line(request.line, store, broker, False)
                    except QueryTimeout:
                        print("error: timeout")
                    except (QueryExecutionError, ValueError, KeyError) as exc:
                        print(f"error: {exc}")
                samples.append(
                    (i, time.perf_counter() - t0,
                     buffer.getvalue().splitlines(keepends=True))
                )
            wall = time.perf_counter() - start
            facts = {
                "recover_s": recover_s,
                "broker": broker.stats(),
                "cache": served.cache_stats()["results"],
                "components": float(np.mean(components)) if components else 0.0,
            }
    finally:
        store.close()
    return samples, wall, facts, session


def _pipe_ms(piped, plain, requests) -> float:
    """What the subprocess and its pipe add to a query: the median, over
    the QUERY lines, of (latency through the server - latency of the
    same line answered in process)."""
    return median(
        ms(a[1] - b[1]) for a, b in zip(piped, plain) if requests[a[0]].kind == "Q"
    )


def _union_overhead(directory, inputs, n: int = 40) -> float:
    """The pool's queries through the dynamic store / through a static
    ``RingIndex`` of the same triples (untraced)."""
    from repro.__main__ import _coerce_query
    from repro.core.system import RingIndex
    from repro.reliability.wal import DurableDynamicRing

    store, _ = DurableDynamicRing.recover(str(directory), buffer_threshold=THRESHOLD)
    try:
        static = RingIndex(store.to_graph())
        walls = []
        for index in (static, store):
            t0 = time.perf_counter()
            for bgp in inputs.pool[:n]:
                index.evaluate(
                    _coerce_query(workloads.bgp_text(bgp), index.graph),
                    timeout=TIMEOUT_S,
                )
            walls.append(time.perf_counter() - t0)
    finally:
        store.close()
    return walls[1] / walls[0]


def run_traced(seed: int, seconds: float, sizes, trace_path, workload: str) -> RunResult:
    result = RunResult(workload)
    rw = workload == "serve_rw"
    inputs = _inputs(workload, seed, sizes)
    result.inputs_sha256 = inputs.sha256
    template = fresh_dir(f"{workload}/template")
    _create_store(inputs, template)
    # 1. a fixed prefix of the lines to the real server on the pipe;
    requests = inputs.requests[: sizes.traced_rw if rw else sizes.traced_hot]
    piped_dir = copy_dir(template, "piped")
    server = LineServer(_argv(workload, piped_dir))
    try:
        piped = _drive(server, requests)
    finally:
        if rw:
            server.kill()
        else:
            server.quit()
    # 2. the same lines in process, untraced;  3. again, traced.
    plain, plain_wall, _, _ = _serve_in_process(
        copy_dir(template, "plain"), workload, requests)
    traced_dir = copy_dir(template, "traced")
    traced, traced_wall, facts, session = _serve_in_process(
        traced_dir, workload, requests, ("core", "store"))
    metrics = session.metrics()
    writes = [i for i, r in enumerate(requests) if r.kind != "Q"]
    if writes:
        metrics["reliability.wal.fsyncs_per_write"] = (
            session.fsyncs_in(writes) / len(writes)
        )
    auditor = Auditor(inputs, result)
    result.answers_sha256 = auditor.check_pass(traced)
    if rw:
        piped_audit = Auditor(inputs, RunResult(workload))
        piped_audit.check_pass(piped)
        lost = piped_audit.lost_writes(piped_dir)
        metrics["lost_write_share"] = lost / max(len(writes), 1)
        result.failed += lost

    metrics["transport.pipe_ms"] = _pipe_ms(piped, plain, requests)
    metrics["cache.hit_share"] = auditor.cached / max(auditor.queries, 1)
    metrics["reliability.broker.admission_hits"] = facts["broker"]["cache_hits"]
    metrics["reliability.broker.rejected"] = facts["broker"]["rejected"]
    metrics["reliability.broker.maintenance_runs"] = facts["broker"]["maintenance_runs"]
    metrics["cache.evictions"] = facts["cache"]["evictions"]
    metrics["cache.invalidated"] = facts["cache"]["invalidated"]
    metrics["core.ltj.timeouts"] = sum(
        reply[-1].startswith("error: timeout") for _, _, reply in traced)
    metrics["core.dynamic.components"] = facts["components"]
    metrics["core.dynamic.union_overhead_ratio"] = _union_overhead(traced_dir, inputs)
    metrics["reliability.wal.recover_s"] = facts["recover_s"]
    session.report(result, metrics, inputs.triples, inputs.n_nodes,
                   plain_wall, traced_wall, trace_path, seed)
    return result
