"""``shard_scatter``: ``python -m repro shard-serve DIR --processes`` over
a 2-shard durable layout, one caller, no cache.

Bounded BGPs, each asked once per pass, a quarter of them with a
constant subject (routed to the one shard that owns it, the rest scatter
to both), with INSERTs of fresh triples interleaved.  The only
workload where ``serving.coordinator`` (scatter, gather, local join),
``serving.process`` (pipe RPC), ``serving.sharding`` and the asyncio
``serving.frontend`` run; the ring itself does little: a query costs
~0.1 ms per triple the coordinator gathers, and that cost is the
coordinator's.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

import layers
import workloads
from harness import (
    LineServer, RunResult, copy_dir, dir_bytes, fresh_dir, one_cpu, timed_passes,
)
from wl_serve import TIMEOUT_S, WORKERS, Auditor, _drive, _measured, _pipe_ms

N_SHARDS = 2
THRESHOLD = 64  # the CLI's default; a pass's INSERTs stay below it
#: Seconds a FULL pass takes on the reference host (harness.timed_passes).
PASS_S = 1.6


def _argv(directory) -> list[str]:
    return ["shard-serve", str(directory), "--processes", "--workers", str(WORKERS),
            "--timeout", str(int(TIMEOUT_S)), "--no-final-checkpoint"]


def _create_layout(inputs, directory):
    """Write the 2-shard durable layout; returns build seconds and the
    shards' summed index bytes per triple."""
    from repro.graph.dataset import Graph
    from repro.serving import ShardedRingIndex

    graph = Graph(inputs.triples, n_nodes=inputs.n_nodes,
                  n_predicates=inputs.n_predicates)
    t0 = time.perf_counter()
    shards = ShardedRingIndex.create_durable(
        str(directory), graph, N_SHARDS, buffer_threshold=THRESHOLD,
        broker_options={"workers": WORKERS},
    )
    build_s = time.perf_counter() - t0
    bits = sum(ep.engine.size_in_bits() for ep in shards.endpoints)
    # create() already checkpointed the initial triples.
    shards.shutdown(checkpoint=False)
    return build_s, bits / 8 / len(inputs.triples)


def _check_complete(result: RunResult, samples, requests) -> None:
    """A degraded (partial) answer is a failed request here: no shard
    is ever killed, so every trailer must say ``complete``."""
    for i, _, reply in samples:
        if requests[i].kind == "Q" and reply[-1].startswith("-- ") \
                and "[complete;" not in reply[-1]:
            result.fail(f"{requests[i].line}: {reply[-1].strip()}")


def run(seed: int, seconds: float, sizes) -> RunResult:
    """Every pass starts from a fresh layout and server (the set-ups
    this run times): the INSERTs change what later queries see."""
    result = RunResult("shard_scatter")
    setups, builds, rss, digests = [], [], [], []
    kept = {}

    def one_pass():
        t0 = time.perf_counter()
        inputs = workloads.shard_inputs(seed, sizes)
        directory = fresh_dir("shard_scatter/layout")
        build_s, index_bytes = _create_layout(inputs, directory)
        disk = dir_bytes(directory)
        server = LineServer(_argv(directory), pin=True)
        setups.append(time.perf_counter() - t0)
        builds.append(build_s)
        requests = inputs.requests
        try:
            for request in requests[: len(requests) // 10]:  # warm-up, queries only
                if request.kind == "Q":
                    server.request(request.line)
            samples = _drive(server, requests)
            rss.append(server.peak_rss_mb())
        finally:
            server.quit()
        digests.append(Auditor(inputs, result).check_pass(samples))
        _check_complete(result, samples, requests)
        kept.update(inputs=inputs, index_bytes=index_bytes, disk=disk)
        return [s for _, s, _ in samples]

    passes = timed_passes(one_pass, seconds, PASS_S)
    inputs = kept["inputs"]
    result.inputs_sha256 = inputs.sha256
    result.answers_sha256 = digests[0]
    if len(set(digests)) > 1:
        result.fail("answers changed between passes")
    n_triples = len(inputs.triples)
    result.measured = {
        **_measured(result, inputs.requests, passes),
        "setup_s": min(setups),
        "build_ktriples_per_s": n_triples / min(builds) / 1e3,
        "disk_bytes_per_triple": kept["disk"] / n_triples,
        "index_bytes_per_triple": kept["index_bytes"],
        "peak_rss_mb": max(rss),
    }
    result.info.update(triples=n_triples, pool=len(inputs.pool))
    return result


def _serve_in_process(directory, requests, trace_groups=()):
    """Answer ``requests`` through the objects ``repro shard-serve
    --processes`` builds, in this process (the shard workers stay
    processes of their own).  With ``trace_groups`` the requests run
    under a :class:`layers.Session`, entered only after the shard
    processes exist: they are forked, and a fork taken under the
    wrappers would trace (and slow) the workers too.  Returns
    ``(samples, wall, facts, session)``."""
    from repro.serving import (
        ShardCoordinator, ShardedRingIndex, ShardFrontend, ShardSupervisor,
    )

    shards = ShardedRingIndex.recover(
        str(directory), buffer_threshold=THRESHOLD,
        broker_options={"workers": WORKERS}, processes=True,
    )
    coordinator = ShardCoordinator(shards)
    supervisor = ShardSupervisor(shards, interval=0.1)
    frontend = ShardFrontend(coordinator, supervisor=supervisor, max_in_flight=8,
                             default_timeout=TIMEOUT_S, decode=False)
    loop = asyncio.new_event_loop()
    samples = []
    session = tracer = None
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(supervisor)
            if trace_groups:
                session = stack.enter_context(layers.Session(*trace_groups))
                tracer = session.tracer
            start = time.perf_counter()
            for i, request in enumerate(requests):
                t0 = time.perf_counter()
                if tracer:
                    with tracer.request(i), tracer.span("frontend", "handle_line"):
                        _, lines = loop.run_until_complete(
                            frontend.handle_line(request.line))
                else:
                    _, lines = loop.run_until_complete(
                        frontend.handle_line(request.line))
                samples.append((i, time.perf_counter() - t0,
                                [line + "\n" for line in lines]))
            wall = time.perf_counter() - start
        facts = {
            "retries": coordinator.stats()["retries"],
            "open_events": sum(
                b.stats()["opened"] + b.stats()["reopened"]
                for b in coordinator.breakers
            ),
        }
    finally:
        loop.close()
        shards.shutdown(checkpoint=False)
    return samples, wall, facts, session


def run_traced(seed: int, seconds: float, sizes, trace_path) -> RunResult:
    result = RunResult("shard_scatter")
    inputs = workloads.shard_inputs(seed, sizes)
    result.inputs_sha256 = inputs.sha256
    template = fresh_dir("shard_scatter/template")
    _create_layout(inputs, template)
    requests = inputs.requests[: sizes.traced_shard]
    server = LineServer(_argv(copy_dir(template, "piped")), pin=True)
    try:
        piped = _drive(server, requests)
    finally:
        server.quit()
    # Coordinator and workers on one CPU, as behind the pinned server.
    with one_cpu():
        plain, plain_wall, _, _ = _serve_in_process(
            copy_dir(template, "plain"), requests)
        traced, traced_wall, facts, session = _serve_in_process(
            copy_dir(template, "traced"), requests, ("core", "store", "sharded"))
    metrics = session.metrics()
    result.answers_sha256 = Auditor(inputs, result).check_pass(traced)
    _check_complete(result, traced, requests)

    metrics["transport.pipe_ms"] = _pipe_ms(piped, plain, requests)
    metrics["serving.coordinator.retries"] = facts["retries"]
    metrics["serving.breaker.open_events"] = facts["open_events"]
    metrics["core.ltj.timeouts"] = sum(
        reply[-1].startswith("error: timeout") for _, _, reply in traced)
    session.report(result, metrics, inputs.triples, inputs.n_nodes,
                   plain_wall, traced_wall, trace_path, seed)
    return result
