"""``bulk_build``: the write path of the static index.

``bulk_build()`` streams a uniform ``.bin`` (one node per five rows, 64
predicates, eight spill runs) into a frozen pack, each build in a fresh
child process; after each build the pack is memmapped and probed with
acyclic random-walk queries.  ``graph.bulkload`` and ``core.frozen`` do the
work, the query stack almost none.  This workload carries the paper's
"almost no space" half (bytes per triple on disk and in the index) and
the out-of-core promise (the child's peak resident set): a builder
speed-up that costs space or memory shows here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import layers
import oracle
import workloads
from harness import (
    HERE, RunResult, best_latencies, child_env, fresh_dir, median, ms, percentile,
    sha256_of, timed_passes, timed_setups,
)
from wl_wgpb import LIMIT, _evaluate, _named

CHILD = HERE / "build_child.py"


def _setup(seed: int, sizes):
    out = fresh_dir("bulk_build")

    def build(rep):
        inputs = workloads.bulk_inputs(seed, sizes)
        source = out / "source.bin"
        inputs.rows.tofile(source)
        return (inputs, source, inputs.probes), 0.0

    state, setup_s, _ = timed_setups(sizes.setup_reps, build)
    return out, state, setup_s


def _child_build(source, pack, inputs, sizes) -> dict:
    done = subprocess.run(
        [sys.executable, str(CHILD), str(source), str(pack), str(inputs.n_nodes),
         str(inputs.n_predicates), str(sizes.build_chunk)],
        env=child_env(), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"build child failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


#: Share of ``--seconds`` that goes to the builds, and the seconds one
#: FULL build takes on the reference host (``harness.timed_passes``);
#: after each build the fresh pack is memmapped and probed this many
#: times, so that the probe passes lie seconds apart (see
#: ``harness.best_latencies``).
BUILD_SHARE = 0.75
BUILD_S = 1.5
PROBE_PASSES_PER_BUILD = 2


def _probe(index, probes):
    """One pass over the probes; a sample is ``(i, seconds, rows, error)``."""
    return [(i, *_evaluate(index, index.graph, query))
            for i, query in enumerate(probes)]


def _verify(result: RunResult, truth, probes, samples) -> str:
    """Check one pass of probe answers; returns their hash."""
    digests = []
    for i, _, rows, error in samples:
        result.attempted += 1
        if error is not None:
            result.fail(f"{probes[i].text}: {error}")
            continue
        rows = _named(rows)
        why = oracle.check_rows(truth, probes[i].bgp, rows, LIMIT)
        if why:
            result.fail(f"{probes[i].text}: {why}")
        digests.append(repr(sorted(sorted(r.items()) for r in rows)))
    return sha256_of("\n".join(digests))


def run(seed: int, seconds: float, sizes) -> RunResult:
    from repro.core.system import RingIndex

    result = RunResult("bulk_build")
    out, (inputs, source, probes), setup_s = _setup(seed, sizes)
    result.inputs_sha256 = inputs.sha256
    pack = out / "graph.ring"
    builds, samples = [], []
    facts = {}

    def one_build():
        builds.append(_child_build(source, pack, inputs, sizes))
        index = RingIndex.load(str(pack), mmap=True)
        if len(builds) == 1:
            _probe(index, probes[: max(len(probes) // 10, 1)])  # warm-up
        for _ in range(PROBE_PASSES_PER_BUILD):
            samples.append(_probe(index, probes))
        facts["index_bytes"] = index.size_in_bits() / 8
        return [builds[-1]["wall_s"]]

    (build_s,) = best_latencies(timed_passes(one_build, BUILD_SHARE * seconds, BUILD_S))
    passes = [[s for _, s, _, _ in one] for one in samples]
    best = best_latencies(passes)

    truth = inputs.truth()
    n_triples = builds[-1]["n_triples"]
    result.attempted += len(builds)
    if n_triples != len(truth):
        result.fail(f"pack holds {n_triples} triples, input has {len(truth)} distinct")
    result.answers_sha256 = _verify(result, truth, probes, samples[0])
    for later in samples[1:]:
        if _verify(result, truth, probes, later) != result.answers_sha256:
            result.fail("answers changed between passes")
    reads = [ms(s) for s in best]
    result.measured = {
        "setup_s": setup_s,
        "throughput_ops": len(best) / sum(best),
        "read_p50_ms": median(reads),
        "read_p90_ms": percentile(reads, 90),
        "build_ktriples_per_s": n_triples / build_s / 1e3,
        "disk_bytes_per_triple": pack.stat().st_size / n_triples,
        "index_bytes_per_triple": facts["index_bytes"] / n_triples,
        "peak_rss_mb": max(b["peak_rss_mb"] for b in builds),
    }
    result.info = {
        "rows": len(inputs.rows), "triples": n_triples, "builds": len(builds),
        "probes": len(best), "probe_passes": len(passes),
        "pack_mb": pack.stat().st_size / 2**20,
    }
    return result


def run_traced(seed: int, seconds: float, sizes, trace_path) -> RunResult:
    from repro.core.system import RingIndex
    from repro.graph.bulkload import bulk_build

    result = RunResult("bulk_build")
    out, (inputs, source, probes), _ = _setup(seed, sizes)
    result.inputs_sha256 = inputs.sha256
    truth = inputs.truth()
    pack = out / "graph.ring"
    child = _child_build(source, pack, inputs, sizes)

    t0 = time.perf_counter()
    index = RingIndex.load(str(pack), mmap=True)
    open_ms = ms(time.perf_counter() - t0)
    warm = probes[: max(len(probes) // 10, 1)]
    _probe(index, warm)
    plain_wall = sum(s for _, s, _, _ in _probe(index, probes))
    eager = RingIndex.load(str(pack), mmap=False)
    _probe(eager, warm)
    eager_wall = sum(s for _, s, _, _ in _probe(eager, probes))

    traced_pack = out / "traced.ring"
    with layers.Session("core", "build") as session:
        tracer = session.tracer
        t0 = time.perf_counter()
        with tracer.request(-2), tracer.span("graph.bulkload", "bulk_build"):
            bulk_build(
                str(source), str(traced_pack), chunk_triples=sizes.build_chunk,
                n_nodes=inputs.n_nodes, n_predicates=inputs.n_predicates, workers=0,
            )
        traced_build = time.perf_counter() - t0
        traced = []
        start = time.perf_counter()
        for i, query in enumerate(probes):
            with tracer.request(i):
                traced.append((i, *_evaluate(index, index.graph, query)))
        traced_wall = time.perf_counter() - start
        metrics = session.metrics()
    result.answers_sha256 = _verify(result, truth, probes, traced)
    if traced_pack.read_bytes() != pack.read_bytes():
        result.fail("traced in-process build differs from the child's pack")

    phases, stats = child["phases"], child["stats"]
    input_bytes = len(inputs.rows) * 24
    pack_bytes = pack.stat().st_size
    metrics.update({
        "graph.bulkload.scan_s": phases["scan"],
        "graph.bulkload.merge_s": phases["merge"],
        "graph.bulkload.wavelet_s": phases["wavelet"],
        "graph.bulkload.counts_s": phases["counts"],
        "graph.bulkload.runs_spilled": stats["runs_spilled"],
        "graph.bulkload.bytes_read_per_input_byte":
            stats["merge_bytes_read"] / input_bytes,
        "graph.bulkload.extra_pass_bytes": stats["merge_extra_pass_bytes"],
        "graph.bulkload.rss_over_pack": child["peak_rss_mb"] * 2**20 / pack_bytes,
        "core.frozen.open_ms": open_ms,
        "core.frozen.mmap_over_ram_ratio": plain_wall / eager_wall,
    })
    metrics["core.ltj.timeouts"] = sum(
        e is not None and "Timeout" in e for _, _, _, e in traced)
    session.report(result, metrics, truth.triples(), inputs.n_nodes,
                   child["wall_s"] + plain_wall, traced_build + traced_wall,
                   trace_path, seed)
    return result
