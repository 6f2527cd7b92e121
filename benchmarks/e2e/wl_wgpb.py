"""``wgpb_static``: the paper's Table 1 regime.

Random-walk instances of the 17 WGPB shapes (five of each acyclic shape,
two of each cyclic one), limit 1000, timeout 10 s, evaluated in process
by ``RingIndex(graph).evaluate``.  ``core.ltj`` ->
``core.iterators`` -> ``core.ring`` -> ``sequences.wavelet_matrix`` ->
``bits.bitvector`` do nearly all of the work; cache, broker, WAL, serving
and builder do none — so this is where a faster join must show, and
where a cache or frontend change must show nothing.
"""

from __future__ import annotations

import time

import layers
import oracle
import workloads
from harness import (
    RunResult, best_latencies, fresh_dir, median, ms, peak_rss_mb, percentile,
    sha256_of, timed_passes, timed_setups,
)

LIMIT = 1000
TIMEOUT_S = 10.0
#: Seconds a FULL pass takes on the reference host (harness.timed_passes).
PASS_S = 3.5


def _setup(seed, sizes):
    from repro.core.system import RingIndex
    from repro.graph.dataset import Graph

    out = fresh_dir("wgpb_static")

    def build(rep):
        inputs = workloads.wgpb_inputs(seed, sizes)
        graph = Graph(inputs.triples, n_nodes=inputs.n_nodes,
                      n_predicates=inputs.n_predicates)
        t0 = time.perf_counter()
        index = RingIndex(graph)
        build_s = time.perf_counter() - t0
        pack = out / f"ring-{rep}.ring"
        index.save_frozen(str(pack))
        return (inputs, graph, index, pack), build_s

    return timed_setups(sizes.setup_reps, build)


def _evaluate(index, graph, query):
    """One query as a caller issues it: text in, rows out."""
    from repro.__main__ import _coerce_query
    from repro.core.interface import QueryError

    # Every query starts with an empty leap memo, as if asked once: the
    # benchmark repeats its query list, and a repeat that finds its own
    # leaps memoised would be timed by where it fell in the seed's order.
    index.ring.clear_leap_memo()
    t0 = time.perf_counter()
    try:
        rows = index.evaluate(
            _coerce_query(query.text, graph), limit=LIMIT, timeout=TIMEOUT_S
        )
        error = None
    except QueryError as exc:
        rows, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rows, error


def _named(rows) -> list[dict]:
    return [{f"?{var.name}": value for var, value in row.items()} for row in rows]


def _verify(result: RunResult, inputs, samples) -> None:
    """Check every sample: the first answer of each query against the
    oracle; repeats arrive as ``True``/``False``, already compared with
    that first answer (see :func:`run`)."""
    store = inputs.truth()
    digests = []
    for qid, _, rows, error in samples:
        result.attempted += 1
        if error is not None:
            result.fail(f"{inputs.queries[qid].text}: {error}")
        elif isinstance(rows, bool):
            if not rows:
                result.fail(f"{inputs.queries[qid].text}: answer changed between passes")
        else:
            rows = _named(rows)
            why = oracle.check_rows(store, inputs.queries[qid].bgp, rows, LIMIT)
            if why:
                result.fail(f"{inputs.queries[qid].text}: {why}")
            digests.append(f"{qid}:" + repr(sorted(sorted(r.items()) for r in rows)))
    result.answers_sha256 = sha256_of("\n".join(sorted(digests)))


def run(seed: int, seconds: float, sizes) -> RunResult:
    result = RunResult("wgpb_static")
    (inputs, graph, index, pack), setup_s, build_s = _setup(seed, sizes)
    result.inputs_sha256 = inputs.sha256
    queries = inputs.queries
    n = len(queries)
    for query in queries[: max(n // 10, 1)]:  # warm-up: 10 % of the inputs
        _evaluate(index, graph, query)

    samples = []

    def one_pass():
        latencies = []
        for i, query in enumerate(queries):
            seconds_i, rows, error = _evaluate(index, graph, query)
            if len(samples) >= n and error is None:
                # Keep one answer per query (peak_rss_mb must not grow
                # with the number of passes); later ones only say
                # whether they repeat it.
                rows = list(rows) == list(samples[i][2])
            samples.append((i, seconds_i, rows, error))
            latencies.append(seconds_i)
        return latencies

    passes = timed_passes(one_pass, seconds, PASS_S)
    rss = peak_rss_mb()
    _verify(result, inputs, samples)
    best = best_latencies(passes)

    def lat(pick):
        return [ms(s) for query, s in zip(queries, best) if pick(query)]

    n_triples = len(inputs.triples)
    reads = lat(lambda q: True)
    result.measured = {
        "setup_s": setup_s,
        "throughput_ops": n / sum(best),
        "read_p50_ms": median(reads),
        "read_p90_ms": percentile(reads, 90),
        "acyclic_p50_ms": median(lat(lambda q: not q.cyclic)),
        "cyclic_p50_ms": median(lat(lambda q: q.cyclic)),
        "build_ktriples_per_s": n_triples / build_s / 1e3,
        "disk_bytes_per_triple": pack.stat().st_size / n_triples,
        "index_bytes_per_triple": index.size_in_bits() / 8 / n_triples,
        "peak_rss_mb": rss,
    }
    result.info = {
        "triples": n_triples, "queries": n, "passes": len(passes),
        "acyclic_queries": len(lat(lambda q: not q.cyclic)),
        "cyclic_queries": len(lat(lambda q: q.cyclic)),
        "measured_s": sum(map(sum, passes)),
    }
    return result


def _rrr_baseline(graph, queries, plain_index):
    """C-Ring against Ring on a fixed acyclic subsample (untraced): the
    baseline ROADMAP item 5 starts from."""
    from repro.core.system import CompressedRingIndex

    compressed = CompressedRingIndex(graph)
    subsample = [q for q in queries if not q.cyclic][:20]
    walls = []
    for index in (plain_index, compressed):
        t0 = time.perf_counter()
        for query in subsample:
            _evaluate(index, graph, query)
        walls.append(time.perf_counter() - t0)
    return (
        compressed.size_in_bits() / 8 / graph.n_triples,
        walls[1] / walls[0],
    )


def run_traced(seed: int, seconds: float, sizes, trace_path) -> RunResult:
    result = RunResult("wgpb_static")
    (inputs, graph, index, _), _, _ = _setup(seed, sizes)
    result.inputs_sha256 = inputs.sha256
    queries = inputs.queries
    for query in queries[: max(len(queries) // 10, 1)]:
        _evaluate(index, graph, query)

    # A fixed part of the seed's shuffled list, untraced then traced:
    # its first cyclic queries (a quarter of the subset) and its first
    # acyclic ones.
    n_cyclic = sizes.traced_wgpb // 4
    subset = (
        [i for i, q in enumerate(queries) if q.cyclic][:n_cyclic]
        + [i for i, q in enumerate(queries) if not q.cyclic][
            : sizes.traced_wgpb - n_cyclic]
    )
    t0 = time.perf_counter()
    for i in subset:
        _evaluate(index, graph, queries[i])
    plain_wall = time.perf_counter() - t0
    traced = []
    timeouts = 0
    with layers.Session("core") as session:
        t0 = time.perf_counter()
        for i in subset:
            with session.tracer.request(i):
                sample = _evaluate(index, graph, queries[i])
            traced.append((i, *sample))
            timeouts += sample[2] is not None and "Timeout" in sample[2]
        traced_wall = time.perf_counter() - t0
        metrics = session.metrics()
    _verify(result, inputs, traced)
    metrics["core.ltj.timeouts"] = timeouts
    (metrics["bits.rrr.bytes_per_triple"],
     metrics["bits.rrr.slowdown_ratio"]) = _rrr_baseline(graph, queries, index)
    session.report(result, metrics, inputs.triples, inputs.n_nodes,
                   plain_wall, traced_wall, trace_path, seed)
    return result
