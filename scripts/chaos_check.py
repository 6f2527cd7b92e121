#!/usr/bin/env python
"""Chaos check: queries under random injected faults, no silent lies.

Runs a fixed workload of example queries against a ring index while a
seeded mix of faults (latency, dropped probability, hard errors) is
injected into the succinct hot paths.  Each run must end in exactly one
of the allowed outcomes:

- **correct** — results identical to the fault-free reference;
- **typed failure** — ``QueryTimeout`` / ``QueryCancelled`` /
  ``QueryExecutionError`` / ``IndexIntegrityError``;
- **truncated** — with ``partial=True``, a flagged prefix of the
  reference (never rows outside it).

Anything else — a wrong answer, an extra row, an unexpected exception
type — is a chaos failure and the script exits non-zero.

Two **durability drills** then attack the crash-safe dynamic ring
(:mod:`repro.reliability.wal`):

- **crash-at-site** — arm ``wal.append`` / ``wal.fsync`` /
  ``checkpoint.write`` / ``dynamic.compact`` mid-workload, copy the
  directory as a crash image, recover it, and assert the recovered
  state is *exactly* the acknowledged state before or after the faulted
  operation (never a third, partial state), with the LTJ answer
  matching an independent component scan;
- **kill-at-offset** — truncate the WAL at random byte offsets and
  assert recovery lands on the exact acknowledged prefix (or fails
  loudly with a typed error when the header itself is gone).

A **cache drill** finally attacks the serving cache
(:mod:`repro.cache`): armed ``cache.lookup``/``cache.store`` faults,
in-place entry corruption, and random entry drops must all degrade to
normal evaluation — answers stay exactly right, only the hit-rate may
suffer.

A **process drill** attacks the process-isolated serving tier
(:mod:`repro.serving.process` / :mod:`repro.serving.replica`): genuine
``kill -9`` of a live primary shard *process* mid-query must — with two
replicas — fail over transparently to a complete, byte-identical answer
(``ShardReport.failovers`` names the shard); with one replica the same
kill degrades to the flagged-partial contract; SIGTERM must drain
in-flight queries, checkpoint, and exit 0; and the ``proc.spawn`` /
``proc.heartbeat`` / ``replica.failover`` fault sites, and
``shard.restart`` on a replicated shard, must each degrade to counted
failures, never wrong answers.

An **out-of-core drill** attacks the external-memory builder and the
memmapped pack reader (:mod:`repro.graph.bulkload` /
:mod:`repro.core.frozen`): crashes armed at ``build.spill`` /
``build.merge`` must surface as typed ``BulkBuildError`` with *no*
partial pack on disk and a byte-identical pack on unfaulted retry; a
failing ``mmap.open`` must be a typed ``IndexIntegrityError`` refusal,
never a half-mapped ring.

Run it as::

    PYTHONPATH=src python scripts/chaos_check.py [--rounds 40] [--seed 0]
    PYTHONPATH=src python scripts/chaos_check.py --json chaos.json \
        --drills process-shards

``--json`` writes a machine-readable summary (per-drill pass/fail,
seeds, fault sites, failure messages); the exit code is nonzero when
any selected drill fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.core import (
    QueryCancelled,
    QueryExecutionError,
    QueryTimeout,
    RingIndex,
)
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.dataset import Graph
from repro.graph.generators import random_graph
from repro.reliability.faults import Fault, InjectedFault, available_sites, inject_faults
from repro.reliability.integrity import IndexIntegrityError
from repro.reliability.wal import HEADER_SIZE, WAL_FILE, DurableDynamicRing

X, Y, Z = Var("x"), Var("y"), Var("z")

WORKLOAD = [
    ("single", BasicGraphPattern([TriplePattern(X, 0, Y)])),
    (
        "two-hop",
        BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z)]),
    ),
    (
        "triangle",
        BasicGraphPattern(
            [
                TriplePattern(X, 0, Y),
                TriplePattern(Y, 0, Z),
                TriplePattern(Z, 0, X),
            ]
        ),
    ),
    (
        "star",
        BasicGraphPattern([TriplePattern(X, 0, Y), TriplePattern(X, 1, Z)]),
    ),
]

# Sites worth randomly arming; I/O sites are exercised separately by the
# integrity tests, and latency there would not be seen by a query.
QUERY_SITES = [
    "wavelet.rank",
    # Every leapfrog bind's LF step, and the lockstep descent that binds
    # and intersects the backward iterators of a variable.
    "wavelet.rank_pair",
    "wavelet.intersect_ranges",
    # The same descent batched over a block of bindings.
    "wavelet.intersect_ranges_many",
    "wavelet.select",
    "wavelet.range_next_value",
    "wavelet.access",
    "bitvector.access",
    "bitvector.rank",
    "bitvector.select",
    # Batch kernels: the default engine routes lonely-variable ranges
    # and single-iterator sweeps through these, so chaos must arm them
    # too or the fast path would run fault-free.
    "bitvector.rank_many",
    "bitvector.select_many",
    "bitvector.access_many",
    "wavelet.rank_many",
    "wavelet.extract_at",
]

ALLOWED_ERRORS = (
    QueryTimeout,
    QueryCancelled,
    QueryExecutionError,
    IndexIntegrityError,
)


def random_faults(rng: random.Random) -> list[Fault]:
    """A random (but reproducible) fault mix for one round."""
    faults = []
    for site in rng.sample(QUERY_SITES, k=rng.randint(1, 3)):
        kind = rng.choice(["latency", "error", "flaky-error"])
        if kind == "latency":
            faults.append(
                Fault(site, probability=rng.uniform(0.05, 1.0),
                      latency=rng.uniform(0.0001, 0.002))
            )
        elif kind == "error":
            faults.append(Fault(site, probability=1.0, error=InjectedFault))
        else:
            faults.append(
                Fault(site, probability=rng.uniform(0.01, 0.3),
                      error=InjectedFault)
            )
    return faults


def run(rounds: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    graph = random_graph(600, n_nodes=30, n_predicates=2, seed=5)
    index = RingIndex(graph)

    print(f"chaos check: {rounds} rounds over {len(WORKLOAD)} queries, "
          f"seed {seed}, sites: {', '.join(available_sites())}")

    # Fault-free reference answers (and sanity that they are non-empty).
    reference = {
        name: {frozenset(mu.items()) for mu in index.evaluate(bgp)}
        for name, bgp in WORKLOAD
    }
    assert all(reference.values()), "workload queries must have solutions"

    outcomes = {"correct": 0, "typed-failure": 0, "truncated": 0}
    failures: list[str] = []

    for round_no in range(rounds):
        name, bgp = WORKLOAD[round_no % len(WORKLOAD)]
        faults = random_faults(rng)
        partial = rng.random() < 0.5
        timeout = rng.choice([None, 0.02, 0.1])
        label = (
            f"round {round_no:3d} {name:8s} "
            f"[{', '.join(f.site for f in faults)}] "
            f"timeout={timeout} partial={partial}"
        )
        try:
            with inject_faults(*faults, seed=rng.randrange(2**31)):
                result = index.evaluate(bgp, timeout=timeout, partial=partial)
        except ALLOWED_ERRORS as exc:
            outcomes["typed-failure"] += 1
            print(f"  {label}: {type(exc).__name__}")
            continue
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
            print(f"  {label}: UNEXPECTED {type(exc).__name__}")
            continue

        rows = {frozenset(mu.items()) for mu in result}
        if not rows <= reference[name]:
            bogus = len(rows - reference[name])
            failures.append(f"{label}: {bogus} row(s) not in the reference")
            print(f"  {label}: WRONG ANSWER ({bogus} bogus rows)")
        elif getattr(result, "truncated", False):
            outcomes["truncated"] += 1
            print(f"  {label}: truncated prefix ({len(rows)} rows)")
        elif rows == reference[name]:
            outcomes["correct"] += 1
            print(f"  {label}: correct ({len(rows)} rows)")
        else:
            # Complete (unflagged) but missing rows: a silent lie.
            failures.append(
                f"{label}: result not flagged truncated but misses "
                f"{len(reference[name]) - len(rows)} row(s)"
            )
            print(f"  {label}: SILENTLY INCOMPLETE")

    print(
        f"\noutcomes: {outcomes['correct']} correct, "
        f"{outcomes['typed-failure']} typed failures, "
        f"{outcomes['truncated']} truncated prefixes, "
        f"{len(failures)} chaos failures"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return failures


# -- durability drills (crash-safe dynamic ring) ------------------------------

#: Fault sites in the WAL/checkpoint/compaction protocol; each is killed
#: mid-operation and the crash image must recover to before-or-after.
DYNAMIC_SITES = ["wal.append", "wal.fsync", "checkpoint.write", "dynamic.compact"]

_N_NODES, _N_PREDICATES = 40, 3


def _fresh_store(directory: str) -> DurableDynamicRing:
    universe = Graph(
        np.empty((0, 3), dtype=np.int64),
        n_nodes=_N_NODES,
        n_predicates=_N_PREDICATES,
    )
    return DurableDynamicRing.create(directory, universe, buffer_threshold=16)


def _random_op(rng: random.Random, acked: set) -> tuple:
    if acked and rng.random() < 0.3:
        return ("delete", rng.choice(sorted(acked)))
    return (
        "insert",
        (
            rng.randrange(_N_NODES),
            rng.randrange(_N_PREDICATES),
            rng.randrange(_N_NODES),
        ),
    )


def _next_state(acked: set, op: tuple) -> set:
    verb, triple = op
    state = set(acked)
    (state.add if verb == "insert" else state.discard)(triple)
    return state


def _crash_image(workdir: str, dest: str) -> str:
    """What a crash would leave on disk: copy, ignoring in-memory state."""
    shutil.copytree(workdir, dest)
    return dest


def _recover_and_scan(directory: str) -> set:
    """Recover a crash image; cross-check LTJ against a component scan.

    Returns the recovered live-triple set.  Raises ``AssertionError``
    if the LTJ engine's full-scan answer disagrees with the snapshot's
    independent component walk — the silent-partial-state detector.
    """
    store, _report = DurableDynamicRing.recover(directory)
    try:
        live = set(store.index.snapshot().live_triples())
        pv = Var("p")
        rows = store.evaluate(BasicGraphPattern([TriplePattern(X, pv, Y)]))
        ltj = {(mu[X], mu[pv], mu[Y]) for mu in rows}
        assert ltj == live, (
            f"LTJ scan ({len(ltj)} rows) disagrees with component scan "
            f"({len(live)} rows) after recovery"
        )
        return live
    finally:
        store.close()


def drill_crash_sites(rounds: int, seed: int) -> list[str]:
    """Kill the durability protocol at each site; recovery must land on
    the acknowledged state just before or just after the faulted op."""
    rng = random.Random(seed)
    failures: list[str] = []
    print(f"\ndurability drill A: crash at {', '.join(DYNAMIC_SITES)}")
    for round_no in range(rounds):
        site = DYNAMIC_SITES[round_no % len(DYNAMIC_SITES)]
        base = tempfile.mkdtemp(prefix="chaos-dyn-")
        workdir = os.path.join(base, "store")
        label = f"  drill {round_no:3d} {site:18s}"
        try:
            store = _fresh_store(workdir)
            acked: set = set()
            for _ in range(rng.randint(5, 40)):
                op = _random_op(rng, acked)
                getattr(store, op[0])(*op[1])
                acked = _next_state(acked, op)
            if rng.random() < 0.5:
                store.checkpoint()

            before = set(acked)
            after = set(acked)  # site-only faults leave the state alone
            op = _random_op(rng, acked) if site.startswith("wal.") else None
            fault = Fault(site, probability=1.0, error=InjectedFault,
                          max_fires=1)
            fired = False
            try:
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    if op is not None:
                        getattr(store, op[0])(*op[1])
                    elif site == "checkpoint.write":
                        store.checkpoint()
                    else:  # dynamic.compact
                        store.index.compact(full=True)
            except InjectedFault:
                fired = True
                if op is not None:
                    # The op was cut down mid-protocol: the crash image
                    # may or may not hold its (unacknowledged) record.
                    after = _next_state(acked, op)
            if not fired:
                failures.append(f"{label}: fault never fired")
                print(f"{label}: FAULT DID NOT FIRE")
                continue

            crash = _crash_image(workdir, os.path.join(base, "crash"))
            recovered = _recover_and_scan(crash)
            if recovered == before or recovered == after:
                print(f"{label}: recovered cleanly "
                      f"({len(recovered)} triples)")
            else:
                failures.append(
                    f"{label}: recovered {len(recovered)} triples, "
                    f"expected before ({len(before)}) or after "
                    f"({len(after)}) the faulted op — partial state"
                )
                print(f"{label}: PARTIAL STATE AFTER RECOVERY")
            store.close()
        except AssertionError as exc:
            failures.append(f"{label}: {exc}")
            print(f"{label}: {exc}")
        finally:
            shutil.rmtree(base, ignore_errors=True)
    return failures


def drill_wal_truncation(points: int, seed: int) -> list[str]:
    """Kill the process at arbitrary WAL byte offsets (simulated by
    truncation).  Recovery must land on the exact acknowledged prefix —
    or fail loudly when even the header is gone."""
    rng = random.Random(seed)
    failures: list[str] = []
    base = tempfile.mkdtemp(prefix="chaos-wal-")
    workdir = os.path.join(base, "store")
    try:
        store = _fresh_store(workdir)
        acked: set = set()
        states: list[tuple[int, set]] = [(HEADER_SIZE, set())]
        for _ in range(30):
            op = _random_op(rng, acked)
            getattr(store, op[0])(*op[1])
            acked = _next_state(acked, op)
            states.append((store.wal_bytes, set(acked)))
        store.close()

        wal_path = os.path.join(workdir, WAL_FILE)
        total = os.path.getsize(wal_path)
        # Always include headerless kills; they must fail loudly.
        offsets = sorted(
            set(rng.sample(range(total), k=min(points, total)))
            | {0, HEADER_SIZE - 1}
        )
        print(f"\ndurability drill B: kill at {len(offsets)} random WAL "
              f"offsets of {total} bytes ({len(states) - 1} ops)")
        for off in offsets:
            crash = _crash_image(workdir, os.path.join(base, f"crash-{off}"))
            with open(os.path.join(crash, WAL_FILE), "r+b") as f:
                f.truncate(off)
            label = f"  offset {off:5d}"
            if off < HEADER_SIZE:
                try:
                    DurableDynamicRing.recover(crash)
                    failures.append(
                        f"{label}: headerless WAL recovered silently"
                    )
                    print(f"{label}: SILENT RECOVERY WITHOUT HEADER")
                except IndexIntegrityError as exc:
                    print(f"{label}: typed failure ({type(exc).__name__})")
                continue
            expected: set = set()
            for end, state in states:
                if end <= off:
                    expected = state
                else:
                    break
            try:
                recovered = _recover_and_scan(crash)
            except AssertionError as exc:
                failures.append(f"{label}: {exc}")
                print(f"{label}: {exc}")
                continue
            if recovered == expected:
                print(f"{label}: exact acknowledged prefix "
                      f"({len(recovered)} triples)")
            else:
                failures.append(
                    f"{label}: recovered {len(recovered)} triples, the "
                    f"acknowledged prefix holds {len(expected)}"
                )
                print(f"{label}: NOT THE ACKNOWLEDGED PREFIX")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return failures


# -- cache drill (serving-cache layer) ----------------------------------------


def drill_cache(rounds: int, seed: int) -> list[str]:
    """Attack the serving cache; it must degrade, never lie.

    Each round repeats the workload through a :class:`CachedQuerySystem`
    while one of three attacks runs:

    - ``cache.lookup`` / ``cache.store`` armed with errors or latency —
      every query must fall through to a normal evaluation;
    - direct entry corruption (stored rows mutated in place) — the
      fingerprint must drop the entry on the next touch;
    - random entry drops mid-workload — only hit-rate may suffer.

    Every answer is compared against the fault-free reference; any
    mismatch is a chaos failure.
    """
    from repro.cache import CachedQuerySystem

    rng = random.Random(seed)
    failures: list[str] = []
    graph = random_graph(600, n_nodes=30, n_predicates=2, seed=5)
    reference = {
        name: [dict(mu) for mu in RingIndex(graph).evaluate(bgp)]
        for name, bgp in WORKLOAD
    }
    print(f"\ncache drill: {rounds} rounds — faulted lookup/store, "
          f"corrupted entries, dropped entries")
    for round_no in range(rounds):
        attack = ("faults", "corrupt", "drop")[round_no % 3]
        system = CachedQuerySystem(RingIndex(graph))
        label = f"  cache {round_no:3d} {attack:8s}"
        try:
            if attack == "faults":
                site = rng.choice(["cache.lookup", "cache.store"])
                kind = rng.choice(["error", "flaky-error", "latency"])
                if kind == "latency":
                    fault = Fault(site, probability=1.0,
                                  latency=rng.uniform(0.0001, 0.001))
                else:
                    fault = Fault(
                        site,
                        probability=1.0 if kind == "error"
                        else rng.uniform(0.1, 0.9),
                        error=InjectedFault,
                    )
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    for _ in range(2):  # second pass would hit if stored
                        for name, bgp in WORKLOAD:
                            rows = [dict(mu) for mu in system.evaluate(bgp)]
                            assert rows == reference[name], name
                detail = f"{site} {kind}, fired={fault.fired}"
            else:
                for name, bgp in WORKLOAD:  # populate
                    system.evaluate(bgp)
                entries = system.result_cache._entries
                victims = rng.sample(
                    sorted(entries, key=repr), k=max(1, len(entries) // 2)
                )
                for key in victims:
                    if attack == "corrupt":
                        entry = entries[key]
                        entry.rows = entry.rows[:-1] if entry.rows else ((),)
                    else:
                        system.result_cache.discard(key)
                for name, bgp in WORKLOAD:  # repeat against damage
                    rows = [dict(mu) for mu in system.evaluate(bgp)]
                    assert rows == reference[name], name
                stats = system.result_cache.stats()
                detail = (
                    f"{len(victims)} entries attacked, "
                    f"corrupt_dropped={stats['corrupt_dropped']}"
                )
                if attack == "corrupt" and stats["corrupt_dropped"] < 1:
                    failures.append(
                        f"{label}: fingerprint never caught the corruption"
                    )
                    print(f"{label}: CORRUPTION NOT DETECTED")
                    continue
            print(f"{label}: exact answers ({detail})")
        except AssertionError as exc:
            failures.append(f"{label}: wrong answer on {exc}")
            print(f"{label}: WRONG ANSWER on {exc}")
        except ALLOWED_ERRORS as exc:
            failures.append(
                f"{label}: cache faults must degrade, not raise "
                f"({type(exc).__name__})"
            )
            print(f"{label}: UNEXPECTED {type(exc).__name__}")
    return failures


# -- shard drill (fault-tolerant serving tier) --------------------------------


def drill_shards(rounds: int, seed: int) -> list[str]:
    """Kill a random shard mid-query; the coordinator must degrade, never
    hang or lie.

    Each round scatters a workload query over 4 shards while a timer
    kills a random shard at a random instant (a ``shard.gather`` latency
    fault keeps the query in flight long enough for the kill to land
    mid-gather).  The result must be either the exact reference or a
    *flagged* partial: rows a subset of the reference, ``truncated``
    set, and the dead shard named in ``result.shards.failed``.  The
    drill then asserts the full recovery story: the degraded answer is
    deterministic across reruns, a supervisor sweep restarts the shard
    (the breaker walks open → half-open → closed), and an unfaulted
    rerun is byte-identical to the reference.
    """
    import threading

    from repro.serving import (
        CircuitBreaker,
        RetryPolicy,
        ShardCoordinator,
        ShardedRingIndex,
        ShardSupervisor,
    )

    rng = random.Random(seed)
    failures: list[str] = []
    graph = random_graph(600, n_nodes=30, n_predicates=2, seed=5)
    serial = RingIndex(graph)
    reference = {
        name: {frozenset(mu.items()) for mu in serial.evaluate(bgp)}
        for name, bgp in WORKLOAD
    }
    print(f"\nshard drill: kill-a-shard mid-query, {rounds} rounds "
          f"over {len(WORKLOAD)} queries, 4 shards")
    for round_no in range(rounds):
        name, bgp = WORKLOAD[round_no % len(WORKLOAD)]
        ref = reference[name]
        victim = rng.randrange(4)
        label = f"  shard {round_no:3d} {name:8s} victim={victim}"
        shards = ShardedRingIndex.from_graph(graph, 4)
        coord = ShardCoordinator(
            shards,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.005, seed=round_no
            ),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=0.05
            ),
            shard_timeout=1.0,
        )
        try:
            timer = threading.Timer(
                rng.uniform(0.0, 0.01), shards.kill_shard, args=(victim,)
            )
            fault = Fault("shard.gather", probability=1.0, latency=0.004)
            timer.start()
            try:
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    result = coord.evaluate(bgp, partial=True, timeout=10.0)
            finally:
                timer.join()
            rows = {frozenset(mu.items()) for mu in result}
            report = result.shards
            if report.complete:
                if rows != ref:
                    failures.append(f"{label}: complete but wrong answer")
                    print(f"{label}: WRONG COMPLETE ANSWER")
                    continue
                detail = "kill landed late; complete answer"
            else:
                if report.failed != (victim,):
                    failures.append(
                        f"{label}: failed shards {report.failed} != "
                        f"({victim},)"
                    )
                    print(f"{label}: WRONG FAILURE TAG {report.failed}")
                    continue
                if not rows <= ref:
                    failures.append(
                        f"{label}: {len(rows - ref)} row(s) outside the "
                        f"reference — a lie, not a degradation"
                    )
                    print(f"{label}: BOGUS ROWS IN PARTIAL")
                    continue
                if not result.truncated:
                    failures.append(f"{label}: partial result not flagged")
                    print(f"{label}: UNFLAGGED PARTIAL")
                    continue
                again = coord.evaluate(bgp, partial=True, timeout=10.0)
                if list(result) != list(again) or (
                    again.shards.failed != report.failed
                ):
                    failures.append(f"{label}: partial result not deterministic")
                    print(f"{label}: NONDETERMINISTIC PARTIAL")
                    continue
                detail = (
                    f"flagged partial {len(rows)}/{len(ref)} rows, "
                    f"deterministic"
                )
            # Recovery: supervisor restart → breaker half-open probe →
            # byte-identical complete rerun.
            supervisor = ShardSupervisor(shards, interval=0.01)
            supervisor.sweep()
            if not shards.endpoints[victim].alive:
                failures.append(f"{label}: supervisor failed to restart")
                print(f"{label}: RESTART FAILED")
                continue
            breaker = coord.breakers[victim]
            if breaker.state == "open":
                time.sleep(0.06)  # past reset_timeout: open -> half-open
                if breaker.state != "half-open":
                    failures.append(
                        f"{label}: breaker stuck {breaker.state} after reset "
                        f"window"
                    )
                    print(f"{label}: BREAKER STUCK")
                    continue
            final = coord.evaluate(bgp, timeout=10.0)
            final_rows = {frozenset(mu.items()) for mu in final}
            if final_rows != ref or not final.shards.complete:
                failures.append(
                    f"{label}: post-restart rerun not byte-identical "
                    f"({len(final_rows)} vs {len(ref)} rows)"
                )
                print(f"{label}: POST-RESTART MISMATCH")
                continue
            print(f"{label}: {detail}; recovered to exact answer "
                  f"(breaker {breaker.state})")
        except ALLOWED_ERRORS as exc:
            failures.append(
                f"{label}: partial=True must degrade, not raise "
                f"({type(exc).__name__})"
            )
            print(f"{label}: UNEXPECTED {type(exc).__name__}")
        finally:
            shards.shutdown()
    failures += _drill_shard_fault_sites(seed + 7)
    return failures


def _drill_shard_fault_sites(seed: int) -> list[str]:
    """Arm ``shard.dispatch`` / ``shard.restart`` directly.

    Flaky dispatches must yield only exact or flagged-subset answers;
    a failing restart must be *counted* by the supervisor, never crash
    it, and recovery must complete once the fault clears.
    """
    from repro.serving import (
        CircuitBreaker,
        RetryPolicy,
        ShardCoordinator,
        ShardedRingIndex,
        ShardSupervisor,
    )

    failures: list[str] = []
    graph = random_graph(600, n_nodes=30, n_predicates=2, seed=5)
    serial = RingIndex(graph)
    name, bgp = WORKLOAD[1]
    ref = {frozenset(mu.items()) for mu in serial.evaluate(bgp)}
    print("\nshard drill: fault sites shard.dispatch, shard.restart")

    shards = ShardedRingIndex.from_graph(graph, 4)
    coord = ShardCoordinator(
        shards,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.002, seed=seed),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=3, reset_timeout=0.02
        ),
    )
    try:
        fault = Fault("shard.dispatch", probability=0.4, error=InjectedFault)
        with inject_faults(fault, seed=seed):
            for attempt in range(4):
                result = coord.evaluate(bgp, partial=True, timeout=10.0)
                rows = {frozenset(mu.items()) for mu in result}
                if result.shards.complete:
                    if rows != ref:
                        failures.append(
                            "shard.dispatch fault: complete but wrong"
                        )
                        break
                elif not (rows <= ref and result.truncated):
                    failures.append(
                        "shard.dispatch fault: unflagged or bogus partial"
                    )
                    break
            else:
                print(f"  dispatch  : {fault.fired} faults fired, every "
                      f"answer exact or flagged subset")

        # A restart that itself fails must be counted, not raised.
        shards.kill_shard(1)
        supervisor = ShardSupervisor(shards, interval=0.01)
        restart_fault = Fault(
            "shard.restart", probability=1.0, error=InjectedFault
        )
        with inject_faults(restart_fault, seed=seed):
            supervisor.sweep()
        if shards.endpoints[1].alive:
            failures.append("shard.restart fault: shard restarted anyway")
        elif supervisor.stats()["failed_restarts"][1] < 1:
            failures.append("shard.restart fault: failure not counted")
        else:
            supervisor.sweep()  # unfaulted: recovery must now succeed
            if not shards.endpoints[1].alive:
                failures.append("shard.restart: recovery after fault failed")
            else:
                print(f"  restart   : failed restart counted "
                      f"({restart_fault.fired} fired), then recovered")
    finally:
        shards.shutdown()
    return failures


# -- process drill (process-isolated shards + replication) --------------------


def _kill_pid(pid) -> None:
    """Genuine ``kill -9`` of a shard process (ignores already-dead)."""
    import signal as _signal

    try:
        os.kill(pid, _signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass


def _heal_process_shards(shards, supervisor, timeout: float = 60.0) -> bool:
    """Sweep until every replica of every shard is back up (or timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        supervisor.sweep()
        healthy = all(
            all(r.alive for r in getattr(ep, "replicas", [ep]))
            for ep in shards.endpoints
        )
        if healthy:
            return True
        time.sleep(0.05)
    return False


def drill_process_shards(rounds: int, seed: int) -> list[str]:
    """``kill -9`` a live shard *process* mid-query; the ISSUE-8 contract.

    With ``replicas=2`` the answer must stay complete, byte-identical to
    the single-copy reference, and unflagged — the ``ShardReport`` may
    only record the failover.  With ``replicas=1`` a pre-killed primary
    must degrade to the PR 6 flagged-partial contract, and a supervised
    respawn through WAL recovery must restore the exact answer.  A
    SIGTERM'd shard must finish its in-flight query, checkpoint, and
    exit 0.  Finally the ``proc.spawn`` / ``proc.heartbeat`` /
    ``replica.failover`` fault sites, and ``shard.restart`` on a
    replicated shard, must each degrade to counted failures, never
    wrong answers.
    """
    import threading

    from repro.serving import (
        CircuitBreaker,
        RetryPolicy,
        ShardCoordinator,
        ShardedRingIndex,
        ShardSupervisor,
    )
    from repro.reliability.wal import verify_dynamic_dir

    rng = random.Random(seed)
    failures: list[str] = []
    graph = random_graph(400, n_nodes=30, n_predicates=2, seed=5)

    # Single-copy reference: the same coordinator pipeline over plain
    # in-memory shards — byte-identity means *list* equality (canonical
    # order included), not just set equality.
    ref_shards = ShardedRingIndex.from_graph(graph, 4)
    ref_coord = ShardCoordinator(ref_shards)
    try:
        ref_rows = {
            name: list(ref_coord.evaluate(bgp, timeout=60.0))
            for name, bgp in WORKLOAD
        }
    finally:
        ref_shards.shutdown()

    base = tempfile.mkdtemp(prefix="chaos-proc-")
    print(f"\nprocess drill: kill -9 a primary shard process mid-query, "
          f"{rounds} rounds, 4 shards x2 replicas")

    # -- part 1: replicas=2 — kill -9 must stay complete + byte-identical
    shards = ShardedRingIndex.create_durable(
        os.path.join(base, "r2"), graph, 4,
        replicas=2, processes=True,
        broker_options={"workers": 1}, buffer_threshold=256,
    )
    coord = ShardCoordinator(
        shards,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.005, seed=seed),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=2, reset_timeout=0.05
        ),
        shard_timeout=20.0,
    )
    supervisor = ShardSupervisor(shards, interval=0.01)
    try:
        for round_no in range(rounds):
            name, bgp = WORKLOAD[round_no % len(WORKLOAD)]
            victim = rng.randrange(4)
            ep = shards.endpoints[victim]
            pid = ep.replicas[ep.primary].pid
            label = f"  proc {round_no:3d} {name:8s} victim={victim} pid={pid}"
            timer = threading.Timer(
                rng.uniform(0.0, 0.01), _kill_pid, args=(pid,)
            )
            # Latency on the gather seam stretches the query so the kill
            # lands mid-flight rather than before/after it.
            fault = Fault("shard.gather", probability=1.0, latency=0.004)
            timer.start()
            try:
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    result = coord.evaluate(bgp, partial=True, timeout=60.0)
            finally:
                timer.join()
            report = result.shards
            if not report.complete:
                failures.append(
                    f"{label}: replicated kill must stay complete, "
                    f"failed={report.failed}"
                )
                print(f"{label}: NOT COMPLETE {report.failed}")
            elif list(result) != ref_rows[name]:
                failures.append(f"{label}: answer not byte-identical")
                print(f"{label}: NOT BYTE-IDENTICAL")
            elif result.truncated:
                failures.append(f"{label}: complete answer flagged truncated")
                print(f"{label}: SPURIOUS TRUNCATED FLAG")
            else:
                print(f"{label}: complete byte-identical answer "
                      f"(failovers={report.failovers})")
            if not _heal_process_shards(shards, supervisor):
                failures.append(f"{label}: shards never healed after round")
                print(f"{label}: HEAL TIMEOUT")
                break
        total_failovers = sum(
            int(getattr(ep, "failovers", 0)) for ep in shards.endpoints
        )
        if total_failovers < 1:
            failures.append(
                "process drill: no kill ever landed as a replica failover "
                "(failovers == 0 across all rounds)"
            )
        final = coord.evaluate(WORKLOAD[1][1], timeout=60.0)
        if list(final) != ref_rows["two-hop"] or not final.shards.complete:
            failures.append(
                "process drill: healed cluster rerun not byte-identical"
            )
        else:
            print(f"  healed rerun: complete byte-identical answer, "
                  f"{total_failovers} failover(s) across the drill")
    finally:
        shards.shutdown()

    # -- part 2: replicas=1 — the same kill degrades to flagged-partial
    print("\nprocess drill: replicas=1 degradation + respawn through WAL")
    shards1 = ShardedRingIndex.create_durable(
        os.path.join(base, "r1"), graph, 4,
        replicas=1, processes=True,
        broker_options={"workers": 1}, buffer_threshold=256,
    )
    coord1 = ShardCoordinator(
        shards1,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.005, seed=seed),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=2, reset_timeout=0.05
        ),
        shard_timeout=20.0,
    )
    supervisor1 = ShardSupervisor(shards1, interval=0.01)
    try:
        name, bgp = WORKLOAD[1]
        victim = rng.randrange(4)
        ref_set = {frozenset(mu.items()) for mu in ref_rows[name]}
        shards1.endpoints[victim].kill()  # genuine SIGKILL + reap
        result = coord1.evaluate(bgp, partial=True, timeout=60.0)
        rows = {frozenset(mu.items()) for mu in result}
        if result.shards.failed != (victim,):
            failures.append(
                f"process drill r1: failed={result.shards.failed} != "
                f"({victim},)"
            )
        elif not (rows <= ref_set and result.truncated):
            failures.append(
                "process drill r1: unflagged or bogus partial after kill"
            )
        else:
            again = coord1.evaluate(bgp, partial=True, timeout=60.0)
            if list(result) != list(again):
                failures.append(
                    "process drill r1: flagged partial not deterministic"
                )
            else:
                print(f"  r1 kill: flagged partial {len(rows)}/{len(ref_set)} "
                      f"rows, failed=({victim},), deterministic")
        if not _heal_process_shards(shards1, supervisor1):
            failures.append("process drill r1: respawn through WAL never healed")
        else:
            healed = coord1.evaluate(bgp, timeout=60.0)
            if list(healed) != ref_rows[name] or not healed.shards.complete:
                failures.append(
                    "process drill r1: post-respawn answer not byte-identical"
                )
            else:
                incarnation = shards1.endpoints[victim].incarnation
                print(f"  r1 respawn: WAL recovery restored the exact answer "
                      f"(incarnation={incarnation})")

        # -- part 3: SIGTERM drain — in-flight finishes, exit 0, valid
        # checkpoint on disk.
        import signal as _signal

        ep = shards1.endpoints[(victim + 1) % 4]
        expect = ep.evaluate(WORKLOAD[0][1], timeout=30.0)
        futures = [ep.submit(WORKLOAD[0][1], timeout=30.0) for _ in range(3)]
        time.sleep(0.3)  # let the child recv the requests before the signal
        os.kill(ep.pid, _signal.SIGTERM)
        try:
            drained = [list(f.result(timeout=30.0)) for f in futures]
        except Exception as exc:
            failures.append(
                f"process drill sigterm: in-flight query lost "
                f"({type(exc).__name__})"
            )
            drained = None
        deadline = time.monotonic() + 30.0
        while ep.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.02)  # wait for the real exit, not just pipe EOF
        if ep.exitcode != 0:
            failures.append(
                f"process drill sigterm: exit code {ep.exitcode}, wanted 0"
            )
        elif drained is not None and any(d != list(expect) for d in drained):
            failures.append(
                "process drill sigterm: drained answers differ from live ones"
            )
        else:
            checks = verify_dynamic_dir(ep.directory)
            ep.restart()
            if not ep.health_check():
                failures.append(
                    "process drill sigterm: restart after drain unhealthy"
                )
            else:
                print(f"  sigterm: drained {len(futures)} in-flight queries, "
                      f"exit 0, checkpoint valid "
                      f"({checks['n_triples']} triples), restarted healthy")
    finally:
        shards1.shutdown()
        shutil.rmtree(base, ignore_errors=True)

    failures += _drill_process_fault_sites(seed + 11)
    return failures


def _drill_process_fault_sites(seed: int) -> list[str]:
    """Arm ``proc.spawn`` / ``proc.heartbeat`` / ``replica.failover``,
    then ``shard.restart`` on a replicated shard.

    A failing spawn must surface as a counted failed restart (typed,
    never a crash); a failing heartbeat must mark the endpoint unhealthy
    and recover when the fault clears; a failing promotion must degrade
    the query to a flagged partial — never a wrong answer; a failing
    replica restart must be counted by the supervisor, and the next
    sweep must restart the replica and catch it up.
    """
    from repro.serving import (
        CircuitBreaker,
        RetryPolicy,
        ShardCoordinator,
        ShardedRingIndex,
        ShardSupervisor,
    )

    failures: list[str] = []
    graph = random_graph(400, n_nodes=30, n_predicates=2, seed=5)
    base = tempfile.mkdtemp(prefix="chaos-procsite-")
    print("\nprocess drill: fault sites proc.spawn, proc.heartbeat, "
          "replica.failover, shard.restart")
    try:
        shards = ShardedRingIndex.create_durable(
            os.path.join(base, "store"), graph, 2,
            replicas=1, processes=True,
            broker_options={"workers": 1}, buffer_threshold=256,
        )
        supervisor = ShardSupervisor(shards, interval=0.01)
        try:
            # proc.heartbeat: armed probe fails -> unhealthy; clears after.
            fault = Fault("proc.heartbeat", probability=1.0, error=InjectedFault)
            with inject_faults(fault, seed=seed):
                if shards.endpoints[0].health_check():
                    failures.append(
                        "proc.heartbeat fault: probe succeeded anyway"
                    )
            if not shards.endpoints[0].health_check():
                failures.append(
                    "proc.heartbeat: endpoint unhealthy after fault cleared"
                )
            elif shards.endpoints[0].stats()["transport"]["heartbeat_failures"] < 1:
                failures.append("proc.heartbeat fault: failure not counted")
            else:
                print(f"  heartbeat : armed probe failed typed "
                      f"({fault.fired} fired), healthy once cleared")

            # proc.spawn: a respawn that fails must be counted, not raised.
            shards.endpoints[0].kill()
            spawn_fault = Fault("proc.spawn", probability=1.0,
                                error=InjectedFault)
            with inject_faults(spawn_fault, seed=seed):
                supervisor.sweep()
            if shards.endpoints[0].alive:
                failures.append("proc.spawn fault: shard respawned anyway")
            elif supervisor.stats()["failed_restarts"][0] < 1:
                failures.append("proc.spawn fault: failure not counted")
            else:
                supervisor.sweep()  # unfaulted: respawn must now succeed
                if not shards.endpoints[0].alive:
                    failures.append("proc.spawn: recovery after fault failed")
                else:
                    print(f"  spawn     : failed respawn counted "
                          f"({spawn_fault.fired} fired), then recovered")
        finally:
            shards.shutdown()

        # replica.failover: promotion failure degrades to flagged partial.
        rep_shards = ShardedRingIndex.from_graph(graph, 2, replicas=2)
        coord = ShardCoordinator(
            rep_shards,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.005, seed=seed),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=0.05
            ),
            shard_timeout=10.0,
        )
        try:
            name, bgp = WORKLOAD[0]
            reference = list(coord.evaluate(bgp, timeout=30.0))
            victim = 0
            ep = rep_shards.endpoints[victim]
            ep.replicas[ep.primary].kill()
            fo_fault = Fault("replica.failover", probability=1.0,
                             error=InjectedFault)
            with inject_faults(fo_fault, seed=seed):
                result = coord.evaluate(bgp, partial=True, timeout=30.0)
            rows = {frozenset(mu.items()) for mu in result}
            ref_set = {frozenset(mu.items()) for mu in reference}
            if result.shards.complete or not result.truncated:
                failures.append(
                    "replica.failover fault: broken promotion did not "
                    "degrade to a flagged partial"
                )
            elif not rows <= ref_set:
                failures.append(
                    "replica.failover fault: bogus rows in the partial"
                )
            else:
                time.sleep(0.1)  # let the breaker's reset window elapse
                unfaulted = coord.evaluate(bgp, partial=True, timeout=30.0)
                if (
                    list(unfaulted) != reference
                    or not unfaulted.shards.complete
                ):
                    failures.append(
                        "replica.failover: unfaulted failover not "
                        "byte-identical"
                    )
                else:
                    print(f"  failover  : broken promotion degraded to "
                          f"flagged partial ({fo_fault.fired} fired), "
                          f"then failed over exactly")

            # shard.restart on a replicated shard: the supervisor restarts
            # the dead replica itself, so its failure is counted there.
            rep_supervisor = ShardSupervisor(rep_shards)
            ep.kill(1 - ep.primary)  # the secondary; the primary serves on
            restart_fault = Fault("shard.restart", probability=1.0,
                                  error=InjectedFault)
            with inject_faults(restart_fault, seed=seed):
                rep_supervisor.sweep()
            counted = rep_supervisor.stats()["failed_restarts"][victim]
            if restart_fault.fired < 1 or counted < 1:
                failures.append(
                    f"shard.restart fault on a replica: fired "
                    f"{restart_fault.fired}, counted {counted}"
                )
            elif all(r.alive for r in ep.replicas):
                failures.append("shard.restart fault: replica restarted anyway")
            else:
                rep_supervisor.sweep()  # unfaulted: restart + catch-up
                healed = list(coord.evaluate(bgp, timeout=30.0))
                if not all(r.alive for r in ep.replicas) or any(
                    ep.stats()["dirty"]
                ):
                    failures.append(
                        "shard.restart: replica not recovered after fault"
                    )
                elif healed != reference:
                    failures.append(
                        "shard.restart: recovered replica set not exact"
                    )
                else:
                    print(f"  restart   : failed replica restart counted "
                          f"({restart_fault.fired} fired), then recovered")
        finally:
            rep_shards.shutdown()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return failures


# -- out-of-core drill (streaming builder + memmapped packs) -------------------


def drill_outofcore(rounds: int, seed: int) -> list[str]:
    """Kill the external-memory builder mid-spill / mid-merge; open packs
    through a failing mmap.  The out-of-core contract:

    - a faulted build raises typed :class:`BulkBuildError` and leaves
      **no pack and no sidecar** behind (spills live in a private
      directory that is removed either way);
    - an immediate unfaulted retry to the same path succeeds and its
      pack is *byte-identical* to the never-faulted reference — the
      builder is restartable, not merely crash-safe;
    - a failing ``mmap.open`` surfaces as typed
      :class:`IndexIntegrityError`, never a half-mapped ring.
    """
    from repro.graph.bulkload import BulkBuildError, bulk_build

    rng = random.Random(seed)
    failures: list[str] = []
    graph = random_graph(4000, n_nodes=200, n_predicates=4, seed=5)
    base = tempfile.mkdtemp(prefix="chaos-ooc-")
    sites = ["build.spill", "build.merge"]
    print(f"\nout-of-core drill: {rounds} rounds crashing "
          f"{', '.join(sites)}, then a faulted mmap.open")
    try:
        reference = os.path.join(base, "reference.ring")
        # Small chunk so both the spill and the merge paths genuinely run.
        bulk_build(graph, reference, chunk_triples=512)
        with open(reference, "rb") as fh:
            ref_bytes = fh.read()

        for round_no in range(rounds):
            site = sites[round_no % len(sites)]
            hard = round_no % 4 < 2
            out = os.path.join(base, f"round-{round_no}.ring")
            fault = Fault(
                site,
                probability=1.0 if hard else rng.uniform(0.3, 0.9),
                error=InjectedFault,
            )
            label = f"  ooc {round_no:3d} {site:12s} {'hard ' if hard else 'flaky'}"
            try:
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    bulk_build(graph, out, chunk_triples=512)
            except BulkBuildError:
                if os.path.exists(out) or os.path.exists(out + ".config.json"):
                    failures.append(f"{label}: partial pack left behind")
                    print(f"{label}: PARTIAL PACK ON DISK")
                    continue
            except Exception as exc:  # noqa: BLE001 - the whole point
                failures.append(
                    f"{label}: untyped {type(exc).__name__}: {exc}"
                )
                print(f"{label}: UNTYPED {type(exc).__name__}")
                continue
            else:
                if fault.fired:
                    failures.append(
                        f"{label}: build swallowed {fault.fired} fired fault(s)"
                    )
                    print(f"{label}: FAULT SWALLOWED")
                    continue
                # Flaky fault never fired: the clean build must be exact.
            if not os.path.exists(out):
                bulk_build(graph, out, chunk_triples=512)  # unfaulted retry
            with open(out, "rb") as fh:
                retry_bytes = fh.read()
            if retry_bytes != ref_bytes:
                failures.append(f"{label}: retry pack not byte-identical")
                print(f"{label}: RETRY DIVERGED")
            else:
                print(f"{label}: typed failure, clean dir, retry "
                      f"byte-identical ({fault.fired} fired)")

        # mmap.open: a failing map must be a typed refusal, not a ring.
        fault = Fault("mmap.open", probability=1.0, error=InjectedFault)
        try:
            with inject_faults(fault, seed=seed):
                RingIndex.load(reference, mmap=True)
        except IndexIntegrityError:
            print(f"  mmap.open  : typed IndexIntegrityError "
                  f"({fault.fired} fired)")
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(
                f"mmap.open fault: untyped {type(exc).__name__}: {exc}"
            )
        else:
            failures.append("mmap.open fault: load succeeded anyway")
        # Cleared fault: the same pack must open and answer exactly.
        index = RingIndex.load(reference, mmap=True)
        ref_rows = [dict(mu) for mu in RingIndex.load(reference).evaluate(
            WORKLOAD[0][1]
        )]
        if [dict(mu) for mu in index.evaluate(WORKLOAD[0][1])] != ref_rows:
            failures.append("mmap.open: post-fault reopen answered wrongly")
        else:
            print("  mmap.open  : post-fault reopen exact")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return failures


# -- parallel-build drill (pool-pass and sharded builds, killed workers) ------


def drill_parallel_build(rounds: int, seed: int) -> list[str]:
    """Fault and kill parallel build workers mid-task.  The
    parallel-build contract:

    - a faulted ``build.worker`` task (the fault fires *inside* the
      forked worker and again in the inline rescue) surfaces as typed
      :class:`BulkBuildError` with **no pack and no sidecar** behind —
      and an unfaulted retry is byte-identical to the serial reference;
    - a *killed* build worker (no fault, just ``SIGKILL`` after
      dispatch) is rescued inline: the build **succeeds**, counts at
      least one ``serial_rescues``, and the pack is still byte-identical
      to the serial reference;
    - a faulted sharded build leaves no output directory at all (the
      layout publishes by directory rename);
    - a sharded build that loses a worker still produces shard packs
      byte-identical to an undisturbed sharded build's.
    """
    from repro.graph import bulkload
    from repro.graph.bulkload import (
        BulkBuildError,
        bulk_build,
        bulk_build_sharded,
    )

    rng = random.Random(seed)
    failures: list[str] = []
    graph = random_graph(4000, n_nodes=200, n_predicates=4, seed=5)
    base = tempfile.mkdtemp(prefix="chaos-pbuild-")
    print(f"\nparallel-build drill: {rounds} fault + {rounds} kill rounds "
          f"on build.worker, then sharded fault + kill rounds")
    try:
        reference = os.path.join(base, "reference.ring")
        bulk_build(graph, reference, chunk_triples=512)
        with open(reference, "rb") as fh:
            ref_bytes = fh.read()

        # Fault rounds: the armed site makes every build task raise —
        # in the worker *and* in the rescue path — so the build must
        # fail typed and leave nothing behind.
        for round_no in range(rounds):
            out = os.path.join(base, f"fault-{round_no}.ring")
            fault = Fault("build.worker", probability=1.0,
                          error=InjectedFault)
            label = f"  pbuild {round_no:3d} fault"
            try:
                with inject_faults(fault, seed=rng.randrange(2**31)):
                    bulk_build(graph, out, chunk_triples=512, workers=2)
            except BulkBuildError:
                if os.path.exists(out) or os.path.exists(
                    out + ".config.json"
                ):
                    failures.append(f"{label}: partial pack left behind")
                    print(f"{label}: PARTIAL PACK ON DISK")
                    continue
            except Exception as exc:  # noqa: BLE001 - the whole point
                failures.append(
                    f"{label}: untyped {type(exc).__name__}: {exc}"
                )
                print(f"{label}: UNTYPED {type(exc).__name__}")
                continue
            else:
                failures.append(f"{label}: build swallowed the fault")
                print(f"{label}: FAULT SWALLOWED")
                continue
            bulk_build(graph, out, chunk_triples=512, workers=2)
            with open(out, "rb") as fh:
                retry_bytes = fh.read()
            if retry_bytes != ref_bytes:
                failures.append(f"{label}: retry pack not byte-identical")
                print(f"{label}: RETRY DIVERGED")
            else:
                print(f"{label}: typed failure, clean dir, retry "
                      f"byte-identical")

        # Kill rounds: SIGKILL one worker right after dispatch; the
        # inline rescue must finish its tasks and the pack must not
        # change by a byte.
        for round_no in range(rounds):
            out = os.path.join(base, f"kill-{round_no}.ring")
            victim = rng.randrange(2)
            label = f"  pbuild {round_no:3d} kill w{victim}"
            bulkload._POOL_HOOK = (
                lambda pool, _wid=victim: setattr(
                    pool, "_kill_after_dispatch", _wid
                )
            )
            build_stats: dict = {}
            try:
                bulk_build(graph, out, chunk_triples=512, workers=2,
                           stats=build_stats)
            except Exception as exc:  # noqa: BLE001 - the whole point
                failures.append(
                    f"{label}: killed worker failed the build "
                    f"({type(exc).__name__}: {exc})"
                )
                print(f"{label}: BUILD FAILED")
                continue
            finally:
                bulkload._POOL_HOOK = None
            with open(out, "rb") as fh:
                killed_bytes = fh.read()
            if killed_bytes != ref_bytes:
                failures.append(f"{label}: pack diverged after rescue")
                print(f"{label}: PACK DIVERGED")
            elif not build_stats.get("pool_serial_rescues"):
                failures.append(f"{label}: no serial rescue counted")
                print(f"{label}: NO RESCUE COUNTED")
            else:
                print(f"{label}: rescued inline "
                      f"({build_stats['pool_serial_rescues']} task(s)), "
                      f"pack byte-identical")

        # Sharded fault: the layout publishes by rename, so a failed
        # build must leave no output directory at all.
        shard_out = os.path.join(base, "shards-faulted")
        fault = Fault("build.worker", probability=1.0, error=InjectedFault)
        try:
            with inject_faults(fault, seed=seed):
                bulk_build_sharded(graph, shard_out, n_shards=2,
                                   chunk_triples=512, workers=2)
        except BulkBuildError:
            if os.path.exists(shard_out):
                failures.append("sharded fault: output directory left")
                print("  pbuild shard fault: PARTIAL LAYOUT ON DISK")
            else:
                print("  pbuild shard fault: typed failure, no layout")
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(
                f"sharded fault: untyped {type(exc).__name__}: {exc}"
            )
        else:
            failures.append("sharded fault: build swallowed the fault")

        # Sharded kill: shard packs must match an undisturbed build's.
        clean_dir = os.path.join(base, "shards-clean")
        bulk_build_sharded(graph, clean_dir, n_shards=2,
                           chunk_triples=512, workers=2)
        killed_dir = os.path.join(base, "shards-killed")
        bulkload._POOL_HOOK = lambda pool: setattr(
            pool, "_kill_after_dispatch", 0
        )
        kill_stats: dict = {}
        try:
            bulk_build_sharded(graph, killed_dir, n_shards=2,
                               chunk_triples=512, workers=2,
                               stats=kill_stats)
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(
                f"sharded kill: build failed ({type(exc).__name__}: {exc})"
            )
        finally:
            bulkload._POOL_HOOK = None
        if os.path.exists(killed_dir):
            diverged = []
            for sid in range(2):
                rel = os.path.join(
                    f"shard-{sid:02d}", "checkpoint-0000000001",
                    "ring-000.ring",
                )
                with open(os.path.join(clean_dir, rel), "rb") as fh:
                    want = fh.read()
                with open(os.path.join(killed_dir, rel), "rb") as fh:
                    got = fh.read()
                if want != got:
                    diverged.append(rel)
            if diverged:
                failures.append(
                    f"sharded kill: shard packs diverged: {diverged}"
                )
                print("  pbuild shard kill : PACKS DIVERGED")
            elif not kill_stats.get("pool_serial_rescues"):
                failures.append("sharded kill: no serial rescue counted")
                print("  pbuild shard kill : NO RESCUE COUNTED")
            else:
                print(f"  pbuild shard kill : rescued inline "
                      f"({kill_stats['pool_serial_rescues']} task(s)), "
                      f"shard packs byte-identical")
    finally:
        bulkload._POOL_HOOK = None
        shutil.rmtree(base, ignore_errors=True)
    return failures


# -- harness ------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dyn-rounds", type=int, default=16,
                        help="crash-at-site drill rounds")
    parser.add_argument("--truncate-points", type=int, default=24,
                        help="random WAL kill offsets to test")
    parser.add_argument("--cache-rounds", type=int, default=9,
                        help="serving-cache drill rounds")
    parser.add_argument("--shard-rounds", type=int, default=8,
                        help="kill-a-shard serving drill rounds")
    parser.add_argument("--proc-rounds", type=int, default=4,
                        help="kill -9 process-shard drill rounds")
    parser.add_argument("--ooc-rounds", type=int, default=8,
                        help="out-of-core builder crash drill rounds")
    parser.add_argument("--pbuild-rounds", type=int, default=3,
                        help="parallel-build fault/kill drill rounds")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a machine-readable per-drill summary")
    parser.add_argument("--drills", default="all",
                        help="comma-separated drill names to run "
                             "(default: all)")
    args = parser.parse_args()

    drills = [
        ("query-faults", QUERY_SITES,
         lambda: run(args.rounds, args.seed)),
        ("crash-sites", DYNAMIC_SITES,
         lambda: drill_crash_sites(args.dyn_rounds, args.seed + 1)),
        ("wal-truncation", ["wal.append"],
         lambda: drill_wal_truncation(args.truncate_points, args.seed + 2)),
        ("cache", ["cache.lookup", "cache.store"],
         lambda: drill_cache(args.cache_rounds, args.seed + 5)),
        ("shards", ["shard.dispatch", "shard.gather", "shard.restart"],
         lambda: drill_shards(args.shard_rounds, args.seed + 6)),
        ("process-shards",
         ["proc.spawn", "proc.heartbeat", "replica.failover",
          "shard.gather", "shard.restart"],
         lambda: drill_process_shards(args.proc_rounds, args.seed + 8)),
        ("out-of-core",
         ["build.spill", "build.merge", "mmap.open"],
         lambda: drill_outofcore(args.ooc_rounds, args.seed + 9)),
        ("parallel-build",
         ["build.worker"],
         lambda: drill_parallel_build(args.pbuild_rounds, args.seed + 10)),
    ]
    known = [name for name, _sites, _fn in drills]
    if args.drills.strip().lower() == "all":
        selected = set(known)
    else:
        selected = {d.strip() for d in args.drills.split(",") if d.strip()}
        unknown = selected - set(known)
        if unknown:
            parser.error(
                f"unknown drill(s) {sorted(unknown)}; known: {known}"
            )

    summary = {"seed": args.seed, "drills": [], "passed": True,
               "total_failures": 0}
    for name, sites, fn in drills:
        if name not in selected:
            continue
        started = time.time()
        drill_failures = fn()
        summary["drills"].append({
            "name": name,
            "sites": sites,
            "failures": drill_failures,
            "passed": not drill_failures,
            "seconds": round(time.time() - started, 3),
        })
    all_failures = [
        failure
        for entry in summary["drills"]
        for failure in entry["failures"]
    ]
    summary["total_failures"] = len(all_failures)
    summary["passed"] = not all_failures
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"\nwrote JSON summary to {args.json}")
    print(f"\nchaos drills: {len(summary['drills'])} ran, "
          f"{summary['total_failures']} failure(s)")
    for failure in all_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    raise SystemExit(0 if summary["passed"] else 1)


if __name__ == "__main__":
    main()
