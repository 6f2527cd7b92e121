"""The span recorder: self-time fold, generator spans, restore, threads."""

import threading

import numpy as np
import pytest

from harness import percentile
from tracer import BACKGROUND, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class Tree:
    """a -> b, c;  c -> b.  Each method spends a fixed time of its own."""

    def __init__(self, clock):
        self.clock = clock

    def a(self):
        self.clock.advance(10)
        self.b()
        self.clock.advance(5)
        self.c()
        self.clock.advance(1)
        return "a"

    def b(self):
        self.clock.advance(20)

    def c(self):
        self.clock.advance(7)
        self.b()

    def items(self, n):
        for i in range(n):
            self.clock.advance(3)  # producing an item
            yield i


def traced_tree(keep=True):
    clock = FakeClock()
    tracer = Tracer(clock)
    for name in ("a", "b", "c"):
        tracer.install(Tree, name, f"layer.{name}", keep=keep)
    tracer.install(Tree, "items", "layer.items", keep=keep)
    return clock, tracer, Tree(clock)


def test_self_time_is_span_minus_children():
    clock, tracer, tree = traced_tree()
    with tracer:
        with tracer.request(1):
            assert tree.a() == "a"
    fold = tracer.fold()
    assert fold.total_ns("layer.a", "a") == 63
    assert fold.by_callable[("layer.a", "a")][2] == 16  # 10 + 5 + 1
    assert fold.by_callable[("layer.b", "b")][:3] == [2, 40, 40]
    assert fold.by_callable[("layer.c", "c")][2] == 7
    # Nothing is unattributed: the root span's self time is 0, and the
    # per-request self times add up to the request's wall time.
    assert fold.by_request[1]["request"][2] == 0
    assert fold.request_wall_ns() == 63
    assert fold.corrected_wall_ns() == 63
    assert sum(cell[2] for cell in fold.by_request[1].values()) == 63


def test_kept_spans_carry_their_parents():
    clock, tracer, tree = traced_tree()
    with tracer, tracer.request(7):
        tree.a()
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[2] == "request")
    a = next(s for s in tracer.spans if s[3] == "a")
    c = next(s for s in tracer.spans if s[3] == "c")
    assert a[6] == root[0] and c[6] == a[0]
    assert {by_id[s[6]][3] for s in tracer.spans if s[3] == "b"} == {"a", "c"}
    assert all(s[1] == 7 for s in tracer.spans)
    assert a[5] - a[4] == 63


def test_generator_span_covers_next_calls_only():
    clock, tracer, tree = traced_tree()
    with tracer, tracer.request(1):
        for _ in tree.items(4):
            clock.advance(100)  # the consumer's own work between items
    fold = tracer.fold()
    # Four items plus the final next() that raises StopIteration.
    assert fold.calls("layer.items", "items") == 5
    assert fold.total_ns("layer.items", "items") == 12
    assert fold.by_request[1]["request"][2] == 400


def test_unkept_layers_fold_without_storing_spans():
    clock, tracer, tree = traced_tree(keep=False)
    with tracer, tracer.request(1):
        tree.a()
    assert [s[2] for s in tracer.spans] == ["request"]
    assert tracer.fold().by_callable[("layer.b", "b")][2] == 40


def test_classes_are_pristine_after_exit():
    originals = {name: vars(Tree)[name] for name in ("a", "b", "c", "items")}
    _, tracer, _ = traced_tree()
    with tracer:
        assert all(vars(Tree)[n] is not f for n, f in originals.items())
    assert all(vars(Tree)[n] is f for n, f in originals.items())


def test_inherited_attribute_is_removed_not_copied():
    class Child(Tree):
        pass

    tracer = Tracer(FakeClock())
    with tracer:
        tracer.install(Child, "b", "layer.child")
        assert "b" in vars(Child)
    assert "b" not in vars(Child)
    assert Child.b is Tree.b


def test_descriptors_are_refused():
    class Odd:
        @staticmethod
        def s():
            pass

    with pytest.raises(TypeError):
        Tracer(FakeClock()).install(Odd, "s", "layer")


def test_no_repro_class_keeps_a_wrapper():
    import layers
    from repro.bits.bitvector import BitVector
    from repro.cache.system import CachedQuerySystem
    from repro.core.iterators import RingIterator
    from repro.core.ltj import LeapfrogTrieJoin
    from repro.core.ring import Ring
    from repro.core.system import BaseQuerySystem
    from repro.graph import parser
    from repro.reliability.broker import QueryBroker
    from repro.sequences.wavelet_matrix import WaveletMatrix
    from repro.serving.coordinator import ShardCoordinator

    owners = (BitVector, CachedQuerySystem, RingIterator, LeapfrogTrieJoin, Ring,
              BaseQuerySystem, QueryBroker, WaveletMatrix, ShardCoordinator, parser)
    before = {o: dict(vars(o)) for o in owners}
    with layers.Session("core", "store", "sharded", "build"):
        assert vars(BitVector)["rank1"] is not before[BitVector]["rank1"]
        assert hasattr(LeapfrogTrieJoin.evaluate, "__wrapped__")
    for owner in owners:
        now = vars(owner)
        assert now.keys() == before[owner].keys()
        assert all(now[k] is v for k, v in before[owner].items()), owner


def test_worker_thread_spans_join_the_request_in_flight():
    clock, tracer, tree = traced_tree()

    def work():
        tree.b()

    with tracer, tracer.request(3), tracer.span("driver", "wait"):
        worker = threading.Thread(target=work, name="broker-worker-0")
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    fold = tracer.fold()
    assert fold.by_request[3]["layer.b"][0] == 1
    # The worker's 20 ns count as a child of the driver's open span.
    assert fold.by_callable[("driver", "wait")][1:3] == [20, 0]


def test_other_threads_are_background():
    clock, tracer, tree = traced_tree()
    with tracer, tracer.request(3):
        other = threading.Thread(target=tree.b, name="broker-maintenance")
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
    fold = tracer.fold()
    assert "layer.b" in fold.by_request[BACKGROUND]
    assert "layer.b" not in fold.by_request[3]
    assert fold.layer_self_ns("layer.b", background=True) == 20


def test_calibration_is_subtracted():
    tracer = Tracer()
    inner, outer = tracer.calibrate(calls=2000)
    assert inner >= 0 and outer >= 0
    cell = [10, 0, 10_000, 4]  # 10 calls, 10 us self, 4 direct children
    assert tracer.corrected_self_ns(cell) == max(
        10_000 - 10 * inner - 4 * outer, 0.0)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    rng = np.random.default_rng(q)
    for n in (1, 2, 7, 100):
        values = rng.random(n).tolist()
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_passes_are_counted_not_clocked_and_keep_each_positions_best():
    from harness import MIN_PASSES, best_latencies, timed_passes

    made = []

    def one_pass():
        made.append([2.0, 1.0 + len(made)])
        return made[-1]

    # The count comes from the nominal pass time, not from the clock ...
    assert len(timed_passes(one_pass, 10.0, 2.0)) == 5
    made.clear()
    assert len(timed_passes(one_pass, 0.0, 2.0)) == MIN_PASSES
    made.clear()
    # ... until the passes have taken twice the time asked for.
    assert len(timed_passes(one_pass, 8.0, 0.5)) == 4
    assert best_latencies([[3.0, 1.0], [2.0, 5.0], [4.0, 0.5]]) == [2.0, 0.5]


def test_one_cpu_confines_children_and_restores_the_caller():
    import os
    import subprocess
    import sys

    from harness import CPUS, one_cpu

    probe = [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"]
    with one_cpu():
        assert os.sched_getaffinity(0) == {min(CPUS)}
        child = subprocess.run(probe, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == str([min(CPUS)])
    assert os.sched_getaffinity(0) == CPUS
