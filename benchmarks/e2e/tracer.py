"""Span recorder for the traced benchmark run.

The program under test has no tracing of its own yet (ROADMAP item 1), so
the benchmark records spans *from outside*: for the duration of a traced
run it replaces chosen callables of each layer (class methods, module
functions) by timing wrappers and puts the originals back on exit.

A span is ``(id, request_id, layer, name, start_ns, end_ns, parent_id)``.
One request is in flight at a time, so the driver-set current request id
is correct on every thread that works for it; spans on other threads
(maintenance, supervisors) are tagged background (request id ``-1``).

Self time is folded online: every open span owns a frame that sums the
durations of its direct children, so ``self = duration - children``
without keeping the spans of the hot leaf layers (a WGPB pass makes
millions of ``rank1`` calls).  Layers installed with ``keep=True`` also
store their spans, up to :data:`MAX_KEPT_SPANS`, for the trace file.

Every wrapper costs time.  :meth:`Tracer.calibrate` measures that cost on
a no-op, split into the part that falls inside the span's own window
(``inner_ns``, billed to the wrapped layer) and the part that falls
outside it (``outer_ns``, billed to the caller); :meth:`Tracer.fold`
subtracts ``calls x inner + child_calls x outer`` from each self time.
Generator spans are corrected with the same two constants although their
proxy costs somewhat more; their layers' shares are upper bounds.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

MAX_KEPT_SPANS = 200_000
BACKGROUND = -1

# A frame is [child_ns, child_calls, span_id_seen_by_children].
_CHILD_NS, _CHILD_CALLS, _SPAN_ID = 0, 1, 2
# An accumulator cell is [calls, total_ns, self_ns, child_calls].
_CALLS, _TOTAL, _SELF, _KIDS = 0, 1, 2, 3


class Tracer:
    """Installs timing wrappers, records spans, folds self times."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []
        self._thread_cells: list[dict] = []
        self._ids = itertools.count()
        self.spans: list[tuple] = []
        self.async_spans: list[tuple] = []
        self.dropped_spans = 0
        self.request_id = BACKGROUND
        self._driver = threading.get_ident()
        self._driver_stack: list[list] = []
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        """``(stack, cells)`` of the calling thread."""
        tls = self._tls
        try:
            return tls.stack, tls.cells
        except AttributeError:
            tls.cells = {}
            if threading.get_ident() == self._driver:
                tls.stack = self._driver_stack
            else:
                tls.stack = []
            name = threading.current_thread().name
            # Threads that evaluate on behalf of the request in flight;
            # every other thread's spans are background work.
            tls.foreground = (
                threading.get_ident() == self._driver
                or name.startswith(("broker-worker", "asyncio_", "ThreadPool"))
            )
            with self._lock:
                self._thread_cells.append(tls.cells)
            return tls.stack, tls.cells

    # -- the span primitive --------------------------------------------------

    def _enter(self, keep: bool):
        stack, cells = self._state()
        if stack:
            parent = stack[-1]
        elif self._tls.foreground and self._driver_stack:
            # A worker thread picks up the request: its spans are
            # children of whatever the (blocked) driver has open.
            parent = self._driver_stack[-1]
        else:
            parent = None
        parent_id = parent[_SPAN_ID] if parent is not None else -1
        span_id = next(self._ids) if keep else parent_id
        frame = [0, 0, span_id]
        stack.append(frame)
        return stack, cells, frame, parent, parent_id

    def _exit(self, ctx, layer, name, keep, t0, t1) -> None:
        stack, cells, frame, parent, parent_id = ctx
        stack.pop()
        dur = t1 - t0
        if parent is not None:
            parent[_CHILD_NS] += dur
            parent[_CHILD_CALLS] += 1
        rid = self.request_id if self._tls.foreground else BACKGROUND
        for key in ((rid, layer), (layer, name)):
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = [0, 0, 0, 0]
            cell[_CALLS] += 1
            cell[_TOTAL] += dur
            cell[_SELF] += dur - frame[_CHILD_NS]
            cell[_KIDS] += frame[_CHILD_CALLS]
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (frame[_SPAN_ID], rid, layer, name, t0, t1, parent_id)
                )
            else:
                self.dropped_spans += 1

    @contextmanager
    def span(self, layer: str, name: str, keep: bool = True):
        """A manual span around a call the driver makes itself."""
        ctx = self._enter(keep)
        t0 = self._clock()
        try:
            yield
        finally:
            self._exit(ctx, layer, name, keep, t0, self._clock())

    @contextmanager
    def request(self, request_id: int):
        """The root span of one request; sets the current request id."""
        self.request_id = request_id
        try:
            with self.span("request", "request"):
                yield
        finally:
            self.request_id = BACKGROUND

    def async_span(self, layer: str, name: str, start_ns: int, end_ns: int) -> None:
        """A span that overlaps others (an RPC in flight); kept apart
        from the self-time fold."""
        self.async_spans.append((self.request_id, layer, name, start_ns, end_ns))

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, layer, name, keep, observe):
        enter, exit_, clock = self._enter, self._exit, self._clock

        def wrapper(*args, **kwargs):
            ctx = enter(keep)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(ctx, layer, name, keep, t0, clock())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, fn, layer, name, keep, observe):
        enter, exit_, clock = self._enter, self._exit, self._clock

        def timed(it, args, kwargs):
            # One span per next(): the consumer's time between two
            # items belongs to the consumer, not to this generator.
            while True:
                ctx = enter(keep)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(ctx, layer, name, keep, t0, clock())
                if observe is not None:
                    observe(args, kwargs, item)
                yield item

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            # A method that may return None instead of a generator
            # (RingIterator.solutions_bulk) passes through unchanged.
            return it if it is None else timed(it, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else None
        self._patches.append((owner, attr, had, original))
        setattr(owner, attr, replacement)

    def install(
        self,
        owner,
        attr: str,
        layer: str,
        name: str | None = None,
        *,
        keep: bool = False,
        generator: bool | None = None,
        observe=None,
        also=(),
    ) -> None:
        """Wrap ``owner.attr`` (a class or a module attribute) as a span
        source of ``layer``.

        ``generator`` defaults to whether the callable is a generator
        function; pass ``True`` for a plain function that *returns* a
        generator.  ``observe(args, kwargs, result)`` sees every call
        (every yielded item for generators).  ``also`` lists further
        ``(owner, attr)`` bindings of the same callable (modules that
        imported it by name) to point at the same wrapper.
        """
        fn = getattr(owner, attr)
        if isinstance(vars(owner).get(attr), (staticmethod, classmethod, property)):
            raise TypeError(f"{owner.__name__}.{attr}: only plain functions wrap")
        if generator is None:
            generator = inspect.isgeneratorfunction(fn)
        make = self._wrap_generator if generator else self._wrap_call
        wrapper = make(fn, layer, name or attr, keep, observe)
        self.patch(owner, attr, wrapper)
        for other, other_attr in also:
            if getattr(other, other_attr) is not fn:
                raise ValueError(
                    f"{other.__name__}.{other_attr} is not {owner.__name__}.{attr}"
                )
            self.patch(other, other_attr, wrapper)

    def restore(self) -> None:
        """Put every original back (last patch first)."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- overhead ------------------------------------------------------------

    def calibrate(self, calls: int = 20_000) -> tuple[float, float]:
        """Measure the wrapper's own cost on a no-op.

        Returns ``(inner_ns, outer_ns)`` per call and stores them for
        :meth:`fold`.  Uses a throw-away tracer so the calibration spans
        never reach this one's accumulators.
        """

        def noop(self_, arg):
            pass

        clock = self._clock
        rounds = []
        for _ in range(5):
            probe = Tracer(clock)
            wrapped = probe._wrap_call(noop, "calibration", "noop", False, None)
            # Under an open request, as every real wrapped call is.
            with probe.request(0):
                for fn in (noop, wrapped):  # warm both paths
                    for _ in range(1000):
                        fn(None, 1)
                probe._tls.cells.pop(("calibration", "noop"))
                t0 = clock()
                for _ in range(calls):
                    noop(None, 1)
                bare = (clock() - t0) / calls
                t0 = clock()
                for _ in range(calls):
                    wrapped(None, 1)
                total = (clock() - t0) / calls
            cell = probe._tls.cells[("calibration", "noop")]
            inner = max(cell[_TOTAL] / cell[_CALLS], 0.0)
            rounds.append((max(total - bare, inner), inner))
        # The middle round: a scheduling hiccup must not set the constant.
        whole, inner = sorted(rounds)[len(rounds) // 2]
        self.inner_ns, self.outer_ns = inner, whole - inner
        return self.inner_ns, self.outer_ns

    # -- folding -------------------------------------------------------------

    def cells(self) -> dict:
        """Accumulators merged over threads: ``(request_id, layer)`` and
        ``(layer, name)`` keys to ``[calls, total_ns, self_ns, child_calls]``."""
        merged: dict = {}
        with self._lock:
            per_thread = list(self._thread_cells)
        for cells in per_thread:
            for key, cell in list(cells.items()):
                into = merged.setdefault(key, [0, 0, 0, 0])
                for i in range(4):
                    into[i] += cell[i]
        return merged

    def corrected_self_ns(self, cell) -> float:
        """Self time of one accumulator cell minus the wrappers' cost."""
        return max(
            cell[_SELF] - cell[_CALLS] * self.inner_ns - cell[_KIDS] * self.outer_ns,
            0.0,
        )

    def fold(self) -> "Fold":
        return Fold(self)

    def write(self, path, extra: dict | None = None) -> None:
        """Dump kept spans and the per-callable accumulators as JSON."""
        merged = self.cells()
        doc = {
            "span_fields": ["id", "request", "layer", "name", "start_ns",
                            "end_ns", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "async_span_fields": ["request", "layer", "name", "start_ns", "end_ns"],
            "async_spans": self.async_spans,
            "calibration": {"inner_ns": self.inner_ns, "outer_ns": self.outer_ns},
            "callables": {
                f"{key[0]}:{key[1]}": {
                    "calls": cell[_CALLS],
                    "total_ns": cell[_TOTAL],
                    "self_ns": cell[_SELF],
                    "child_calls": cell[_KIDS],
                }
                for key, cell in sorted(merged.items(), key=lambda kv: str(kv[0]))
                if isinstance(key[0], str)
            },
        }
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)


class Fold:
    """Read-side view of a finished trace: per-layer and per-request sums."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        merged = tracer.cells()
        self.by_request: dict[int, dict[str, list]] = {}
        self.by_callable: dict[tuple[str, str], list] = {}
        for key, cell in merged.items():
            if isinstance(key[0], str):
                self.by_callable[key] = cell
            else:
                self.by_request.setdefault(key[0], {})[key[1]] = cell

    def requests(self) -> list[int]:
        return sorted(r for r in self.by_request if r != BACKGROUND)

    def request_wall_ns(self) -> int:
        """Total duration of the request root spans (wrappers included)."""
        return sum(
            layers["request"][_TOTAL]
            for rid, layers in self.by_request.items()
            if rid != BACKGROUND and "request" in layers
        )

    def corrected_wall_ns(self) -> float:
        """The requests' wall time with the wrappers' cost taken out: the
        corrected self times of every layer, root included, summed.  The
        self shares are fractions of this, so they add up to 1."""
        fix = self._tracer.corrected_self_ns
        return sum(
            fix(cell)
            for rid, layers in self.by_request.items()
            if rid != BACKGROUND
            for cell in layers.values()
        )

    def layer_self_ns(self, layer: str, background: bool = False) -> float:
        """Corrected self time of ``layer`` summed over requests (or
        over background work)."""
        fix = self._tracer.corrected_self_ns
        return sum(
            fix(layers[layer])
            for rid, layers in self.by_request.items()
            if (rid == BACKGROUND) == background and layer in layers
        )

    def layer_self_by_request_ns(self, layer: str) -> list[float]:
        """Corrected self time of ``layer`` in each request it ran in."""
        fix = self._tracer.corrected_self_ns
        return [
            fix(self.by_request[rid][layer])
            for rid in self.requests()
            if layer in self.by_request[rid]
        ]

    def calls(self, layer: str, name: str) -> int:
        cell = self.by_callable.get((layer, name))
        return cell[_CALLS] if cell else 0

    def total_ns(self, layer: str, name: str) -> int:
        cell = self.by_callable.get((layer, name))
        return cell[_TOTAL] if cell else 0

    def layer_calls(self, layer: str) -> int:
        return sum(
            cell[_CALLS] for (lay, _), cell in self.by_callable.items() if lay == layer
        )

    def durations_ns(self, layer: str, name: str) -> list[int]:
        """Durations of the kept spans of one callable."""
        return [
            s[5] - s[4]
            for s in self._tracer.spans
            if s[2] == layer and s[3] == name
        ]
