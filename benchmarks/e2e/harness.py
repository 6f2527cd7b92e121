"""Shared plumbing of the workloads: paths, statistics, the line-protocol
client, process memory, hashing."""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"


def require_program() -> None:
    """Exit non-zero when the program under test is absent (the driver
    runs the command once in a directory that holds only the benchmark)."""
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under ``out/``."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def copy_dir(template: Path, name: str) -> Path:
    """A fresh copy of ``template`` beside it, called ``name``."""
    target = template.parent / name
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(template, target)
    return target


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    closest ranks — ``numpy.percentile``'s default, reimplemented so the
    reported numbers do not depend on a numpy version's default method."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- process memory ------------------------------------------------------------


def peak_rss_mb(pid: int | None = None) -> float:
    """VmHWM of ``pid`` (default: this process) from ``/proc``, in MB."""
    with open(f"/proc/{pid or os.getpid()}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


# -- hashing -------------------------------------------------------------------


def sha256_of(*parts) -> str:
    """SHA-256 over byte strings, text and numpy arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, (bytes, bytearray)):
            part = part.tobytes()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# -- the line-protocol client ----------------------------------------------------


#: Longest a caller polls for a reply (the servers run with --timeout 10).
REPLY_TIMEOUT_S = 60.0
#: The CPUs this process may run on, as it was started.
CPUS = frozenset(os.sched_getaffinity(0))


@contextlib.contextmanager
def one_cpu():
    """Confine this process, and every process it starts meanwhile, to
    the first allowed CPU."""
    os.sched_setaffinity(0, {min(CPUS)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


class LineServer:
    """A ``repro serve`` / ``repro shard-serve`` subprocess driven over
    its stdin/stdout: one caller, one request in flight (closed loop).

    The caller waits for its reply by polling the pipe, not by sleeping
    on it: a sleeping reader is woken through the hypervisor, and on the
    shared reference VM that wake-up alone moved the median of a 0.3 ms
    request between 0.37 and 0.51 ms from one pass to the next, where
    the polled median stayed within 0.28-0.31 ms.  The price: the
    polling caller keeps one of the host's two CPUs busy (it yields it
    to whoever else can run), so the server side has about one.

    With ``pin`` that becomes exactly one: the server, and every process
    it starts, may run on the first allowed CPU only, and this process
    keeps off it until :meth:`quit`/:meth:`kill`.  ``repro shard-serve
    --processes`` is three busy processes; where they and the polling
    caller run on two CPUs is otherwise the scheduler's choice, kept for
    a second or so at a time: one heavy query asked 150 times took 30 or
    49 ms in streaks with a sleeping caller, 50 ms and at times 85 ms
    with the polling one, and 46-52 ms pinned."""

    def __init__(self, argv: list[str], pin: bool = False) -> None:
        self._pinned = pin and len(CPUS) > 1
        if self._pinned:
            os.sched_setaffinity(0, {min(CPUS)})  # the child inherits it
        try:
            self._spawn(argv)
        finally:
            if self._pinned:
                os.sched_setaffinity(0, CPUS - {min(CPUS)})

    def _spawn(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
            env=child_env(),
            cwd=str(ROOT),
            # Own process group, so shard worker processes the server
            # spawns can be found and reaped with it.
            start_new_session=True,
        )
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        self.banner: list[str] = []
        pending = b""
        while not (pending.endswith(b"\n") and pending.splitlines()[-1] == b"ready"):
            chunk = os.read(self._out, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited before ready: {' '.join(argv)}; said {pending!r}"
                )
            pending += chunk
        self.banner = pending.decode().splitlines()[:-1]
        os.set_blocking(self._out, False)

    def request(self, line: str) -> tuple[float, list[str]]:
        """Send one line; returns ``(seconds, response_lines)``, timed
        from the write to the last line of the reply."""
        query = line.startswith("QUERY")
        data = (line + "\n").encode()
        read, out = os.read, self._out
        reply = b""
        t0 = time.perf_counter()
        os.write(self._in, data)
        while True:
            try:
                chunk = read(out, 65536)
            except BlockingIOError:
                if time.perf_counter() - t0 > REPLY_TIMEOUT_S:
                    raise RuntimeError(f"no reply to {line!r}") from None
                os.sched_yield()
                continue
            if not chunk:
                raise RuntimeError(f"server died on {line!r}")
            reply += chunk
            if not reply.endswith(b"\n"):
                continue
            # Writes answer in one line; queries end with a "-- n
            # solution(s)" trailer or a one-line error.
            last = reply[reply.rfind(b"\n", 0, -1) + 1:]
            if not query or last.startswith((b"-- ", b"error:")):
                return time.perf_counter() - t0, reply.decode().splitlines(keepends=True)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def quit(self, timeout: float = 60.0) -> None:
        """Orderly shutdown (QUIT), escalating to kill."""
        if self.proc.poll() is None:
            try:
                os.write(self._in, b"QUIT\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=timeout)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        self._close()

    def kill(self) -> None:
        """``kill -9``, then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self._pinned:
            os.sched_setaffinity(0, CPUS)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        # Nothing the server started may outlive the benchmark.
        deadline = time.monotonic() + 10.0
        while _group_members(self.proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # pid (comm) state ppid pgrp ...; comm may hold spaces.
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def parse_rows(lines: list[str]) -> tuple[list[dict], str]:
    """Split a QUERY reply into ``(rows, trailer)``; a row maps
    ``"?name"`` to an id."""
    rows = []
    for line in lines[:-1]:
        row = {}
        for item in line.split():
            name, _, value = item.partition("=")
            row[name] = int(value)
        rows.append(row)
    return rows, lines[-1].rstrip("\n")


# -- run bookkeeping ---------------------------------------------------------------


@dataclass
class RunResult:
    """What one run of one workload found."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: The applicable end-to-end metrics (untraced runs).
    measured: dict = field(default_factory=dict)
    #: Every per-layer metric (traced runs).
    layers: dict = field(default_factory=dict)
    #: Sample counts and measured sizes, printed beside the metrics.
    info: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    inputs_sha256: str = ""
    answers_sha256: str = ""

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


#: Fewest passes a run makes: a per-position minimum needs a few.
MIN_PASSES = 3
#: A run whose passes have taken this many times ``--seconds`` stops early.
OVERRUN = 2.0


def timed_passes(one_pass, seconds: float, pass_s: float) -> list[list[float]]:
    """Call ``one_pass()`` — it returns the latency in seconds of each
    position of one pass — ``seconds / pass_s`` times, where ``pass_s``
    is what a pass takes on the reference host in its quiet minutes, and
    at least :data:`MIN_PASSES` times.

    The count, not the clock, ends the run: both sides of a comparison
    then do the same work, and a slow spell of the host cannot cut the
    number of samples :func:`best_latencies` takes its minima over (a
    clock-bound ``serve_rw`` run made 4 to 8 passes).  Only a run that
    has measured for :data:`OVERRUN` times ``seconds`` stops short.

    Every pass sends the same operations to the same state, so position
    ``i`` is the same operation in each."""
    count = max(MIN_PASSES, round(seconds / pass_s))
    passes: list[list[float]] = []
    spent = 0.0
    while len(passes) < count and (
        len(passes) < MIN_PASSES or spent < OVERRUN * seconds
    ):
        passes.append(one_pass())
        spent += sum(passes[-1])
    return passes


def best_latencies(passes) -> list[float]:
    """Per position, the fastest of the passes' latencies.

    The reference host is a shared VM whose speed drops by 30-70 % for
    seconds to a minute at a time (README, "Host noise"): the noise only
    ever adds time, and a third of all time is slow, so a median over
    passes still moves with it where the minimum over passes a few
    seconds apart does not.  Percentiles are then taken *over positions*:
    a p90 is still the 90th percentile over requests — what the minimum
    removes is the host's bad moments, not the program's slow requests,
    which are slow in every pass."""
    return [min(column) for column in zip(*passes)]


def timed_setups(reps: int, build, teardown=None):
    """Run the set-up ``reps`` times — a shorter set-up up to sixteen
    times as often, until 2.5 seconds have gone into it.
    ``build(rep)`` returns ``(state, build_seconds)``; every state but
    the last is handed to ``teardown``, outside the timed window.
    Returns the last state, the fastest set-up's seconds and the fastest
    build's seconds (fastest, not median, for the reason
    :func:`best_latencies` gives)."""
    walls, builds = [], []
    while True:
        t0 = time.perf_counter()
        state, build_s = build(len(walls))
        walls.append(time.perf_counter() - t0)
        builds.append(build_s)
        if len(walls) >= reps and (len(walls) >= 16 * reps or sum(walls) >= 2.5):
            return state, min(walls), min(builds)
        if teardown is not None:
            teardown(state)
