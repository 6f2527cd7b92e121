"""Process peak-RSS reading for the out-of-core builder's telemetry."""

from __future__ import annotations

import sys

__all__ = ["peak_rss_bytes"]


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes (``None`` when the
    platform offers neither ``/proc`` nor ``getrusage``).

    A high-water mark, not a current reading: it only ever grows, which
    is exactly the number the out-of-core RSS gates need.  On Linux the
    source is ``VmHWM`` from ``/proc/self/status``: unlike
    ``ru_maxrss`` it is reset by ``execve``, so a freshly spawned
    benchmark subprocess measures *its own* peak instead of inheriting
    the forking parent's (``ru_maxrss`` survives fork+exec and would
    report the parent's high-water mark as the child's floor).
    Elsewhere we fall back to ``getrusage`` — kilobytes on Linux, bytes
    on macOS, normalised to bytes so every caller reports one unit.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - no /proc
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes already
        return int(peak)
    return int(peak) * 1024

