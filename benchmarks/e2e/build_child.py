"""One out-of-core build in a fresh process (``bulk_build`` workload).

    python build_child.py SOURCE.bin OUT.ring N_NODES N_PREDICATES CHUNK_TRIPLES

Prints one JSON object: the wall time of ``bulk_build`` alone, the time
spent in each of its phases, its own counters, and this process's peak
resident set — measured here because the builder's promise is that a
build stays out of core, and only a fresh process has a clean high-water
mark.
"""

from __future__ import annotations

import json
import sys
import time

from harness import peak_rss_mb


class PhaseClock(dict):
    """A ``stats=`` dict that notes when ``bulk_build`` sets ``phase``."""

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[tuple[str, float]] = []

    def __setitem__(self, key, value) -> None:
        if key == "phase":
            self.marks.append((value, time.perf_counter()))
        super().__setitem__(key, value)

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def phase_seconds(self) -> dict[str, float]:
        """Seconds between each phase's start and the next one's."""
        return {
            name: self.marks[i + 1][1] - started
            for i, (name, started) in enumerate(self.marks[:-1])
        }


def build(source: str, out: str, n_nodes: int, n_predicates: int, chunk: int) -> dict:
    from repro.graph.bulkload import bulk_build

    stats = PhaseClock()
    t0 = time.perf_counter()
    manifest = bulk_build(
        source, out, chunk_triples=chunk, n_nodes=n_nodes,
        n_predicates=n_predicates, workers=0, stats=stats,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "n_triples": int(manifest["n_triples"]),
        "phases": stats.phase_seconds(),
        "stats": {k: v for k, v in stats.items() if isinstance(v, (int, float))},
    }


def main(argv) -> int:
    source, out, n_nodes, n_predicates, chunk = argv
    report = build(source, out, int(n_nodes), int(n_predicates), int(chunk))
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
