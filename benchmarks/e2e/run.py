"""The repository's one benchmark: five workloads end to end, every
answer checked, every metric printed as ``workload metric value unit``.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0            # the suite
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --traced   # + per-layer
    python benchmarks/e2e/run.py --workload serve_hot --seed 3 --seconds 10 --trace 0

The last form is what ``BENCHMARK.json`` names: one workload, one run,
and as the last line of standard output one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import registry  # noqa: E402
import workloads  # noqa: E402

#: workload -> (module, extra arguments of its ``run`` / ``run_traced``).
RUNNERS = {
    "wgpb_static": ("wl_wgpb", {}),
    "serve_hot": ("wl_serve", {"workload": "serve_hot"}),
    "serve_rw": ("wl_serve", {"workload": "serve_rw"}),
    "shard_scatter": ("wl_shard", {}),
    "bulk_build": ("wl_bulk", {}),
}
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 1.0


def run_one(workload: str, seed: int, seconds: float, sizes, traced: bool):
    name, kwargs = RUNNERS[workload]
    module = importlib.import_module(name)
    if traced:
        harness.OUT.mkdir(exist_ok=True)
        trace_path = harness.OUT / f"trace-{workload}.json"
        return module.run_traced(seed, seconds, sizes, trace_path, **kwargs)
    return module.run(seed, seconds, sizes, **kwargs)


def print_result(result, traced: bool) -> None:
    """``workload metric value unit`` lines, then counts and hashes."""
    w = result.workload
    if traced:
        for metric in registry.PER_LAYER:
            print(f"{w} {metric.name} {result.layers[metric.name]:.6g} {metric.unit}")
    else:
        for metric in registry.END_TO_END:
            if w in metric.applies:
                print(f"{w} {metric.name} {result.measured[metric.name]:.6g} "
                      f"{metric.unit}")
        share = result.failed / max(result.attempted, 1)
        print(f"{w} failed_share {share:.6g} ratio")
        if "lost_write_share" in result.info:
            print(f"{w} lost_write_share {result.info['lost_write_share']:.6g} ratio")
    for key, value in result.info.items():
        if key != "lost_write_share":
            print(f"{w} info.{key} {value:.6g}" if isinstance(value, float)
                  else f"{w} info.{key} {value}")
    print(f"{w} attempted {result.attempted} failed {result.failed}")
    for reason in result.failures:
        print(f"{w} FAILURE {reason}")
    print(f"{w} inputs_sha256 {result.inputs_sha256}")
    print(f"{w} answers_sha256 {result.answers_sha256}")


def result_json(result, traced: bool) -> str:
    if traced:
        metrics = {
            m.name: {"value": float(result.layers[m.name]), "unit": m.unit}
            for m in registry.PER_LAYER
        }
    else:
        filled = registry.fill_end_to_end(result.workload, result.measured)
        metrics = {
            m.name: {"value": float(filled[m.name]), "unit": m.unit}
            for m in registry.END_TO_END
        }
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    })


def run_isolated(workload: str, seed: int, seconds: float, quick: bool,
                 traced: bool) -> dict:
    """One run in a process of its own, the way the driver makes it: a
    fresh ``VmHWM`` and no heap left behind by the previous workload
    (in one process the second ``wgpb_static`` of ``--check`` reported
    the 300 MB peak of the ``bulk_build`` before it).  Echoes the run's
    lines; returns its JSON report plus the two hashes."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    done = subprocess.run(argv + ["--quick"] * quick, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        print("\n".join(lines))
        raise SystemExit(f"{workload}: run exited with {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("inputs_sha256", "answers_sha256"):
            report[parts[1]] = parts[2]
    return report


def run_suite(seed: int, seconds: float, quick: bool, traced: bool) -> dict:
    reports = {}
    for workload in registry.WORKLOADS:
        reports[workload] = run_isolated(workload, seed, seconds, quick, False)
        if traced:
            run_isolated(workload, seed, seconds, quick, True)
    return reports


def check(seed: int, seconds: float, quick: bool) -> int:
    """Two full sets back to back; non-zero if an end-to-end metric of
    the second differs from the first by more than its bound, or inputs
    or answers differ."""
    first = run_suite(seed, seconds, quick, False)
    second = run_suite(seed, seconds, quick, False)
    bad = 0
    print(f"{'workload':<14} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for workload in registry.WORKLOADS:
        a, b = first[workload], second[workload]
        for metric in registry.END_TO_END:
            if workload not in metric.applies:
                continue
            x = a["metrics"][metric.name]["value"]
            y = b["metrics"][metric.name]["value"]
            diff = abs(y - x) / x
            verdict = "" if diff <= metric.bound else "  OUT OF BOUND"
            bad += bool(verdict)
            print(f"{workload:<14} {metric.name:<24} {x:>12.5g} {y:>12.5g} "
                  f"{diff:>8.3f} {metric.bound:>6.2f}{verdict}")
        for what in ("inputs_sha256", "answers_sha256"):
            if a[what] != b[what]:
                bad += 1
                print(f"{workload:<14} {what} DIFFERS")
        if a["failed"] or b["failed"]:
            bad += 1
            print(f"{workload:<14} failed operations: {a['failed']}, {b['failed']}")
    print("check:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default 10; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced, per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="suite: follow each workload by its traced run")
    parser.add_argument("--check", action="store_true",
                        help="suite twice; fail if a metric moves past its bound")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, whole suite under 30 s, answers checked")
    args = parser.parse_args(argv)
    harness.require_program()
    sizes = workloads.QUICK if args.quick else workloads.FULL
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    if args.workload:
        result = run_one(args.workload, args.seed, seconds, sizes, bool(args.trace))
        print_result(result, bool(args.trace))
        print(result_json(result, bool(args.trace)))
        return 0
    if args.check:
        return check(args.seed, seconds, args.quick)
    reports = run_suite(args.seed, seconds, args.quick, args.traced)
    return 1 if any(r["failed"] for r in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
