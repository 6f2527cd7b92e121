"""BENCHMARK.json restates the registry and meets the driver's contract."""

import json
import re

import registry
from harness import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_restates_the_registry():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["workloads"] == [
        {"name": name, "why": why} for name, why in registry.WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registry.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in registry.PER_LAYER]


def test_contract_limits():
    doc = load()
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 x workloads runs must fit 3420 s; a run is ~25 s here.
    assert (4 + 22 * len(doc["workloads"])) * 28 <= 3420


def test_every_gap_mirrors_a_metric_that_applies_everywhere():
    by_name = {m.name: m for m in registry.END_TO_END}
    for metric in registry.END_TO_END:
        if set(metric.applies) != set(registry.WORKLOADS):
            source = by_name[metric.mirrors]
            assert set(source.applies) == set(registry.WORKLOADS)
            assert (source.unit, source.better) == (metric.unit, metric.better)
    measured = {m.name: float(i + 1) for i, m in enumerate(registry.END_TO_END)}
    filled = registry.fill_end_to_end("bulk_build", measured)
    assert list(filled) == [m.name for m in registry.END_TO_END]
    assert filled["cyclic_p50_ms"] == filled["read_p50_ms"]
    assert filled["write_p90_ms"] == filled["read_p90_ms"]
