"""Each committed BENCH_<n>.json claim starts with `<workload> <metric>`:
a workload BENCHMARK.json declares and one of its end-to-end metrics, so a
typo in a claim fails here rather than pointing at nothing."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def test_there_are_records_to_check():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_claim_names_a_declared_workload_and_metric(path):
    workload, metric = json.loads(path.read_text(encoding="utf-8"))["claim"].split()[:2]
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    assert metric.rstrip(":") in {m["name"] for m in BENCHMARK["end_to_end"]}
