"""Each committed BENCH_<n>.json is complete and correct. Its claim starts
with `<workload> <metric>`: a workload BENCHMARK.json declares and one of its
end-to-end metrics, so a typo in a claim fails here rather than pointing at
nothing. It says how it was made (`command`, `seeds`, `machine`), holds at
least one recorded run, and every recorded run is correct with none failed."""

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


def runs(node):
    """The recorded runs in a record: perfbench result lines, the dicts that
    hold `correct` (with `attempted`, `failed` and `metrics`), at any depth."""
    if isinstance(node, dict):
        if "correct" in node:
            yield node
        else:
            for value in node.values():
                yield from runs(value)
    elif isinstance(node, list):
        for value in node:
            yield from runs(value)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_says_how_it_was_made(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [key for key in ("command", "seeds", "machine") if key not in doc] == []


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_every_recorded_run_is_correct_with_none_failed(path):
    recorded = list(runs(json.loads(path.read_text(encoding="utf-8"))))
    assert recorded, "no recorded runs"
    for run in recorded:
        assert (run.get("correct"), run.get("failed")) == (True, 0)
