"""Golden logs and charts of the benchmark workloads, rebuilt in-process byte for byte.

The configs come from ``perfbench/workloads.py`` and the digests from
``perfbench/golden.json``, so both have one source of truth. Together they
cover code noise, the anti-alias filter and rows whose humidity is skipped.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from paraloq import build_port, logstore, read_csv, run_acquisition, write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_perfbench("workloads")
spans = _load_perfbench("spans")


@pytest.fixture(scope="module")
def acquired():
    """The seed-0 run of a workload and the port it ran on, acquired once per
    module (postprocess is 7,201 rows)."""
    runs = {}

    def run(name):
        if name not in runs:
            cfg = workloads.CONFIGS[name](0)
            port = build_port(cfg)
            runs[name] = run_acquisition(cfg, port=port), port
        return runs[name]

    return run


@pytest.mark.parametrize(
    "name, digest",
    [
        ("steady", GOLDEN["steady"]["csv_sha256"]),
        ("filtered_sine", GOLDEN["filtered_sine"]["csv_sha256"]),
        ("postprocess", GOLDEN["postprocess"]["source"]["csv_sha256"]),
    ],
    ids=["steady", "filtered_sine", "postprocess_source"],
)
def test_seed_0_workload_log_is_byte_identical(tmp_path, acquired, name, digest):
    path = tmp_path / "run.csv"
    write_csv(acquired(name)[0], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["steady", "filtered_sine", "postprocess"])
def test_seed_0_workload_port_clock_is_the_golden_sim_time(acquired, name):
    # the port clock steps one EOC poll at a time, so a drift in that
    # arithmetic moves the time it stands at after the run
    _, port = acquired(name)
    assert port.now_s == GOLDEN[name]["counts"]["pport.sim_s"]


@pytest.mark.parametrize("name", ["steady", "filtered_sine", "postprocess"])
def test_seed_0_workload_charts_are_byte_identical(acquired, name):
    # the charts `paraloq plot` draws of the logged dry_temp_c column
    ascii_text, svg_text, _ = workloads.render_charts(*workloads.plot_series(acquired(name)[0]))
    assert workloads.sha256_text(ascii_text) == GOLDEN[name]["ascii_sha256"]
    assert workloads.sha256_text(svg_text) == GOLDEN[name]["svg_sha256"]


def test_a_traced_pass_reads_a_log_through_its_flush_counting_open(tmp_path, monkeypatch, acquired):
    # a traced pass puts perfbench's counting open in place of logstore.open; its
    # files forward attribute lookups but not iteration, and reading flushes nothing
    run = acquired("steady")[0]
    path = tmp_path / "run.csv"
    write_csv(run, path)
    counter = spans.Counter()
    monkeypatch.setattr(logstore, "open", counter.counting_open(), raising=False)
    assert read_csv(path) == run
    assert counter.counts == {"flush": 0}
