"""Golden logs of the benchmark workloads, rebuilt in-process byte for byte.

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

from paraloq import run_acquisition, write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize(
    "config, digest",
    [
        (workloads.filtered_sine_config, GOLDEN["filtered_sine"]["csv_sha256"]),
        (workloads.postprocess_source_config, GOLDEN["postprocess"]["source"]["csv_sha256"]),
    ],
    ids=["filtered_sine", "postprocess_source"],
)
def test_seed_0_workload_log_is_byte_identical(tmp_path, config, digest):
    path = tmp_path / "run.csv"
    write_csv(run_acquisition(config(0)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
