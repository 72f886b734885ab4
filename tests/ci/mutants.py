"""Seeded defects the test suite must keep catching.

Each entry in MUTANTS is one defect: in `file` (under src/) the `old` text,
which must occur there exactly once, becomes `new`, and the pytest
`selection` must then fail. `origin` says where the defect was first seen.
A change to a catalogued line updates its entry, and this run shows that
the entry is still caught.

    python3 tests/ci/mutants.py

checks every entry's old text first, and exits 1 listing each entry whose
text is missing or occurs more than once. It then copies src/ to a temporary
directory and runs each selection there, with PYTHONPATH on the copy: once
unmutated, where it must pass, and once per entry with that entry applied,
where a test must fail (pytest's exit code 1; no tests collected is not a
catch). It exits 0 only when every entry is caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str
    new: str
    selection: tuple  # pytest arguments; a test path is relative to the repository root
    origin: str  # the defect, and the CHANGES.md entry that first saw it


MUTANTS = (
    Mutant(
        "paraloq/logstore.py",
        "            last_t = t\n            sink(row)\n",
        "            last_t = t\n"
        "            try:\n"
        "                sink(row)\n"
        "            except OSError as exc:\n"
        '                raise CsvParseError(0, f"cannot read input: {path}: {exc}") from exc\n',
        ("tests/test_logstore.py", "-k", "an_os_error_a_sink_raises"),
        "the read's try widened to the sink (CHANGES.md: read_rows pulls its own lines)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "_NCOLS = len(_COLUMNS)\n",
        "_NCOLS = len(_COLUMNS) - 1\n",
        ("tests/test_logstore.py", "-k", "wrong_column_count"),
        "the column count one short (CHANGES.md: read_rows pulls its own lines)",
    ),
    Mutant(
        "paraloq/logstore.py",
        '            if line == "":\n                continue\n            if line[0] == "#":\n',
        '            comment = line[0] == "#"\n'
        '            if line == "":\n'
        "                continue\n"
        "            if comment:\n",
        ("tests/test_logstore.py::TestRead::test_a_byte_that_is_not_utf8_names_its_line",),
        'line[0] == "#" tested before the empty-line check (CHANGES.md: read_rows pulls its own lines)',
    ),
    Mutant(
        "paraloq/adc0808.py",
        "    while code and v_in < code * vref / 256.0:\n        code -= 1\n",
        "",
        ("tests/test_adc0808.py", "-k", "8_step_loop"),
        "sar_convert without its downward loop (CHANGES.md: sar_convert finds its code from one division)",
    ),
    Mutant(
        "paraloq/adc0808.py",
        "    while code < CODE_MAX and v_in >= (code + 1) * vref / 256.0:\n        code += 1\n",
        "",
        ("tests/test_adc0808.py", "-k", "8_step_loop"),
        "sar_convert without its upward loop (CHANGES.md: sar_convert finds its code from one division)",
    ),
    Mutant(
        "paraloq/adc0808.py",
        "    while code and v_in < code * vref / 256.0:\n"
        "        code -= 1\n"
        "    while code < CODE_MAX and v_in >= (code + 1) * vref / 256.0:\n",
        "    while code and v_in < code * (vref / 256.0):\n"
        "        code -= 1\n"
        "    while code < CODE_MAX and v_in >= (code + 1) * (vref / 256.0):\n",
        ("tests/test_adc0808.py", "-k", "8_step_loop"),
        "sar_convert's thresholds as code * (vref / 256.0) (CHANGES.md: sar_convert finds its code from one division)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "    if 0 < wet_code <= dry_code < CODE_MAX:\n",
        "    if 0 < wet_code < dry_code < CODE_MAX:\n",
        ("tests/test_acquisition.py", "-k", "test_every_interior_code_pair_has_the_humidity_reading_gives"),
        "the humidity guard drops the wet == dry pairs"
        " (CHANGES.md: Anti-alias substeps pay only for their three counted calls)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "for j in range(1, substeps + 1))",
        "for j in range(1, substeps))",
        ("tests/test_acquisition.py", "-k", "test_lanes_match_a_per_step_alpha_reference"),
        "a dropped filter substep offset (CHANGES.md: Anti-alias substeps pay only for their three counted calls)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "        if -0.4999 < y - n < 0.4999:\n",
        "        if -0.5 <= y - n <= 0.5:\n",
        ("tests/test_logstore.py", "-k", "round6"),
        "_round6 with no margin around a tie (CHANGES.md: A row's float fields are rounded by float arithmetic)",
    ),
    Mutant(
        "paraloq/signal_chain.py",
        "    return 0.0 if v < 0.0 else clamp\n",
        "    return v\n",
        ("tests/test_signal_chain.py", "-k", "clamp"),
        "chain_voltage returning v unclamped (CHANGES.md: Anti-alias substeps pay only for their three counted calls)",
    ),
    Mutant(
        "paraloq/pport.py",
        "range(1, TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION + 1))",
        "range(1, TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION + 2))",
        ("tests/test_pport.py", "-k", "timeout_budget_is_ten_conversions"),
        "161 poll indices (CHANGES.md: The EOC poll walks a fixed count of float poll indices)",
    ),
    Mutant(
        "paraloq/pport.py",
        "range(1, TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION + 1))",
        "range(2, TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION + 1))",
        ("tests/test_pport.py", "-k", "16_polls_5_writes"),
        "a poll loop that skips the first index (CHANGES.md: The EOC poll walks a fixed count of float poll indices)",
    ),
    Mutant(
        "paraloq/adc0808.py",
        "    return math.floor(min(max(v_in * 256.0 / cfg.vref, 0.0), float(CODE_MAX)))\n",
        "    return min(max(math.floor(v_in * 256.0 / cfg.vref), 0), CODE_MAX)\n",
        ("tests/test_acquisition.py", "-k", "the_ends_of_the_float_range_are_finite and quantize"),
        "quantize flooring before its clamp (CHANGES.md: One finite rule in errors)",
    ),
    Mutant(
        "paraloq/pport.py",
        "        if not self._now <= t_s <= FLOAT_MAX:",
        "        if t_s < self._now or t_s > FLOAT_MAX:",
        ("tests/test_pport.py", "-k", "a_nan_time_is_rejected"),
        "advance_to(nan) accepted (CHANGES.md: MENDED: SimulatedPort.advance_to accepts nan)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "    dry_at = _FilteredChain(cfg.chain, ",
        "    dry_at = _FilteredChain(ChainConfig(), ",
        ("tests/test_acquisition.py", "-k", "test_lanes_match_a_per_step_alpha_reference"),
        "a lane built from ChainConfig() in place of cfg.chain (CHANGES.md: One analog front end for both channels)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        set_input(dry_mux, dry_at(t))\n"
        "        dry_code = acquire_byte(port, dry_mux)\n"
        "        set_input(wet_mux, wet_at(t))\n"
        "        wet_code = acquire_byte(port, wet_mux)\n",
        "        set_input(wet_mux, wet_at(t))\n"
        "        wet_code = acquire_byte(port, wet_mux)\n"
        "        set_input(dry_mux, dry_at(t))\n"
        "        dry_code = acquire_byte(port, dry_mux)\n",
        ("tests/test_acquisition.py", "-k", "test_a_run_is_its_straight_line_reference"),
        "the DRY and WET noise draws swapped (CHANGES.md: One copy of each port rule)",
    ),
)


def stale(mutants) -> list:
    """One line for each entry whose old text does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / "src" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.file}: old text occurs {count} times, not once ({m.origin}): {m.old!r}")
    return problems


def pytest(selection, src: Path) -> tuple:
    """pytest's exit code for the selection run against the package in src,
    the seconds it took, and its output."""
    args = [str(ROOT / arg) if arg.startswith("tests/") else arg for arg in selection]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=src.parent,  # hypothesis keeps its example database in the working directory
        env=env,
        capture_output=True,
        text=True,
    )
    return done.returncode, time.perf_counter() - start, done.stdout + done.stderr


def main() -> int:
    problems = stale(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            code, seconds, output = pytest(selection, src)
            print(f"{'passes' if code == 0 else 'FAILS ':6} unmutated  {seconds:5.1f} s  {' '.join(selection)}")
            if code != 0:
                print(output)
                failures += 1
        for m in MUTANTS:
            target = src / m.file
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, seconds, output = pytest(m.selection, src)
            finally:
                target.write_text(text, encoding="utf-8")
            print(f"{'caught' if code == 1 else 'MISSED':6} exit {code}     {seconds:5.1f} s  {m.origin}")
            if code != 1:
                print(output)
                failures += 1
    print(f"{len(MUTANTS)} entries, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
