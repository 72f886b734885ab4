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
catch). Each pytest call starts in a fresh empty working directory, so an
entry's catch does not rest on examples an earlier call saved, and runs
under the "no-shrink" hypothesis profile of tests/conftest.py, which stops
at the first failing example. It exits 0 only when every entry is caught.
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
        ("tests/test_logstore.py", "-k", "blank_lines_change_no_row"),
        'line[0] == "#" tested before the empty-line check (CHANGES.md: read_rows pulls its own lines)',
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
        ("tests/test_logstore.py", "-k", "finite6_is_round"),
        "_finite6's float arithmetic with no margin around a tie"
        " (CHANGES.md: A row's float fields are rounded by float arithmetic)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "            return n / 1e6 if n else x * 0.0",
        "            return n / 1e6",
        ("tests/test_logstore.py", "-k", "finite6_is_round"),
        "_finite6's float arithmetic rounding a small negative value to 0.0, not -0.0"
        " (CHANGES.md: A row's float fields are rounded by float arithmetic)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "    if type(x) is float and -1e6 < x < 1e6:\n",
        "    if type(x) is float and -1e10 < x < 1e10:\n",
        ("tests/test_logstore.py", "-k", "finite6_is_round"),
        "_finite6's float arithmetic used up to 1e10, not 1e6"
        " (CHANGES.md: A row's float fields are rounded by float arithmetic)",
    ),
    Mutant(
        "paraloq/signal_chain.py",
        "    return 0.0 if v < 0.0 else VREF\n",
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
        "    return math.floor(min(max(v_in * 256.0 / VREF, 0.0), float(CODE_MAX)))\n",
        "    return min(max(math.floor(v_in * 256.0 / VREF), 0), CODE_MAX)\n",
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
        "paraloq/pport.py",
        "            self._busy_until = math.inf\n            return\n",
        "            return\n",
        ("tests/test_pport.py", "-k", "reconnected_mid_handshake"),
        "a START+ALE edge on a disconnected port leaving the last conversion's EOC and latch"
        " (CHANGES.md: The zener clamp is VREF)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "lowpass_alpha(dt_sub, cfg.filter_cutoff_hz)",
        "lowpass_alpha(dt_sub, RunConfig.filter_cutoff_hz)",
        ("tests/test_acquisition.py", "-k", "test_lanes_match_a_per_step_alpha_reference"),
        "a front end built with the default cutoff in place of cfg.filter_cutoff_hz"
        " (CHANGES.md: One analog front end for both channels; One front end for both lanes)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        set_input(dry_mux, dry_volts)\n"
        "        dry_code = acquire_byte(port, dry_mux)\n"
        "        set_input(wet_mux, wet_volts)\n"
        "        wet_code = acquire_byte(port, wet_mux)\n",
        "        set_input(wet_mux, wet_volts)\n"
        "        wet_code = acquire_byte(port, wet_mux)\n"
        "        set_input(dry_mux, dry_volts)\n"
        "        dry_code = acquire_byte(port, dry_mux)\n",
        ("tests/test_golden.py", "-k", "byte_identical and filtered_sine"),
        "the DRY and WET noise draws swapped"
        " (CHANGES.md: One copy of each port rule; One front end for both lanes)",
    ),
    Mutant(
        "paraloq/plotting.py",
        '    y_text = "%.2f" if v_ok else "%.2f" % (_MARGIN_TOP + 0.5 * plot_h)\n',
        '    y_text = "%.2f" if v_ok else "%.2f" % (_MARGIN_LEFT + 0.5 * plot_w)\n',
        ("tests/test_plotting.py", "-k", "block_seams or flat_series"),
        "the flat y text formatted from the x centre (CHANGES.md: A flat SVG axis is formatted once)",
    ),
    Mutant(
        "paraloq/plotting.py",
        "t_values[start : start + _BLOCK + 1]]",
        "t_values[start : start + _BLOCK]]",
        ("tests/test_plotting.py", "-k", "refused"),
        "the t order checked within blocks but not across their seams (CHANGES.md: A flat SVG axis is formatted once)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "        if self._last_t is not None and t <= self._last_t:\n",
        "        if self._last_t is not None and t < self._last_t:\n",
        ("tests/test_logstore.py", "-k", "rows_must_advance_in_time and same"),
        "a writer row at the last row's t_s accepted"
        " (CHANGES.md: Public names that only tests reached are deleted)",
    ),
    Mutant(
        "paraloq/psychro.py",
        "    if not 0 < e_hpa <= FLOAT_MAX:\n",
        "    if not 0 <= e_hpa <= FLOAT_MAX:\n",
        ("tests/test_psychro.py", "-k", "vapor_pressure_of_zero"),
        "dew_point_from_vapor_pressure(0.0) escaping as math.log's ValueError"
        " (CHANGES.md: Public names that only tests reached are deleted)",
    ),
    Mutant(
        "paraloq/errors.py",
        "low <= value <= FLOAT_MAX if inclusive",
        "low <= value < FLOAT_MAX if inclusive",
        ("tests/test_acquisition.py", "-k", "largest_float_passes_a_lower_bound"),
        "require_above(..., inclusive=True) rejecting FLOAT_MAX"
        " (CHANGES.md: Public names that only tests reached are deleted)",
    ),
    Mutant(
        "paraloq/psychro.py",
        "    if not 0.0 <= wet_c <= dry_c <= FLOAT_MAX:",
        "    if not 0.0 <= wet_c <= dry_c < FLOAT_MAX:",
        ("tests/test_psychro.py", "-k", "impossible_depression and FLOAT_MAX"),
        "reading(FLOAT_MAX, 10.0) as a wet bulb above the dry"
        " (CHANGES.md: Public names that only tests reached are deleted)",
    ),
    Mutant(
        "paraloq/psychro.py",
        "    if e <= 0.0:\n",
        "    if e < 0.0:\n",
        ("tests/test_psychro.py", "-k", "vapor_pressure_of_exactly_zero"),
        "an e of exactly 0.0 passed on to dew_point_from_vapor_pressure"
        " (CHANGES.md: CI runs from files)",
    ),
    Mutant(
        "paraloq/plotting.py",
        "    if len(text) > _GUTTER:\n",
        "    if len(text) >= _GUTTER:\n",
        ("tests/test_plotting.py", "-k", "as_wide_as_the_gutter"),
        "a 10-character axis label cut to 3 digits"
        " (CHANGES.md: Public names that only tests reached are deleted)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        if not self.duration_s * self.sample_rate_hz <= FLOAT_MAX:  # or tick_count overflows\n",
        "        if False:\n",
        ("tests/test_acquisition.py", "-k", "tick_count_overflows"),
        "RunConfig(duration_s=1e308, sample_rate_hz=10) built, then tick_count() raised OverflowError"
        " (CHANGES.md: One scaling rule)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        if len(Channel) * latency_s > 1.0 / self.sample_rate_hz:\n",
        "        if len(Channel) * latency_s >= 1.0 / self.sample_rate_hz:\n",
        ("tests/test_acquisition.py", "-k", "fill_the_tick_exactly"),
        "two conversions that fill the tick exactly rejected (CHANGES.md: One scaling rule)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        if not self.duration_s * self.sample_rate_hz <= FLOAT_MAX:  # or tick_count overflows\n",
        "        if not self.duration_s * self.sample_rate_hz < FLOAT_MAX:  # or tick_count overflows\n",
        ("tests/test_acquisition.py", "-k", "exactly_float_max"),
        "a tick count of exactly FLOAT_MAX rejected (CHANGES.md: tests for what the narrower schema keeps)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "noise_sigma_lsb={adc.noise_sigma_lsb!r})",
        "noise_sigma_lsb=0.0)",
        ("tests/test_acquisition.py", "-k", "fingerprint_keeps"),
        "the # config line blind to a non-default noise_sigma_lsb"
        " (CHANGES.md: tests for what the narrower schema keeps)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "        if self.stimuli.keys() != set(Channel):\n",
        "        if not self.stimuli.keys() >= set(Channel):\n",
        ("tests/test_acquisition.py", "-k", "stimulus_key_that_is_not_a_channel"),
        "a stimuli dict with a key that is not a channel built, then fingerprint() raised AttributeError"
        " (CHANGES.md: One clock and one conversion time)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "    if column not in SERIES_COLUMNS:\n",
        "    if column not in _COLUMNS:\n",
        ("tests/test_logstore.py", "-k", "read_series_refuses"),
        "read_series(log, 'timestamp') raised a bare TypeError (CHANGES.md: One owner for four rules)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "            if f > nyquist:\n",
        "            if f >= nyquist:\n",
        ("tests/test_acquisition.py", "-k", "up_to_nyquist"),
        "a stimulus at exactly Nyquist warned (CHANGES.md: One owner for four rules)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "@dataclass(frozen=True)\nclass RunConfig:\n",
        "@dataclass(frozen=False)\nclass RunConfig:\n",
        ("tests/test_acquisition.py", "-k", "no_field_of_a_built_config"),
        "a rate raised after the checks set a run out on 5e9 ticks (CHANGES.md: One owner for four rules)",
    ),
    Mutant(
        "paraloq/logstore.py",
        '            if "\\n" in text or text != text.rstrip():\n',
        '            if "\\n" in text:\n',
        ("tests/test_logstore.py", "-k", "meta_rejects_text"),
        "a run_id with trailing whitespace read back without it (CHANGES.md: One owner for four rules)",
    ),
    Mutant(
        "paraloq/psychro.py",
        "    if ratio >= MAGNUS_B:\n",
        "    if ratio > MAGNUS_B:\n",
        ("tests/test_psychro.py", "-k", "edge_of_the_magnus_domain"),
        "dew_point_from_vapor_pressure at log(e / MAGNUS_A) == MAGNUS_B divided by zero"
        " (CHANGES.md: One owner for four rules)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        "_sin(self._omega * t_s)",
        "_sin(_TWO_PI * (self.freq_hz * t_s))",
        ("tests/test_acquisition.py", "-k", "sine_is_its_formula"),
        "a sine's phase multiplied as 2 pi (f t), off the bits of 2 pi f t (CHANGES.md: One front end for both lanes)",
    ),
    Mutant(
        "paraloq/psychro.py",
        '        require_finite("psychrometer_coeff * pressure_hpa", self.psychrometer_coeff * self.pressure_hpa)\n',
        "",
        ("tests/test_psychro.py", "-k", "overflows"),
        "a psychrometer_coeff * pressure_hpa of inf accepted, so a wet == dry pair's vapor pressure was nan"
        " (CHANGES.md: The converter clock is the logger's)",
    ),
    Mutant(
        "paraloq/acquisition.py",
        '"stimuli": dict(self.stimuli)}',
        '"stimuli": self.stimuli}',
        ("tests/test_acquisition.py", "-k", "pickles_and_copies"),
        "a RunConfig that pickle and deepcopy cannot copy, its stimuli a mappingproxy"
        " (CHANGES.md: The converter clock is the logger's)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "        if rh_pct is not None and dew_point_c is not None:\n",
        "        if rh_pct is not None or dew_point_c is not None:\n",
        ("tests/test_logstore.py", "-k", "hands_the_file_the_per_field_line"),
        "a row with one humidity value formatting its None with %.6f (CHANGES.md: One `%` per log line)",
    ),
    Mutant(
        "paraloq/logstore.py",
        "        elif rh_pct is None and dew_point_c is None:\n",
        "        elif rh_pct is None or dew_point_c is None:\n",
        ("tests/test_logstore.py", "-k", "hands_the_file_the_per_field_line"),
        "a row with one humidity value written without it (CHANGES.md: One `%` per log line)",
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
    # hypothesis keeps its example database in the working directory: a fresh
    # one per call, so no run replays an example another run saved
    with tempfile.TemporaryDirectory(dir=src.parent) as cwd:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile", "no-shrink", *args],
            cwd=cwd,
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
