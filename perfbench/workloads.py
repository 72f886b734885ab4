"""The three benchmark workloads: inputs made from a seed, one iteration, checks.

Every iteration is timed stage by stage with the checks kept outside the
timed region, and returns ``(stages, problems)``: host seconds per stage and
a list of what was found wrong (empty when the outputs are correct).

Library calls go through module attributes (``acquisition.run_acquisition``,
``logstore.write_csv``, ...), so a traced pass sees them through the same
wrappers as the calls made inside the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from datetime import datetime, timedelta
from pathlib import Path

from paraloq import acquisition, logstore, plotting
from paraloq.acquisition import Channel, Constant, RunConfig, Sine
from paraloq.adc0808 import AdcConfig

DEFAULT_SEED = 0
SAMPLE_RATE_HZ = 2.0
PLOT_COLUMN = "dry_temp_c"  # the column `paraloq plot` draws by default
_EPOCH = datetime(2026, 8, 10, 12, 0, 0)


def _run_config(seed: int, duration_s: float, dry, wet, substeps: int = 0, noise_lsb: float = 0.0):
    return RunConfig(
        duration_s=duration_s,
        sample_rate_hz=SAMPLE_RATE_HZ,
        stimuli={Channel.DRY: dry, Channel.WET: wet},
        adc=AdcConfig(noise_sigma_lsb=noise_lsb),
        filter_substeps=substeps,
        seed=seed,
        start_time=_EPOCH + timedelta(seconds=seed % 86400),
    )


# Each pass runs a short stretch of simulated time (a tenth of a second of
# host time or so) so that run.py can scale every pass by the reference
# speed measured right beside it; see timed_loop there.


def steady_config(seed: int) -> RunConfig:
    """Ten minutes of the paper's constant dry/wet pair: handshake and SAR dominate."""
    return _run_config(seed, 600.0, Constant(19.92858), Constant(18.02167))


def filtered_sine_config(seed: int) -> RunConfig:
    """Four minutes of crossing sines through the 32-substep anti-alias filter,
    with seeded 0.5 LSB code noise; a fifth of the rows have wet > dry."""
    return _run_config(
        seed,
        240.0,
        Sine(amplitude_c=3.5, freq_hz=1 / 240, offset_c=22.0),
        Sine(amplitude_c=3.0, freq_hz=1 / 90, offset_c=19.5),
        substeps=32,
        noise_lsb=0.5,
    )


def postprocess_source_config(seed: int) -> RunConfig:
    """One hour (7,201 rows) of slow sines with seeded code noise: the recorded
    log that the postprocess workload reads, summarizes, charts and rewrites."""
    return _run_config(
        seed,
        3600.0,
        Sine(amplitude_c=5.0, freq_hz=1 / 3600, offset_c=22.0),
        Sine(amplitude_c=4.0, freq_hz=1 / 1200, offset_c=19.0),
        noise_lsb=0.5,
    )


CONFIGS = {
    "steady": steady_config,
    "filtered_sine": filtered_sine_config,
    "postprocess": postprocess_source_config,
}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plot_series(run: logstore.RunLog, column: str = PLOT_COLUMN):
    """(t values, column values) over the rows where the column is set, as `paraloq plot` takes them."""
    pairs = [(row.t_s, getattr(row, column)) for row in run.rows if getattr(row, column) is not None]
    return [t for t, _ in pairs], [v for _, v in pairs]


def render_charts(t_values, values):
    """Both charts of one series, as `paraloq plot` renders them; returns (ascii, svg, seconds)."""
    t0 = time.perf_counter()
    ascii_text = plotting.ascii_chart(t_values, values, PLOT_COLUMN)
    svg_text = plotting.svg_chart(t_values, values, PLOT_COLUMN)
    return ascii_text, svg_text, time.perf_counter() - t0


def chart_problems(ascii_text: str, svg_text: str, golden: dict) -> list:
    problems = []
    lines = ascii_text.split("\n")
    if len(lines) != plotting.ASCII_ROWS or any(len(line) != plotting.ASCII_COLS for line in lines):
        problems.append("ASCII chart is not 24 lines of 80 characters")
    for key, text in (("ascii_sha256", ascii_text), ("svg_sha256", svg_text)):
        if key in golden and sha256_text(text) != golden[key]:
            problems.append(f"{key} {sha256_text(text)} differs from the golden {golden[key]}")
    return problems


class AcquireWorkload:
    """run_acquisition, then write_csv, then read_csv to read the log back."""

    def __init__(self, cfg: RunConfig, path: Path, golden: dict):
        self.cfg = cfg
        self.path = path
        self.golden = golden
        self.ticks = math.floor(cfg.duration_s * cfg.sample_rate_hz) + 1
        self.rows = self.ticks
        self.digest = None  # CSV digest of the first iteration; later ones must match
        self.run = None
        self.port = None
        self._back = None

    def timed(self) -> dict:
        port = acquisition.build_port(self.cfg)
        t0 = time.perf_counter()
        run = acquisition.run_acquisition(self.cfg, port=port)
        t1 = time.perf_counter()
        logstore.write_csv(run, self.path)
        t2 = time.perf_counter()
        back = logstore.read_csv(self.path)
        t3 = time.perf_counter()
        self.run, self.port, self._back = run, port, back
        return {"acquire": t1 - t0, "write": t2 - t1, "read": t3 - t2, "total": t3 - t0}

    def check(self) -> list:
        problems = []
        if len(self.run.rows) != self.ticks:
            problems.append(f"{len(self.run.rows)} ticks, expected floor(duration*rate)+1 = {self.ticks}")
        if self._back != self.run:
            problems.append("read_csv(write_csv(run)) differs from the run")
        self._back = None
        digest = sha256_file(self.path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"CSV sha256 {digest} differs from this run's first {self.digest}")
        if "csv_sha256" in self.golden and digest != self.golden["csv_sha256"]:
            problems.append(f"CSV sha256 {digest} differs from the golden {self.golden['csv_sha256']}")
        return problems

    def iterate(self):
        stages = self.timed()
        return stages, self.check()

    def prepare(self):
        """Warm-up iteration: the first run of the process, checked but not timed."""
        return self.iterate()

    def side_pass(self):
        """Charts of the last run's series (chart_ms for this workload)."""
        ascii_text, svg_text, seconds = render_charts(*plot_series(self.run))
        return {"chart": seconds}, chart_problems(ascii_text, svg_text, self.golden)


PREFIX_S = 600.0  # acquired per side pass of the postprocess workload


class PostprocessWorkload:
    """read_csv, summarize, humidity_summary, ascii_chart, svg_chart, write_csv."""

    def __init__(self, seed: int, workdir: Path, golden: dict):
        self.source = AcquireWorkload(
            postprocess_source_config(seed), workdir / "source.csv", golden.get("source", {})
        )
        self.prefix = dataclasses.replace(self.source.cfg, duration_s=PREFIX_S)
        self.ticks = math.floor(PREFIX_S * SAMPLE_RATE_HZ) + 1
        self.out = workdir / "rewrite.csv"
        self.golden = golden
        self.rows = self.source.rows
        self.input_bytes = None
        self.expected = None
        self._outputs = None

    def prepare(self):
        """Record the input log (an AcquireWorkload iteration) and keep what it must read back as."""
        stages, problems = self.source.iterate()
        self.input_bytes = self.source.path.read_bytes()
        run = self.source.run
        self.expected = (acquisition.summarize(run), acquisition.humidity_summary(run))
        return stages, problems

    def side_pass(self):
        """Acquire the first PREFIX_S of the recorded log's stimulus (tick_us for this workload)."""
        port = acquisition.build_port(self.prefix)
        t0 = time.perf_counter()
        run = acquisition.run_acquisition(self.prefix, port=port)
        seconds = time.perf_counter() - t0
        problems = []
        if run.rows != self.source.run.rows[: self.ticks]:
            problems.append("acquiring a prefix of the recorded log's stimulus gave other rows")
        return {"acquire": seconds}, problems

    def timed(self) -> dict:
        t0 = time.perf_counter()
        run = logstore.read_csv(self.source.path)
        t1 = time.perf_counter()
        summary = (acquisition.summarize(run), acquisition.humidity_summary(run))
        ascii_text, svg_text, chart_s = render_charts(*plot_series(run))
        t2 = time.perf_counter()
        logstore.write_csv(run, self.out)
        t3 = time.perf_counter()
        self._outputs = (len(run.rows), summary, ascii_text, svg_text)
        return {"read": t1 - t0, "chart": chart_s, "write": t3 - t2, "total": t3 - t0}

    def check(self) -> list:
        n_rows, summary, ascii_text, svg_text = self._outputs
        self._outputs = None
        problems = chart_problems(ascii_text, svg_text, self.golden)
        if n_rows != self.rows:
            problems.append(f"read {n_rows} rows, expected {self.rows}")
        if summary != self.expected:
            problems.append("summaries of the read log differ from those of the recorded run")
        if self.out.read_bytes() != self.input_bytes:
            problems.append("rewritten log is not byte-identical to its input")
        return problems

    def iterate(self):
        stages = self.timed()
        return stages, self.check()
