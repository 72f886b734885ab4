"""Reading and summarizing a log keeps columns, not rows: measured with tracemalloc.

read_csv used to hold the whole file text and then a list of every line beside
the rows it built, and `summarize`, `simulate` and `plot` each kept every row.
svg_chart used to format one string per sample and join them all.
"""

import tracemalloc

import pytest

from paraloq import cli
from paraloq.logstore import PsychroRow, RunLog, RunMeta, read_csv, read_series, write_csv
from paraloq.plotting import svg_chart

START = "2026-08-10T12:00:00"
META = RunMeta(run_id="x", start=START + ".000", sample_rate_hz=2.0, channels={"dry": 0, "wet": 1})


def _log(path, n):
    rows = [
        PsychroRow(k / 2.0, f"{START}.{k % 1000:03d}", 102, 20.0 + k % 7 / 8, 92, 18.039216, 82.872516, 16.998432)
        for k in range(n)
    ]
    write_csv(RunLog(meta=META, rows=rows), path)
    return path


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """Logs of 2,000 and 20,000 rows."""
    root = tmp_path_factory.mktemp("memory")
    return {n: _log(root / f"{n}.csv", n) for n in (2000, 20000)}


def _traced(fn):
    """(fn's result, bytes allocated and still held at its end, peak bytes allocated during it)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def reads(logs):
    """{rows: (bytes read_csv held at its end, its peak)} for each log."""
    read_csv(logs[2000])  # first-call allocations (imports, caches) are not the reader's
    measured = {}
    for n, path in logs.items():
        run, held, peak = _traced(lambda: read_csv(path))
        assert len(run.rows) == n
        measured[n] = held, peak
    return measured


def test_read_csv_needs_no_more_room_for_a_longer_log(reads):
    # what the reader holds beyond the RunLog it returns
    above = {n: peak - held for n, (held, peak) in reads.items()}
    assert abs(above[20000] - above[2000]) < 64 * 1024, above


def test_summarize_keeps_columns_not_rows(logs, reads, capsys):
    code, _, peak = _traced(lambda: cli.main(["summarize", "--input", str(logs[20000])]))
    assert code == 0
    assert capsys.readouterr().out.startswith("Dry Temp ")
    assert peak < reads[20000][0] / 4


def test_simulate_keeps_columns_not_rows(reads, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--duration", "9999.5", "--start-time", START, "--out", str(out)]
    code, _, peak = _traced(lambda: cli.main(args))
    assert code == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: 20000 ticks, ")
    assert peak < reads[20000][0] / 4


def test_svg_chart_peaks_below_three_times_its_text(logs):
    # a string per sample and the list joining them peaked at 6.1 times the
    # chart; formatted in blocks and copied once into the chart, 2.0 times
    t_values, values = read_series(logs[20000], "dry_temp_c")  # the arrays `plot` hands it
    svg_chart(t_values, values, "dry_temp_c")  # first-call allocations are not the chart's
    svg, _, peak = _traced(lambda: svg_chart(t_values, values, "dry_temp_c"))
    assert len(values) == 20000
    assert peak < 3 * len(svg), peak / len(svg)
