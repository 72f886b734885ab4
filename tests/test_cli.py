import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import pytest

from paraloq import Channel, Constant, RunConfig, acquisition, cli, logstore, run_acquisition, write_csv
from paraloq.cli import main
from paraloq.logstore import HEADER, read_csv

START = "2026-08-10T12:00:00"
# the benchmark's recorded digests: the one source of truth for golden outputs
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def simulate(tmp_path, *extra, name="run.csv"):
    out = tmp_path / name
    code = main(
        [
            "simulate",
            "--rate", "2",
            "--duration", "10",
            "--dry-temp", "19.92858",
            "--wet-temp", "18.02167",
            "--start-time", START,
            "--seed", "1",
            "--out", str(out),
            *extra,
        ]
    )
    return code, out


class TestSimulate:
    def test_writes_log_and_prints_summary(self, tmp_path, capsys):
        code, out = simulate(tmp_path)
        assert code == 0
        captured = capsys.readouterr().out
        assert "Dry Temp" in captured and "Rel. Humidity" in captured
        rh = float(re.search(r"Rel\. Humidity ([\d.]+)", captured).group(1))
        dew = float(re.search(r"Dew Point ([\d.]+)", captured).group(1))
        assert abs(rh - 85.183416) <= 3.0
        assert abs(dew - 17.360743) <= 1.0
        run = read_csv(out)
        assert len(run.rows) == 21

    def test_zero_duration_single_tick(self, tmp_path):
        out = tmp_path / "tick.csv"
        code = main(["simulate", "--duration", "0", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out).rows) == 1

    def test_invalid_rate_exits_2_and_names_the_flag(self, tmp_path, capsys):
        code = main(
            ["simulate", "--rate", "0", "--duration", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--rate" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()  # validate before create

    def test_run_past_the_calendar_exits_2(self, tmp_path, capsys):
        # the last tick, 10 s after the start, would fall after 9999-12-31
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate",
                "--duration", "10",
                "--start-time", "9999-12-31T23:59:55",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_rate_exits_2(self, tmp_path, capsys):
        for flag, other in (("--rate", "--duration"), ("--duration", "--rate")):
            code = main(["simulate", flag, "inf", other, "1", "--out", str(tmp_path / "x.csv")])
            assert code == 2
            err = capsys.readouterr().err
            assert "error:" in err and flag in err and "finite" in err
            assert not (tmp_path / "x.csv").exists()

    def test_sine_error_keeps_the_parameter_message(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--duration", "1",
                "--dry-stimulus", "sine:amp=1,freq=-1,offset=20",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "--dry-stimulus: freq_hz must be >= 0" in capsys.readouterr().err

    def test_rate_beyond_the_handshake_exits_2(self, tmp_path, capsys):
        # each 50 us tick would need two 100 us conversions
        out = tmp_path / "x.csv"
        code = main(["simulate", "--rate", "20000", "--duration", "0.01", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params",
        ["amp=1,freq=inf,offset=20", "amp=inf,freq=0.1,offset=20", "amp=1,freq=0.1,offset=-inf"],
    )
    def test_non_finite_sine_exits_2_and_names_the_flag(self, tmp_path, capsys, params):
        code = main(
            [
                "simulate",
                "--duration", "1",
                "--dry-stimulus", f"sine:{params}",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--dry-stimulus" in err

    @pytest.mark.parametrize(
        "params",
        [
            "amp=1,freq=1e307,offset=20",  # 2 pi f t overflows at tick 6: sin(inf)
            "amp=1,freq=1e308,offset=20",  # 2 pi f alone overflows: inf * 0 at tick 0
            "amp=1e308,freq=0.1,offset=1e308",  # offset + amp * sin(...) overflows
        ],
    )
    def test_a_sine_that_cannot_stay_finite_exits_2_before_the_log_opens(self, tmp_path, capsys, params):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--duration", "10", "--start-time", START, "--dry-stimulus", f"sine:{params}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_golden_steady_run_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARALOQ_CONFIG", raising=False)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        out = tmp_path / "steady.csv"
        code = main(
            [
                "simulate",
                "--duration", "600",
                "--dry-temp", "19.92858",
                "--wet-temp", "18.02167",
                "--seed", "0",
                "--start-time", START,
                "--out", str(out),
            ]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["steady"]["csv_sha256"]

    def test_a_run_spelt_with_ints_writes_the_log_of_the_same_flags(self, tmp_path, monkeypatch):
        # the CLI parses --duration 5 as 5.0, and a config stores 5 as 5.0 too,
        # so the `# config` fingerprint does not depend on the spelling
        monkeypatch.delenv("PARALOQ_CONFIG", raising=False)
        out = tmp_path / "cli.csv"
        flags = ["--duration", "5", "--dry-temp", "20", "--wet-temp", "18", "--start-time", START]
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        start = datetime.fromisoformat(START)
        for spelt, (duration, dry, wet) in {"ints": (5, 20, 18), "floats": (5.0, 20.0, 18.0)}.items():
            stimuli = {Channel.DRY: Constant(dry), Channel.WET: Constant(wet)}
            path = tmp_path / f"{spelt}.csv"
            write_csv(run_acquisition(RunConfig(duration_s=duration, stimuli=stimuli, start_time=start)), path)
            assert path.read_bytes() == out.read_bytes(), spelt

    def test_deterministic_given_flags_and_seed(self, tmp_path):
        _, first = simulate(tmp_path, name="a.csv")
        _, second = simulate(tmp_path, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_sine_stimulus_spec(self, tmp_path):
        out = tmp_path / "sine.csv"
        code = main(
            [
                "simulate",
                "--duration", "10",
                "--dry-stimulus", "sine:amp=5,freq=0.1,offset=25",
                "--wet-temp", "18",
                "--start-time", START,
                "--out", str(out),
            ]
        )
        assert code == 0
        temps = {row.dry_temp_c for row in read_csv(out).rows}
        assert len(temps) > 3  # actually oscillates

    def test_bad_stimulus_spec_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--duration", "1",
                "--dry-stimulus", "triangle:1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "--dry-stimulus" in capsys.readouterr().err

    def test_replay_stimulus_spec(self, tmp_path):
        _, source = simulate(tmp_path, name="src.csv")
        out = tmp_path / "replayed.csv"
        code = main(
            [
                "simulate",
                "--rate", "2",
                "--duration", "10",
                "--dry-stimulus", f"replay:{source}",
                "--wet-stimulus", f"replay:{source}",
                "--start-time", START,
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert [r.dry_code for r in read_csv(out).rows] == [
            r.dry_code for r in read_csv(source).rows
        ]

    def test_missing_replay_source_exits_5(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        missing = tmp_path / "nope.csv"
        code = main(
            ["simulate", "--duration", "1", "--dry-stimulus", f"replay:{missing}", "--out", str(out)]
        )
        assert code == 5  # an unreadable input log, not a failed write
        assert "cannot read input" in capsys.readouterr().err
        assert not out.exists()


def _fail_at_tick(monkeypatch, k, fail):
    """Call fail(port) before the first conversion of tick k: call 2k + 1 of acquire_byte."""
    real = acquisition.acquire_byte
    calls = 0

    def acquire_byte(port, channel):
        nonlocal calls
        calls += 1
        if calls == 2 * k + 1:
            fail(port)
        return real(port, channel)

    monkeypatch.setattr(acquisition, "acquire_byte", acquire_byte)


def _disconnect(port):
    port.connected = False  # EOC never comes: the handshake times out


def _interrupt(port):
    raise KeyboardInterrupt


class TestStoppedRun:
    # the log used to be written only once the run had finished, so a stopped run kept nothing

    def test_a_device_timeout_keeps_the_rows_made_before_it(self, tmp_path, monkeypatch, capsys):
        code, whole = simulate(tmp_path, name="whole.csv")
        assert code == 0
        _fail_at_tick(monkeypatch, 3, _disconnect)
        code, out = simulate(tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert f"kept 3 rows in {out}" in err and "error: EOC not asserted" in err
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[-2].startswith("# aborted = tick 3: EOC not asserted on channel 0") and lines[-1] == ""
        assert lines[:-2] == whole.read_bytes().decode("utf-8").split("\r\n")[: len(lines) - 2]
        assert read_csv(out).rows == read_csv(whole).rows[:3]
        assert main(["summarize", "--input", str(out)]) == 0

    @pytest.mark.parametrize("k", [0, 4])
    def test_an_interrupt_exits_130_and_keeps_the_rows_made_before_it(self, tmp_path, monkeypatch, capsys, k):
        _fail_at_tick(monkeypatch, k, _interrupt)
        code, out = simulate(tmp_path)
        assert code == 130
        assert capsys.readouterr().err == f"kept {k} rows in {out}\n"
        assert out.read_bytes().decode("utf-8").endswith(f"\r\n# aborted = tick {k}: interrupted\r\n")
        assert len(read_csv(out).rows) == k

    def test_sigterm_exits_143_and_keeps_the_first_rows_of_the_same_run(self, tmp_path):
        # SIGTERM used to end the process at once: no trailer, and no exit code of its own
        out = tmp_path / "day.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        day = ["simulate", "--duration", "86400", "--seed", "0", "--start-time", START, "--out", str(out)]
        sim = [sys.executable, "-m", "paraloq.cli", *day]
        child = subprocess.Popen(sim, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size > 1000):  # the header and a few rows
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=60)
        assert child.returncode == 143
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        k = int(lines[-2].removeprefix("# aborted = tick ").partition(":")[0])
        assert (lines[-2], lines[-1]) == (f"# aborted = tick {k}: terminated", "")
        assert f"kept {k} rows in {out}" in err.decode("utf-8")
        rows = read_csv(out).rows
        cfg = RunConfig(duration_s=(k - 1) / 2.0, seed=0, start_time=datetime.fromisoformat(START))
        assert 0 < k == len(rows) and rows == run_acquisition(cfg).rows

    def test_simulate_puts_back_the_sigterm_handler_it_found(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        assert simulate(tmp_path)[0] == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_an_unwritable_out_exits_4_before_the_first_tick(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("acquire_rows called")

        monkeypatch.setattr(acquisition, "acquire_rows", never)
        code, out = simulate(tmp_path, name="no-such-dir/run.csv")
        assert code == 4
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to fill")
    def test_a_full_disk_exits_4(self, capsys):
        # the header's flush raised a bare OSError, and the run exited 1 with a traceback
        assert main(["simulate", "--duration", "1", "--out", "/dev/full"]) == 4
        assert "No space left on device" in capsys.readouterr().err

    def test_the_start_of_a_run_without_start_time_is_its_first_stamp(self, tmp_path):
        out = tmp_path / "now.csv"
        assert main(["simulate", "--duration", "1", "--out", str(out)]) == 0
        run = read_csv(out)
        assert run.meta.start == run.rows[0].timestamp


class TestCompute:
    def test_reference_pair(self, capsys):
        assert main(["compute", "--dry", "19.92858", "--wet", "18.02167"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rh_pct=83.296885, dew_point_c=17.009289")

    def test_saturated_pair(self, capsys):
        assert main(["compute", "--dry", "20", "--wet", "20"]) == 0
        assert "rh_pct=100.000000, dew_point_c=20.000000" in capsys.readouterr().out

    def test_wet_above_dry_exits_2(self, capsys):
        assert main(["compute", "--dry", "10", "--wet", "20"]) == 2
        assert "error" in capsys.readouterr().err

    def test_pressure_flag(self, capsys):
        assert main(["compute", "--dry", "20", "--wet", "18", "--pressure", "850"]) == 0
        assert "rh_pct=" in capsys.readouterr().out


class TestPlot:
    def test_ascii_flat_line(self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        capsys.readouterr()  # discard the simulate summary
        assert main(["plot", "--input", str(out), "--column", "dry_temp_c"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 24
        assert all(len(line) == 80 for line in lines)
        assert sum(1 for line in lines if "*" in line) == 1  # constant: one row

    def test_svg_sine_has_extrema(self, tmp_path):
        src = tmp_path / "sine.csv"
        main(
            [
                "simulate",
                "--duration", "30",
                "--dry-stimulus", "sine:amp=10,freq=0.1,offset=25",
                "--wet-temp", "18",
                "--start-time", START,
                "--out", str(src),
            ]
        )
        svg_path = tmp_path / "chart.svg"
        code = main(
            [
                "plot",
                "--input", str(src),
                "--column", "dry_temp_c",
                "--format", "svg",
                "--out", str(svg_path),
            ]
        )
        assert code == 0
        svg = svg_path.read_text(encoding="utf-8")
        assert "<polyline" in svg and "dry_temp_c" in svg
        points = re.search(r'points="([^"]+)"', svg).group(1)
        ys = [float(pair.split(",")[1]) for pair in points.split()]
        slopes = [b - a for a, b in zip(ys, ys[1:]) if b != a]
        sign_changes = sum(1 for a, b in zip(slopes, slopes[1:]) if (a > 0) != (b > 0))
        assert sign_changes >= 6  # two extrema per period over three periods

    def test_svg_output_is_deterministic(self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        args = ["plot", "--input", str(out), "--column", "wet_temp_c", "--format", "svg"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unknown_column_exits_2(self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        assert main(["plot", "--input", str(out), "--column", "bogus"]) == 2
        assert "column" in capsys.readouterr().err

    def test_unknown_column_exits_2_before_the_input_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["plot", "--input", str(missing), "--column", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: column must be one of dry_code, dry_temp_c, wet_code, wet_temp_c, rh_pct, dew_point_c; "
            "got 'bogus'\n"
        )

    def test_an_unwritable_out_exits_4(self, tmp_path, capsys):
        _, log = simulate(tmp_path)
        capsys.readouterr()
        chart = tmp_path / "no-such-dir" / "chart.svg"
        assert main(["plot", "--input", str(log), "--column", "dry_temp_c", "--out", str(chart)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {chart}: ") and "No such file or directory" in err

    def test_parse_error_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,log\n", encoding="utf-8")
        assert main(["plot", "--input", str(bad), "--column", "dry_temp_c"]) == 5

    def test_missing_input_exits_5(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["plot", "--input", str(missing), "--column", "dry_temp_c"]) == 5

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_a_value_span_past_the_float_range_exits_2_with_one_error_line(self, tmp_path, capsys, fmt):
        # read_csv takes both rows; ascii exited 1 with a bare ValueError and svg wrote "620.00,nan"
        path = tmp_path / "huge.csv"
        path.write_text(HEADER + "\n0.0,t,102,-1.7e308,92,18.0,,\n0.5,t,102,1.7e308,92,18.0,,\n", encoding="utf-8")
        assert main(["plot", "--input", str(path), "--column", "dry_temp_c", "--format", fmt]) == 2
        assert capsys.readouterr() == ("", "error: value span must be finite, got -1.7e+308 .. 1.7e+308\n")

    def test_a_log_that_is_not_utf8_exits_5_and_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + b"\n0.0,t,102,20.0,92,18.0,,\n0.5,t\xff,102,20.0,92,18.0,,\n")
        assert main(["plot", "--input", str(path), "--column", "dry_temp_c"]) == 5
        assert "line 3: not UTF-8: byte 0xff" in capsys.readouterr().err

    def test_a_reader_that_leaves_exits_141_without_a_traceback(self, tmp_path):
        # print(body) into a pipe whose reader had left exited 1 with a BrokenPipeError
        # traceback; this chart is larger than a pipe holds, so the reader leaves first
        log = tmp_path / "hour.csv"
        assert main(["simulate", "--duration", "3600", "--seed", "0", "--start-time", START, "--out", str(log)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        plot = [sys.executable, "-m", "paraloq.cli", "plot", "--input", str(log), "--column", "dry_temp_c", "--format", "svg"]
        with open(tmp_path / "stderr.txt", "wb") as err:
            child = subprocess.Popen(plot, stdout=subprocess.PIPE, stderr=err, env=env)
            head = child.stdout.read(10)
            child.stdout.close()  # as `| head -c 10` does
            code = child.wait(timeout=120)
        assert (head, code) == (b"<svg xmlns", 141)
        assert (tmp_path / "stderr.txt").read_bytes() == b""


class TestSummarize:
    def test_recorded_table_layout(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        rows = "\n".join(
            f"{0.5 * k:.6f},t,102,19.928580,92,18.021670,85.183416,17.360743"
            for k in range(4)
        )
        path.write_text(HEADER + "\n" + rows + "\n", encoding="utf-8")
        assert main(["summarize", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Dry Temp 19.928580" in out
        assert "Wet Temp 18.021670" in out
        assert "Rel. Humidity 85.183416" in out
        assert "Dew Point 17.360743" in out

    def test_three_row_hand_file(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,t,51,10.0,41,8.0,,\n"
            "0.5,t,102,20.0,92,18.0,,\n"
            "1.0,t,153,30.0,143,28.0,,\n",
            encoding="utf-8",
        )
        assert main(["summarize", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Dry Temp 20.000000 (min=10.000000, max=30.000000)" in out
        assert "Rel. Humidity -" in out  # no humidity columns present

    @pytest.mark.parametrize(
        "bad_row",
        ["0.5,t,102,nan,92,18.0,,", "nan,t,102,20.0,92,18.0,,", "0.5,t,102,20.0,92,18.0,inf,"],
        ids=["dry_temp_nan", "t_s_nan", "rh_inf"],
    )
    def test_non_finite_value_exits_5_and_names_the_line(self, tmp_path, capsys, bad_row):
        path = tmp_path / "nan.csv"
        path.write_text(HEADER + "\n0.0,t,102,20.0,92,18.0,,\n" + bad_row + "\n", encoding="utf-8")
        assert main(["summarize", "--input", str(path)]) == 5
        err = capsys.readouterr().err
        assert "line 3" in err and "finite" in err

    def test_dew_point_above_dry_bulb_exits_5_and_names_the_line(self, tmp_path, capsys):
        # a hand-edited dew point of 20.5 degC in 20 degC air was summarized with exit 0
        path = tmp_path / "dew.csv"
        path.write_text(
            HEADER + "\n0.0,t,102,20.0,92,18.0,82.0,16.9\n0.5,t,102,20.0,92,18.0,82.0,20.5\n",
            encoding="utf-8",
        )
        assert main(["summarize", "--input", str(path)]) == 5
        assert "line 3: dew_point_c 20.5 is above dry_temp_c 20.0" in capsys.readouterr().err

    def test_empty_log_exits_5(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        assert main(["summarize", "--input", str(path)]) == 5
        assert "no samples" in capsys.readouterr().err

    def test_a_log_that_is_not_utf8_exits_5_and_names_the_line(self, tmp_path, capsys):
        # the whole file was decoded at once, and a bad byte exited 1 with a UnicodeDecodeError traceback
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# run_id = x\n" + HEADER.encode() + b"\n0.0,2026-08-10T12:00:00.000\xff,102,20.0,92,18.0,,\n")
        assert main(["summarize", "--input", str(path)]) == 5
        assert capsys.readouterr().err == "error: line 3: not UTF-8: byte 0xff (invalid start byte)\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's /proc")
    def test_a_log_that_opens_but_cannot_be_read_exits_5(self, capsys):
        # /proc/self/mem opens, and reading it from offset 0 fails with EIO
        assert main(["summarize", "--input", "/proc/self/mem"]) == 5
        assert capsys.readouterr().err == "error: line 0: cannot read input: /proc/self/mem: [Errno 5] Input/output error\n"

    def test_the_table_is_the_one_simulate_printed(self, tmp_path, capsys):
        out = tmp_path / "sine.csv"
        # wet above dry for part of the run, so some rows have no humidity
        sines = ["--dry-stimulus", "sine:amp=6,freq=0.05,offset=20", "--wet-stimulus", "sine:amp=2,freq=0.1,offset=18"]
        assert main(["simulate", "--duration", "60", *sines, "--start-time", START, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert main(["summarize", "--input", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == printed[1:]

    def test_a_log_with_a_bom_reads_as_the_log_itself(self, tmp_path, capsys):
        # a spreadsheet's "CSV UTF-8" save starts with EF BB BF, whose first line
        # then read as '\ufeff# run_id = ...' and exited 5
        _, out = simulate(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        assert read_csv(bom) == read_csv(out)
        capsys.readouterr()
        assert main(["summarize", "--input", str(out)]) == 0
        table = capsys.readouterr().out
        assert main(["summarize", "--input", str(bom)]) == 0
        assert capsys.readouterr().out == table


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "paraloq.ini"
        cfg.write_text("[run]\nsample_rate_hz = 4\nduration_s = 2\n", encoding="utf-8")
        out = tmp_path / "run.csv"
        code = main(["--config", str(cfg), "simulate", "--start-time", START, "--out", str(out)])
        assert code == 0
        assert len(read_csv(out).rows) == 9  # 4 S/s for 2 s

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "paraloq.ini"
        cfg.write_text("[run]\nsample_rate_hz = 4\nduration_s = 2\n", encoding="utf-8")
        out = tmp_path / "run.csv"
        code = main(
            ["--config", str(cfg), "simulate", "--rate", "1", "--start-time", START, "--out", str(out)]
        )
        assert code == 0
        assert len(read_csv(out).rows) == 3  # flag rate wins; file duration holds

    def test_unknown_key_is_a_hard_error(self, tmp_path, capsys):
        cfg = tmp_path / "paraloq.ini"
        cfg.write_text("[run]\nwarp_factor = 9\n", encoding="utf-8")
        code = main(["--config", str(cfg), "simulate", "--duration", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_env_var_names_default_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.ini"
        cfg.write_text("[psychro]\npressure_hpa = 850\n", encoding="utf-8")
        monkeypatch.setenv("PARALOQ_CONFIG", str(cfg))
        assert main(["compute", "--dry", "20", "--wet", "18"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("PARALOQ_CONFIG")
        assert main(["compute", "--dry", "20", "--wet", "18"]) == 0
        assert with_env != capsys.readouterr().out

    def test_a_filter_cutoff_other_than_the_default_writes_its_pinned_log(self, tmp_path, monkeypatch):
        # both channels run through the one front end; line 5 hashes it once per
        # channel, and the whole file is pinned with it. The log is the one a
        # [chain] section of the same cutoff wrote, when the chain was a section
        monkeypatch.delenv("PARALOQ_CONFIG", raising=False)
        cfg = tmp_path / "chain.ini"
        cfg.write_text("[run]\nfilter_cutoff_hz = 0.2\n", encoding="utf-8")
        out = tmp_path / "chain.csv"
        code = main(
            [
                "--config", str(cfg),
                "simulate",
                "--duration", "30",
                "--dry-stimulus", "sine:amp=20,freq=0.05,offset=30",
                "--wet-temp", "18",
                "--filter-substeps", "8",
                "--seed", "0",
                "--start-time", START,
                "--out", str(out),
            ]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.splitlines()[4] == b"# config = 7ddd5f96df9a"
        assert hashlib.sha256(data).hexdigest() == "79d473edf213fe149090ddd282776d764d076e910aa49e6f5b08f64e8d5761da"
        # the 0.2 Hz filter takes the 0.05 Hz sine's 50 degC peak down to code 252
        assert max(row.dry_code for row in read_csv(out).rows) == 252

    def test_a_dry_bulb_above_full_scale_logs_the_top_code_with_empty_humidity(self, tmp_path, monkeypatch):
        # the zeners clamp at VREF, so 60 degC is code 255, a rail; a 4.5 V clamp
        # logged code 230 (45.098039 degC) and a humidity computed from it
        monkeypatch.delenv("PARALOQ_CONFIG", raising=False)
        out = tmp_path / "hot.csv"
        flags = ["--duration", "1", "--dry-temp", "60", "--wet-temp", "20", "--start-time", START]
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        rows = out.read_bytes().splitlines()[6:]
        assert rows and all(row.split(b",")[2:4] == [b"255", b"50.000000"] and row.endswith(b",,") for row in rows)

    def test_non_finite_psychro_value_exits_2(self, tmp_path, capsys):
        # a non-finite Magnus constant printed dew_point_c=-inf with exit 0
        cfg = tmp_path / "inf.ini"
        cfg.write_text("[psychro]\npressure_hpa = inf\n", encoding="utf-8")
        assert main(["--config", str(cfg), "compute", "--dry", "20", "--wet", "18"]) == 2
        assert "pressure_hpa must be > 0 and finite" in capsys.readouterr().err

    def test_a_magnus_constant_is_not_a_key(self, tmp_path, capsys):
        # magnus_b = 100000 ended compute in an OverflowError traceback, exit 1
        cfg = tmp_path / "magnus.ini"
        cfg.write_text("[psychro]\nmagnus_b = 100000\n", encoding="utf-8")
        assert main(["--config", str(cfg), "compute", "--dry", "25", "--wet", "20"]) == 2
        assert "unknown config key [psychro] magnus_b" in capsys.readouterr().err

    def test_non_finite_pressure_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # ran to exit 0 with every humidity field empty
        cfg = tmp_path / "inf.ini"
        cfg.write_text("[psychro]\npressure_hpa = inf\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg), "simulate", "--duration", "1", "--out", str(out)])
        assert code == 2
        assert "pressure_hpa must be > 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    # each key of the schema, as a file spells it, and the value its section class keeps
    KEY_VALUES = {
        ("run", "duration_s"): ("2", 2.0),
        ("run", "sample_rate_hz"): ("4", 4.0),
        ("run", "filter_substeps"): ("16", 16),
        ("run", "seed"): ("7", 7),
        ("run", "filter_cutoff_hz"): ("0.2", 0.2),
        ("psychro", "psychrometer_coeff"): ("8e-4", 8e-4),
        ("psychro", "pressure_hpa"): ("850", 850.0),
    }

    @pytest.mark.parametrize("section, key", list(KEY_VALUES), ids=[f"{s}.{k}" for s, k in KEY_VALUES])
    def test_each_key_of_the_schema_reaches_its_section(self, tmp_path, section, key):
        assert set(self.KEY_VALUES) == set(cli._CONFIG_SCHEMA)
        text, value = self.KEY_VALUES[section, key]
        cfg = tmp_path / "one.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        values = cli.load_config_file(cfg)
        assert values[section] == {key: value} and type(values[section][key]) is type(value)
        required = {"duration_s": 1.0} if section == "run" else {}  # every other field has a default
        built = cli._SECTIONS[section](**{**required, **values[section]})
        assert getattr(built, key) == value

    def test_schema_is_the_float_and_int_fields_of_the_section_classes(self):
        assert cli._CONFIG_SCHEMA == {
            ("run", "duration_s"): float,
            ("run", "sample_rate_hz"): float,
            ("run", "filter_substeps"): int,
            ("run", "seed"): int,
            ("run", "filter_cutoff_hz"): float,
            ("psychro", "psychrometer_coeff"): float,
            ("psychro", "pressure_hpa"): float,
        }
        assert logstore.SERIES_COLUMNS == (
            "dry_code", "dry_temp_c", "wet_code", "wet_temp_c", "rh_pct", "dew_point_c"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            # a field that is not a float or an int is not a key
            ("[chain]\nallow_misaligned = true\n", "unknown config key [chain] allow_misaligned"),
            ("[run]\nstart_time = 2026-08-10T12:00:00\n", "unknown config key [run] start_time"),
            # the paper's constants are not keys: the chain reaches VREF at 50 degC
            ("[chain]\nsensor_slope = 0.0066\n", "unknown config key [chain] sensor_slope"),
            ("[chain]\namp_gain = 3\n", "unknown config key [chain] amp_gain"),
            ("[chain]\nvref = 3.3\n", "unknown config key [chain] vref"),
            ("[psychro]\nmagnus_a = 6.1\n", "unknown config key [psychro] magnus_a"),
            ("[psychro]\nmagnus_b = 17.5\n", "unknown config key [psychro] magnus_b"),
            ("[psychro]\nmagnus_c = inf\n", "unknown config key [psychro] magnus_c"),
            ("[run]\nfilter_substeps = 1025\n", "filter_substeps must be 0..1024"),
            # the zener clamp is VREF, and the cutoff a [run] key: [chain] is no section
            ("[chain]\nclamp_volts = 4.5\n", "unknown config key [chain] clamp_volts"),
            ("[chain]\nfilter_cutoff_hz = 0.2\n", "unknown config key [chain] filter_cutoff_hz"),
            ("[run]\nclamp_volts = 5.0\n", "unknown config key [run] clamp_volts"),
            ("[run]\nfilter_cutoff_hz = 0\n", "filter_cutoff_hz must be > 0 and finite, got 0.0"),
            # the converter clock is the logger's, and [clock] is no section, even with the logger's values
            ("[clock]\nr_ohms = 1420.5\n", "unknown config key [clock] r_ohms"),
            ("[clock]\nc_farads = 1e-9\n", "unknown config key [clock] c_farads"),
            ("[clock]\n", "unknown config section [clock]"),
        ],
        ids=[
            "allow_misaligned", "start_time", "sensor_slope", "amp_gain", "vref", "magnus_a", "magnus_b",
            "magnus_c",
            "too many substeps", "chain clamp_volts", "chain filter_cutoff_hz", "run clamp_volts", "zero cutoff",
            "clock r_ohms", "clock c_farads", "empty clock",
        ],
    )
    def test_a_config_no_run_can_use_exits_2_up_front(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg), "simulate", "--duration", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, text, message",
        [
            (["--rate", "0", "--duration", "1"], "", "--rate must be > 0 and finite, got 0.0"),
            (
                ["--duration", "1"],
                "[run]\nsample_rate_hz = 0\n",
                "[run] sample_rate_hz must be > 0 and finite, got 0.0",
            ),
            (["--duration", "-1"], "", "--duration must be >= 0 and finite, got -1.0"),
            ([], "[run]\nduration_s = -1\n", "[run] duration_s must be >= 0 and finite, got -1.0"),
        ],
        ids=["rate flag", "rate file key", "duration flag", "duration file key"],
    )
    def test_a_bad_run_value_names_its_source(self, tmp_path, capsys, flags, text, message):
        # a file value was reported under the flag's name, though no flag was given
        cfg = tmp_path / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg), "simulate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_usage_error_from_argparse_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--rate"])  # missing value
    assert err.value.code == 2


# each input error the CLI names, the exit code the README gives it (2 invalid
# flags or config, 5 an empty input log) and the start of its one stderr line;
# {tmp} is the test's directory, which holds run.ini, written from the case's
# config text, and rails.csv, a log whose bulbs sit at rail codes
_SIM = ["simulate", "--duration", "1", "--out", "{tmp}/run.csv"]


@pytest.mark.parametrize(
    "argv, config, code, message",
    [
        (["simulate", "--out", "{tmp}/run.csv"], None, 2, "--duration is required"),
        ([*_SIM, "--start-time", "noon"], None, 2, "--start-time: not ISO-8601: 'noon'"),
        (["--config", "{tmp}/run.ini", *_SIM], "duration_s = 1\n", 2, "malformed config file {tmp}/run.ini: "),
        (["--config", "{tmp}/none.ini", *_SIM], None, 2, "cannot read config file {tmp}/none.ini: "),
        (["--config", "{tmp}/run.ini", *_SIM], "[psychro]\npressure_hpa = 1k5\n", 2, "bad value for [psychro] pressure_hpa: '1k5'"),
        # an empty unknown section, and [DEFAULT] keys, which configparser drops or
        # copies into every section: each of these ran to exit 0
        (["--config", "{tmp}/run.ini", *_SIM], "[bogus]\n", 2, "unknown config section [bogus]"),
        (["--config", "{tmp}/run.ini", *_SIM], "[DEFAULT]\nseed = banana\n", 2, "unknown config key [DEFAULT] seed"),
        (
            ["--config", "{tmp}/run.ini", *_SIM],
            "[DEFAULT]\nseed = 3\n[run]\nduration_s = 1\n",
            2,
            "unknown config key [DEFAULT] seed",
        ),
        # a '%' was read as interpolation: an InterpolationSyntaxError traceback, exit 1
        (["--config", "{tmp}/run.ini", *_SIM], "[run]\nseed = 5%\n", 2, "bad value for [run] seed: '5%'"),
        # a psychrometer constant that overflows: simulate ran to exit 0 with every humidity
        # field empty, and compute named the nan vapor pressure inf * 0 gave
        (
            ["--config", "{tmp}/run.ini", *_SIM],
            "[psychro]\npsychrometer_coeff = 1e200\npressure_hpa = 1e200\n",
            2,
            "psychrometer_coeff * pressure_hpa must be finite, got inf",
        ),
        (
            ["--config", "{tmp}/run.ini", "compute", "--dry", "20", "--wet", "20"],
            "[psychro]\npsychrometer_coeff = 1e200\npressure_hpa = 1e200\n",
            2,
            "psychrometer_coeff * pressure_hpa must be finite, got inf",
        ),
        ([*_SIM, "--dry-stimulus", "sine"], None, 2, "--dry-stimulus: expected KIND:ARGS, got 'sine'"),
        ([*_SIM, "--wet-stimulus", "sine:amp=1,freq=0.1"], None, 2, "--wet-stimulus: sine needs ['offset']"),
        ([*_SIM, "--dry-stimulus", "sine:amp=1,phase=0"], None, 2, "--dry-stimulus: bad sine parameter 'phase=0'"),
        ([*_SIM, "--dry-stimulus", "constant:warm"], None, 2, "--dry-stimulus: bad number in 'constant:warm'"),
        (["plot", "--input", "{tmp}/rails.csv", "--column", "rh_pct"], None, 5, "no values to plot in column 'rh_pct'"),
    ],
    ids=[
        "duration required",
        "start time",
        "malformed config",
        "unreadable config",
        "bad config value",
        "empty unknown section",
        "default key alone",
        "default key beside a section",
        "percent sign",
        "psychrometer constant overflow",
        "psychrometer constant overflow in compute",
        "stimulus kind",
        "sine needs",
        "sine parameter",
        "stimulus number",
        "no values to plot",
    ],
)
def test_each_named_input_error_exits_with_its_code_and_message(
    tmp_path, capsys, monkeypatch, argv, config, code, message
):
    monkeypatch.delenv("PARALOQ_CONFIG", raising=False)
    if config is not None:
        (tmp_path / "run.ini").write_text(config, encoding="utf-8")
    rails = RunConfig(
        duration_s=1.0,
        stimuli={Channel.DRY: Constant(60.0), Channel.WET: Constant(55.0)},
        start_time=datetime(2026, 8, 10, 12),
    )
    write_csv(run_acquisition(rails), tmp_path / "rails.csv")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert capsys.readouterr().err.startswith(f"error: {message.format(tmp=tmp_path)}")
    assert not (tmp_path / "run.csv").exists()  # checked before the log is made
