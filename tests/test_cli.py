import hashlib
import json
import re
from pathlib import Path

import pytest

from paraloq import cli
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

    def test_parse_error_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,log\n", encoding="utf-8")
        assert main(["plot", "--input", str(bad), "--column", "dry_temp_c"]) == 5

    def test_missing_input_exits_5(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["plot", "--input", str(missing), "--column", "dry_temp_c"]) == 5


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

    def test_empty_log_exits_5(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        assert main(["summarize", "--input", str(path)]) == 5
        assert "no samples" in capsys.readouterr().err


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

    def test_adc_reference_follows_the_chain(self, tmp_path):
        cfg = tmp_path / "3v3.ini"
        cfg.write_text(
            "[chain]\nsensor_slope = 0.0066\nclamp_volts = 3.3\nvref = 3.3\n", encoding="utf-8"
        )
        out = tmp_path / "run.csv"
        code = main(
            [
                "--config", str(cfg),
                "simulate",
                "--duration", "1",
                "--dry-temp", "25",
                "--wet-temp", "20",
                "--start-time", START,
                "--out", str(out),
            ]
        )
        assert code == 0
        for row in read_csv(out).rows:
            assert abs(row.dry_temp_c - 25.0) <= 50 / 255
            assert abs(row.wet_temp_c - 20.0) <= 50 / 255

    def test_non_finite_magnus_constant_exits_2(self, tmp_path, capsys):
        # printed dew_point_c=-inf with exit 0
        cfg = tmp_path / "inf.ini"
        cfg.write_text("[psychro]\nmagnus_c = inf\n", encoding="utf-8")
        assert main(["--config", str(cfg), "compute", "--dry", "20", "--wet", "18"]) == 2
        assert "magnus_c must be > 0 and finite" in capsys.readouterr().err

    def test_non_finite_pressure_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # ran to exit 0 with every humidity field empty
        cfg = tmp_path / "inf.ini"
        cfg.write_text("[psychro]\npressure_hpa = inf\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg), "simulate", "--duration", "1", "--out", str(out)])
        assert code == 2
        assert "pressure_hpa must be > 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_section_must_stay_aligned(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[chain]\namp_gain = 3\n", encoding="utf-8")
        code = main(
            ["--config", str(cfg), "simulate", "--duration", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2  # misaligned full scale is rejected at config time

    def test_schema_is_the_float_and_int_fields_of_the_section_classes(self):
        assert cli._CONFIG_SCHEMA == {
            ("run", "duration_s"): float,
            ("run", "sample_rate_hz"): float,
            ("run", "filter_substeps"): int,
            ("run", "seed"): int,
            ("chain", "sensor_slope"): float,
            ("chain", "amp_gain"): float,
            ("chain", "clamp_volts"): float,
            ("chain", "filter_cutoff_hz"): float,
            ("chain", "vref"): float,
            ("clock", "r_ohms"): float,
            ("clock", "c_farads"): float,
            ("psychro", "psychrometer_coeff"): float,
            ("psychro", "pressure_hpa"): float,
            ("psychro", "magnus_a"): float,
            ("psychro", "magnus_b"): float,
            ("psychro", "magnus_c"): float,
        }
        assert cli.PLOTTABLE_COLUMNS == (
            "dry_code", "dry_temp_c", "wet_code", "wet_temp_c", "rh_pct", "dew_point_c"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            # a field that is not a float or an int is not a key
            ("[chain]\nallow_misaligned = true\n", "unknown config key [chain] allow_misaligned"),
            ("[run]\nstart_time = 2026-08-10T12:00:00\n", "unknown config key [run] start_time"),
            # R C underflowed: a ZeroDivisionError traceback, exit 1
            ("[clock]\nr_ohms = 1e-300\nc_farads = 1e-300\n", "clock frequency"),
            # 0.9 Hz: a clock warning, then "2 conversions ... do not fit"
            ("[clock]\nr_ohms = 1e6\nc_farads = 1e-6\n", "clock 0.909091 Hz outside"),
            ("[run]\nfilter_substeps = 1025\n", "filter_substeps must be 0..1024"),
        ],
        ids=[
            "allow_misaligned", "start_time", "underflowing clock", "clock below the window",
            "too many substeps",
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
