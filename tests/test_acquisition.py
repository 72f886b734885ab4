import copy
import dataclasses
import math
import os
import pickle
import statistics
import struct
import subprocess
import sys
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import paraloq
from paraloq import (
    AdcConfig,
    Channel,
    ClockRangeError,
    Constant,
    DeviceTimeoutError,
    EmptyRunError,
    InconsistentReadingError,
    InvalidInputError,
    ParaloqError,
    PsychroConfig,
    Replay,
    RunConfig,
    RunLog,
    RunMeta,
    SimulatedPort,
    Sine,
    UndersamplingWarning,
    acquire_byte,
    alias_frequency,
    build_port,
    chain_voltage,
    conversion_time_s,
    decode_temp,
    decode_volts,
    humidity_summary,
    lowpass_alpha,
    quantize,
    reading,
    run_acquisition,
    run_meta,
    sar_convert,
    summarize,
    write_csv,
)
from paraloq.acquisition import acquire_rows
from paraloq.adc0808 import CLOCK_HZ, VREF
from paraloq.errors import FLOAT_MAX, require_above, shown
from paraloq.logstore import PsychroRow

from conftest import constant_run_config, with_stimulus

LSB_C = 50.0 / 255.0
# each way to duplicate an object: a pickle round trip at each protocol, deepcopy and copy
DUPLICATES = {
    **{
        f"pickle-{p}": lambda obj, p=p: pickle.loads(pickle.dumps(obj, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


class TestSchedule:
    def test_one_minute_at_two_samples_per_second(self):
        run = run_acquisition(constant_run_config(duration_s=60.0))
        assert len(run.rows) == 121
        for k, row in enumerate(run.rows):
            assert row.t_s == k * 0.5

    def test_zero_duration_is_a_single_tick(self):
        run = run_acquisition(constant_run_config(duration_s=0.0))
        assert len(run.rows) == 1
        assert run.rows[0].t_s == 0.0

    def test_no_drift_at_tick_1000(self):
        rows = []
        acquire_rows(constant_run_config(duration_s=500.0), [rows.append])
        assert rows[1000].t_s - 500.0 == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        duration=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        rate=st.floats(min_value=0.25, max_value=50.0, allow_nan=False),
    )
    def test_tick_count_formula(self, duration, rate):
        cfg = constant_run_config(duration_s=duration, sample_rate_hz=rate)
        run = run_acquisition(cfg)
        assert len(run.rows) == math.floor(duration * rate) + 1

    def test_timestamp_is_truncated_to_milliseconds_and_t_s_is_the_key(self):
        # at 4,000 S/s four consecutive ticks share one millisecond stamp
        run = run_acquisition(constant_run_config(duration_s=0.002, sample_rate_hz=4000.0))
        assert [row.t_s for row in run.rows[:4]] == [0.0, 0.00025, 0.0005, 0.00075]
        assert {row.timestamp for row in run.rows[:4]} == {"2026-08-10T12:00:00.000"}
        assert run.rows[4].timestamp == "2026-08-10T12:00:00.001"
        t_s = [row.t_s for row in run.rows]
        assert t_s == sorted(set(t_s))


class TestDecodeConsistency:
    def test_constant_20c_stays_within_one_lsb(self):
        run = run_acquisition(constant_run_config(dry_c=20.0, duration_s=60.0))
        for row in run.rows:
            assert abs(row.dry_temp_c - 20.0) <= LSB_C
            # decoded temps lie on the code grid
            assert row.dry_temp_c * 255.0 / 50.0 == pytest.approx(row.dry_code, abs=1e-3)

    def test_sample_volts_and_temp_decode_from_code(self):
        rows = []
        acquire_rows(constant_run_config(duration_s=1.0), [rows.append])
        for row in rows:
            assert row.dry_temp_c == round(decode_temp(row.dry_code), 6)  # the log keeps 6 decimals
            assert row.wet_temp_c == round(decode_temp(row.wet_code), 6)


class TestAliasing:
    def test_undersampled_stimulus_warns(self):
        cfg = constant_run_config(duration_s=1.0)
        cfg = with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=5.0, freq_hz=1.5, offset_c=25.0))
        with pytest.warns(UndersamplingWarning):
            run_acquisition(cfg)

    @pytest.mark.parametrize("freq_hz", [0.3, 1.0], ids=["below Nyquist", "exactly Nyquist"])
    def test_a_stimulus_up_to_nyquist_runs_without_a_warning(self, freq_hz):
        # at 2 S/s, 1.0 Hz is not above Nyquist; any warning fails the suite
        cfg = constant_run_config(duration_s=1.0)
        run_acquisition(with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=5.0, freq_hz=freq_hz, offset_c=25.0)))

    def test_folded_spectrum_peak(self):
        cfg = constant_run_config(duration_s=63.5)  # 128 ticks: clean FFT bins
        cfg = with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=5.0, freq_hz=1.5, offset_c=25.0))
        with pytest.warns(UndersamplingWarning):
            run = run_acquisition(cfg)
        temps = np.array([row.dry_temp_c for row in run.rows])
        spectrum = np.abs(np.fft.rfft(temps - temps.mean()))
        peak = np.fft.rfftfreq(len(temps), 0.5)[spectrum.argmax()]
        assert peak == pytest.approx(0.5, abs=1e-9)


class TestReplay:
    def test_replaying_a_run_reproduces_codes(self, tmp_path):
        cfg = constant_run_config(
            duration_s=30.0,
            stimuli={
                Channel.DRY: Sine(amplitude_c=8.0, freq_hz=0.05, offset_c=25.0),
                Channel.WET: Sine(amplitude_c=6.0, freq_hz=0.03, offset_c=20.0),
            },
        )
        original = run_acquisition(cfg)
        path = tmp_path / "source.csv"
        write_csv(original, path)

        replay_cfg = constant_run_config(
            duration_s=30.0,
            stimuli={
                Channel.DRY: Replay(str(path), column="dry_temp_c"),
                Channel.WET: Replay(str(path), column="wet_temp_c"),
            },
        )
        replayed = run_acquisition(replay_cfg)
        assert [r.dry_code for r in replayed.rows] == [r.dry_code for r in original.rows]
        assert [r.wet_code for r in replayed.rows] == [r.wet_code for r in original.rows]

    def test_replay_requires_rows(self, tmp_path):
        from paraloq.logstore import HEADER

        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        with pytest.raises(EmptyRunError):
            Replay(str(path)).temp_at(0.0)

    def test_only_a_temp_column_is_replayed(self, tmp_path):
        # the CLI's replay: spec always names its channel's temp column, so no
        # command reaches this check; main would exit 2 for it
        path = tmp_path / "source.csv"
        write_csv(run_acquisition(constant_run_config(duration_s=1.0)), path)
        with pytest.raises(InvalidInputError, match=r"^column must be a temp column, got 'rh_pct'$"):
            Replay(str(path), column="rh_pct")

    def test_source_is_read_once(self, tmp_path):
        path = tmp_path / "source.csv"
        write_csv(run_acquisition(constant_run_config(duration_s=2.0)), path)
        replay = Replay(str(path), column="wet_temp_c")
        path.unlink()  # every later lookup is served from memory
        assert replay.temp_at(0.0) == replay.temp_at(2.0) == round(decode_temp(92), 6)

    @pytest.mark.parametrize("name", ["path", "column"])
    def test_no_field_of_a_replay_can_be_assigned(self, tmp_path, name):
        # a new path changed a built config's fingerprint, and so log line 5,
        # while the replayed data stayed the old file's
        path = tmp_path / "source.csv"
        write_csv(run_acquisition(constant_run_config(duration_s=1.0)), path)
        cfg = constant_run_config(duration_s=1.0, stimuli={Channel.DRY: Replay(str(path)), Channel.WET: Constant(18.0)})
        before = cfg.fingerprint()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg.stimuli[Channel.DRY], name, "wet_temp_c")
        assert cfg.fingerprint() == before


class TestSummaries:
    def _synthetic(self, dry_temps, wet_temps):
        rows = [
            PsychroRow(
                t_s=0.5 * k,
                timestamp="t",
                dry_code=102,
                dry_temp_c=d,
                wet_code=92,
                wet_temp_c=w,
            )
            for k, (d, w) in enumerate(zip(dry_temps, wet_temps))
        ]
        return RunLog(meta=RunMeta(), rows=rows)

    def test_constant_run_mean_is_the_quantized_value(self):
        run = run_acquisition(constant_run_config(dry_c=20.0, duration_s=5.0))
        stats = summarize(run)
        assert stats[Channel.DRY].mean == 20.0
        assert stats[Channel.DRY].min == stats[Channel.DRY].max == 20.0

    def test_hand_mean(self):
        run = self._synthetic([10.0, 20.0, 30.0], [8.0, 18.0, 28.0])
        stats = summarize(run)
        assert stats[Channel.DRY].mean == 20.0
        assert stats[Channel.WET].mean == 18.0
        assert stats[Channel.DRY].min == 10.0
        assert stats[Channel.DRY].max == 30.0

    def test_recorded_table_means_reproduce(self):
        # synthetic log pinned to the recorded averages
        run = self._synthetic([19.92858] * 4, [18.02167] * 4)
        stats = summarize(run)
        assert stats[Channel.DRY].mean == pytest.approx(19.92858, abs=1e-9)
        assert stats[Channel.WET].mean == pytest.approx(18.02167, abs=1e-9)

    def test_empty_run_rejected(self):
        with pytest.raises(EmptyRunError):
            summarize(RunLog(meta=RunMeta(), rows=[]))

    def test_humidity_summary_skips_failed_rows(self):
        run = run_acquisition(constant_run_config(duration_s=2.0))
        rh, dew = humidity_summary(run)
        assert 0.0 < rh <= 100.0
        assert dew <= run.rows[0].dry_temp_c
        assert humidity_summary(RunLog(meta=RunMeta(), rows=[])) is None

    @given(
        dry=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        rh=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50),
    )
    def test_the_means_are_fmean_bit_for_bit(self, dry, rh):
        # the first len(rh) rows have humidity, with the dew point at the dry bulb
        rows = [
            PsychroRow(0.5 * k, "t", 102, d, 92, 18.0, *((rh[k], d) if k < len(rh) else ()))
            for k, d in enumerate(dry)
        ]
        run = RunLog(meta=RunMeta(), rows=rows)
        fmean = statistics.fmean
        assert summarize(run)[Channel.DRY].mean == fmean(row.dry_temp_c for row in rows)
        wet = [row for row in rows if row.rh_pct is not None]
        expected = (fmean(row.rh_pct for row in wet), fmean(row.dew_point_c for row in wet)) if wet else None
        assert humidity_summary(run) == expected

    def test_importing_paraloq_leaves_statistics_out(self):
        probe = "import sys, paraloq; print('statistics' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(paraloq.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert (done.stdout, done.stderr) == ("False\n", "")


class TestFailurePaths:
    def test_timeout_aborts_with_partial_log(self):
        cfg = constant_run_config(duration_s=10.0)
        port = build_port(cfg)
        rows = []

        def saboteur(row):
            if row.t_s == 1.0:  # the row of tick 2: tick 3 times out
                port.connected = False

        with pytest.raises(DeviceTimeoutError):
            acquire_rows(cfg, [rows.append, saboteur], port=port)
        assert len(rows) == 3

    def test_a_sink_error_propagates_as_it_is(self):
        class Stop(Exception):
            pass

        def failing(row):
            raise Stop

        with pytest.raises(Stop):  # as it is, like a device timeout
            acquire_rows(constant_run_config(duration_s=1.0), [failing])

    @pytest.mark.parametrize(
        "dry_c, wet_c",
        [(60.0, 55.0), (60.0, 40.0), (5.0, -5.0)],
        ids=["both_top", "dry_top", "wet_bottom"],
    )
    def test_humidity_fields_empty_at_rail_codes(self, dry_c, wet_c):
        run = run_acquisition(constant_run_config(dry_c=dry_c, wet_c=wet_c, duration_s=1.0))
        assert all({row.dry_code, row.wet_code} & {0, 255} for row in run.rows)
        assert all(row.rh_pct is None and row.dew_point_c is None for row in run.rows)

    def test_rate_beyond_the_handshake_rejected_before_the_first_tick(self):
        rows = []
        with pytest.raises(InvalidInputError):
            cfg = constant_run_config(duration_s=0.01, sample_rate_hz=20000.0)
            acquire_rows(cfg, [rows.append])
        assert rows == []
        # two conversions of about 100 us fit in a 250 us tick
        run_acquisition(constant_run_config(duration_s=0.001, sample_rate_hz=4000.0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sample_rate_hz": 20000.0}, r"2 conversions of .* us do not fit in one 50 us tick"),
            ({"start_time": datetime(9999, 12, 31, 23, 59, 55)}, r"ends past 9999-12-31 23:59:59.999999"),
        ],
        ids=["rate beyond the handshake", "last stamp past the calendar"],
    )
    def test_a_run_no_tick_can_hold_is_rejected_by_its_config(self, kwargs, message):
        # both were found only when the run started, after the config was accepted
        with pytest.raises(InvalidInputError, match=message):
            RunConfig(duration_s=10.0, **kwargs)

    def test_two_conversions_that_fill_the_tick_exactly_fit(self):
        two_conversions = len(Channel) * conversion_time_s(CLOCK_HZ)
        near = 1.0 / two_conversions
        for _ in range(8):
            near = math.nextafter(near, 0.0)
        # the largest rate whose tick is exactly two conversions long
        rate = None
        for _ in range(17):
            if 1.0 / near == two_conversions:
                rate = near
            near = math.nextafter(near, math.inf)
        assert rate is not None
        assert RunConfig(duration_s=1.0, sample_rate_hz=rate).sample_rate_hz == rate
        with pytest.raises(InvalidInputError, match="do not fit"):
            RunConfig(duration_s=1.0, sample_rate_hz=math.nextafter(rate, math.inf))

    def test_a_run_whose_tick_count_overflows_is_rejected_by_its_config(self):
        # it used to build, then tick_count() raised a bare OverflowError
        with pytest.raises(InvalidInputError, match="duration_s \\* sample_rate_hz must be finite"):
            RunConfig(duration_s=1e308, sample_rate_hz=10.0)
        assert RunConfig(duration_s=1e307, sample_rate_hz=10.0).tick_count() > 1e307

    @pytest.mark.parametrize(
        "duration_s, rate",
        [(FLOAT_MAX, 1.0), (FLOAT_MAX / 2, 2.0), (FLOAT_MAX / 4, 4.0)],
        ids=["FLOAT_MAX*1", "FLOAT_MAX/2*2", "FLOAT_MAX/4*4"],
    )
    def test_a_tick_count_of_exactly_float_max_builds(self, duration_s, rate):
        assert RunConfig(duration_s=duration_s, sample_rate_hz=rate).tick_count() == int(FLOAT_MAX) + 1

    @pytest.mark.parametrize(
        "duration_s, rate",
        [(FLOAT_MAX, math.nextafter(1.0, 2.0)), (FLOAT_MAX / 4, math.nextafter(4.0, 8.0))],
        ids=["FLOAT_MAX*next-1", "FLOAT_MAX/4*next-4"],
    )
    def test_a_tick_count_one_float_past_float_max_is_rejected(self, duration_s, rate):
        with pytest.raises(InvalidInputError, match="must be finite"):
            RunConfig(duration_s=duration_s, sample_rate_hz=rate)

    def test_a_run_without_start_time_is_checked_when_it_starts_now(self):
        def ticked(row):
            raise AssertionError("a tick ran")

        with pytest.raises(InvalidInputError, match="ends past"):
            acquire_rows(RunConfig(duration_s=1e12), [ticked])

    def test_humidity_fields_empty_when_wet_exceeds_dry(self):
        cfg = constant_run_config(dry_c=18.0, wet_c=22.0, duration_s=1.0)
        run = run_acquisition(cfg)
        assert all(row.rh_pct is None and row.dew_point_c is None for row in run.rows)
        assert all(row.dry_code is not None for row in run.rows)

    def test_every_interior_code_pair_has_the_humidity_reading_gives(self):
        # _tick_row calls reading only for wet <= dry: the interior pairs with a
        # wet code above the dry code are exactly those reading rejects as invalid
        from paraloq.acquisition import _tick_row

        cfg = constant_run_config(duration_s=0.0)
        for dry_code in range(1, 255):
            dry_c = decode_temp(dry_code)
            for wet_code in range(1, 255):
                wet_c = decode_temp(wet_code)
                try:
                    _, _, rh, dew = reading(dry_c, wet_c, cfg.psychro)
                except InvalidInputError:
                    assert wet_code > dry_code, (dry_code, wet_code)
                    rh = dew = None
                except InconsistentReadingError:
                    assert wet_code <= dry_code, (dry_code, wet_code)
                    rh = dew = None
                else:
                    assert wet_code <= dry_code, (dry_code, wet_code)
                expected = PsychroRow(0.0, "", dry_code, dry_c, wet_code, wet_c, rh, dew)  # rounds as a row does
                assert _tick_row(0.0, "", dry_code, wet_code, cfg) == expected, (dry_code, wet_code)

    @settings(max_examples=300, deadline=None)
    @given(
        coeff=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        pressure=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        dry_code=st.integers(1, 254),
        wet_code=st.integers(1, 254),
    )
    @example(coeff=6.6e-4, pressure=1013.25, dry_code=200, wet_code=200)
    @example(coeff=1e200, pressure=1e100, dry_code=200, wet_code=199)
    @example(coeff=5e-324, pressure=5e-324, dry_code=254, wet_code=254)
    def test_a_psychro_config_that_builds_gives_each_interior_pair_a_row(self, coeff, pressure, dry_code, wet_code):
        # with gamma * P finite, reading raises no InvalidInputError for an interior
        # pair: _tick_row catches InconsistentReadingError alone
        from paraloq.acquisition import _tick_row

        assume(coeff * pressure <= FLOAT_MAX)
        cfg = constant_run_config(duration_s=0.0, psychro=PsychroConfig(coeff, pressure))
        row = _tick_row(0.5, "", dry_code, wet_code, cfg)
        assert (row.dry_code, row.wet_code) == (dry_code, wet_code)
        if wet_code > dry_code:
            assert row.rh_pct is row.dew_point_c is None


class TestDeterminismAndNoise:
    def test_identical_configs_give_identical_runs(self):
        run_a = run_acquisition(constant_run_config(duration_s=5.0))
        run_b = run_acquisition(constant_run_config(duration_s=5.0))
        assert run_a == run_b

    def test_noise_reproducible_per_seed(self):
        def run(seed):
            cfg = constant_run_config(
                duration_s=5.0, adc=AdcConfig(noise_sigma_lsb=1.5), seed=seed
            )
            return [row.dry_code for row in run_acquisition(cfg).rows]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestFilterPath:
    def test_constant_input_unaffected_by_filter(self):
        plain = run_acquisition(constant_run_config(duration_s=5.0))
        filtered = run_acquisition(constant_run_config(duration_s=5.0, filter_substeps=16))
        assert [r.dry_code for r in plain.rows] == [r.dry_code for r in filtered.rows]

    def test_filter_attenuates_fast_sine(self):
        def peak_to_peak(substeps):
            cfg = constant_run_config(duration_s=63.5, filter_substeps=substeps)
            cfg = with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=10.0, freq_hz=0.9, offset_c=25.0))
            run = run_acquisition(cfg)
            temps = [row.dry_temp_c for row in run.rows]
            return max(temps) - min(temps)

        # a 0.9 Hz sine through the 0.5 Hz front-end filter loses amplitude
        assert peak_to_peak(32) < 0.75 * peak_to_peak(0)

    @pytest.mark.parametrize("substeps", [1, 3, 32])
    def test_each_substep_and_poll_goes_through_its_named_call(self, monkeypatch, substeps):
        # the call counts perfbench pins, per tick and per conversion: a second
        # path round these names would change them
        from paraloq import acquisition, pport

        counts = dict.fromkeys(("chain", "step", "polls", "writes"), 0)

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        for owner, name, key in (
            (acquisition, "chain_voltage", "chain"),
            (acquisition, "lowpass_step", "step"),
            (pport.SimulatedPort, "read_status", "polls"),
            (pport.SimulatedPort, "write_control", "writes"),
        ):
            monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
        seen = []  # the counts after each lane's conversion, DRY then WET per tick
        acquire = acquisition.acquire_byte

        def acquire_and_record(port, channel):
            code = acquire(port, channel)
            seen.append(dict(counts))
            return code

        monkeypatch.setattr(acquisition, "acquire_byte", acquire_and_record)
        cfg = constant_run_config(duration_s=3.0, filter_substeps=substeps)
        cfg = with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=10.0, freq_hz=0.2, offset_c=25.0))
        run = run_acquisition(cfg)
        assert len(seen) == 2 * len(run.rows) == 14
        # one settled chain voltage per lane at setup, which tick 0 reads
        assert seen[0] == {"chain": 2, "step": 0, "polls": 16, "writes": 5}
        between = [{key: after[key] - before[key] for key in counts} for before, after in zip(seen, seen[1:])]
        # from a tick's DRY conversion to its WET one: the WET voltage is already made
        assert all(gap == {"chain": 0, "step": 0, "polls": 16, "writes": 5} for gap in between[0::2])
        # from a tick's WET conversion to the next tick's DRY one: both lanes' substeps
        filtered = {"chain": 2 * substeps, "step": 2 * substeps, "polls": 16, "writes": 5}
        assert all(gap == filtered for gap in between[1::2])

    @settings(max_examples=60, deadline=None)
    @given(
        cutoff=st.floats(min_value=1e-3, max_value=1e3),
        substeps=st.integers(min_value=1, max_value=64),
        rate=st.floats(min_value=0.1, max_value=1000.0),
        ticks=st.integers(min_value=1, max_value=40),
        sines=st.tuples(
            *[
                st.tuples(
                    st.floats(min_value=0.0, max_value=60.0),
                    st.floats(min_value=0.0, max_value=0.5),  # times the rate
                    st.floats(min_value=-20.0, max_value=80.0),
                )
            ]
            * 2
        ),
    )
    def test_lanes_match_a_per_step_alpha_reference(
        self, cutoff, substeps, rate, ticks, sines
    ):
        # the run computes one alpha for both lanes; the reference recomputes RC and
        # alpha every substep, as the filter did before, at the same substep times
        stimuli = {
            ch: Sine(amplitude_c=amp, freq_hz=f * rate, offset_c=off)
            for ch, (amp, f, off) in zip(Channel, sines)
        }
        cfg = constant_run_config(
            duration_s=(ticks - 1) / rate,
            sample_rate_hz=rate,
            filter_cutoff_hz=cutoff,
            stimuli=stimuli,
            filter_substeps=substeps,
        )
        port = build_port(cfg)
        seen = {ch.value: [] for ch in Channel}
        set_input = port.set_input

        def recording_set_input(mux, volts):
            seen[mux].append(volts)
            set_input(mux, volts)

        port.set_input = recording_set_input
        run_acquisition(cfg, port=port)

        for ch in Channel:
            stimulus = stimuli[ch]
            dt = 1.0 / (rate * substeps)
            state = chain_voltage(stimulus.temp_at(0.0))
            t_prev = 0.0
            expected = []
            for k in range(cfg.tick_count()):
                t = k / rate
                if t > t_prev:
                    for j in range(1, substeps + 1):
                        x = chain_voltage(stimulus.temp_at(t_prev + j * dt))
                        rc = 1.0 / (2.0 * math.pi * cutoff)
                        alpha = dt / (dt + rc)
                        state = state + alpha * (x - state)
                        assert math.isfinite(state) and 0.0 <= state <= VREF
                    t_prev = t
                expected.append(state)
            assert seen[ch.value] == expected


def reference_rows(cfg):
    """The rows of a run of cfg, computed in a straight line and without the
    port. For each tick t = k / rate, DRY then WET: the stimulus through the
    chain, clamped at VREF, the RC recurrence over the substeps with alpha recomputed
    from RC, the ideal quantizer plus one seeded gauss per conversion (σ > 0
    only) clamped to 0..255, the decode, and humidity unless a code sits on a
    rail or the pair is non-physical."""
    rate, substeps, sigma = cfg.sample_rate_hz, cfg.filter_substeps, cfg.adc.noise_sigma_lsb
    noise = Random(cfg.seed)
    dt = 1.0 / (rate * substeps) if substeps else 0.0
    # each lane's voltage; a filter starts settled at the tick-0 level
    volts = {ch: chain_voltage(cfg.stimuli[ch].temp_at(0.0)) for ch in Channel}
    rows = []
    for k in range(math.floor(cfg.duration_s * rate) + 1):
        t = k / rate
        codes = []
        for ch in (Channel.DRY, Channel.WET):
            temp_at = cfg.stimuli[ch].temp_at
            if not substeps:
                volts[ch] = chain_voltage(temp_at(t))
            elif k:  # the filter runs on from the last tick; tick 0 reads the settled level
                for j in range(1, substeps + 1):
                    rc = 1.0 / (2.0 * math.pi * cfg.filter_cutoff_hz)
                    alpha = dt / (dt + rc)
                    x = chain_voltage(temp_at((k - 1) / rate + j * dt))
                    volts[ch] = volts[ch] + alpha * (x - volts[ch])
            code = quantize(volts[ch])
            if sigma > 0:
                code = min(max(code + round(noise.gauss(0.0, sigma)), 0), 255)
            codes.append(code)
        dry_code, wet_code = codes
        dry_c, wet_c = decode_temp(dry_code), decode_temp(wet_code)
        rh = dew = None
        if 0 < dry_code < 255 and 0 < wet_code < 255:
            try:
                _, _, rh, dew = reading(dry_c, wet_c, cfg.psychro)
            except (InvalidInputError, InconsistentReadingError):
                pass
        stamp = (cfg.start_time + timedelta(seconds=t)).isoformat(timespec="milliseconds")
        rows.append(PsychroRow(t, stamp, dry_code, dry_c, wet_code, wet_c, rh, dew))
    return rows


STIMULI = st.one_of(
    st.builds(Constant, st.floats(min_value=-10.0, max_value=60.0)),
    st.builds(
        Sine,
        amplitude_c=st.floats(min_value=0.0, max_value=35.0),
        freq_hz=st.floats(min_value=0.0, max_value=2.0),
        offset_c=st.floats(min_value=-10.0, max_value=60.0),
    ),
)  # below 0 and above 50 degC a code sits on a rail


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=50.0),
    duration=st.floats(min_value=0.0, max_value=20.0),
    dry=STIMULI,
    wet=STIMULI,
    cutoff=st.floats(min_value=1e-3, max_value=1e3),
    substeps=st.sampled_from([0, 1, 3, 32]),
    sigma=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_run_is_its_straight_line_reference(rate, duration, dry, wet, cutoff, substeps, sigma, seed):
    cfg = constant_run_config(
        duration_s=duration,
        sample_rate_hz=rate,
        filter_cutoff_hz=cutoff,
        stimuli={Channel.DRY: dry, Channel.WET: wet},
        adc=AdcConfig(noise_sigma_lsb=sigma),
        filter_substeps=substeps,
        seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndersamplingWarning)  # an aliased sine is a run like any other
        rows = run_acquisition(cfg).rows
    assert rows == reference_rows(cfg)


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=50.0),
    duration=st.floats(min_value=0.0, max_value=20.0),
    dry=STIMULI,
    wet=STIMULI,
)
def test_a_log_replayed_at_its_own_rate_gives_back_its_codes(rate, duration, dry, wet, tmp_path_factory):
    # no noise and no filter: each tick's code is the quantized stimulus, and
    # the replay holds the logged (decoded, 6-decimal) temperature of that tick
    cfg = constant_run_config(duration_s=duration, sample_rate_hz=rate, stimuli={Channel.DRY: dry, Channel.WET: wet})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndersamplingWarning)
        original = run_acquisition(cfg)
    path = tmp_path_factory.mktemp("replay") / "source.csv"
    write_csv(original, path)
    stimuli = {Channel.DRY: Replay(str(path), column="dry_temp_c"), Channel.WET: Replay(str(path), column="wet_temp_c")}
    replayed = run_acquisition(constant_run_config(duration_s=duration, sample_rate_hz=rate, stimuli=stimuli))
    assert [(r.dry_code, r.wet_code) for r in replayed.rows] == [(r.dry_code, r.wet_code) for r in original.rows]


@settings(max_examples=100, deadline=None)
@given(
    start=st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1)),
    microsecond=st.one_of(st.sampled_from([0, 999, 999_999, 500_000]), st.integers(0, 999_999)),
    tz=st.sampled_from(
        [None, timezone.utc, timezone(timedelta(hours=5, minutes=45)), timezone(-timedelta(hours=9, minutes=30))]
    ),
    rate=st.floats(min_value=0.5, max_value=50.0),
    duration=st.floats(min_value=0.0, max_value=5.0),
)
def test_each_stamp_is_the_start_plus_the_tick_time_to_the_millisecond(start, microsecond, tz, rate, duration):
    # the straight-line reference starts on a whole second with no UTC offset
    start = start.replace(microsecond=microsecond, tzinfo=tz)
    cfg = constant_run_config(duration_s=duration, sample_rate_hz=rate, start_time=start)
    stamps = [row.timestamp for row in run_acquisition(cfg).rows]
    assert stamps == [
        (start + timedelta(seconds=k / rate)).isoformat(timespec="milliseconds") for k in range(cfg.tick_count())
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    noise=st.floats(min_value=0.0, max_value=2.0),
    substeps=st.integers(min_value=0, max_value=8),
    amplitude=st.floats(min_value=0.0, max_value=20.0),
    freq=st.floats(min_value=0.0, max_value=1.0),
    offset=st.floats(min_value=0.0, max_value=50.0),
)
def test_a_sink_changes_nothing(seed, noise, substeps, amplitude, freq, offset):
    def config():
        cfg = constant_run_config(
            duration_s=5.0, adc=AdcConfig(noise_sigma_lsb=noise), filter_substeps=substeps, seed=seed
        )
        return with_stimulus(cfg, Channel.DRY, Sine(amplitude_c=amplitude, freq_hz=freq, offset_c=offset))

    plain = run_acquisition(config())
    first, second = [], []
    watched = RunLog(acquire_rows(config(), [first.append, second.append]), first)
    assert watched == plain
    assert first == second == plain.rows
    for row in plain.rows:
        assert row.dry_temp_c == round(decode_temp(row.dry_code), 6)  # the log keeps 6 decimals
        assert row.wet_temp_c == round(decode_temp(row.wet_code), 6)


def _bits_or_error(fn) -> object:
    """fn()'s bits, sign of zero included, or the ValueError math.sin raises on an infinite phase."""
    try:
        return struct.pack(">d", fn())
    except ValueError as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    f=st.floats(min_value=0.0, allow_infinity=False),
    o=st.floats(allow_nan=False, allow_infinity=False),
    t=st.floats(min_value=0.0, max_value=1e6),
)
def test_a_sine_is_its_formula_bit_for_bit(a, f, o, t):
    # the sine works out 2 pi f once, when it is built; its phase keeps the
    # bits of 2.0 * math.pi * f * t, which multiplies left to right
    assume(math.isfinite(abs(o) + abs(a)))  # the bound Sine checks
    sine = Sine(amplitude_c=a, freq_hz=f, offset_c=o)
    assert _bits_or_error(lambda: sine.temp_at(t)) == _bits_or_error(lambda: o + a * math.sin(2.0 * math.pi * f * t))


def test_a_sine_shows_compares_and_hashes_only_its_three_fields():
    sine = Sine(amplitude_c=3.5, freq_hz=0.25, offset_c=22.0)
    assert repr(sine) == "Sine(amplitude_c=3.5, freq_hz=0.25, offset_c=22.0)"
    assert [f.name for f in dataclasses.fields(Sine)] == ["amplitude_c", "freq_hz", "offset_c"]
    other = Sine(amplitude_c=3.5, freq_hz=0.25, offset_c=22.0)
    object.__setattr__(other, "_omega", 0.0)  # the worked-out 2 pi f is no part of the value
    assert other == sine and hash(other) == hash(sine)
    assert dataclasses.replace(sine, freq_hz=0.5).temp_at(0.5) == 22.0 + 3.5 * math.sin(2.0 * math.pi * 0.5 * 0.5)


class TestConfigValidation:
    def test_bad_rate(self):
        with pytest.raises(InvalidInputError):
            RunConfig(duration_s=1.0, sample_rate_hz=0.0)
        with pytest.raises(InvalidInputError, match="finite"):
            RunConfig(duration_s=1.0, sample_rate_hz=math.inf)

    def test_sine_rejects_non_finite_parameters(self):
        Sine(amplitude_c=1.0, freq_hz=0.1, offset_c=20.0)
        for bad in (
            dict(amplitude_c=math.inf, freq_hz=0.1, offset_c=20.0),
            dict(amplitude_c=1.0, freq_hz=math.inf, offset_c=20.0),
            dict(amplitude_c=1.0, freq_hz=0.1, offset_c=math.nan),
        ):
            with pytest.raises(InvalidInputError):
                Sine(**bad)

    def test_filter_substeps_are_bounded_before_any_tick(self, monkeypatch):
        from paraloq import acquisition

        assert acquisition.MAX_FILTER_SUBSTEPS == 1024
        RunConfig(duration_s=1.0, filter_substeps=1024)
        # 1e300 substeps passed every check and ran the loop without end; with
        # the filter path gone, a run that got past construction fails, not hangs
        monkeypatch.setattr(acquisition, "_FrontEnd", None)
        for substeps in (1025, 10**300):
            with pytest.raises(InvalidInputError, match="filter_substeps must be 0..1024"):
                run_acquisition(RunConfig(duration_s=1.0, filter_substeps=substeps))

    def test_a_default_port_runs_at_the_clock_of_a_default_run(self):
        # one default clock: the port's own was 640 kHz, the run's 639,979.5 Hz
        assert SimulatedPort().latency_s == build_port(RunConfig(duration_s=1.0)).latency_s

    def test_missing_stimulus(self):
        with pytest.raises(InvalidInputError, match="^stimuli keys must be Channel.DRY, Channel.WET, got Channel.DRY$"):
            RunConfig(duration_s=1.0, stimuli={Channel.DRY: Constant(20.0)})

    def test_a_stimulus_key_that_is_not_a_channel_is_rejected(self):
        # it used to build and run every tick, then fail in fingerprint() with a bare AttributeError
        stimuli = {Channel.DRY: Constant(20.0), Channel.WET: Constant(18.0), "dry": Constant(25.0)}
        with pytest.raises(InvalidInputError, match="got Channel.DRY, Channel.WET, dry$"):
            RunConfig(duration_s=1.0, stimuli=stimuli)

    @pytest.mark.parametrize(
        "stimuli, got",
        [
            ({}, "none"),
            ({Channel.WET: Constant(18.0)}, "Channel.WET"),
            ({"DRY": Constant(20.0), "WET": Constant(18.0)}, "DRY, WET"),  # the channels' names
            ({0: Constant(20.0), 1: Constant(18.0)}, "0, 1"),  # their mux inputs
        ],
        ids=["none", "wet only", "names", "mux inputs"],
    )
    def test_stimuli_keyed_by_anything_but_the_two_channels_are_rejected(self, stimuli, got):
        with pytest.raises(InvalidInputError, match=f"^stimuli keys must be Channel.DRY, Channel.WET, got {got}$"):
            RunConfig(duration_s=1.0, stimuli=stimuli)

    def test_negative_duration(self):
        with pytest.raises(InvalidInputError):
            RunConfig(duration_s=-1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            RunConfig(duration_s=math.nan)

    def test_meta_records_run_identity(self, fixed_start, tmp_path):
        run = run_acquisition(constant_run_config(duration_s=0.0))
        assert run.meta.run_id == f"{fixed_start:%Y%m%dT%H%M%S}_00000000"
        assert run.meta.start == "2026-08-10T12:00:00.000"
        write_csv(run, tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_text(encoding="utf-8").splitlines()[3] == "# channels = dry=0,wet=1"
        assert len(run.meta.config_fingerprint) == 12

    def test_run_meta_of_a_config_without_a_start_time_is_refused(self):
        # it raised a bare TypeError from formatting None as a date
        with pytest.raises(InvalidInputError, match="start_time"):
            run_meta(RunConfig(duration_s=1.0))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_no_field_of_a_built_config_can_be_assigned(self, name):
        # a rate raised after the checks set out on 5e9 ticks
        cfg = constant_run_config(duration_s=5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    def test_the_stimuli_of_a_built_config_are_read_only(self):
        # a stimulus the config refuses, put in after its checks, ran 6 ticks and then raised a bare ValueError
        cfg = constant_run_config(duration_s=5.0)
        with pytest.raises(TypeError):
            cfg.stimuli[Channel.DRY] = Sine(amplitude_c=1.0, freq_hz=1e307, offset_c=20.0)
        assert cfg.stimuli == {Channel.DRY: Constant(20.0), Channel.WET: Constant(18.0)}

    def test_the_stimuli_are_a_copy_of_the_mapping_given(self):
        stimuli = {Channel.DRY: Constant(20.0), Channel.WET: Constant(18.0)}
        cfg = constant_run_config(stimuli=stimuli)
        stimuli[Channel.DRY] = Sine(amplitude_c=1.0, freq_hz=1e307, offset_c=20.0)
        assert cfg.stimuli[Channel.DRY] == Constant(20.0)

    @pytest.mark.parametrize("how", list(DUPLICATES))
    def test_a_config_pickles_and_copies_to_an_equal_read_only_config(self, how):
        # its read-only stimuli made pickle and deepcopy raise "cannot pickle 'mappingproxy' object"
        cfg = constant_run_config(
            duration_s=3.0,
            stimuli={Channel.DRY: Sine(amplitude_c=5.0, freq_hz=0.2, offset_c=25.0), Channel.WET: Constant(18.0)},
            adc=AdcConfig(noise_sigma_lsb=0.5),
            psychro=PsychroConfig(pressure_hpa=900.0),
            filter_cutoff_hz=0.3,
            filter_substeps=4,
            seed=7,
        )
        twin = DUPLICATES[how](cfg)
        assert twin == cfg and twin.fingerprint() == cfg.fingerprint()
        with pytest.raises(TypeError):
            twin.stimuli[Channel.DRY] = Constant(20.0)
        assert run_acquisition(twin) == run_acquisition(cfg)

    def test_stimuli_that_are_not_a_mapping_are_rejected(self):
        # a list raised a bare AttributeError
        with pytest.raises(InvalidInputError, match=r"^stimuli must be a mapping of Channel to stimulus, got \[1, 2\]$"):
            RunConfig(duration_s=1.0, stimuli=[1, 2])


# the five config entry points, each with the least it needs to build
ENTRY_KWARGS = {
    AdcConfig: {},
    PsychroConfig: {},
    Sine: dict(amplitude_c=1.0, freq_hz=0.1, offset_c=20.0),
    Constant: dict(value_c=20.0),
    RunConfig: dict(duration_s=1.0),
}
NUMERIC_FIELDS = [
    (cls, f.name, f.type)
    for cls in ENTRY_KWARGS
    for f in dataclasses.fields(cls)
    if f.type in ("float", "int")
]
# (class, field, bad value, id); an int field also rejects a finite float and a
# bool (a nan seed used to build, then fail mid-run with a bare TypeError), and
# a float field an int beyond the float range (it used to build, or to raise a
# bare OverflowError)
BAD_VALUES = [
    (cls, name, bad, f"{cls.__name__}.{name}-{'10**400' if bad == 10**400 else repr(bad)}")
    for cls, name, kind in NUMERIC_FIELDS
    for bad in [math.nan, math.inf, -math.inf] + ([1.5, True] if kind == "int" else [10**400])
]


@pytest.mark.parametrize(
    "cls, name, bad", [case[:3] for case in BAD_VALUES], ids=[case[3] for case in BAD_VALUES]
)
def test_every_numeric_config_field_rejects_a_non_finite_value(cls, name, bad):
    cls(**ENTRY_KWARGS[cls])  # builds with every field in range
    with pytest.raises(InvalidInputError, match=name):
        cls(**{**ENTRY_KWARGS[cls], name: bad})


# every float field of the five config entry points, spelt as an int in range
INT_SPELT_KWARGS = {
    AdcConfig: dict(noise_sigma_lsb=0),
    PsychroConfig: dict(psychrometer_coeff=1, pressure_hpa=1013),
    Sine: dict(amplitude_c=1, freq_hz=0, offset_c=20),
    Constant: dict(value_c=20),
    RunConfig: dict(duration_s=5, sample_rate_hz=2, filter_cutoff_hz=1),
}


@pytest.mark.parametrize("cls", list(INT_SPELT_KWARGS), ids=lambda cls: cls.__name__)
def test_every_float_config_field_is_stored_as_a_float(cls):
    kwargs = INT_SPELT_KWARGS[cls]
    assert set(kwargs) == {name for c, name, kind in NUMERIC_FIELDS if c is cls and kind == "float"}
    built = cls(**kwargs)
    assert all(type(getattr(built, name)) is float for name in kwargs)
    # 5 and 5.0 make one config, down to the repr that RunConfig.fingerprint hashes
    assert repr(built) == repr(cls(**{name: float(value) for name, value in kwargs.items()}))


# one field of a 10 s run changed at a time, and the `# config` hash each gave
# when the paper's constants were still config fields, whose reprs were hashed
FINGERPRINTS = {
    "defaults": ({}, "f4053c014390"),
    "RunConfig.filter_cutoff_hz": (dict(filter_cutoff_hz=0.125), "c573ecd2e0ee"),
    "AdcConfig.noise_sigma_lsb": (dict(adc=AdcConfig(noise_sigma_lsb=0.5)), "295aea3fdc4f"),
    "PsychroConfig.psychrometer_coeff": (dict(psychro=PsychroConfig(psychrometer_coeff=8e-4)), "433d09417209"),
    "PsychroConfig.pressure_hpa": (dict(psychro=PsychroConfig(pressure_hpa=900.0)), "5cda03e7de1a"),
    "RunConfig.duration_s": (dict(duration_s=60.0), "81b38d578bb0"),
    "RunConfig.sample_rate_hz": (dict(sample_rate_hz=4.0), "d9c7ccd4c3c4"),
    "RunConfig.stimuli": (
        dict(stimuli={Channel.DRY: Sine(amplitude_c=2.0, freq_hz=0.01, offset_c=25.0), Channel.WET: Constant(18.0)}),
        "4b1d8b9e078c",
    ),
    "RunConfig.filter_substeps": (dict(filter_substeps=16), "71ada442bcff"),
    "RunConfig.seed": (dict(seed=7), "977121dd3159"),
}


@pytest.mark.parametrize("case", list(FINGERPRINTS))
def test_the_fingerprint_keeps_the_hash_of_the_old_reprs(case):
    # fingerprint() spells the old reprs out by hand: each field must land in its old place
    kwargs, digest = FINGERPRINTS[case]
    assert RunConfig(**{"duration_s": 10.0, **kwargs}).fingerprint() == digest


def test_the_fingerprint_table_changes_every_hashed_field():
    # a field added to a config must be added to fingerprint() and to this table
    sections = (AdcConfig, PsychroConfig)
    hashed = {f"{cls.__name__}.{f.name}" for cls in sections for f in dataclasses.fields(cls)} | {
        f"RunConfig.{f.name}"
        for f in dataclasses.fields(RunConfig)
        if f.name not in ("adc", "psychro", "start_time")  # start_time is in the run id
    }
    assert set(FINGERPRINTS) - {"defaults"} == hashed


# the paper's constants that were fields, each now refused as a keyword; the
# front end's, its zener clamp (VREF) and the chain config that held them are
# refused by RunConfig, which keeps the chain's one other field, filter_cutoff_hz,
# and so is the converter clock, the logger's adc0808.CLOCK_HZ
RETIRED_FIELDS = [
    (RunConfig, "clock", None),
    (RunConfig, "chain", None),
    (RunConfig, "clamp_volts", 5.0),
    (RunConfig, "sensor_slope", 0.01),
    (RunConfig, "amp_gain", 10.0),
    (RunConfig, "vref", 5.0),
    (RunConfig, "allow_misaligned", False),
    (AdcConfig, "vref", 5.0),
    (AdcConfig, "bits", 8),
    (AdcConfig, "unadjusted_error_lsb", 0.5),
    (AdcConfig, "conversion_cycles", 64),
    (PsychroConfig, "magnus_a", 6.112),
    (PsychroConfig, "magnus_b", 17.62),
    (PsychroConfig, "magnus_c", 243.12),
]


@pytest.mark.parametrize(
    "cls, name, value", RETIRED_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name, _ in RETIRED_FIELDS]
)
def test_a_paper_constant_is_not_a_config_field(cls, name, value):
    # even its own value is refused, so no caller believes a 3.3 V converter was built
    with pytest.raises(TypeError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RunConfig(duration_s=10**5000), "duration_s must be >= 0 and finite, got an int of 5001 digits"),
        (lambda: Constant(10**5000), "value_c must be finite, got an int of 5001 digits"),
        (lambda: Constant(-(10**5000)), "value_c must be finite, got a negative int of 5001 digits"),
        (
            lambda: RunConfig(duration_s=1.0, filter_substeps=10**5000),
            "filter_substeps must be 0..1024, got an int of 5001 digits",
        ),
        (lambda: decode_temp(10**5000), "code must be an integer 0..255, got an int of 5001 digits"),
        (lambda: decode_volts(10**5000), "code must be an integer 0..255, got an int of 5001 digits"),
        (lambda: acquire_byte(SimulatedPort(), 10**5000), "channel must be 0..7, got an int of 5001 digits"),
        (lambda: SimulatedPort().set_input(10**5000, 1.0), "channel must be 0..7, got an int of 5001 digits"),
        (lambda: SimulatedPort().write_control(10**5000), "control value must be a byte, got an int of 5001 digits"),
    ],
    ids=[
        "RunConfig.duration_s",
        "Constant",
        "Constant-negative",
        "RunConfig.filter_substeps",
        "decode_temp",
        "decode_volts",
        "acquire_byte.channel",
        "set_input.channel",
        "write_control",
    ],
)
def test_an_int_too_long_for_str_is_rejected_by_its_digit_count(build, message):
    # past Python's 4,300-digit str limit the message used to fail to format,
    # raising a bare ValueError in place of InvalidInputError
    with pytest.raises(InvalidInputError) as err:
        build()
    assert str(err.value) == message


# a public helper that checks a float argument as finite, and the name its error gives it
FINITE_CHECKED_CALLS = pytest.mark.parametrize(
    "call, name",
    [
        (sar_convert, "v_in"),
        (quantize, "v_in"),
        (chain_voltage, "temp_c"),
        (lambda v: SimulatedPort().set_input(0, v), "volts"),
        (lambda v: reading(v, 18.0), "dry_c"),
        (lambda v: reading(20.0, v), "wet_c"),
    ],
    ids=[
        "sar_convert",
        "quantize",
        "chain_voltage",
        "set_input",
        "reading.dry_c",
        "reading.wet_c",
    ],
)


@pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["10**400", "-10**400", "10**5000"])
@FINITE_CHECKED_CALLS
def test_an_int_beyond_the_float_range_is_invalid_input(call, name, value):
    # each used to raise a bare OverflowError ("int too large to convert to float")
    with pytest.raises(InvalidInputError, match=rf"^{name} must be finite"):
        call(value)


@FINITE_CHECKED_CALLS
def test_the_ends_of_the_float_range_are_finite(call, name):
    # one rule, -max <= x <= max: the largest floats pass it, the ints past them fail it
    top = sys.float_info.max
    for value in (top, -top):
        try:
            call(value)
        except ParaloqError as err:
            assert not str(err).startswith(f"{name} must be finite")
    for value in (10**309, int(top) + 1):
        with pytest.raises(InvalidInputError, match=rf"^{name} must be finite"):
            call(value)


@pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["10**400", "-10**400", "10**5000"])
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda v: alias_frequency(v, 2.0), InvalidInputError, "f_signal must be >= 0 and finite"),
        (lambda v: alias_frequency(1.0, v), InvalidInputError, "f_sample must be > 0 and finite"),
        (lambda v: lowpass_alpha(v, 0.5), InvalidInputError, "dt must be > 0 and finite"),
        (lambda v: lowpass_alpha(0.01, v), InvalidInputError, "cutoff_hz must be > 0 and finite"),
        (lambda v: SimulatedPort(clock_hz=v), ClockRangeError, "clock .+ Hz outside"),
    ],
    ids=[
        "alias_frequency.f_signal",
        "alias_frequency.f_sample",
        "lowpass_alpha",
        "lowpass_alpha.cutoff_hz",
        "SimulatedPort.clock_hz",
    ],
)
def test_a_helper_argument_beyond_the_float_range_is_named(call, error, message, value):
    # each used to raise a bare OverflowError ("int too large to convert to float"),
    # the clock from formatting its error message
    with pytest.raises(error, match=rf"^{message}"):
        call(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (10**4300 - 1, "9" * 4300),  # at the limit, str still works
        (10**4300, "an int of 4301 digits"),
        (-(10**4300), "a negative int of 4301 digits"),
        (2**20000, "an int of 6021 digits"),
        (10**20000 - 1, "an int of 20000 digits"),
        (10**20000, "an int of 20001 digits"),
        (-1.5, "-1.5"),
        (None, "None"),
        (10**400, str(10**400)),
    ],
    ids=["10**4300-1", "10**4300", "-10**4300", "2**20000", "10**20000-1", "10**20000", "float", "None", "10**400"],
)
def test_shown_writes_a_value_as_str_or_by_its_digit_count(value, text):
    assert shown(value) == text


def test_shown_passes_on_the_error_of_a_non_int_whose_str_fails():
    class Unprintable:
        def __str__(self):
            raise ValueError("no text")

    with pytest.raises(ValueError, match="^no text$"):
        shown(Unprintable())


@pytest.mark.parametrize("inclusive", [True, False], ids=["inclusive", "exclusive"])
def test_the_largest_float_passes_a_lower_bound(inclusive):
    # FLOAT_MAX is finite, so it is in every range open above
    require_above("x", sys.float_info.max, 0, inclusive=inclusive)
