import dataclasses
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraloq import (
    AdcConfig,
    ChainConfig,
    Channel,
    ClockConfig,
    ClockRangeError,
    Constant,
    EmptyRunError,
    InvalidInputError,
    PortRegisters,
    PsychroConfig,
    QueueSink,
    Replay,
    RunAbortedError,
    RunConfig,
    RunLog,
    RunMeta,
    SimulatedPort,
    Sine,
    UndersamplingWarning,
    acquire_byte,
    alias_frequency,
    amplify_and_clamp,
    build_port,
    chain_voltage,
    decode_temp,
    decode_volts,
    dew_point,
    humidity_summary,
    is_undersampled,
    lowpass_alpha,
    quantize,
    reading,
    relative_humidity,
    run_acquisition,
    sar_convert,
    saturation_vapor_pressure,
    summarize,
    write_csv,
)
from paraloq.errors import shown
from paraloq.logstore import PsychroRow
from paraloq.psychro import dew_point_from_vapor_pressure

from conftest import constant_run_config

LSB_C = 50.0 / 255.0


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
        sink = QueueSink(capacity=10000)
        run_acquisition(constant_run_config(duration_s=500.0), sinks=[sink])
        assert sink.drain()[1000].t_s - 500.0 == 0.0

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
        sink = QueueSink()
        run_acquisition(constant_run_config(duration_s=1.0), sinks=[sink])
        for row in sink.drain():
            assert row.dry_temp_c == round(decode_temp(row.dry_code), 6)  # the log keeps 6 decimals
            assert row.wet_temp_c == round(decode_temp(row.wet_code), 6)


class TestAliasing:
    def test_undersampled_stimulus_warns(self):
        cfg = constant_run_config(duration_s=1.0)
        cfg.stimuli[Channel.DRY] = Sine(amplitude_c=5.0, freq_hz=1.5, offset_c=25.0)
        with pytest.warns(UndersamplingWarning):
            run_acquisition(cfg)

    def test_folded_spectrum_peak(self):
        cfg = constant_run_config(duration_s=63.5)  # 128 ticks: clean FFT bins
        cfg.stimuli[Channel.DRY] = Sine(amplitude_c=5.0, freq_hz=1.5, offset_c=25.0)
        with pytest.warns(UndersamplingWarning):
            run = run_acquisition(cfg)
        temps = np.array([row.dry_temp_c for row in run.rows])
        spectrum = np.abs(np.fft.rfft(temps - temps.mean()))
        peak = np.fft.rfftfreq(len(temps), 0.5)[spectrum.argmax()]
        assert peak == pytest.approx(0.5, abs=1e-9)


class TestReplay:
    def test_replaying_a_run_reproduces_codes(self, tmp_path):
        cfg = constant_run_config(duration_s=30.0)
        cfg.stimuli[Channel.DRY] = Sine(amplitude_c=8.0, freq_hz=0.05, offset_c=25.0)
        cfg.stimuli[Channel.WET] = Sine(amplitude_c=6.0, freq_hz=0.03, offset_c=20.0)
        original = run_acquisition(cfg)
        path = tmp_path / "source.csv"
        write_csv(original, path)

        replay_cfg = constant_run_config(duration_s=30.0)
        replay_cfg.stimuli = {
            Channel.DRY: Replay(str(path), column="dry_temp_c"),
            Channel.WET: Replay(str(path), column="wet_temp_c"),
        }
        replayed = run_acquisition(replay_cfg)
        assert [r.dry_code for r in replayed.rows] == [r.dry_code for r in original.rows]
        assert [r.wet_code for r in replayed.rows] == [r.wet_code for r in original.rows]

    def test_replay_requires_rows(self, tmp_path):
        from paraloq.logstore import HEADER

        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        with pytest.raises(EmptyRunError):
            Replay(str(path)).temp_at(0.0)

    def test_source_is_read_once(self, tmp_path):
        path = tmp_path / "source.csv"
        write_csv(run_acquisition(constant_run_config(duration_s=2.0)), path)
        replay = Replay(str(path), column="wet_temp_c")
        path.unlink()  # every later lookup is served from memory
        assert replay.temp_at(0.0) == replay.temp_at(2.0) == round(decode_temp(92), 6)


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


class TestFailurePaths:
    def test_timeout_aborts_with_partial_log(self):
        cfg = constant_run_config(duration_s=10.0)
        port = build_port(cfg)

        def saboteur(row):
            if row.t_s == 1.0:  # the row of tick 2: tick 3 times out
                port.connected = False

        with pytest.raises(RunAbortedError) as err:
            run_acquisition(cfg, sinks=[saboteur], port=port)
        partial = err.value.partial_run
        assert len(partial.rows) == 3
        assert partial.meta.sample_rate_hz == 2.0

    def test_a_sink_error_propagates_as_it_is(self):
        class Stop(Exception):
            pass

        def failing(row):
            raise Stop

        with pytest.raises(Stop):  # not wrapped in RunAbortedError
            run_acquisition(constant_run_config(duration_s=1.0), sinks=[failing])

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
        sink = QueueSink()
        cfg = constant_run_config(duration_s=0.01, sample_rate_hz=20000.0)
        with pytest.raises(InvalidInputError):
            run_acquisition(cfg, sinks=[sink])
        assert len(sink) == 0
        # two conversions of about 100 us fit in a 250 us tick
        run_acquisition(constant_run_config(duration_s=0.001, sample_rate_hz=4000.0))

    def test_humidity_fields_empty_when_wet_exceeds_dry(self):
        cfg = constant_run_config(dry_c=18.0, wet_c=22.0, duration_s=1.0)
        run = run_acquisition(cfg)
        assert all(row.rh_pct is None and row.dew_point_c is None for row in run.rows)
        assert all(row.dry_code is not None for row in run.rows)


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
            cfg.stimuli[Channel.DRY] = Sine(amplitude_c=10.0, freq_hz=0.9, offset_c=25.0)
            run = run_acquisition(cfg)
            temps = [row.dry_temp_c for row in run.rows]
            return max(temps) - min(temps)

        # a 0.9 Hz sine through the 0.5 Hz front-end filter loses amplitude
        assert peak_to_peak(32) < 0.75 * peak_to_peak(0)

    @pytest.mark.parametrize("substeps", [1, 3, 32])
    def test_each_substep_and_poll_goes_through_its_named_call(self, monkeypatch, substeps):
        # the call counts perfbench pins, per lane and per conversion: a second
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
        cfg.stimuli[Channel.DRY] = Sine(amplitude_c=10.0, freq_hz=0.2, offset_c=25.0)
        run = run_acquisition(cfg)
        assert len(seen) == 2 * len(run.rows) == 14
        # one settled chain voltage per lane at setup, which tick 0 reads
        assert seen[0] == {"chain": 2, "step": 0, "polls": 16, "writes": 5}
        per_lane = [{key: after[key] - before[key] for key in counts} for before, after in zip(seen, seen[1:])]
        assert per_lane[0] == {"chain": 0, "step": 0, "polls": 16, "writes": 5}  # tick 0, WET
        filtered = {"chain": substeps, "step": substeps, "polls": 16, "writes": 5}
        assert all(lane == filtered for lane in per_lane[1:])

    @settings(max_examples=60, deadline=None)
    @given(
        cutoffs=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 2),
        clamp=st.floats(min_value=0.5, max_value=5.0),
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
        self, cutoffs, clamp, substeps, rate, ticks, sines
    ):
        # the run computes alpha once per lane; the reference recomputes RC and
        # alpha every substep, as the filter did before, at the same substep times
        chains = {
            ch: ChainConfig(filter_cutoff_hz=fc, clamp_volts=clamp)
            for ch, fc in zip(Channel, cutoffs)
        }
        stimuli = {
            ch: Sine(amplitude_c=amp, freq_hz=f * rate, offset_c=off)
            for ch, (amp, f, off) in zip(Channel, sines)
        }
        cfg = constant_run_config(
            duration_s=(ticks - 1) / rate,
            sample_rate_hz=rate,
            chains=chains,
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
            chain, stimulus = chains[ch], stimuli[ch]
            dt = 1.0 / (rate * substeps)
            state = chain_voltage(stimulus.temp_at(0.0), chain)
            t_prev = 0.0
            expected = []
            for k in range(cfg.tick_count()):
                t = k / rate
                if t > t_prev:
                    for j in range(1, substeps + 1):
                        x = chain_voltage(stimulus.temp_at(t_prev + j * dt), chain)
                        rc = 1.0 / (2.0 * math.pi * chain.filter_cutoff_hz)
                        alpha = dt / (dt + rc)
                        state = state + alpha * (x - state)
                        assert math.isfinite(state) and 0.0 <= state <= clamp
                    t_prev = t
                expected.append(state)
            assert seen[ch.value] == expected


class TestQueueSink:
    def test_bounded_fifo_drops_oldest(self):
        sink = QueueSink(capacity=3)
        cfg = constant_run_config(duration_s=2.0)  # 5 ticks, 5 rows
        run = run_acquisition(cfg, sinks=[sink])
        assert sink.dropped == 2
        kept = sink.drain()
        assert len(kept) == 3
        assert kept == run.rows[2:]  # newest survive
        assert len(sink) == 0

    def test_capacity_validated(self):
        with pytest.raises(InvalidInputError):
            QueueSink(capacity=0)
        with pytest.raises(InvalidInputError, match="capacity must be an integer, got 1.5"):
            QueueSink(capacity=1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        noise=st.floats(min_value=0.0, max_value=2.0),
        substeps=st.integers(min_value=0, max_value=8),
        amplitude=st.floats(min_value=0.0, max_value=20.0),
        freq=st.floats(min_value=0.0, max_value=1.0),
        offset=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_a_sink_changes_nothing(self, seed, noise, substeps, amplitude, freq, offset):
        def config():
            cfg = constant_run_config(
                duration_s=5.0, adc=AdcConfig(noise_sigma_lsb=noise), filter_substeps=substeps, seed=seed
            )
            cfg.stimuli[Channel.DRY] = Sine(amplitude_c=amplitude, freq_hz=freq, offset_c=offset)
            return cfg

        plain = run_acquisition(config())
        sink = QueueSink(capacity=10000)
        appended = []
        watched = run_acquisition(config(), sinks=[sink, appended.append])
        assert watched == plain
        assert sink.drain() == appended == plain.rows
        assert sink.dropped == 0
        for row in plain.rows:
            assert row.dry_temp_c == round(decode_temp(row.dry_code), 6)  # the log keeps 6 decimals
            assert row.wet_temp_c == round(decode_temp(row.wet_code), 6)


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

    def test_chain_and_adc_share_the_reference(self):
        chain = ChainConfig(sensor_slope=0.0066, clamp_volts=3.3, vref=3.3)
        chains = {Channel.DRY: chain, Channel.WET: chain}
        with pytest.raises(InvalidInputError, match="vref"):
            RunConfig(duration_s=1.0, chains=chains)
        RunConfig(duration_s=1.0, chains=chains, adc=AdcConfig(vref=3.3))

    def test_filter_substeps_are_bounded_before_any_tick(self, monkeypatch):
        from paraloq import acquisition

        assert acquisition.MAX_FILTER_SUBSTEPS == 1024
        RunConfig(duration_s=1.0, filter_substeps=1024)
        # 1e300 substeps passed every check and ran the loop without end; with
        # the filter path gone, a run that got past construction fails, not hangs
        monkeypatch.setattr(acquisition, "_FilteredChain", None)
        for substeps in (1025, 10**300):
            with pytest.raises(InvalidInputError, match="filter_substeps must be 0..1024"):
                run_acquisition(RunConfig(duration_s=1.0, filter_substeps=substeps))

    @pytest.mark.parametrize("r,c", [(1e6, 1e-6), (100.0, 1e-9)], ids=["0.9 Hz", "9.1 MHz"])
    def test_clock_outside_the_window_is_rejected_before_any_tick(self, r, c):
        # 0.9 Hz only warned, then failed as "2 conversions of 7.04e+07 us do not fit"
        with pytest.raises(ClockRangeError, match="outside"):
            RunConfig(duration_s=1.0, clock=ClockConfig(r_ohms=r, c_farads=c))

    def test_misaligned_chain_rejected_even_when_allowed(self):
        # decode_temp assumes vref at 50 degC; this half-gain chain logged 25 degC as 12.5
        chain = ChainConfig(amp_gain=5.0, allow_misaligned=True)
        with pytest.raises(InvalidInputError, match="full scale"):
            RunConfig(duration_s=1.0, chains={Channel.DRY: chain, Channel.WET: chain})

    def test_missing_stimulus(self):
        with pytest.raises(InvalidInputError):
            RunConfig(duration_s=1.0, stimuli={Channel.DRY: Constant(20.0)})

    def test_negative_duration(self):
        with pytest.raises(InvalidInputError):
            RunConfig(duration_s=-1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            RunConfig(duration_s=math.nan)

    def test_meta_records_run_identity(self, fixed_start):
        run = run_acquisition(constant_run_config(duration_s=0.0))
        assert run.meta.run_id == f"{fixed_start:%Y%m%dT%H%M%S}_00000000"
        assert run.meta.start == "2026-08-10T12:00:00.000"
        assert run.meta.channels == {"dry": 0, "wet": 1}
        assert len(run.meta.config_fingerprint) == 12


# the seven config entry points, each with the least it needs to build
ENTRY_KWARGS = {
    ClockConfig: dict(r_ohms=1420.5, c_farads=1e-9),
    AdcConfig: {},
    ChainConfig: {},
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
        (lambda: QueueSink(-(10**5000)), "capacity must be >= 1, got a negative int of 5001 digits"),
        (lambda: decode_temp(10**5000), "code must be an integer 0..255, got an int of 5001 digits"),
        (lambda: decode_volts(10**5000), "code must be an integer 0..255, got an int of 5001 digits"),
        (lambda: acquire_byte(SimulatedPort(), 10**5000), "channel must be 0..7, got an int of 5001 digits"),
        (lambda: SimulatedPort().set_input(10**5000, 1.0), "channel must be 0..7, got an int of 5001 digits"),
        (lambda: SimulatedPort().write_control(10**5000), "control value must be a byte, got an int of 5001 digits"),
        (lambda: PortRegisters(data=10**5000), "data register must be a byte, got an int of 5001 digits"),
    ],
    ids=[
        "RunConfig.duration_s",
        "Constant",
        "Constant-negative",
        "RunConfig.filter_substeps",
        "QueueSink",
        "decode_temp",
        "decode_volts",
        "acquire_byte.channel",
        "set_input.channel",
        "write_control",
        "PortRegisters",
    ],
)
def test_an_int_too_long_for_str_is_rejected_by_its_digit_count(build, message):
    # past Python's 4,300-digit str limit the message used to fail to format,
    # raising a bare ValueError in place of InvalidInputError
    with pytest.raises(InvalidInputError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["10**400", "-10**400", "10**5000"])
@pytest.mark.parametrize(
    "call, name",
    [
        (sar_convert, "v_in"),
        (quantize, "v_in"),
        (amplify_and_clamp, "v_in"),
        (lambda v: SimulatedPort().set_input(0, v), "volts"),
        (saturation_vapor_pressure, "t_c"),
        (lambda v: relative_humidity(v, 18.0), "dry_c"),
        (lambda v: relative_humidity(20.0, v), "wet_c"),
        (lambda v: dew_point(v, 18.0), "dry_c"),
        (lambda v: reading(20.0, v), "wet_c"),
        (dew_point_from_vapor_pressure, "e_hpa"),
    ],
    ids=[
        "sar_convert",
        "quantize",
        "amplify_and_clamp",
        "set_input",
        "saturation_vapor_pressure",
        "relative_humidity.dry_c",
        "relative_humidity.wet_c",
        "dew_point",
        "reading",
        "dew_point_from_vapor_pressure",
    ],
)
def test_an_int_beyond_the_float_range_is_invalid_input(call, name, value):
    # each used to raise a bare OverflowError ("int too large to convert to float")
    with pytest.raises(InvalidInputError, match=rf"^{name} must be finite"):
        call(value)


@pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["10**400", "-10**400", "10**5000"])
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda v: alias_frequency(v, 2.0), InvalidInputError, "f_signal must be >= 0 and finite"),
        (lambda v: alias_frequency(1.0, v), InvalidInputError, "f_sample must be > 0 and finite"),
        (lambda v: is_undersampled(1.0, v), InvalidInputError, "f_sample must be > 0 and finite"),
        (lambda v: is_undersampled(v, 2.0), InvalidInputError, "f_signal must be >= 0 and finite"),
        (lowpass_alpha, InvalidInputError, "dt must be > 0 and finite"),
        (lambda v: decode_volts(1, v), InvalidInputError, "vref must be > 0 and finite"),
        (lambda v: SimulatedPort(clock_hz=v), ClockRangeError, "clock .+ Hz outside"),
    ],
    ids=[
        "alias_frequency.f_signal",
        "alias_frequency.f_sample",
        "is_undersampled",
        "is_undersampled.f_signal",
        "lowpass_alpha",
        "decode_volts",
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
