"""Acceptance gate: the instrument's headline numbers, one criterion per
test, each checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion.
"""

import time
from random import Random

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
    DeviceTimeoutError,
    InvalidInputError,
    SimulatedPort,
    Sine,
    UndersamplingWarning,
    acquire_byte,
    alias_frequency,
    chain_voltage,
    conversion_time_s,
    decode_temp,
    decode_volts,
    quantize,
    read_csv,
    reading,
    run_acquisition,
    sar_convert,
    write_csv,
)
from paraloq.logstore import HEADER, PsychroRow, RunLog, RunMeta
from paraloq.pport import CONTROL_INVERT_MASK, HIGH_Z

from conftest import constant_run_config

LSB_C = 50.0 / 255.0


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_temperature_resolution():
    started = time.perf_counter()
    cfg = ChainConfig()
    worst = 0.0
    temp = 0.0
    while temp < 50.0:
        decoded = decode_temp(quantize(chain_voltage(temp, cfg)))
        worst = max(worst, abs(decoded - temp))
        # decoded values sit on the 50/255 grid
        assert abs(decoded / LSB_C - round(decoded / LSB_C)) < 1e-6
        temp += 0.001
    assert worst <= 0.19608
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"end-to-end resolution step 0.196 degC (max error {worst:.6f}, {elapsed:.2f}s)")


def test_criterion_02_adc_step_voltage():
    # measure interior transition positions by bisection on the quantizer
    step = 5.0 / 256.0
    measured = []
    for k in range(1, 256):
        lo, hi = (k - 0.6) * step, (k + 0.4) * step
        assert quantize(lo) < k <= quantize(hi)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if quantize(mid) >= k:
                hi = mid
            else:
                lo = mid
        measured.append(hi)
    spacings = [b - a for a, b in zip(measured, measured[1:])]
    assert all(abs(s - 5.0 / 256.0) <= 1e-9 for s in spacings)
    assert abs((5.0 / 256.0) - 0.01953125) <= 1e-9
    # decode span is vref/255 per the documented convention
    assert abs((decode_volts(1) - decode_volts(0)) - 5.0 / 255.0) <= 1e-9
    assert abs(decode_volts(255) / 255.0 - 5.0 / 255.0) <= 1e-9
    report(2, "quantizer step 5/256 V (19.53 mV) and decode span 5/255 V (19.61 mV)")


def test_criterion_03_conversion_timing():
    assert conversion_time_s(640e3) == pytest.approx(100e-6, rel=1e-12)
    assert conversion_time_s(640e3) * 640e3 == 64.0
    assert conversion_time_s(1280e3) == pytest.approx(50e-6, rel=1e-12)
    # window edges valid, outside raises when the port is built
    assert SimulatedPort(clock_hz=10e3).latency_s == pytest.approx(6.4e-3, rel=1e-12)
    assert SimulatedPort(clock_hz=1280e3).latency_s == pytest.approx(50e-6, rel=1e-12)
    for clock in (9.999e3, 1280.001e3, 10**400):
        with pytest.raises(ClockRangeError):
            SimulatedPort(clock_hz=clock)
    report(3, "100 us at 640 kHz, 50 us at 1280 kHz, window [10, 1280] kHz enforced at the port")


def test_criterion_04_clock_formula():
    unit = ClockConfig(r_ohms=1e6, c_farads=1e-6).frequency_hz
    assert unit == pytest.approx(1.0 / 1.1, rel=1e-12)
    with pytest.raises(ClockRangeError):  # 0.909 Hz is far below the window
        SimulatedPort(clock_hz=unit)
    rc_for_640k = 1.0 / (1.1 * 640e3)
    assert abs(rc_for_640k - 1.4205e-6) / 1.4205e-6 <= 1e-4
    assert ClockConfig(r_ohms=1420.5, c_farads=1e-9).frequency_hz == pytest.approx(640e3, rel=1e-4)
    report(4, "f = 1/(1.1 R C); inverse solve gives RC = 1.4205 us for 640 kHz")


def test_criterion_05_sar_oracle_equivalence():
    started = time.perf_counter()
    rng = Random(20260810)
    mismatches = sum(
        1
        for _ in range(10_000)
        if sar_convert((v := rng.uniform(-1.0, 6.0))) != quantize(v)
    )
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(5, f"SAR state machine == direct quantizer on 10,000 random inputs ({elapsed:.2f}s)")


def test_criterion_06_humidity_table():
    dry, wet = 19.92858, 18.02167
    _, _, rh, dew = reading(dry, wet)
    # frozen regression values of this formula family (Magnus + psychrometer)
    assert rh == pytest.approx(83.29688547332444, abs=1e-6)
    assert dew == pytest.approx(17.009288515905595, abs=1e-6)
    # agreement with the recorded table
    assert abs(rh - 85.183416) <= 3.0
    assert abs(dew - 17.360743) <= 1.0
    report(6, f"RH {rh:.3f}% vs recorded 85.183 (<=3), dew {dew:.3f} vs 17.361 (<=1)")


def test_criterion_07_sampling_schedule():
    run = run_acquisition(constant_run_config(duration_s=60.0))
    assert len(run.rows) == 121
    for k, row in enumerate(run.rows):
        assert row.t_s == k * 0.5
    # zero drift deep into a longer run
    rows = []
    run_acquisition(constant_run_config(duration_s=600.0), sinks=[rows.append])
    assert rows[1000].t_s - 500.0 == 0.0
    report(7, "121 ticks in 60 s at 2 S/s; t_1000 = 500.0 s with zero error")


def test_criterion_08_aliasing_demonstration():
    def dominant_bin(freq_hz):
        cfg = constant_run_config(duration_s=63.5)  # 128 ticks
        cfg.stimuli[Channel.DRY] = Sine(amplitude_c=5.0, freq_hz=freq_hz, offset_c=25.0)
        if freq_hz > 1.0:
            with pytest.warns(UndersamplingWarning):
                run = run_acquisition(cfg)
        else:
            run = run_acquisition(cfg)
        temps = np.array([row.dry_temp_c for row in run.rows])
        spectrum = np.abs(np.fft.rfft(temps - temps.mean()))
        return np.fft.rfftfreq(len(temps), 0.5)[spectrum.argmax()]

    bin_width = 1.0 / 64.0
    assert dominant_bin(1.5) == pytest.approx(alias_frequency(1.5, 2.0), abs=1e-9)
    assert dominant_bin(0.3) == pytest.approx(alias_frequency(0.3, 2.0), abs=bin_width)
    report(8, "1.5 Hz folds to the 0.5 Hz bin; 0.3 Hz stays at 0.3 Hz")


def _random_run(rng):
    rate = rng.choice([0.5, 1.0, 2.0, 4.0])
    rows = []
    for k in range(rng.randrange(0, 8)):
        failed = rng.random() < 0.2
        dry = rng.uniform(0, 50)
        rows.append(
            PsychroRow(
                t_s=k / rate,
                timestamp=f"2026-08-10T12:{k // 60:02d}:{k % 60:02d}.000",
                dry_code=rng.randrange(256),
                dry_temp_c=dry,
                wet_code=rng.randrange(256),
                wet_temp_c=rng.uniform(0, 50),
                rh_pct=None if failed else rng.uniform(0, 100),
                dew_point_c=None if failed else rng.uniform(0, dry),  # a row rejects dew above dry
            )
        )
    meta = RunMeta(
        run_id=f"{rng.randrange(16**8):08x}",
        start="2026-08-10T12:00:00.000",
        sample_rate_hz=rate,
        channels={"dry": 0, "wet": 1},
        config_fingerprint=f"{rng.randrange(16**12):012x}",
    )
    return RunLog(meta=meta, rows=rows)


def _independent_csv_check(raw: bytes):
    """Minimal parser sharing no code with logstore: plain comma splitting."""
    lines = [line for line in raw.decode("utf-8").split("\r\n") if line]
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == HEADER
    for line in data[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert '"' not in line  # no quoting ever required
        float(fields[0])
        int(fields[2])
        int(fields[4])
    return len(data) - 1


def test_criterion_09_csv_round_trip(tmp_path):
    rng = Random(99)
    path = tmp_path / "run.csv"
    second = tmp_path / "again.csv"
    for _ in range(1000):
        run = _random_run(rng)
        write_csv(run, path)
        back = read_csv(path)
        assert back == run
        write_csv(back, second)
        assert second.read_bytes() == path.read_bytes()
        assert _independent_csv_check(path.read_bytes()) == len(run.rows)
    report(9, "1000 randomized runs: read(write(run)) == run, byte-stable, plain CSV")


def test_criterion_10_invariant_suite():
    rng = Random(7)

    # clamp bound over a wide random range
    assert all(0.0 <= chain_voltage(rng.uniform(-1e6, 1e6)) <= 5.0 for _ in range(2000))

    # quantizer monotonicity
    pair_values = sorted(rng.uniform(-1, 6) for _ in range(1000))
    codes = [quantize(v) for v in pair_values]
    assert codes == sorted(codes)

    # psychro monotonicity and bounds
    rh_wet = [reading(30.0, w).rh_pct for w in (18.0, 22.0, 26.0, 30.0)]
    assert rh_wet == sorted(rh_wet) and rh_wet[-1] == 100.0
    rh_dry = [reading(d, 18.0).rh_pct for d in (18.0, 22.0, 26.0)]
    assert rh_dry == sorted(rh_dry, reverse=True)
    assert all(0.0 <= rh <= 100.0 for rh in rh_wet + rh_dry)

    # dew point never exceeds dry bulb; saturation is a fixed point
    for t in range(0, 51, 2):
        assert reading(float(t), float(t)).dew_point_c == pytest.approx(t, abs=1e-9)
        if t >= 4:
            assert reading(float(t), t - 2.0).dew_point_c < t

    # handshake order: data bus shows the high-impedance sentinel before OE
    port = SimulatedPort()
    port.set_input(0, 2.5)
    port.write_control(0x01 ^ CONTROL_INVERT_MASK)
    port.write_control(0x00 ^ CONTROL_INVERT_MASK)
    port.advance_to(port.now_s + 2 * port.latency_s)
    assert port.read_data() == HIGH_Z
    port.write_control(0x02 ^ CONTROL_INVERT_MASK)
    assert port.read_data() == 128

    # EOC timeout error path
    dead = SimulatedPort()
    dead.connected = False
    with pytest.raises(DeviceTimeoutError):
        acquire_byte(dead, 0)

    report(10, "clamp, monotonicity, psychro bounds, handshake order, timeout path")


@settings(max_examples=200, deadline=None)
@given(
    vref=st.floats(min_value=1.0, max_value=5.0),
    temp=st.floats(min_value=0.0, max_value=50.0),
)
def test_criterion_10_decode_within_one_lsb_for_every_aligned_chain(vref, temp):
    chain = ChainConfig(sensor_slope=vref / (10.0 * 50.0), clamp_volts=vref, vref=vref)
    code = quantize(chain_voltage(temp, chain), AdcConfig(vref=vref))
    assert abs(decode_temp(code) - temp) <= LSB_C + 1e-12


maybe_floats = st.one_of(st.none(), st.floats())


@settings(max_examples=300, deadline=None)
@given(t_s=maybe_floats, dry=maybe_floats, wet=maybe_floats, rh=maybe_floats, dew=maybe_floats)
def test_criterion_10_every_row_that_builds_round_trips(t_s, dry, wet, rh, dew, tmp_path_factory):
    # no impossible value gets into a log: a row either refuses the value or
    # survives write_csv/read_csv unchanged
    try:
        row = PsychroRow(t_s, "2026-08-10T12:00:00.000", 102, dry, 92, wet, rh, dew)
    except InvalidInputError:
        return
    run = RunLog(meta=RunMeta(sample_rate_hz=2.0, channels={"dry": 0, "wet": 1}), rows=[row])
    path = tmp_path_factory.mktemp("row") / "row.csv"
    write_csv(run, path)
    assert read_csv(path) == run


@settings(max_examples=50, deadline=None)
@given(
    dry=st.floats(min_value=-10.0, max_value=70.0),
    wet=st.floats(min_value=-10.0, max_value=70.0),
)
def test_criterion_10_no_humidity_from_a_railed_code(dry, wet):
    row = run_acquisition(constant_run_config(dry_c=dry, wet_c=wet, duration_s=0.0)).rows[0]
    if {row.dry_code, row.wet_code} & {0, 255}:
        assert row.rh_pct is None and row.dew_point_c is None
