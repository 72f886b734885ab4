import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraloq import (
    AdcCode,
    AdcConfig,
    ChainConfig,
    ClockConfig,
    ClockRangeError,
    ClockWindowWarning,
    InvalidInputError,
    chain_voltage,
    clock_frequency,
    decode_temp,
    decode_volts,
    quantize,
    sar_convert,
)
from paraloq.adc0808 import dump_sar_trace

adc_inputs = st.floats(min_value=-1.0, max_value=6.0, allow_nan=False)


class TestClock:
    def test_unit_rc(self):
        # RC = 1 s is a convenient sanity point, far below the ADC window
        with pytest.warns(ClockWindowWarning):
            freq = clock_frequency(ClockConfig(r_ohms=1e6, c_farads=1e-6))
        assert freq == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_operating_point(self):
        freq = clock_frequency(ClockConfig(r_ohms=1420.5, c_farads=1e-9))
        assert freq == pytest.approx(640e3, rel=1e-4)

    def test_below_window_warns(self):
        with pytest.warns(ClockWindowWarning):
            freq = clock_frequency(ClockConfig(r_ohms=100e3, c_farads=1e-9))
        assert freq == pytest.approx(9.091e3, rel=1e-3)

    def test_strictly_decreasing_in_r_and_c(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockWindowWarning)
            freqs_r = [clock_frequency(ClockConfig(r, 1e-9)) for r in (1e3, 2e3, 5e3, 1e4)]
            freqs_c = [clock_frequency(ClockConfig(1e3, c)) for c in (1e-9, 2e-9, 5e-9)]
        assert freqs_r == sorted(freqs_r, reverse=True)
        assert freqs_c == sorted(freqs_c, reverse=True)

    @pytest.mark.parametrize("r,c", [(0.0, 1e-9), (-1.0, 1e-9), (1e3, 0.0)])
    def test_rejects_nonpositive_rc(self, r, c):
        with pytest.raises(InvalidInputError):
            ClockConfig(r_ohms=r, c_farads=c)


class TestQuantize:
    @pytest.mark.parametrize(
        "volts,code",
        [
            (0.0, 0),
            (5.0, 255),  # full scale clamps to the top code
            (0.0196, 1),  # one resolution step crosses the first transition
            (2.5, 128),
            (-0.5, 0),
            (7.0, 255),
        ],
    )
    def test_known_codes(self, volts, code):
        assert quantize(volts) == code

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            quantize(math.nan)

    @given(v1=adc_inputs, v2=adc_inputs)
    def test_monotone_nondecreasing(self, v1, v2):
        lo, hi = min(v1, v2), max(v1, v2)
        assert quantize(lo) <= quantize(hi)

    def test_interior_transitions_at_exact_step_multiples(self):
        step = 5.0 / 256.0
        for k in random.Random(7).sample(range(1, 256), 40):
            edge = k * step
            assert quantize(edge) == k
            assert quantize(math.nextafter(edge, 0.0)) == k - 1


class TestSarConvert:
    def test_midscale_trace_and_timing(self):
        result = sar_convert(2.5, 0, 640e3)
        assert result.code == 128
        assert result.sar_trace == (1, 0, 0, 0, 0, 0, 0, 0)
        assert result.latency_s == pytest.approx(100e-6, rel=1e-12)

    def test_zero_input_gives_all_zero_trace(self):
        result = sar_convert(0.0, 3, 640e3)
        assert result.code == 0
        assert result.sar_trace == (0,) * 8
        assert result.channel == 3

    def test_near_full_scale_at_max_clock(self):
        result = sar_convert(4.98, 0, 1280e3)
        assert result.code == 254
        assert result.latency_s == pytest.approx(50e-6, rel=1e-12)

    @pytest.mark.parametrize("clock", [9e3, 1281e3, 0.0])
    def test_clock_window_enforced(self, clock):
        with pytest.raises(ClockRangeError):
            sar_convert(1.0, 0, clock)

    def test_window_endpoints_are_valid(self):
        assert sar_convert(1.0, 0, 10e3).code == sar_convert(1.0, 0, 1280e3).code

    def test_bad_channel(self):
        with pytest.raises(InvalidInputError):
            sar_convert(1.0, 8, 640e3)

    @given(v=adc_inputs)
    def test_equals_direct_quantizer(self, v):
        assert sar_convert(v, 0, 640e3).code == quantize(v)

    @pytest.mark.parametrize("clock", [10e3, 100e3, 320e3, 640e3, 1280e3])
    def test_latency_times_clock_is_cycle_count(self, clock):
        result = sar_convert(1.0, 0, clock)
        assert result.latency_s * clock == 64.0


class TestDecode:
    def test_zero(self):
        assert decode_temp(0) == 0.0

    def test_top_code_is_range_endpoint(self):
        assert decode_temp(255) == 50.0

    def test_interior_exact_point(self):
        assert decode_temp(102) == 20.0

    @pytest.mark.parametrize("code", [-1, 256, 300])
    def test_out_of_range_rejected(self, code):
        with pytest.raises(InvalidInputError):
            decode_temp(code)

    def test_volt_step_span(self):
        assert decode_volts(1) - decode_volts(0) == pytest.approx(5.0 / 255.0, abs=1e-15)
        assert decode_volts(255) == 5.0


def test_end_to_end_round_trip_within_one_lsb():
    # chain -> quantize -> decode stays within the 1 LSB budget over the range
    cfg = ChainConfig()
    lsb_c = 50.0 / 255.0
    temp = 0.0
    while temp < 50.0:
        decoded = decode_temp(quantize(chain_voltage(temp, cfg)))
        assert abs(decoded - temp) <= lsb_c + 1e-9
        temp += 0.01


def test_sar_trace_is_the_code_bits_for_every_code():
    # each code's lower step edge converts to that code, and the keep/drop
    # decisions read back as its bits, MSB first
    for code in range(256):
        result = sar_convert(code * 5.0 / 256.0, 0, 640e3)
        assert result.code == code
        assert result.sar_trace == tuple(int(b) for b in format(code, "08b"))
    with pytest.raises(InvalidInputError):
        AdcCode(code=256, latency_s=1e-4)


def test_adc_config_validation():
    with pytest.raises(InvalidInputError):
        AdcConfig(vref=0.0)
    with pytest.raises(InvalidInputError):
        AdcConfig(bits=10)
    with pytest.raises(InvalidInputError):
        AdcConfig(conversion_cycles=0)
    with pytest.raises(InvalidInputError):
        AdcConfig(noise_sigma_lsb=-1.0)


def test_sar_trace_dump(tmp_path):
    path = tmp_path / "trace.txt"
    result = dump_sar_trace(2.5, 0, 640e3, AdcConfig(), path)
    assert result.code == 128
    lines = path.read_text(encoding="utf-8").splitlines()
    step_lines = [line for line in lines if line.startswith("step=")]
    assert len(step_lines) == 8
    assert step_lines[0] == "step=0 trial=128 threshold=2.500000 keep=1"
    assert step_lines[1] == "step=1 trial=192 threshold=3.750000 keep=0"


def test_sar_trace_dump_text_is_fixed(tmp_path):
    path = tmp_path / "trace.txt"
    dump_sar_trace(1.99, 3, 640e3, AdcConfig(), path)
    assert path.read_bytes() == (
        b"# v_in=1.99 channel=3 clock_hz=640000.0\n"
        b"step=0 trial=128 threshold=2.500000 keep=0\n"
        b"step=1 trial=64 threshold=1.250000 keep=1\n"
        b"step=2 trial=96 threshold=1.875000 keep=1\n"
        b"step=3 trial=112 threshold=2.187500 keep=0\n"
        b"step=4 trial=104 threshold=2.031250 keep=0\n"
        b"step=5 trial=100 threshold=1.953125 keep=1\n"
        b"step=6 trial=102 threshold=1.992188 keep=0\n"
        b"step=7 trial=101 threshold=1.972656 keep=1\n"
        b"# code=101 latency_s=0.0001\n"
    )
