import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraloq import (
    AdcConfig,
    ChainConfig,
    ClockConfig,
    ClockRangeError,
    InvalidInputError,
    RunConfig,
    SimulatedPort,
    acquire_byte,
    chain_voltage,
    conversion_time_s,
    decode_temp,
    decode_volts,
    quantize,
    sar_convert,
)
from paraloq.adc0808 import VREF

adc_inputs = st.floats(min_value=-1.0, max_value=6.0, allow_nan=False)
FLOAT_MAX = sys.float_info.max
THRESHOLDS = [c * VREF / 256.0 for c in range(257)]  # each exact at 5 V


def sar_reference(v_in):
    """The 8-step SAR loop: keep each trial bit, MSB first, iff v_in reaches trial * VREF / 256."""
    code = 0
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        trial = code | bit
        if v_in >= trial * VREF / 256.0:
            code = trial
    return code


def neighbours(x, ulps=3):
    """x and the floats up to ulps steps either side of it."""
    near = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            near.append(y)
    return near


@st.composite
def sar_inputs(draw):
    """Any finite input, or one within 3 ulps of a threshold."""
    if draw(st.booleans()):
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(neighbours(draw(st.sampled_from(THRESHOLDS)))))


class TestClock:
    def test_unit_rc(self):
        # RC = 1 s is a convenient sanity point, far below the ADC window
        freq = ClockConfig(r_ohms=1e6, c_farads=1e-6).frequency_hz
        assert freq == pytest.approx(1.0 / 1.1, rel=1e-12)
        with pytest.raises(ClockRangeError):
            SimulatedPort(clock_hz=freq)

    def test_operating_point(self):
        freq = ClockConfig(r_ohms=1420.5, c_farads=1e-9).frequency_hz
        assert freq == pytest.approx(640e3, rel=1e-4)
        assert ClockConfig().frequency_hz == freq  # the logger's clock is the default
        assert SimulatedPort(clock_hz=freq).latency_s == conversion_time_s(freq)

    def test_the_default_clock_is_the_one_a_run_hashes(self):
        # line 5 of every default log hashes this repr as its clock= part
        assert repr(ClockConfig()) == "ClockConfig(r_ohms=1420.5, c_farads=1e-09)"
        assert RunConfig(duration_s=1.0).clock == ClockConfig()

    def test_below_window_rejected_by_the_port(self):
        freq = ClockConfig(r_ohms=100e3, c_farads=1e-9).frequency_hz
        assert freq == pytest.approx(9.091e3, rel=1e-3)
        with pytest.raises(ClockRangeError, match="clock 9090.91 Hz outside"):
            SimulatedPort(clock_hz=freq)

    def test_strictly_decreasing_in_r_and_c(self):
        freqs_r = [ClockConfig(r, 1e-9).frequency_hz for r in (1e3, 2e3, 5e3, 1e4)]
        freqs_c = [ClockConfig(1e3, c).frequency_hz for c in (1e-9, 2e-9, 5e-9)]
        assert freqs_r == sorted(freqs_r, reverse=True)
        assert freqs_c == sorted(freqs_c, reverse=True)

    # an R C that underflows to 0 or to a subnormal leaves 1/(1.1 R C) no finite
    # value; it used to build, and the run died with a ZeroDivisionError
    @pytest.mark.parametrize(
        "r,c", [(0.0, 1e-9), (-1.0, 1e-9), (1e3, 0.0), (1e-300, 1e-300), (1e-160, 1e-160)]
    )
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
    def test_midscale_code_and_timing(self):
        assert sar_convert(2.5) == 128
        assert conversion_time_s(640e3) == pytest.approx(100e-6, rel=1e-12)

    def test_zero_input_gives_code_0(self):
        assert sar_convert(0.0) == 0

    def test_near_full_scale_at_max_clock(self):
        assert sar_convert(4.98) == 254
        assert conversion_time_s(1280e3) == pytest.approx(50e-6, rel=1e-12)

    @pytest.mark.parametrize("clock", [9e3, 1281e3, 0.0])
    def test_clock_window_enforced(self, clock):
        with pytest.raises(ClockRangeError):
            SimulatedPort(clock_hz=clock)

    def test_window_endpoints_are_valid(self):
        codes = []
        for clock in (10e3, 1280e3):
            port = SimulatedPort(clock_hz=clock)
            port.set_input(0, 1.0)
            codes.append(acquire_byte(port, 0))
        assert codes == [sar_convert(1.0)] * 2

    @given(v=adc_inputs)
    def test_equals_direct_quantizer(self, v):
        assert sar_convert(v) == quantize(v)

    def test_is_the_8_step_loop_at_every_threshold(self):
        # one division stands for the loop: 64 ulps either side of each threshold pin it
        inputs = [v for t in THRESHOLDS for v in neighbours(t, ulps=64)]
        for v in inputs + [0.0, -0.0, 5e-324, -5e-324, FLOAT_MAX, -FLOAT_MAX]:
            code = sar_convert(v)
            assert type(code) is int and code == sar_reference(v), v

    def test_equals_direct_quantizer_at_every_threshold(self):
        # at 5 V no cell edge falls between the two, as one did at other references
        for v in [v for t in THRESHOLDS for v in neighbours(t, ulps=64)]:
            assert sar_convert(v) == quantize(v), v

    @given(v=sar_inputs())
    def test_is_the_8_step_loop_on_any_input(self, v):
        assert sar_convert(v) == sar_reference(v)

    @pytest.mark.parametrize("clock", [10e3, 100e3, 320e3, 640e3, 1280e3])
    def test_latency_times_clock_is_cycle_count(self, clock):
        assert SimulatedPort(clock_hz=clock).latency_s * clock == 64.0  # a clock the port accepts


class TestDecode:
    def test_zero(self):
        assert decode_temp(0) == 0.0

    def test_top_code_is_range_endpoint(self):
        assert decode_temp(255) == 50.0

    def test_interior_exact_point(self):
        assert decode_temp(102) == 20.0

    # 3.0 and True equal a code, but a code is an int object, as a row checks it
    @pytest.mark.parametrize("code", [-1, 256, 300, 3.0, True])
    def test_out_of_range_rejected(self, code):
        with pytest.raises(InvalidInputError):
            decode_temp(code)
        with pytest.raises(InvalidInputError):
            decode_volts(code)

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


def test_a_conversion_is_a_plain_int_code():
    for code in range(256):
        result = sar_convert(code * 5.0 / 256.0)
        assert type(result) is int and result == code


def test_adc_config_validation():
    with pytest.raises(InvalidInputError):
        AdcConfig(noise_sigma_lsb=-1.0)
