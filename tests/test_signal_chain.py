import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraloq import (
    ChainConfig,
    InvalidInputError,
    alias_frequency,
    chain_voltage,
    is_undersampled,
    lowpass_alpha,
    lowpass_step,
)

class TestChainConfig:
    def test_defaults_are_full_scale_aligned(self):
        cfg = ChainConfig()
        assert cfg.sensor_slope * cfg.amp_gain * 50.0 == pytest.approx(cfg.vref, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sensor_slope": 0.0},
            {"sensor_slope": -0.01},
            {"amp_gain": 0.0},
            {"clamp_volts": 0.0},
            {"clamp_volts": 6.0},  # above vref
            {"filter_cutoff_hz": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError):
            ChainConfig(**kwargs)

    def test_misaligned_full_scale_rejected_unless_overridden(self):
        with pytest.raises(InvalidInputError):
            ChainConfig(amp_gain=7.0)
        cfg = ChainConfig(amp_gain=7.0, allow_misaligned=True)
        assert cfg.amp_gain == 7.0


below_clamp_temps = st.floats(min_value=0.0, max_value=25.0)


class TestChainVoltage:
    # LM35 at 10 mV/degC, amplifier gain 10, zener clamp at 5 V
    def test_zero(self):
        assert chain_voltage(0.0) == 0.0

    def test_room_temperature(self):
        assert chain_voltage(25.0) == pytest.approx(2.500, abs=1e-12)

    def test_full_range_endpoint(self):
        assert chain_voltage(50.0) == pytest.approx(5.000, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError, match=f"^temp_c must be finite, got {bad!r}$"):
            chain_voltage(bad)

    @given(a=below_clamp_temps, b=below_clamp_temps)
    def test_additive_below_the_clamp(self, a, b):
        lhs = chain_voltage(a + b)
        rhs = chain_voltage(a) + chain_voltage(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @given(k=st.floats(min_value=0.0, max_value=1.0), a=st.floats(min_value=0.0, max_value=50.0))
    def test_homogeneous_below_the_clamp(self, k, a):
        lhs = chain_voltage(k * a)
        rhs = k * chain_voltage(a)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_clamps_over_range_to_protection_voltage(self):
        assert chain_voltage(62.0) == 5.000

    def test_negative_excursion_clamps_to_ground(self):
        assert chain_voltage(-30.0) == 0.0

    @given(t=st.floats(min_value=-1e6, max_value=1e6))
    def test_output_always_within_clamp_rails(self, t):
        out = chain_voltage(t)
        assert 0.0 <= out <= ChainConfig().clamp_volts

    @given(a=st.floats(allow_nan=False, allow_infinity=False), b=st.floats(allow_nan=False, allow_infinity=False))
    def test_monotone_in_temperature(self, a, b):
        lo, hi = sorted((a, b))
        assert chain_voltage(lo) <= chain_voltage(hi)


def test_chain_composition_matches_ideal_scaling():
    # temp/10 V over the whole range; floating error at most 1 ulp and the
    # clamp never engages below full scale
    cfg = ChainConfig()
    for k in range(0, 5001):
        temp = k * 0.01
        out = chain_voltage(temp, cfg)
        ideal = temp / 10.0
        assert abs(out - ideal) <= math.ulp(max(out, ideal, 1e-300))
        assert out <= cfg.clamp_volts


def test_chain_saturates_where_the_sensor_product_overflows():
    # slope * temp_c is inf for a finite temperature here; the chain clamps it
    # like any over-range input
    cfg = ChainConfig(sensor_slope=1e10, amp_gain=1e-11)
    assert chain_voltage(1e300, cfg) == cfg.clamp_volts
    assert chain_voltage(-1e300, cfg) == 0.0
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(InvalidInputError, match="temp_c must be finite"):
            chain_voltage(bad, cfg)


# the overflow-saturation config above: slope * temp_c is inf for |temp_c| > 1.8e298
OVERFLOW_CHAIN = ChainConfig(sensor_slope=1e10, amp_gain=1e-11)


@st.composite
def aligned_chains(draw):
    """A chain that reaches vref at 50 degC, its clamp at or below vref."""
    vref = draw(st.floats(min_value=0.5, max_value=10.0))
    slope = draw(st.floats(min_value=1e-3, max_value=0.1))
    clamp = vref * draw(st.floats(min_value=0.01, max_value=1.0))
    return ChainConfig(sensor_slope=slope, amp_gain=vref / (slope * 50.0), clamp_volts=clamp, vref=vref)


@st.composite
def chains_and_temps(draw):
    cfg = draw(st.one_of(aligned_chains(), st.just(ChainConfig()), st.just(OVERFLOW_CHAIN)))
    # a temperature whose chain voltage is the clamp, or a few ulps either side of it
    near_clamp = cfg.clamp_volts / (cfg.amp_gain * cfg.sensor_slope)
    ulps = draw(st.integers(min_value=-3, max_value=3))
    for _ in range(abs(ulps)):
        near_clamp = math.nextafter(near_clamp, math.copysign(math.inf, ulps))
    temp = draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-100.0, max_value=100.0),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, near_clamp]),
        )
    )
    return cfg, temp


def min_max_clamp(v, cfg):
    return min(max(v, 0.0), cfg.clamp_volts)


@settings(max_examples=300)
@given(chains_and_temps())
@example((OVERFLOW_CHAIN, 1e300))
def test_chain_clamps_as_min_max_does(case):
    # with OVERFLOW_CHAIN, slope * temp_c is inf where chain_voltage saturates
    cfg, temp = case
    assert repr(chain_voltage(temp, cfg)) == repr(min_max_clamp(cfg.amp_gain * (cfg.sensor_slope * temp), cfg))


RAIL_TEMPS = (0.0, -0.0, 50.0, math.nextafter(50.0, 100.0), math.nextafter(50.0, 0.0), -1e300, 1e300)


@pytest.mark.parametrize(
    "cfg, temp",
    [(ChainConfig(), t) for t in RAIL_TEMPS] + [(OVERFLOW_CHAIN, -1e300), (OVERFLOW_CHAIN, 1e300)],
    ids=[repr(t) for t in RAIL_TEMPS] + ["OVERFLOW_CHAIN--1e300", "OVERFLOW_CHAIN-1e300"],
)
def test_chain_clamp_at_the_rails(cfg, temp):
    # 10 * (0.01 * 50) is the 5 V clamp exactly; -0.0 stays -0.0, as max(-0.0, 0.0) keeps it;
    # OVERFLOW_CHAIN's slope * temp_c is an inf, which goes to its rail
    assert repr(chain_voltage(temp, cfg)) == repr(min_max_clamp(cfg.amp_gain * (cfg.sensor_slope * temp), cfg))


@pytest.mark.parametrize("cfg", [ChainConfig(), OVERFLOW_CHAIN], ids=["default", "OVERFLOW_CHAIN"])
def test_an_int_temperature_goes_to_a_rail_or_past_the_float_range_is_rejected(cfg):
    # 10**308 converts to a float; 10**309 does not, so multiplying by it raises OverflowError
    assert chain_voltage(10**308, cfg) == cfg.clamp_volts
    assert repr(chain_voltage(-(10**308), cfg)) == "0.0"
    for bad in (10**309, -(10**309), -(10**400)):
        with pytest.raises(InvalidInputError, match="temp_c must be finite"):
            chain_voltage(bad, cfg)


def test_chain_lands_on_the_clamp_at_full_scale_and_keeps_negative_zero():
    cfg = ChainConfig()
    assert cfg.amp_gain * (cfg.sensor_slope * 50.0) == cfg.clamp_volts  # exactly on the rail
    assert chain_voltage(50.0, cfg) == cfg.clamp_volts
    assert repr(chain_voltage(-0.0, cfg)) == "-0.0"


class TestLowpass:
    def test_dc_convergence_is_monotone(self):
        state = 0.0
        previous_gap = 1.0
        for _ in range(200):
            state = lowpass_step(state, 1.0, lowpass_alpha(0.1))
            gap = abs(1.0 - state)
            assert gap <= previous_gap
            previous_gap = gap
        assert state == pytest.approx(1.0, abs=1e-6)

    def test_fixed_point(self):
        assert lowpass_step(0.7, 0.7, lowpass_alpha(0.01)) == 0.7

    def test_cutoff_attenuation_is_3db(self):
        # steady-state amplitude of a sinusoid at f_c drops to 1/sqrt(2)
        cfg = ChainConfig()
        dt = 1e-3
        state = 0.0
        outputs = []
        n = int(20.0 / dt)
        for i in range(n):
            x = math.sin(2.0 * math.pi * cfg.filter_cutoff_hz * i * dt)
            state = lowpass_step(state, x, lowpass_alpha(dt, cfg))
            outputs.append(state)
        tail = outputs[-int(2.0 / (cfg.filter_cutoff_hz * dt)) :]  # last 2 periods
        amplitude = (max(tail) - min(tail)) / 2.0
        assert amplitude == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(InvalidInputError):
            lowpass_alpha(dt)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(InvalidInputError):
            lowpass_alpha(dt)

    @given(
        state=st.floats(min_value=-10, max_value=10, allow_nan=False),
        x=st.floats(min_value=-10, max_value=10, allow_nan=False),
        dt=st.floats(min_value=1e-6, max_value=10, allow_nan=False),
    )
    def test_contraction_toward_input(self, state, x, dt):
        new = lowpass_step(state, x, lowpass_alpha(dt))
        assert abs(new - x) <= abs(state - x) + 1e-12


class TestAliasFrequency:
    @pytest.mark.parametrize(
        "f,fs,expected",
        [
            (0.3, 2.0, 0.3),  # below Nyquist: unchanged
            (1.5, 2.0, 0.5),  # folds
            (2.0, 2.0, 0.0),  # at the sample rate
            (0.0, 2.0, 0.0),
        ],
    )
    def test_known_folds(self, f, fs, expected):
        assert alias_frequency(f, fs) == pytest.approx(expected, abs=1e-12)

    def test_fold_matches_fft_of_sampled_sine(self):
        # brute-force oracle: sample a 1.5 Hz sine at 2 Hz, locate the peak
        fs, f = 2.0, 1.5
        n = 4096
        t = np.arange(n) / fs
        spectrum = np.abs(np.fft.rfft(np.sin(2 * np.pi * f * t)))
        peak_hz = np.fft.rfftfreq(n, 1 / fs)[spectrum.argmax()]
        assert peak_hz == pytest.approx(alias_frequency(f, fs), abs=fs / n)

    @given(
        f=st.floats(min_value=0, max_value=1e4, allow_nan=False),
        fs=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_result_lies_in_first_nyquist_zone(self, f, fs):
        folded = alias_frequency(f, fs)
        assert 0.0 <= folded <= fs / 2.0 + 1e-9

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            alias_frequency(1.0, 0.0)
        with pytest.raises(InvalidInputError):
            alias_frequency(-1.0, 2.0)
        # is_undersampled checks f_signal as alias_frequency does; both used to return False
        for f in (math.nan, -5.0):
            with pytest.raises(InvalidInputError, match="^f_signal must be >= 0 and finite"):
                is_undersampled(f, 2.0)

    @pytest.mark.parametrize("f,fs", [(1e300, 1e-10), (1e308, 0.5)])
    def test_fold_of_an_overflowing_quotient(self, f, fs):
        # f / fs is inf, and round(inf) used to raise a bare OverflowError
        assert 0.0 <= alias_frequency(f, fs) <= fs / 2.0

    def test_undersampling_predicate(self):
        assert is_undersampled(1.5, 2.0)
        assert not is_undersampled(0.3, 2.0)
        assert not is_undersampled(1.0, 2.0)  # exactly Nyquist is not above it
