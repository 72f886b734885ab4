"""Analog front end model: sensor, amplifier, protection clamp, anti-alias filter.

The chain mirrors the acquisition hardware stage by stage:
temperature -> sensor millivolts -> amplified volts -> zener-clamped volts
-> first-order low-passed volts presented to the ADC input. chain_voltage
is the one rule for the first three stages; lowpass_step is the filter.

All functions are pure; filter state is owned by the caller. The filter's
alpha is computed once per run by lowpass_alpha, and lowpass_step takes it.
"""

from __future__ import annotations

import math

from .adc0808 import VREF
from .errors import require_above, require_finite

# The paper's front end: an LM35-style sensor at 10 mV/degC and a gain of 10
# reach the converter's VREF = 5 V at TEMP_FULL_SCALE_C = 50 degC, the scale
# decode_temp reads codes on, and the protection zeners clamp there too.
SENSOR_SLOPE = 0.010  # V/degC
AMP_GAIN = 10.0


def chain_voltage(temp_c: float) -> float:
    """DC voltage the ADC sees for a steady temperature (no filter dynamics).

    The sensor gives SENSOR_SLOPE * temp_c volts, the amplifier multiplies
    that by AMP_GAIN, and the shunt zeners hold the result to [0, VREF],
    clipping over-range swings and negative excursions alike: the value
    min(max(v, 0.0), VREF) gives, -0.0 kept. A nan, an inf or an int beyond
    the float range is rejected. It runs once per filter substep, so the
    passing path is one comparison on the result, 0.0 <= v <= VREF; only a
    v outside it checks temp_c.
    """
    try:
        v = AMP_GAIN * (SENSOR_SLOPE * temp_c)
    except OverflowError:
        v = math.nan  # an int beyond the float range, which the check below rejects
    if 0.0 <= v <= VREF:
        return v
    require_finite("temp_c", temp_c)
    return 0.0 if v < 0.0 else VREF


def lowpass_alpha(dt: float, cutoff_hz: float) -> float:
    """Smoothing factor of the first-order filter for a step of dt seconds
    through a low-pass whose -3 dB point is cutoff_hz.

    alpha = dt / (dt + RC), RC = 1 / (2 pi f_c). Fixed for a run, so the
    caller computes it once and passes it to every lowpass_step.
    """
    require_above("dt", dt, 0)
    require_above("cutoff_hz", cutoff_hz, 0)
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    return dt / (dt + rc)


def lowpass_step(state: float, x: float, alpha: float) -> float:
    """Advance the first-order anti-alias filter by one time step.

    state' = state + alpha * (x - state), alpha from lowpass_alpha, which
    validates it once per run. Returns the new state; the caller keeps it.
    """
    return state + alpha * (x - state)


def alias_frequency(f_signal: float, f_sample: float) -> float:
    """Apparent frequency after sampling: |f - fs * round(f / fs)|.

    Folds any input frequency into the first Nyquist zone [0, fs/2].
    math.remainder computes the fold exactly, with no quotient to overflow.
    """
    require_above("f_sample", f_sample, 0)
    require_above("f_signal", f_signal, 0, inclusive=True)
    return abs(math.remainder(f_signal, f_sample))
