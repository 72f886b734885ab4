"""Analog front end model: sensor, amplifier, protection clamp, anti-alias filter.

The chain mirrors the acquisition hardware stage by stage:
temperature -> sensor millivolts -> amplified volts -> zener-clamped volts
-> first-order low-passed volts presented to the ADC input.

All functions are pure; filter state is owned by the caller. The filter's
alpha is computed once per run by lowpass_alpha, and lowpass_step takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adc0808 import TEMP_FULL_SCALE_C
from .errors import InvalidInputError, require_above, require_finite


@dataclass(frozen=True)
class ChainConfig:
    """Front-end electrical parameters.

    sensor_slope     sensor output in V/degC (LM35-style, 10 mV/degC)
    amp_gain         amplifier voltage gain
    clamp_volts      protection zener voltage; output never exceeds this
    filter_cutoff_hz anti-alias low-pass -3 dB point
    vref             ADC reference the chain is scaled against
    allow_misaligned skip the full-scale alignment check (a run still
                     rejects such a chain)
    """

    sensor_slope: float = 0.010
    amp_gain: float = 10.0
    clamp_volts: float = 5.0
    filter_cutoff_hz: float = 0.5
    vref: float = 5.0
    allow_misaligned: bool = False

    def __post_init__(self):
        for name in ("sensor_slope", "amp_gain", "clamp_volts", "filter_cutoff_hz", "vref"):
            require_above(name, getattr(self, name), 0)
        if self.clamp_volts > self.vref:
            raise InvalidInputError(
                f"clamp_volts must be in (0, vref={self.vref}], got {self.clamp_volts}"
            )
        if not self.allow_misaligned:
            require_aligned(self)


def require_aligned(cfg: ChainConfig) -> None:
    """Reject a chain that does not reach vref at TEMP_FULL_SCALE_C.

    decode_temp maps codes onto 0..TEMP_FULL_SCALE_C, so only such a chain
    decodes to the temperature it measured.
    """
    full_scale = cfg.sensor_slope * cfg.amp_gain * TEMP_FULL_SCALE_C
    if abs(full_scale - cfg.vref) > 1e-9:
        raise InvalidInputError(
            f"chain full scale {full_scale} V does not match vref "
            f"{cfg.vref} V over 0..{TEMP_FULL_SCALE_C} degC"
        )


def sensor_voltage(temp_c: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Sensor output in volts for a temperature in degC (linear, pre-calibrated)."""
    require_finite("temp_c", temp_c)
    return cfg.sensor_slope * temp_c


def amplify_and_clamp(v_in: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Amplifier plus ideal protection clamp.

    Gains the input, then hard-limits to [0, clamp_volts]: the shunt zeners
    clip over-range positive swings and negative excursions alike. The
    result is the value min(max(v, 0.0), clamp_volts) gives, -0.0 kept; an
    inf goes to its rail, so this composed with sensor_voltage is
    chain_voltage. A nan or an int beyond the float range is rejected.
    """
    if v_in not in (math.inf, -math.inf):
        require_finite("v_in", v_in)
    v = cfg.amp_gain * v_in
    if v < 0.0:
        return 0.0
    clamp = cfg.clamp_volts
    return clamp if v > clamp else v


def chain_voltage(temp_c: float, cfg: ChainConfig = ChainConfig()) -> float:
    """DC voltage the ADC sees for a steady temperature (no filter dynamics).

    sensor_voltage then amplify_and_clamp, operation for operation, with one
    check: the value min(max(v, 0.0), clamp_volts) gives, -0.0 kept. A nan,
    an inf or an int beyond the float range is rejected; a finite
    temperature whose slope * temp_c overflows saturates at a rail, as the
    zeners do. It runs once per filter substep, so the check and the clamp
    are comparisons, with no call on the passing path.
    """
    try:
        finite = math.isfinite(temp_c)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        require_finite("temp_c", temp_c)
    v = cfg.amp_gain * (cfg.sensor_slope * temp_c)
    if v < 0.0:
        return 0.0
    clamp = cfg.clamp_volts
    return clamp if v > clamp else v


def lowpass_alpha(dt: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Smoothing factor of the first-order filter for a step of dt seconds.

    alpha = dt / (dt + RC), RC = 1 / (2 pi f_c). Fixed for a run, so the
    caller computes it once and passes it to every lowpass_step.
    """
    require_above("dt", dt, 0)
    rc = 1.0 / (2.0 * math.pi * cfg.filter_cutoff_hz)
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


def is_undersampled(f_signal: float, f_sample: float) -> bool:
    """True when the signal violates the sampling theorem (f > fs/2)."""
    require_above("f_sample", f_sample, 0)
    require_above("f_signal", f_signal, 0, inclusive=True)
    return f_signal > f_sample / 2.0
