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
from .errors import InvalidInputError


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
        if not (self.sensor_slope > 0):
            raise InvalidInputError(f"sensor_slope must be > 0, got {self.sensor_slope}")
        if not (self.amp_gain > 0):
            raise InvalidInputError(f"amp_gain must be > 0, got {self.amp_gain}")
        if not (0 < self.clamp_volts <= self.vref):
            raise InvalidInputError(
                f"clamp_volts must be in (0, vref={self.vref}], got {self.clamp_volts}"
            )
        if not (self.filter_cutoff_hz > 0):
            raise InvalidInputError(
                f"filter_cutoff_hz must be > 0, got {self.filter_cutoff_hz}"
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


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")


def sensor_voltage(temp_c: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Sensor output in volts for a temperature in degC (linear, pre-calibrated)."""
    _require_finite("temp_c", temp_c)
    return cfg.sensor_slope * temp_c


def amplify_and_clamp(v_in: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Amplifier plus ideal protection clamp.

    Gains the input, then hard-limits to [0, clamp_volts]: the shunt zeners
    clip over-range positive swings and negative excursions alike.
    """
    _require_finite("v_in", v_in)
    return min(max(cfg.amp_gain * v_in, 0.0), cfg.clamp_volts)


def chain_voltage(temp_c: float, cfg: ChainConfig = ChainConfig()) -> float:
    """DC voltage the ADC sees for a steady temperature (no filter dynamics)."""
    return amplify_and_clamp(sensor_voltage(temp_c, cfg), cfg)


def lowpass_alpha(dt: float, cfg: ChainConfig = ChainConfig()) -> float:
    """Smoothing factor of the first-order filter for a step of dt seconds.

    alpha = dt / (dt + RC), RC = 1 / (2 pi f_c). Fixed for a run, so the
    caller computes it once and passes it to every lowpass_step.
    """
    if not (0 < dt < math.inf):
        raise InvalidInputError(f"dt must be finite and > 0, got {dt}")
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
    """
    if not (f_sample > 0):
        raise InvalidInputError(f"f_sample must be > 0, got {f_sample}")
    if not (f_signal >= 0) or not math.isfinite(f_signal):
        raise InvalidInputError(f"f_signal must be finite and >= 0, got {f_signal}")
    return abs(f_signal - f_sample * round(f_signal / f_sample))


def is_undersampled(f_signal: float, f_sample: float) -> bool:
    """True when the signal violates the sampling theorem (f > fs/2)."""
    if not (f_sample > 0):
        raise InvalidInputError(f"f_sample must be > 0, got {f_sample}")
    return f_signal > f_sample / 2.0
