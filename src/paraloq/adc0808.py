"""Cycle-aware ADC0808 model: RC clock, successive approximation, decode.

The converter resolves 8 bits MSB-first, one trial comparison per bit, and
needs its input held constant for the whole conversion (the simulated port
latches the input at start, so that holds by construction). A conversion
takes CONVERSION_CYCLES = 64 clock periods, 100 us at the logger's ~640 kHz
RC clock (ClockConfig()).

The reference is the paper's fixed VREF = 5 V. Conventions (quantize over
256 steps, decode over the 255-step span, so the ~19.5 mV step size and the
exact 50.0 degC top reading both hold):
  * quantize: code = floor(v * 256 / VREF), clamped to 0..255
    (interior transition spacing VREF/256, about 19.5 mV)
  * convert:  the largest code whose threshold code * VREF / 256 the input
    reaches, which the 8-step SAR finds
  * decode:   volts = code * VREF / 255, temp = code * 50 / 255 degC
    (top code maps to full scale: 255 -> 5.000 V -> 50.0 degC)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FLOAT_MAX,
    ClockRangeError,
    InvalidInputError,
    require_above,
    require_finite,
    shown,
    store_floats,
)

CODE_MAX = 255  # 8 bits, the only width modeled
VREF = 5.0  # converter reference in volts
TEMP_FULL_SCALE_C = 50.0  # top code's temperature; the signal chain is scaled to it
CONVERSION_CYCLES = 64  # clock periods per conversion

# Valid converter clock window per the device rating.
CLOCK_MIN_HZ = 10e3
CLOCK_MAX_HZ = 1280e3


@dataclass(frozen=True)
class ClockConfig:
    """RC values of the schmitt-trigger clock generator, f = 1/(1.1 R C)."""

    r_ohms: float = 1420.5  # the logger's R and C, about 640 kHz
    c_farads: float = 1e-9

    def __post_init__(self):
        require_above("r_ohms", self.r_ohms, 0)
        require_above("c_farads", self.c_farads, 0)
        require_above("clock frequency 1/(1.1 r_ohms c_farads)", self.frequency_hz, 0)
        store_floats(self, "r_ohms", "c_farads")

    @property
    def frequency_hz(self) -> float:
        """f = 1 / (1.1 R C); inf when R C is too small for its inverse to be a float."""
        rc = 1.1 * self.r_ohms * self.c_farads
        return 1.0 / rc if rc else math.inf


@dataclass(frozen=True)
class AdcConfig:
    """Converter parameters.

    noise_sigma_lsb > 0 adds Gaussian code noise in the simulated port only,
    off by default for reproducibility.
    """

    noise_sigma_lsb: float = 0.0

    def __post_init__(self):
        require_above("noise_sigma_lsb", self.noise_sigma_lsb, 0, inclusive=True)
        store_floats(self, "noise_sigma_lsb")


def require_clock_in_window(freq_hz: float) -> None:
    """Raise ClockRangeError unless freq_hz can legally clock the converter."""
    if not CLOCK_MIN_HZ <= freq_hz <= CLOCK_MAX_HZ:
        hz = f"{freq_hz:.6g}" if -FLOAT_MAX <= freq_hz <= FLOAT_MAX else shown(freq_hz)
        raise ClockRangeError(f"clock {hz} Hz outside [{CLOCK_MIN_HZ:.0f}, {CLOCK_MAX_HZ:.0f}] Hz")


def quantize(v_in: float) -> int:
    """Ideal transfer function: floor(v * 256 / VREF) clamped to 0..255.

    Nothing in the package calls it: it is the reference the tests and the
    README hold sar_convert against.
    """
    require_finite("v_in", v_in)
    # clamped before the floor, which raises for the inf an overflowing v * 256 / VREF gives
    return math.floor(min(max(v_in * 256.0 / VREF, 0.0), float(CODE_MAX)))


def conversion_time_s(clock_hz: float) -> float:
    """Time one conversion takes: CONVERSION_CYCLES / clock_hz (100 us at 640 kHz)."""
    return CONVERSION_CYCLES / clock_hz


def sar_convert(v_in: float) -> int:
    """Return the code the 8-step successive-approximation loop resolves.

    That loop keeps each trial bit, MSB first, iff the input reaches its
    threshold trial * VREF / 256, so it returns the largest code whose
    threshold the input reaches. At VREF = 5 V one division gives that code:
    every threshold c * 5 / 256 and every v * 256 is exact, and floats near
    5n are spaced at least 4 ulp(n) apart, so v * 256 / 5 cannot round up to
    n from below. The mux channel and the clock pick the held input and the
    conversion time (conversion_time_s); the port checks both where they enter.
    """
    if not -FLOAT_MAX <= v_in <= FLOAT_MAX:
        require_finite("v_in", v_in)
    x = v_in * 256.0 / VREF
    return 0 if x <= 0.0 else CODE_MAX if x >= 255.0 else math.floor(x)


def decode_volts(code: int) -> float:
    """Code back to volts over the 0..VREF span: code * VREF / 255."""
    if type(code) is not int or not 0 <= code <= CODE_MAX:
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {shown(code)}")
    return code * VREF / 255.0


def decode_temp(code: int) -> float:
    """Code back to degC over the 0..50 degC range: code * 50 / 255.

    Step size 50/255 = 0.196 degC; top code reads exactly 50.0 degC.
    """
    if type(code) is not int or not 0 <= code <= CODE_MAX:
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {shown(code)}")
    return code * TEMP_FULL_SCALE_C / 255.0
