"""Cycle-aware ADC0808 model: RC clock, successive approximation, decode.

The converter resolves 8 bits MSB-first, one trial comparison per bit, and
needs its input held constant for the whole conversion (the simulated port
latches the input at start, so that holds by construction).

Conventions (quantize over 256 steps, decode over the 255-step span, so
the ~19.6 mV step size and the exact 50.0 degC top reading both hold):
  * quantize: code = floor(v * 256 / vref), clamped to 0..255
    (interior transition spacing vref/256, about 19.6 mV at 5 V)
  * decode:   volts = code * vref / 255, temp = code * 50 / 255 degC
    (top code maps to full scale: 255 -> 5.000 V -> 50.0 degC)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ClockRangeError,
    InvalidInputError,
    require_above,
    require_finite,
    require_int,
    shown,
)

BITS = 8
CODE_MAX = 255
_BIT_WEIGHTS = tuple(1 << (BITS - 1 - step) for step in range(BITS))  # MSB first
TEMP_FULL_SCALE_C = 50.0  # top code's temperature; the signal chain is scaled to it

# Valid converter clock window per the device rating.
CLOCK_MIN_HZ = 10e3
CLOCK_MAX_HZ = 1280e3


@dataclass(frozen=True)
class ClockConfig:
    """RC values of the schmitt-trigger clock generator, f = 1/(1.1 R C)."""

    r_ohms: float
    c_farads: float

    def __post_init__(self):
        require_above("r_ohms", self.r_ohms, 0)
        require_above("c_farads", self.c_farads, 0)
        require_above("clock frequency 1/(1.1 r_ohms c_farads)", self.frequency_hz, 0)

    @property
    def frequency_hz(self) -> float:
        """f = 1 / (1.1 R C); inf when R C is too small for its inverse to be a float."""
        rc = 1.1 * self.r_ohms * self.c_farads
        return 1.0 / rc if rc else math.inf


@dataclass(frozen=True)
class AdcConfig:
    """Converter parameters.

    unadjusted_error_lsb is the device's total error bound (1/2 LSB for the
    0808, 1 LSB for the 0809); it is a verification budget, not injected
    into conversions. noise_sigma_lsb > 0 adds Gaussian code noise in the
    simulated port only, off by default for reproducibility.
    """

    vref: float = 5.0
    bits: int = BITS
    conversion_cycles: int = 64
    unadjusted_error_lsb: float = 0.5
    noise_sigma_lsb: float = 0.0

    def __post_init__(self):
        require_above("vref", self.vref, 0)
        require_int("bits", self.bits)
        if self.bits != BITS:
            raise InvalidInputError(f"bits must be {BITS}, the only width modeled, got {self.bits}")
        require_int("conversion_cycles", self.conversion_cycles)
        require_above("conversion_cycles", self.conversion_cycles, 0)
        require_above("unadjusted_error_lsb", self.unadjusted_error_lsb, 0, inclusive=True)
        require_above("noise_sigma_lsb", self.noise_sigma_lsb, 0, inclusive=True)


def require_clock_in_window(freq_hz: float) -> None:
    """Raise ClockRangeError unless freq_hz can legally clock the converter."""
    if not CLOCK_MIN_HZ <= freq_hz <= CLOCK_MAX_HZ:
        try:
            hz = f"{freq_hz:.6g}"
        except OverflowError:  # an int beyond the float range
            hz = shown(freq_hz)
        raise ClockRangeError(f"clock {hz} Hz outside [{CLOCK_MIN_HZ:.0f}, {CLOCK_MAX_HZ:.0f}] Hz")


def quantize(v_in: float, cfg: AdcConfig = AdcConfig()) -> int:
    """Ideal transfer function: floor(v * 256 / vref) clamped to 0..255."""
    require_finite("v_in", v_in)
    code = math.floor(v_in * 256.0 / cfg.vref)
    return min(max(code, 0), CODE_MAX)


def conversion_time_s(clock_hz: float, cfg: AdcConfig = AdcConfig()) -> float:
    """Time one conversion takes: conversion_cycles / clock_hz (100 us at 640 kHz)."""
    return cfg.conversion_cycles / clock_hz


def sar_convert(v_in: float, cfg: AdcConfig = AdcConfig()) -> int:
    """Run the 8-step successive-approximation loop and return the code.

    Each step sets the next bit in a trial code and keeps it iff the input
    is at or above the trial threshold (trial * vref / 256), so the kept
    bits are the code's bits. The result is identical to quantize(). The
    mux channel and the clock pick the held input and the conversion time
    (conversion_time_s); the port checks both where they enter.
    """
    try:
        finite = math.isfinite(v_in)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        require_finite("v_in", v_in)
    vref = cfg.vref
    code = 0
    for bit in _BIT_WEIGHTS:
        trial = code | bit
        if v_in >= trial * vref / 256.0:
            code = trial
    return code


def dump_sar_trace(v_in: float, channel: int, clock_hz: float, cfg: AdcConfig, path) -> int:
    """Convert once, write one line per SAR step to a debug text file, and
    return the code. The header records channel and clock_hz, so both are
    checked here, as SimulatedPort checks them.

    Line format: `step=<k> trial=<code> threshold=<volts> keep=<0|1>`,
    read back from the returned code, whose bits are the kept trial bits.
    """
    if not (0 <= channel <= 7):
        raise InvalidInputError(f"channel must be 0..7, got {shown(channel)}")
    require_clock_in_window(clock_hz)
    code = sar_convert(v_in, cfg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# v_in={v_in!r} channel={channel} clock_hz={clock_hz!r}\n")
        kept = 0
        for step, bit in enumerate(_BIT_WEIGHTS):
            trial = kept | bit
            kept |= code & bit
            threshold = trial * cfg.vref / 256.0
            fh.write(f"step={step} trial={trial} threshold={threshold:.6f} keep={1 if code & bit else 0}\n")
        fh.write(f"# code={code} latency_s={conversion_time_s(clock_hz, cfg)!r}\n")
    return code


def decode_volts(code: int, vref: float = 5.0) -> float:
    """Code back to volts over the 0..vref span: code * vref / 255."""
    if not (0 <= code <= CODE_MAX) or code != int(code):
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {shown(code)}")
    require_above("vref", vref, 0)
    return code * vref / 255.0


def decode_temp(code: int) -> float:
    """Code back to degC over the 0..50 degC range: code * 50 / 255.

    Step size 50/255 = 0.196 degC; top code reads exactly 50.0 degC.
    """
    if not (0 <= code <= CODE_MAX) or code != int(code):
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {shown(code)}")
    return code * TEMP_FULL_SCALE_C / 255.0
