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
import warnings
from dataclasses import dataclass

from .errors import ClockRangeError, ClockWindowWarning, InvalidInputError

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
        if not (self.r_ohms > 0):
            raise InvalidInputError(f"r_ohms must be > 0, got {self.r_ohms}")
        if not (self.c_farads > 0):
            raise InvalidInputError(f"c_farads must be > 0, got {self.c_farads}")


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
        if not (self.vref > 0):
            raise InvalidInputError(f"vref must be > 0, got {self.vref}")
        if self.bits != BITS:
            raise InvalidInputError(f"only {BITS}-bit conversion is modeled, got {self.bits}")
        if not (self.conversion_cycles > 0):
            raise InvalidInputError(
                f"conversion_cycles must be > 0, got {self.conversion_cycles}"
            )
        if self.unadjusted_error_lsb < 0:
            raise InvalidInputError(
                f"unadjusted_error_lsb must be >= 0, got {self.unadjusted_error_lsb}"
            )
        if self.noise_sigma_lsb < 0:
            raise InvalidInputError(
                f"noise_sigma_lsb must be >= 0, got {self.noise_sigma_lsb}"
            )


@dataclass(frozen=True)
class AdcCode:
    """One conversion result and its timing."""

    code: int
    latency_s: float
    channel: int = 0

    def __post_init__(self):
        if not (0 <= self.code <= CODE_MAX):
            raise InvalidInputError(f"code must be 0..{CODE_MAX}, got {self.code}")
        if not (self.latency_s > 0):
            raise InvalidInputError(f"latency_s must be > 0, got {self.latency_s}")
        if not (0 <= self.channel <= 7):
            raise InvalidInputError(f"channel must be 0..7, got {self.channel}")

    @property
    def sar_trace(self) -> tuple:
        """The SAR's per-bit keep decisions, MSB first: the bits of the code."""
        return tuple(1 if self.code & bit else 0 for bit in _BIT_WEIGHTS)


def clock_in_window(freq_hz: float) -> bool:
    return CLOCK_MIN_HZ <= freq_hz <= CLOCK_MAX_HZ


def clock_frequency(cfg: ClockConfig) -> float:
    """Oscillator output frequency, f = 1 / (1.1 R C).

    Emits ClockWindowWarning when the result cannot legally clock the
    converter; the value is still returned.
    """
    freq = 1.0 / (1.1 * cfg.r_ohms * cfg.c_farads)
    if not clock_in_window(freq):
        warnings.warn(
            f"clock {freq:.6g} Hz is outside the converter window "
            f"[{CLOCK_MIN_HZ:.0f}, {CLOCK_MAX_HZ:.0f}] Hz",
            ClockWindowWarning,
            stacklevel=2,
        )
    return freq


def quantize(v_in: float, cfg: AdcConfig = AdcConfig()) -> int:
    """Ideal transfer function: floor(v * 256 / vref) clamped to 0..255."""
    if not math.isfinite(v_in):
        raise InvalidInputError(f"v_in must be finite, got {v_in}")
    code = math.floor(v_in * 256.0 / cfg.vref)
    return min(max(code, 0), CODE_MAX)


def sar_convert(
    v_in: float,
    channel: int,
    clock_hz: float,
    cfg: AdcConfig = AdcConfig(),
) -> AdcCode:
    """Run the 8-step successive-approximation loop.

    Each step sets the next bit in a trial code and keeps it iff the input
    is at or above the trial threshold (trial * vref / 256), so the kept
    bits are the code's bits. The result is identical to quantize().
    Latency is conversion_cycles / clock_hz (100 us at 640 kHz).
    """
    if not math.isfinite(v_in):
        raise InvalidInputError(f"v_in must be finite, got {v_in}")
    if not (0 <= channel <= 7):
        raise InvalidInputError(f"channel must be 0..7, got {channel}")
    if not clock_in_window(clock_hz):
        raise ClockRangeError(
            f"clock {clock_hz:.6g} Hz outside [{CLOCK_MIN_HZ:.0f}, {CLOCK_MAX_HZ:.0f}] Hz"
        )
    vref = cfg.vref
    code = 0
    for bit in _BIT_WEIGHTS:
        trial = code | bit
        if v_in >= trial * vref / 256.0:
            code = trial
    return AdcCode(code=code, latency_s=cfg.conversion_cycles / clock_hz, channel=channel)


def dump_sar_trace(v_in: float, channel: int, clock_hz: float, cfg: AdcConfig, path) -> AdcCode:
    """Convert once and write one line per SAR step to a debug text file.

    Line format: `step=<k> trial=<code> threshold=<volts> keep=<0|1>`,
    rebuilt from the conversion's own bit decisions.
    """
    result = sar_convert(v_in, channel, clock_hz, cfg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# v_in={v_in!r} channel={channel} clock_hz={clock_hz!r}\n")
        code = 0
        for step, (bit, keep) in enumerate(zip(_BIT_WEIGHTS, result.sar_trace)):
            trial = code | bit
            if keep:
                code = trial
            threshold = trial * cfg.vref / 256.0
            fh.write(f"step={step} trial={trial} threshold={threshold:.6f} keep={keep}\n")
        fh.write(f"# code={result.code} latency_s={result.latency_s!r}\n")
    return result


def decode_volts(code: int, vref: float = 5.0) -> float:
    """Code back to volts over the 0..vref span: code * vref / 255."""
    if not (0 <= code <= CODE_MAX) or code != int(code):
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {code}")
    return code * vref / 255.0


def decode_temp(code: int) -> float:
    """Code back to degC over the 0..50 degC range: code * 50 / 255.

    Step size 50/255 = 0.196 degC; top code reads exactly 50.0 degC.
    """
    if not (0 <= code <= CODE_MAX) or code != int(code):
        raise InvalidInputError(f"code must be an integer 0..{CODE_MAX}, got {code}")
    return code * TEMP_FULL_SCALE_C / 255.0
