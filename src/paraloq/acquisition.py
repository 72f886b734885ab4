"""The application loop: schedule conversions, timestamp, decode, log.

Each tick acquires both channels, DRY then WET, through the port handshake,
decodes each code to degC, and folds the dry/wet pair plus derived humidity
into one log row, which acquire_rows hands to each sink and run_acquisition
collects into the run's log. Tick times are computed as k / rate (never
accumulated), so the schedule has zero floating drift, and that tick time
is the run's only time base: runs are instantaneous and deterministic.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from enum import Enum
from random import Random
from types import MappingProxyType

from . import adc0808, logstore, psychro, signal_chain
# decode_volts is not called here, but perfbench/layers.py SPAN_TARGETS looks it up on this module
from .adc0808 import CODE_MAX, CONVERSION_CYCLES, VREF, AdcConfig, ClockConfig, decode_temp, decode_volts
from .errors import (
    FLOAT_MAX,
    EmptyRunError,
    InconsistentReadingError,
    InvalidInputError,
    UndersamplingWarning,
    require_above,
    require_finite,
    require_int,
    shown,
    store_floats,
)
from .pport import SimulatedPort, acquire_byte
from .signal_chain import AMP_GAIN, SENSOR_SLOPE, chain_voltage, lowpass_alpha, lowpass_step


class Channel(Enum):
    """Sensor channels and their ADC mux inputs."""

    DRY = 0
    WET = 1


# -- stimulus descriptors ------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """Fixed temperature in degC."""

    value_c: float

    def __post_init__(self):
        require_finite("value_c", self.value_c)
        store_floats(self, "value_c")

    def temp_at(self, t_s: float) -> float:
        return self.value_c

    def max_freq_hz(self) -> float:
        return 0.0


# Sine's phase _omega * t, _omega = _TWO_PI * f worked out once, has the bits of
# 2.0 * math.pi * f * t, which multiplies as ((2.0 * math.pi) * f) * t
_TWO_PI = 2.0 * math.pi
_sin = math.sin  # temp_at runs once per filter substep


@dataclass(frozen=True)
class Sine:
    """offset + amplitude * sin(2 pi f t), all in degC."""

    amplitude_c: float
    freq_hz: float
    offset_c: float

    def __post_init__(self):
        require_finite("amplitude_c", self.amplitude_c)
        require_above("freq_hz", self.freq_hz, 0, inclusive=True)
        require_finite("offset_c", self.offset_c)
        # the bound on |temp_at|, so no sine of a finite phase leaves the float range
        require_finite("abs(offset_c) + abs(amplitude_c)", abs(self.offset_c) + abs(self.amplitude_c))
        store_floats(self, "amplitude_c", "freq_hz", "offset_c")
        object.__setattr__(self, "_omega", _TWO_PI * self.freq_hz)  # not a field: repr, == and hash skip it

    def temp_at(self, t_s: float) -> float:
        return self.offset_c + self.amplitude_c * _sin(self._omega * t_s)

    def max_freq_hz(self) -> float:
        return self.freq_hz


@dataclass
class Replay:
    """Temperature replayed from a recorded log column (zero-order hold).

    The source log is read once, when the Replay is made, and only its t_s
    and replayed columns are kept.
    """

    path: str
    column: str = "dry_temp_c"

    def __post_init__(self):
        if self.column not in ("dry_temp_c", "wet_temp_c"):
            raise InvalidInputError(f"column must be a temp column, got {self.column!r}")
        self._times, self._temps = logstore.read_series(self.path, self.column)
        if not self._times:
            raise EmptyRunError(f"replay source {self.path} has no rows")

    def temp_at(self, t_s: float) -> float:
        # small guard: logged t_s is rounded to 6 decimals and may sit just
        # above the exact tick time
        idx = bisect_right(self._times, t_s + 1e-6) - 1
        return self._temps[max(idx, 0)]

    def max_freq_hz(self) -> float:
        return 0.0  # spectral content of a recording is unknown; no warning


# -- run configuration ----------------------------------------------------

# A full-scale step through the default 0.5 Hz filter at 1,024 substeps already
# follows 1 - exp(-t/RC) within 0.07 LSB at 2 S/s and 0.29 LSB at 0.5 S/s, so
# more change no code; the bound stops a config asking for a loop without end.
MAX_FILTER_SUBSTEPS = 1024


def _default_stimuli():
    return {Channel.DRY: Constant(25.0), Channel.WET: Constant(20.0)}


@dataclass(frozen=True)
class RunConfig:
    """Everything one acquisition run needs, checked when it is built and
    unchangeable after: the stimuli are a read-only copy of the mapping given.

    Both channels share one analog front end, as the logger's one LM35
    chain does; each has its own stimulus and filter state.
    filter_substeps = 0 samples the stimulus directly (ideal pre-filtered
    input); N > 0 advances the first-order anti-alias filter, whose -3 dB
    point is filter_cutoff_hz, N times per tick between samples, with state
    seeded at the tick-0 level. Its alpha and substep times are worked out
    once per run, and both lanes advance together, substep by substep,
    before the tick's DRY conversion.
    """

    duration_s: float
    sample_rate_hz: float = 2.0
    clock: ClockConfig = ClockConfig()
    stimuli: Mapping = field(default_factory=_default_stimuli)
    adc: AdcConfig = AdcConfig()
    psychro: psychro.PsychroConfig = psychro.PsychroConfig()
    filter_cutoff_hz: float = 0.5
    filter_substeps: int = 0
    seed: int = 0
    start_time: datetime | None = None

    def __post_init__(self):
        require_above("sample_rate_hz", self.sample_rate_hz, 0)
        require_above("duration_s", self.duration_s, 0, inclusive=True)
        require_above("filter_cutoff_hz", self.filter_cutoff_hz, 0)
        store_floats(self, "sample_rate_hz", "duration_s", "filter_cutoff_hz")
        if not self.duration_s * self.sample_rate_hz <= FLOAT_MAX:  # or tick_count overflows
            raise InvalidInputError(
                f"duration_s * sample_rate_hz must be finite, got {self.duration_s:g} s at {self.sample_rate_hz:g} S/s"
            )
        substeps = self.filter_substeps
        require_int("filter_substeps", substeps)
        if not 0 <= substeps <= MAX_FILTER_SUBSTEPS:
            raise InvalidInputError(f"filter_substeps must be 0..{MAX_FILTER_SUBSTEPS}, got {shown(substeps)}")
        require_int("seed", self.seed)
        adc0808.require_clock_in_window(self.clock.frequency_hz)  # or build_port fails
        # each substep time is below one tick past the last, so a phase finite there is finite throughout
        t_past = self.duration_s + 1.0 / self.sample_rate_hz
        if not isinstance(self.stimuli, Mapping):
            raise InvalidInputError(f"stimuli must be a mapping of Channel to stimulus, got {shown(self.stimuli)}")
        object.__setattr__(self, "stimuli", MappingProxyType(dict(self.stimuli)))
        if self.stimuli.keys() != set(Channel):
            keys = ", ".join(map(shown, self.stimuli)) or "none"
            raise InvalidInputError(f"stimuli keys must be {', '.join(map(shown, Channel))}, got {keys}")
        for ch in Channel:
            f = self.stimuli[ch].max_freq_hz()
            if f and not _TWO_PI * f * t_past <= FLOAT_MAX:  # also when 2 pi f alone is inf: its phase at t = 0 is nan
                raise InvalidInputError(f"{ch.name} stimulus at {f:g} Hz: 2 pi f t is not finite by t = {t_past:g} s")
        latency_s = adc0808.conversion_time_s(self.clock.frequency_hz)
        if len(Channel) * latency_s > 1.0 / self.sample_rate_hz:
            raise InvalidInputError(
                f"{len(Channel)} conversions of {latency_s * 1e6:g} us do not fit "
                f"in one {1e6 / self.sample_rate_hz:g} us tick at {self.sample_rate_hz:g} S/s"
            )
        if self.start_time is not None:
            try:  # the last tick's stamp
                self.start_time + timedelta(seconds=(self.tick_count() - 1) / self.sample_rate_hz)
            except OverflowError:
                raise InvalidInputError(
                    f"a {self.duration_s:g} s run from {self.start_time.isoformat()} ends past {datetime.max}"
                ) from None

    def tick_count(self) -> int:
        return math.floor(self.duration_s * self.sample_rate_hz) + 1

    def warn_if_undersampled(self) -> None:
        nyquist = self.sample_rate_hz / 2.0
        for ch in Channel:
            f = self.stimuli[ch].max_freq_hz()
            if f > nyquist:
                warnings.warn(
                    f"{ch.name} stimulus at {f:g} Hz exceeds Nyquist {nyquist:g} Hz; "
                    f"it will alias to {signal_chain.alias_frequency(f, self.sample_rate_hz):g} Hz",
                    UndersamplingWarning,
                    stacklevel=2,
                )

    def fingerprint(self) -> str:
        # Line 5 of a log is this hash. The configs are written out as they read
        # when the paper's constants and the front end were fields too, those
        # filled in (the zener clamp at VREF), and the chain once per channel,
        # so a log of the same run keeps its hash.
        adc, psy = self.adc, self.psychro
        chain_text = (
            f"ChainConfig(sensor_slope={SENSOR_SLOPE!r}, amp_gain={AMP_GAIN!r}, clamp_volts={VREF!r}, "
            f"filter_cutoff_hz={self.filter_cutoff_hz!r}, vref={VREF!r}, allow_misaligned=False)"
        )
        text = "|".join(
            (
                f"rate={self.sample_rate_hz!r}",
                f"duration={self.duration_s!r}",
                f"channels={[ch.name for ch in Channel]!r}",
                f"clock={self.clock!r}",
                f"chains={[(ch.name, chain_text) for ch in Channel]!r}",
                f"stimuli={sorted((ch.name, repr(s)) for ch, s in self.stimuli.items())!r}",
                f"adc=AdcConfig(vref={VREF!r}, bits=8, conversion_cycles={CONVERSION_CYCLES!r}, "
                f"unadjusted_error_lsb=0.5, noise_sigma_lsb={adc.noise_sigma_lsb!r})",
                f"psychro=PsychroConfig(psychrometer_coeff={psy.psychrometer_coeff!r}, pressure_hpa={psy.pressure_hpa!r}, "
                f"magnus_a={psychro.MAGNUS_A!r}, magnus_b={psychro.MAGNUS_B!r}, magnus_c={psychro.MAGNUS_C!r})",
                f"substeps={self.filter_substeps!r}",
                f"seed={self.seed!r}",
            )
        )
        return logstore.fingerprint(text)


# -- the loop ---------------------------------------------------------------


def build_port(cfg: RunConfig) -> SimulatedPort:
    """Simulated port for a run: ADC + clock + noise RNG."""
    return SimulatedPort(
        adc=cfg.adc,
        clock_hz=cfg.clock.frequency_hz,
        rng=Random(cfg.seed),
    )


def run_meta(cfg: RunConfig) -> logstore.RunMeta:
    """The log metadata of a run of cfg, which must have a start_time."""
    if cfg.start_time is None:
        raise InvalidInputError("run_meta needs a config with a start_time")
    return logstore.RunMeta(
        run_id=f"{cfg.start_time:%Y%m%dT%H%M%S}_{cfg.seed & 0xFFFFFFFF:08x}",
        start=cfg.start_time.isoformat(timespec="milliseconds"),
        sample_rate_hz=cfg.sample_rate_hz,
        channels={ch.name.lower(): ch.value for ch in Channel},
        config_fingerprint=cfg.fingerprint(),
    )


class _FrontEnd:
    """The analog path of both channels, with optional anti-alias filter dynamics.

    Called once per tick with the tick time; returns (DRY volts, WET volts).
    With substeps, both filters advance together from the previous tick
    time to this one, substep by substep, with one alpha and one set of
    substep offsets for the run.
    """

    def __init__(self, cfg: RunConfig):
        self.dry_at = cfg.stimuli[Channel.DRY].temp_at
        self.wet_at = cfg.stimuli[Channel.WET].temp_at
        self.substeps = substeps = cfg.filter_substeps
        if substeps:
            self.t_prev = 0.0
            dt_sub = 1.0 / (cfg.sample_rate_hz * substeps)
            self.alpha = lowpass_alpha(dt_sub, cfg.filter_cutoff_hz)
            # each substep's time after the previous tick, j * dt_sub for j = 1..substeps
            self.offsets = tuple(j * dt_sub for j in range(1, substeps + 1))
            # circuit assumed settled at power-on
            self.dry = chain_voltage(self.dry_at(0.0))
            self.wet = chain_voltage(self.wet_at(0.0))

    def voltages_at(self, t: float) -> tuple:
        if not self.substeps:
            return chain_voltage(self.dry_at(t)), chain_voltage(self.wet_at(t))
        if t > self.t_prev:  # tick 0 reads the settled state
            dry_at, wet_at, alpha = self.dry_at, self.wet_at, self.alpha
            t_prev, dry, wet = self.t_prev, self.dry, self.wet
            for offset in self.offsets:
                t_sub = t_prev + offset
                dry = lowpass_step(dry, chain_voltage(dry_at(t_sub)), alpha)
                wet = lowpass_step(wet, chain_voltage(wet_at(t_sub)), alpha)
            self.dry, self.wet, self.t_prev = dry, wet, t
        return self.dry, self.wet


def _tick_row(t: float, timestamp: str, dry_code: int, wet_code: int, cfg: RunConfig) -> logstore.PsychroRow:
    """One log row from the tick's code on each channel."""
    dry_temp, wet_temp = decode_temp(dry_code), decode_temp(wet_code)
    rh = dew = None
    # a rail code only bounds the temperature, so humidity from it would be wrong;
    # and decode_temp is strictly increasing, so a wet code above the dry code is
    # a wet bulb above the dry bulb, a pair psychro.reading rejects
    if 0 < wet_code <= dry_code < CODE_MAX:
        try:
            _, _, rh, dew = psychro.reading(dry_temp, wet_temp, cfg.psychro)
        except (InvalidInputError, InconsistentReadingError):
            pass  # row keeps empty humidity fields
    return logstore.PsychroRow(t, timestamp, dry_code, dry_temp, wet_code, wet_temp, rh, dew)


def acquire_rows(cfg: RunConfig, sinks, port: SimulatedPort | None = None) -> logstore.RunMeta:
    """Execute one run, hand each row to each sink, and return the run's RunMeta.

    Emits floor(duration * rate) + 1 ticks (t = 0 and t = duration are both
    included); both channels are acquired per tick, DRY then WET, and one
    row stamped with the tick time is made from them. Each row goes to each
    sink, in order, synchronously, and is kept by none but the sinks; rows
    never depend on sinks. A config without a start_time starts now. Every
    exception, a device timeout or a sink's own, propagates as it is, and
    the sinks then hold every row made before it.
    """
    cfg.warn_if_undersampled()
    if cfg.start_time is None:
        cfg = replace(cfg, start_time=datetime.now())
    if port is None:
        port = build_port(cfg)
    rate = cfg.sample_rate_hz
    start_dt = cfg.start_time
    voltages_at = _FrontEnd(cfg).voltages_at  # both lanes' voltages at tick time, DRY then WET
    dry_mux, wet_mux = Channel.DRY.value, Channel.WET.value
    set_input = port.set_input
    for k in range(cfg.tick_count()):
        t = k / rate
        # timedelta(seconds=t) and isoformat(timespec=...), without the keyword parsing
        timestamp = (start_dt + timedelta(0, t)).isoformat("T", "milliseconds")
        dry_volts, wet_volts = voltages_at(t)
        set_input(dry_mux, dry_volts)
        dry_code = acquire_byte(port, dry_mux)
        set_input(wet_mux, wet_volts)
        wet_code = acquire_byte(port, wet_mux)
        row = _tick_row(t, timestamp, dry_code, wet_code, cfg)
        for sink in sinks:
            sink(row)
    return run_meta(cfg)


def run_acquisition(cfg: RunConfig, port: SimulatedPort | None = None) -> logstore.RunLog:
    """Execute one run and return its RunLog: acquire_rows, with the rows
    collected into the log."""
    rows: list = []
    meta = acquire_rows(cfg, (rows.append,), port)
    return logstore.RunLog(meta=meta, rows=rows)


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class ChannelStats:
    mean: float
    min: float
    max: float


def _mean(values) -> float:
    return math.fsum(values) / len(values)  # statistics.fmean, without importing statistics


def _stats(dry, wet) -> dict:
    """Per-channel mean/min/max of a run's dry and wet temperatures."""
    if not dry:
        raise EmptyRunError("run has no samples to summarize")
    return {ch: ChannelStats(_mean(v), min(v), max(v)) for ch, v in ((Channel.DRY, dry), (Channel.WET, wet))}


def _humidity(rh, dew):
    return (_mean(rh), _mean(dew)) if rh and dew else None


def summarize(run: logstore.RunLog) -> dict:
    """Per-channel mean/min/max temperature over a run."""
    return _stats([row.dry_temp_c for row in run.rows], [row.wet_temp_c for row in run.rows])


def humidity_summary(run: logstore.RunLog):
    """(mean RH %, mean dew point degC) over rows where both were computed.

    Returns None when no row has humidity values.
    """
    return _humidity(
        [row.rh_pct for row in run.rows if row.rh_pct is not None],
        [row.dew_point_c for row in run.rows if row.dew_point_c is not None],
    )


class RunSummary:
    """Row sink that keeps the columns summarize and humidity_summary read,
    and no rows; `stats()` and `humidity()` give what they give for a run
    of the rows it was handed."""

    def __init__(self):
        self.dry, self.wet = array("d"), array("d")
        self.rh, self.dew = array("d"), array("d")  # the values that are not None

    def __call__(self, row: logstore.PsychroRow) -> None:
        self.dry.append(row.dry_temp_c)
        self.wet.append(row.wet_temp_c)
        if row.rh_pct is not None:
            self.rh.append(row.rh_pct)
        if row.dew_point_c is not None:
            self.dew.append(row.dew_point_c)

    def stats(self) -> dict:
        return _stats(self.dry, self.wet)

    def humidity(self):
        return _humidity(self.rh, self.dew)
