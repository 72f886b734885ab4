"""The application loop: schedule conversions, timestamp, decode, log.

Each tick acquires both channels, DRY then WET, through the port handshake,
decodes each code to degC, and folds the dry/wet pair plus derived humidity
into one log row, which joins the run's log and then goes to each attached
sink. Tick times are computed as k / rate (never accumulated), so the
schedule has zero floating drift, and that tick time is the run's only
time base: runs are instantaneous and deterministic.
"""

from __future__ import annotations

import math
import threading
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from random import Random
from statistics import fmean

from . import adc0808, logstore, psychro, signal_chain
# decode_volts is not called here, but perfbench/layers.py SPAN_TARGETS looks it up on this module
from .adc0808 import CODE_MAX, AdcConfig, ClockConfig, decode_temp, decode_volts
from .errors import (
    DeviceTimeoutError,
    EmptyRunError,
    InconsistentReadingError,
    InvalidInputError,
    RunAbortedError,
    UndersamplingWarning,
    require_above,
    require_finite,
    require_int,
    shown,
)
from .pport import SimulatedPort, acquire_byte
from .signal_chain import ChainConfig, chain_voltage, lowpass_alpha, lowpass_step


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

    def temp_at(self, t_s: float) -> float:
        return self.value_c

    def max_freq_hz(self) -> float:
        return 0.0


_TWO_PI = 2.0 * math.pi  # 2.0 * math.pi * f * t multiplies as (2.0 * math.pi) * f * t: same bits


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

    def temp_at(self, t_s: float) -> float:
        return self.offset_c + self.amplitude_c * math.sin(_TWO_PI * self.freq_hz * t_s)

    def max_freq_hz(self) -> float:
        return self.freq_hz


@dataclass
class Replay:
    """Temperature replayed from a recorded log column (zero-order hold).

    The source log is read once, when the Replay is made.
    """

    path: str
    column: str = "dry_temp_c"

    def __post_init__(self):
        if self.column not in ("dry_temp_c", "wet_temp_c"):
            raise InvalidInputError(f"column must be a temp column, got {self.column!r}")
        run = logstore.read_csv(self.path)
        if not run.rows:
            raise EmptyRunError(f"replay source {self.path} has no rows")
        self._times = [row.t_s for row in run.rows]
        self._temps = [getattr(row, self.column) for row in run.rows]

    def temp_at(self, t_s: float) -> float:
        # small guard: logged t_s is rounded to 6 decimals and may sit just
        # above the exact tick time
        idx = bisect_right(self._times, t_s + 1e-6) - 1
        return self._temps[max(idx, 0)]

    def max_freq_hz(self) -> float:
        return 0.0  # spectral content of a recording is unknown; no warning


# -- run configuration ----------------------------------------------------

DEFAULT_CLOCK = ClockConfig(r_ohms=1420.5, c_farads=1e-9)  # ~640 kHz

# A full-scale step through the default 0.5 Hz filter at 1,024 substeps already
# follows 1 - exp(-t/RC) within 0.07 LSB at 2 S/s and 0.29 LSB at 0.5 S/s, so
# more change no code; the bound stops a config asking for a loop without end.
MAX_FILTER_SUBSTEPS = 1024


def _default_chains():
    return {Channel.DRY: ChainConfig(), Channel.WET: ChainConfig()}


def _default_stimuli():
    return {Channel.DRY: Constant(25.0), Channel.WET: Constant(20.0)}


@dataclass
class RunConfig:
    """Everything one acquisition run needs.

    filter_substeps = 0 samples the stimulus directly (ideal pre-filtered
    input); N > 0 advances the first-order anti-alias filter N times per
    tick between samples, with state seeded at the tick-0 level.
    """

    duration_s: float
    sample_rate_hz: float = 2.0
    clock: ClockConfig = DEFAULT_CLOCK
    chains: dict = field(default_factory=_default_chains)
    stimuli: dict = field(default_factory=_default_stimuli)
    adc: AdcConfig = AdcConfig()
    psychro: psychro.PsychroConfig = psychro.PsychroConfig()
    filter_substeps: int = 0
    seed: int = 0
    start_time: datetime | None = None

    def __post_init__(self):
        require_above("sample_rate_hz", self.sample_rate_hz, 0)
        require_above("duration_s", self.duration_s, 0, inclusive=True)
        substeps = self.filter_substeps
        require_int("filter_substeps", substeps)
        if not 0 <= substeps <= MAX_FILTER_SUBSTEPS:
            raise InvalidInputError(f"filter_substeps must be 0..{MAX_FILTER_SUBSTEPS}, got {shown(substeps)}")
        require_int("seed", self.seed)
        adc0808.require_clock_in_window(self.clock.frequency_hz)  # or build_port fails
        for ch in Channel:
            if ch not in self.chains:
                raise InvalidInputError(f"missing chain config for channel {ch.name}")
            if ch not in self.stimuli:
                raise InvalidInputError(f"missing stimulus for channel {ch.name}")
            if self.chains[ch].vref != self.adc.vref:
                raise InvalidInputError(
                    f"{ch.name} chain is scaled to vref {self.chains[ch].vref} V "
                    f"but the ADC reference is {self.adc.vref} V"
                )
            # decode_temp is right only for an aligned chain, whatever allow_misaligned says
            signal_chain.require_aligned(self.chains[ch])

    def tick_count(self) -> int:
        return math.floor(self.duration_s * self.sample_rate_hz) + 1

    def warn_if_undersampled(self) -> None:
        nyquist = self.sample_rate_hz / 2.0
        for ch in Channel:
            f = self.stimuli[ch].max_freq_hz()
            if signal_chain.is_undersampled(f, self.sample_rate_hz):
                warnings.warn(
                    f"{ch.name} stimulus at {f:g} Hz exceeds Nyquist {nyquist:g} Hz; "
                    f"it will alias to {signal_chain.alias_frequency(f, self.sample_rate_hz):g} Hz",
                    UndersamplingWarning,
                    stacklevel=2,
                )

    def fingerprint(self) -> str:
        text = "|".join(
            (
                f"rate={self.sample_rate_hz!r}",
                f"duration={self.duration_s!r}",
                f"channels={[ch.name for ch in Channel]!r}",
                f"clock={self.clock!r}",
                f"chains={sorted((ch.name, repr(c)) for ch, c in self.chains.items())!r}",
                f"stimuli={sorted((ch.name, repr(s)) for ch, s in self.stimuli.items())!r}",
                f"adc={self.adc!r}",
                f"psychro={self.psychro!r}",
                f"substeps={self.filter_substeps!r}",
                f"seed={self.seed!r}",
            )
        )
        return logstore.fingerprint(text)


# -- sinks -------------------------------------------------------------------


class QueueSink:
    """Bounded FIFO row sink.

    When full, the oldest row is dropped and `dropped` incremented:
    logging must never stall acquisition.
    """

    def __init__(self, capacity: int = 1024):
        require_int("capacity", capacity)
        if capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {shown(capacity)}")
        self.capacity = capacity
        self.dropped = 0
        self._lock = threading.Lock()
        self._queue: deque = deque()

    def __call__(self, row: logstore.PsychroRow) -> None:
        with self._lock:
            if len(self._queue) >= self.capacity:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(row)

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self) -> list:
        with self._lock:
            items = list(self._queue)
            self._queue.clear()
        return items


# -- the loop ---------------------------------------------------------------


def build_port(cfg: RunConfig) -> SimulatedPort:
    """Simulated port for a run: ADC + clock + noise RNG."""
    return SimulatedPort(
        adc=cfg.adc,
        clock_hz=cfg.clock.frequency_hz,
        rng=Random(cfg.seed),
    )


def _derive_meta(cfg: RunConfig, start_dt: datetime) -> logstore.RunMeta:
    return logstore.RunMeta(
        run_id=f"{start_dt:%Y%m%dT%H%M%S}_{cfg.seed & 0xFFFFFFFF:08x}",
        start=start_dt.isoformat(timespec="milliseconds"),
        sample_rate_hz=cfg.sample_rate_hz,
        channels={ch.name.lower(): ch.value for ch in Channel},
        config_fingerprint=cfg.fingerprint(),
    )


class _FilteredChain:
    """Per-channel analog path with optional anti-alias filter dynamics.

    Called once per tick with the tick time; the filter advances from the
    previous tick time to this one.
    """

    def __init__(self, chain: ChainConfig, stimulus, substeps: int, rate_hz: float):
        self.chain = chain
        self.stimulus = stimulus
        self.substeps = substeps
        if substeps:
            self.t_prev = 0.0
            self.dt_sub = 1.0 / (rate_hz * substeps)
            self.alpha = lowpass_alpha(self.dt_sub, chain)
            # circuit assumed settled at power-on
            self.state = chain_voltage(stimulus.temp_at(0.0), chain)

    def voltage_at(self, t: float) -> float:
        if not self.substeps:
            return chain_voltage(self.stimulus.temp_at(t), self.chain)
        if t > self.t_prev:  # tick 0 reads the settled state
            temp_at, chain, alpha = self.stimulus.temp_at, self.chain, self.alpha
            t_prev, dt_sub, state = self.t_prev, self.dt_sub, self.state
            for j in range(1, self.substeps + 1):
                x = chain_voltage(temp_at(t_prev + j * dt_sub), chain)
                state = lowpass_step(state, x, alpha)
            self.state = state
            self.t_prev = t
        return self.state


def _tick_row(
    t: float, timestamp: str, dry: tuple, wet: tuple, cfg: RunConfig
) -> logstore.PsychroRow:
    """One log row from the tick's (code, temp_c) reading of each channel."""
    dry_code, dry_temp = dry
    wet_code, wet_temp = wet
    rh = dew = None
    # a rail code only bounds the temperature, so humidity from it would be wrong
    if 0 < dry_code < CODE_MAX and 0 < wet_code < CODE_MAX:
        try:
            result = psychro.reading(dry_temp, wet_temp, cfg.psychro)
            rh, dew = result.rh_pct, result.dew_point_c
        except (InvalidInputError, InconsistentReadingError):
            pass  # row keeps empty humidity fields
    return logstore.PsychroRow(t, timestamp, dry_code, dry_temp, wet_code, wet_temp, rh, dew)


def run_acquisition(cfg: RunConfig, sinks=(), port: SimulatedPort | None = None) -> logstore.RunLog:
    """Execute one run and return its RunLog.

    Emits floor(duration * rate) + 1 ticks (t = 0 and t = duration are both
    included); both channels are acquired per tick, DRY then WET, and one
    row stamped with the tick time is made from them. Each row joins the
    log and then goes to each sink, in order, synchronously; rows never
    depend on sinks. A sink's exception propagates as it is. A rate at
    which one tick cannot hold a conversion per channel, or a run whose
    last tick falls after the last representable date, raises
    InvalidInputError before the first tick. Only a device timeout becomes
    RunAbortedError, which carries the partial RunLog: every row made
    before the failed tick.
    """
    cfg.warn_if_undersampled()
    if port is None:
        port = build_port(cfg)
    if len(Channel) * port.latency_s > 1.0 / cfg.sample_rate_hz:
        raise InvalidInputError(
            f"{len(Channel)} conversions of {port.latency_s * 1e6:g} us do not fit "
            f"in one {1e6 / cfg.sample_rate_hz:g} us tick at {cfg.sample_rate_hz:g} S/s"
        )
    rate = cfg.sample_rate_hz
    start_dt = cfg.start_time or datetime.now()
    try:
        start_dt + timedelta(seconds=(cfg.tick_count() - 1) / rate)  # the last tick's stamp
    except OverflowError:
        raise InvalidInputError(
            f"a {cfg.duration_s:g} s run from {start_dt.isoformat()} ends past {datetime.max}"
        ) from None
    meta = _derive_meta(cfg, start_dt)
    lanes = []  # (mux input, voltage at tick time), DRY then WET
    for ch in Channel:
        path = _FilteredChain(cfg.chains[ch], cfg.stimuli[ch], cfg.filter_substeps, rate)
        lanes.append((ch.value, path.voltage_at))
    rows: list = []
    try:
        for k in range(cfg.tick_count()):
            t = k / rate
            timestamp = (start_dt + timedelta(seconds=t)).isoformat(timespec="milliseconds")
            readings = []  # (code, temp_c) per lane
            for mux, voltage_at in lanes:
                port.set_input(mux, voltage_at(t))
                code = acquire_byte(port, mux)
                readings.append((code, decode_temp(code)))
            row = _tick_row(t, timestamp, *readings, cfg)
            rows.append(row)
            for sink in sinks:
                sink(row)
    except DeviceTimeoutError as exc:
        raise RunAbortedError(
            f"run aborted at tick {k}: {exc}", logstore.RunLog(meta=meta, rows=rows)
        ) from exc
    return logstore.RunLog(meta=meta, rows=rows)


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class ChannelStats:
    mean: float
    min: float
    max: float


def summarize(run: logstore.RunLog) -> dict:
    """Per-channel mean/min/max temperature over a run."""
    if not run.rows:
        raise EmptyRunError("run has no samples to summarize")
    dry = [row.dry_temp_c for row in run.rows]
    wet = [row.wet_temp_c for row in run.rows]
    return {
        Channel.DRY: ChannelStats(fmean(dry), min(dry), max(dry)),
        Channel.WET: ChannelStats(fmean(wet), min(wet), max(wet)),
    }


def humidity_summary(run: logstore.RunLog):
    """(mean RH %, mean dew point degC) over rows where both were computed.

    Returns None when no row has humidity values.
    """
    rh = [row.rh_pct for row in run.rows if row.rh_pct is not None]
    dew = [row.dew_point_c for row in run.rows if row.dew_point_c is not None]
    if not rh or not dew:
        return None
    return fmean(rh), fmean(dew)
