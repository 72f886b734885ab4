"""Desk-scale simulator for a parallel-port temperature/humidity logger.

The pipeline mirrors the instrument it models: an LM35-style sensor chain
feeds an ADC0808 successive-approximation converter, read over an emulated
D25 parallel port, sampled on a fixed schedule, logged to CSV, and
post-processed into relative humidity and dew point.
"""

from .acquisition import (
    Channel,
    ChannelStats,
    Constant,
    Replay,
    RunConfig,
    Sine,
    build_port,
    humidity_summary,
    run_acquisition,
    run_meta,
    summarize,
)
from .adc0808 import (
    AdcConfig,
    conversion_time_s,
    decode_temp,
    decode_volts,
    quantize,
    sar_convert,
)
from .errors import (
    ClockRangeError,
    ConfigError,
    CsvParseError,
    DeviceTimeoutError,
    EmptyRunError,
    InconsistentReadingError,
    InvalidInputError,
    ParaloqError,
    StorageError,
    UndersamplingWarning,
)
from .logstore import PsychroRow, RunLog, RunMeta, read_csv, write_csv
from .pport import SimulatedPort, acquire_byte
from .psychro import PsychroConfig, PsychroReading, reading
from .signal_chain import (
    alias_frequency,
    chain_voltage,
    lowpass_alpha,
    lowpass_step,
)

__version__ = "0.1.0"
