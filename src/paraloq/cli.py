"""Command-line front end: simulate runs, compute humidity, plot, summarize.

Exit codes:
    0  success
    2  invalid flags or config
    3  device timeout during acquisition (the log keeps its k rows and ends
       in `# aborted = tick <k>: <reason>`; so does an interrupted or
       terminated one)
    4  storage (output write) failure
    5  input log unreadable, malformed or empty
    130  interrupted (Ctrl-C)
    141  standard output closed by its reader (`| head`)
    143  terminated (SIGTERM, as `kill` sends it)

Defaults can come from a `key = value` config file with [section] headers
(sections: run, psychro). Precedence is flags > file >
defaults; the file is named by --config or the PARALOQ_CONFIG environment
variable. Unknown sections, even empty ones, and unknown or [DEFAULT] keys
are hard errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import signal
import sys
from datetime import datetime

from . import acquisition, logstore, plotting, psychro
from .acquisition import Channel, Constant, Replay, RunConfig, Sine
from .errors import (
    ConfigError,
    CsvParseError,
    DeviceTimeoutError,
    EmptyRunError,
    InvalidInputError,
    ParaloqError,
    StorageError,
    require_above,
)

CONFIG_ENV_VAR = "PARALOQ_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_STORAGE = 4
EXIT_PARSE = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process Ctrl-C ended
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer its reader left
EXIT_TERMINATED = 143  # 128 + SIGTERM, as a shell reports a process `kill` ended


class Terminated(KeyboardInterrupt):
    """SIGTERM during `simulate`, which ends the run as Ctrl-C does."""


def _terminate(signum, frame):
    raise Terminated("terminated")


# error type -> exit code, first match wins; any other ParaloqError is a usage error
_EXIT_CODES = (
    (DeviceTimeoutError, EXIT_TIMEOUT),
    ((CsvParseError, EmptyRunError), EXIT_PARSE),
    (StorageError, EXIT_STORAGE),
)

# [section] -> the config class it sets; each float or int field is a key
_SECTIONS = {"run": RunConfig, "psychro": psychro.PsychroConfig}
_PARSERS = {"float": float, "int": int}  # field annotation -> value parser
# (section, key) -> parser; the whole schema the config file may use
_CONFIG_SCHEMA = {
    (section, f.name): _PARSERS[f.type]
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.type in _PARSERS
}


def load_config_file(path) -> dict:
    """Parse and validate a config file into {section: {key: value}}, one
    entry per section of the schema. A section or key outside the schema,
    an empty section or a [DEFAULT] key included, is a ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for key in parser.defaults():  # read into every section, or dropped when there is none
        raise ConfigError(f"unknown config key [{parser.default_section}] {key}")
    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        for key, raw in parser.items(section):
            convert = _CONFIG_SCHEMA.get((section, key))
            if convert is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                values[section][key] = convert(raw)
            except ValueError:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None
        if section not in values:  # an unknown section that holds no key
            raise ConfigError(f"unknown config section [{section}]")
    return values


def _effective_config(args) -> dict:
    """{section: {key: value}} from the config file, with each flag whose dest
    is a key taking precedence; the config classes own the defaults."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    values = load_config_file(path) if path else {section: {} for section in _SECTIONS}
    for section, key in _CONFIG_SCHEMA:
        if getattr(args, key, None) is not None:
            values[section][key] = getattr(args, key)
    return values


def parse_stimulus(spec: str, flag: str, channel: Channel):
    """Parse 'constant:V' | 'sine:amp=A,freq=F,offset=O' | 'replay:PATH'."""
    kind, sep, body = spec.partition(":")
    if not sep:
        raise ConfigError(f"{flag}: expected KIND:ARGS, got {spec!r}")
    try:
        if kind == "constant":
            return Constant(float(body))
        if kind == "sine":
            params = {}
            for part in body.split(","):
                key, eq, value = part.partition("=")
                if not eq or key not in ("amp", "freq", "offset"):
                    raise ConfigError(f"{flag}: bad sine parameter {part!r}")
                params[key] = float(value)
            missing = {"amp", "freq", "offset"} - set(params)
            if missing:
                raise ConfigError(f"{flag}: sine needs {sorted(missing)}")
            return Sine(amplitude_c=params["amp"], freq_hz=params["freq"], offset_c=params["offset"])
        if kind == "replay":
            column = "dry_temp_c" if channel is Channel.DRY else "wet_temp_c"
            return Replay(body, column=column)
    except InvalidInputError as exc:  # a number that parsed but a stimulus rejects
        raise ConfigError(f"{flag}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{flag}: bad number in {spec!r}") from None
    raise ConfigError(f"{flag}: unknown stimulus kind {kind!r}")


def _print_table(stats: dict, humidity) -> None:
    dry = stats[Channel.DRY]
    wet = stats[Channel.WET]
    print(f"Dry Temp {dry.mean:.6f} (min={dry.min:.6f}, max={dry.max:.6f})")
    print(f"Wet Temp {wet.mean:.6f} (min={wet.min:.6f}, max={wet.max:.6f})")
    if humidity is None:
        print("Rel. Humidity -")
        print("Dew Point -")
    else:
        print(f"Rel. Humidity {humidity[0]:.6f}")
        print(f"Dew Point {humidity[1]:.6f}")


def cmd_simulate(args) -> int:
    config = _effective_config(args)
    run_kwargs = config["run"]
    if "duration_s" not in run_kwargs:
        raise ConfigError("--duration is required (or [run] duration_s in the config file)")
    # checked here too, so the error names the flag or file key that set the value
    for key, flag, inclusive in (("sample_rate_hz", "--rate", False), ("duration_s", "--duration", True)):
        if key in run_kwargs:
            source = flag if getattr(args, key) is not None else f"[run] {key}"
            require_above(source, run_kwargs[key], 0, inclusive=inclusive)
    psychro_cfg = psychro.PsychroConfig(**config["psychro"])

    stimuli = {}
    for channel, temp_flag, stim_flag, name in (
        (Channel.DRY, args.dry_temp, args.dry_stimulus, "--dry-stimulus"),
        (Channel.WET, args.wet_temp, args.wet_stimulus, "--wet-stimulus"),
    ):
        if stim_flag is not None:
            stimuli[channel] = parse_stimulus(stim_flag, name, channel)
        elif temp_flag is not None:
            stimuli[channel] = Constant(temp_flag)

    start_time = datetime.now()  # the header names the run's start before its first tick
    if args.start_time is not None:
        try:
            start_time = datetime.fromisoformat(args.start_time)
        except ValueError:
            raise ConfigError(f"--start-time: not ISO-8601: {args.start_time!r}") from None

    cfg = RunConfig(start_time=start_time, psychro=psychro_cfg, **run_kwargs)
    # a channel without a flag keeps its default stimulus; replace checks the stimuli with the rest
    cfg = dataclasses.replace(cfg, stimuli={**cfg.stimuli, **stimuli})

    summary = acquisition.RunSummary()  # the run's rows go to the file; the summary keeps columns
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with logstore.CsvWriter(args.out, acquisition.run_meta(cfg)) as writer:
            try:
                acquisition.acquire_rows(cfg, (writer.write_row, summary))
            except (DeviceTimeoutError, KeyboardInterrupt) as exc:
                writer.abort(str(exc) or "interrupted")  # Ctrl-C has no text
                print(f"kept {writer.rows} rows in {args.out}", file=sys.stderr)
                raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    n_rows = writer.rows
    print(f"wrote {args.out}: {n_rows} ticks, {2 * n_rows} samples, rate {cfg.sample_rate_hz:g} S/s")
    _print_table(summary.stats(), summary.humidity())
    return EXIT_OK


def cmd_compute(args) -> int:
    cfg = psychro.PsychroConfig(**_effective_config(args)["psychro"])
    result = psychro.reading(args.dry, args.wet, cfg)
    print(f"rh_pct={result.rh_pct:.6f}, dew_point_c={result.dew_point_c:.6f}")
    return EXIT_OK


def cmd_plot(args) -> int:
    t_values, values = logstore.read_series(args.input, args.column)
    if not values:
        raise EmptyRunError(f"no values to plot in column {args.column!r}")
    if args.format == "ascii":
        body = plotting.ascii_chart(t_values, values, args.column)
    else:
        body = plotting.svg_chart(t_values, values, args.column)
    if args.out is None or args.out == "-":
        print(body)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)  # not body + "\n", which copies the chart once more
                fh.write("\n")
        except OSError as exc:
            raise StorageError(args.out, str(exc)) from exc
    return EXIT_OK


def cmd_summarize(args) -> int:
    summary = acquisition.RunSummary()
    logstore.read_rows(args.input, summary)
    _print_table(summary.stats(), summary.humidity())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraloq",
        description="Parallel-port temperature/humidity logger simulator",
    )
    parser.add_argument(
        "--config",
        default=None,
        help=f"config file path (default: ${CONFIG_ENV_VAR} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulated acquisition and write a CSV log")
    # a flag whose dest is a config key overrides that key of the config file
    sim.add_argument("--rate", dest="sample_rate_hz", type=float, help="sample rate in S/s (default 2)")
    sim.add_argument("--duration", dest="duration_s", type=float, help="run length in seconds")
    dry = sim.add_mutually_exclusive_group()
    dry.add_argument("--dry-temp", type=float, default=None, help="constant dry-bulb degC")
    dry.add_argument("--dry-stimulus", default=None, help="dry stimulus spec (constant:|sine:|replay:)")
    wet = sim.add_mutually_exclusive_group()
    wet.add_argument("--wet-temp", type=float, default=None, help="constant wet-bulb degC")
    wet.add_argument("--wet-stimulus", default=None, help="wet stimulus spec")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None, help="noise/run-id seed")
    sim.add_argument("--start-time", default=None, help="ISO-8601 run start (default: now)")
    sim.add_argument("--filter-substeps", type=int, default=None, help="anti-alias filter steps per tick (0 = off)")
    sim.set_defaults(func=cmd_simulate)

    comp = sub.add_parser("compute", help="one psychrometric computation")
    comp.add_argument("--dry", type=float, required=True, help="dry-bulb degC")
    comp.add_argument("--wet", type=float, required=True, help="wet-bulb degC")
    comp.add_argument("--pressure", dest="pressure_hpa", type=float, help="station pressure hPa")
    comp.set_defaults(func=cmd_compute)

    plot = sub.add_parser("plot", help="chart one column of a CSV log")
    plot.add_argument("--input", required=True, help="CSV log path")
    plot.add_argument("--column", required=True, help="column to plot")
    plot.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    plot.add_argument("--out", default=None, help="output path (default: stdout)")
    plot.set_defaults(func=cmd_plot)

    summ = sub.add_parser("summarize", help="print per-channel statistics of a CSV log")
    summ.add_argument("--input", required=True, help="CSV log path")
    summ.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
        return code
    except ParaloqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), EXIT_USAGE)
    except Terminated:
        return EXIT_TERMINATED
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except BrokenPipeError:  # log and --out writes raise StorageError, so this is stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush goes nowhere
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
