"""Spreadsheet-compatible CSV persistence for acquisition runs.

File layout: UTF-8 text with CRLF line endings, `#`-prefixed metadata
lines, a fixed header, then one wide row per tick (both channels side by
side, like the instrument's own dry/wet presentation):

    # run_id = 20260810T173000_0000002a
    # start = 2026-08-10T17:30:00.000
    # sample_rate_hz = 2.000000
    # channels = dry=0,wet=1
    # config = 5b3c9a1d8e2f
    t_s,timestamp,dry_code,dry_temp_c,wet_code,wet_temp_c,rh_pct,dew_point_c
    0.000000,2026-08-10T17:30:00.000,102,20.000000,92,18.039216,82.872516,16.998432

Floats are written with 6 decimal places; every float field is rounded to
6 decimals when a row or meta object is constructed, so reading a written
file back reproduces the run exactly and re-serialization is byte-stable.
Fields never contain commas, so no quoting is ever needed and the files
open directly in any spreadsheet application.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import CsvParseError, InvalidInputError, StorageError

HEADER = "t_s,timestamp,dry_code,dry_temp_c,wet_code,wet_temp_c,rh_pct,dew_point_c"
_META_KEYS = ("run_id", "start", "sample_rate_hz", "channels", "config")
_NUMERIC_COLUMNS = tuple(
    (i, name) for i, name in enumerate(HEADER.split(",")) if name != "timestamp"
)


def round6(x: float) -> float:
    """Quantize to the file format's 6-decimal resolution."""
    return round(x, 6)


def _finite6(name: str, value) -> float:
    """round6 of a value that must be a finite number (not None, nan or inf)."""
    if value is None or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return round(value, 6)


def fingerprint(text: str) -> str:
    """Short stable hash used to tag a run with its configuration."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RunMeta:
    """Run identification carried in the file's comment lines."""

    run_id: str = ""
    start: str = ""  # ISO-8601, millisecond precision
    sample_rate_hz: float = 0.0
    channels: dict = field(default_factory=dict)  # name -> mux input
    config_fingerprint: str = ""

    def __post_init__(self):
        rate = _finite6("sample_rate_hz", self.sample_rate_hz)
        object.__setattr__(self, "sample_rate_hz", rate)


@dataclass(frozen=True, slots=True)
class PsychroRow:
    """One logged tick: both channel readings plus derived humidity.

    rh_pct / dew_point_c are None when the psychrometric computation
    errored for that tick (they serialize as empty fields). A value the
    file cannot carry back (None or non-finite t_s or temperature, a
    non-finite dew point, RH outside 0..100) raises InvalidInputError.
    """

    t_s: float
    timestamp: str
    dry_code: int
    dry_temp_c: float
    wet_code: int
    wet_temp_c: float
    rh_pct: float | None = None
    dew_point_c: float | None = None

    def __post_init__(self):
        for name, code in (("dry_code", self.dry_code), ("wet_code", self.wet_code)):
            # bool is an int subclass, but True is not a code the file can carry
            if type(code) is not int or not (0 <= code <= 255):
                raise InvalidInputError(f"{name} must be an integer 0..255, got {code}")
        object.__setattr__(self, "t_s", _finite6("t_s", self.t_s))
        object.__setattr__(self, "dry_temp_c", _finite6("dry_temp_c", self.dry_temp_c))
        object.__setattr__(self, "wet_temp_c", _finite6("wet_temp_c", self.wet_temp_c))
        if self.rh_pct is not None:
            # the comparison also fails for nan
            if not (0.0 <= self.rh_pct <= 100.0):
                raise InvalidInputError(f"rh_pct must be finite and 0..100, got {self.rh_pct!r}")
            object.__setattr__(self, "rh_pct", round(self.rh_pct, 6))
        if self.dew_point_c is not None:
            object.__setattr__(self, "dew_point_c", _finite6("dew_point_c", self.dew_point_c))


@dataclass
class RunLog:
    """An ordered run: metadata plus one PsychroRow per tick."""

    meta: RunMeta
    rows: list = field(default_factory=list)


def _format_float(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _format_row(row: PsychroRow) -> str:
    return ",".join(
        (
            f"{row.t_s:.6f}",
            row.timestamp,
            str(row.dry_code),
            f"{row.dry_temp_c:.6f}",
            str(row.wet_code),
            f"{row.wet_temp_c:.6f}",
            _format_float(row.rh_pct),
            _format_float(row.dew_point_c),
        )
    )


class CsvWriter:
    """Streaming writer: metadata and header up front, then row by row.

    Flushes after every row so a crash loses at most the in-flight row.
    Single-owner, append-only while a run is live.
    """

    def __init__(self, path, meta: RunMeta):
        self.path = path
        self._last_t = None
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise StorageError(path, str(exc)) from exc
        self._emit(f"# run_id = {meta.run_id}")
        self._emit(f"# start = {meta.start}")
        self._emit(f"# sample_rate_hz = {meta.sample_rate_hz:.6f}")
        channels = ",".join(f"{name}={idx}" for name, idx in meta.channels.items())
        self._emit(f"# channels = {channels}")
        self._emit(f"# config = {meta.config_fingerprint}")
        self._emit(HEADER)
        self._fh.flush()

    def _emit(self, line: str) -> None:
        try:
            self._fh.write(line + "\r\n")
        except OSError as exc:
            raise StorageError(self.path, str(exc)) from exc

    def write_row(self, row: PsychroRow) -> None:
        if self._last_t is not None and row.t_s <= self._last_t:
            raise InvalidInputError(
                f"rows must have strictly increasing t_s: {row.t_s} after {self._last_t}"
            )
        self._last_t = row.t_s
        self._emit(_format_row(row))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def write_csv(run: RunLog, path) -> None:
    """Write a complete run to path in the documented CSV format."""
    with CsvWriter(path, run.meta) as writer:
        for row in run.rows:
            writer.write_row(row)


def _has_literal_marks(text: str) -> bool:
    """True if text holds a non-ASCII character or an ASCII mark other than CR
    that float()/int() take in a number: '_' or whitespace."""
    return (
        not text.isascii()
        or " " in text
        or "_" in text
        or "\t" in text
        or "\x0b" in text
        or "\x0c" in text
    )


def _require_plain(text: str, line_no: int, name: str) -> None:
    """Reject a number float()/int() take but write_csv never writes: one
    holding '_', whitespace or a non-ASCII character (a digit such as U+0669
    included). A file holding one would not rewrite byte for byte."""
    if _has_literal_marks(text) or "\r" in text:
        raise CsvParseError(line_no, f"bad {name} value {text!r}")


# The parse helpers only convert text; PsychroRow and RunMeta check the values.
def _parse_float(text: str, line_no: int, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(line_no, f"bad {name} value {text!r}") from None


def _parse_code(text: str, line_no: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(line_no, f"bad {name} value {text!r}") from None


def _parse_optional(text: str, line_no: int, name: str) -> float | None:
    return None if text == "" else _parse_float(text, line_no, name)


def _parse_meta_line(line: str, meta_values: dict) -> None:
    body = line[1:].strip()
    key, sep, value = body.partition(" = ")
    if sep and key.strip() in _META_KEYS:
        meta_values[key.strip()] = value
    # anything else is a free-form comment; ignore it


def _parse_channels(text: str, line_no: int) -> dict:
    channels = {}
    if not text:
        return channels
    for part in text.split(","):
        name, sep, idx = part.partition("=")
        if not sep:
            raise CsvParseError(line_no, f"bad channels entry {part!r}")
        _require_plain(idx, line_no, "channel index")
        try:
            channels[name] = int(idx)
        except ValueError:
            raise CsvParseError(line_no, f"bad channel index {idx!r}") from None
    return channels


def read_csv(path) -> RunLog:
    """Read a file produced by write_csv (exact inverse).

    Metadata lines may be absent (hand-written files); data rows are
    validated for column count, types and strictly increasing t_s, and a
    value PsychroRow or RunMeta rejects (non-finite floats, codes outside
    0..255, RH outside 0..100) is a CsvParseError too, as is a number
    holding '_', whitespace or a non-ASCII character. Lines end in LF or
    CRLF. Errors carry the offending 1-based line number, counting
    LF-separated lines; a file that cannot be read is a CsvParseError at
    line 0.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise CsvParseError(0, f"cannot read input: {path}: {exc}") from exc

    # One scan of what follows the header clears a file write_csv wrote;
    # otherwise every row gets the per-field check. A CR is looked for per row,
    # after the line end is stripped, since a CRLF file holds one on each line.
    literal_rows = _has_literal_marks(text.partition(HEADER)[2])
    meta_values: dict = {}
    meta_line_no = 0
    rows: list = []
    header_seen = False
    last_t = None
    # split on LF only: a CR, form feed or U+2028 inside a line is not a line break
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line == "":
            continue
        if line.startswith("#"):
            meta_line_no = line_no
            _parse_meta_line(line, meta_values)
            continue
        if not header_seen:
            if line != HEADER:
                raise CsvParseError(line_no, f"expected header {HEADER!r}, found {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise CsvParseError(line_no, f"expected 8 columns, found {len(fields)}")
        if literal_rows or "\r" in line:
            for i, name in _NUMERIC_COLUMNS:
                _require_plain(fields[i], line_no, name)
        try:
            row = PsychroRow(
                t_s=_parse_float(fields[0], line_no, "t_s"),
                timestamp=fields[1],
                dry_code=_parse_code(fields[2], line_no, "dry_code"),
                dry_temp_c=_parse_float(fields[3], line_no, "dry_temp_c"),
                wet_code=_parse_code(fields[4], line_no, "wet_code"),
                wet_temp_c=_parse_float(fields[5], line_no, "wet_temp_c"),
                rh_pct=_parse_optional(fields[6], line_no, "rh_pct"),
                dew_point_c=_parse_optional(fields[7], line_no, "dew_point_c"),
            )
        except InvalidInputError as exc:
            raise CsvParseError(line_no, str(exc)) from None
        if last_t is not None and row.t_s <= last_t:
            raise CsvParseError(line_no, f"t_s not increasing: {row.t_s} after {last_t}")
        last_t = row.t_s
        rows.append(row)
    if not header_seen:
        raise CsvParseError(max(meta_line_no, 1), "missing header line")

    rate_text = meta_values.get("sample_rate_hz", "0")
    _require_plain(rate_text, meta_line_no, "sample_rate_hz")
    try:
        meta = RunMeta(
            run_id=meta_values.get("run_id", ""),
            start=meta_values.get("start", ""),
            sample_rate_hz=_parse_float(rate_text, meta_line_no, "sample_rate_hz"),
            channels=_parse_channels(meta_values.get("channels", ""), meta_line_no),
            config_fingerprint=meta_values.get("config", ""),
        )
    except InvalidInputError as exc:
        raise CsvParseError(meta_line_no, str(exc)) from None
    return RunLog(meta=meta, rows=rows)
