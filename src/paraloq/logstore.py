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

A row is a PsychroRow: an immutable named tuple of the eight columns, equal
to the plain tuple of its fields, and built only through its constructor,
which checks every field. Floats are written with 6 decimal places. One
function, _finite6, rounds and checks each logged float when a row or meta
object is constructed: it stores round(x, 6) bit for bit, with round itself
near a tie and from 1e6 up and float arithmetic elsewhere. So reading a
written file back reproduces the run exactly and re-serialization is
byte-stable. Fields never contain commas (the constructor rejects a
timestamp holding one, or a CR or LF), so no quoting is ever needed and the
files open directly in any spreadsheet application.

Rows stream both ways: CsvWriter writes one row at a time, each in one
unbuffered write, and read_rows reads a log a line at a time through the
standard text reader and hands each row to a sink as it is parsed, so
neither holds a whole log. A row's line, CRLF included, is one `%` of the
row, with one format per humidity case: both values, or neither, as a run
writes for a rail code or a wet bulb above the dry. A metadata line reads
exactly `# key = value`, once, above the header, and the channels line is
the format's own, CHANNELS; any other `#` line, CsvWriter.abort's trailer
included, is free text. read_csv is read_rows with a sink that collects the
rows into a RunLog, and read_series one that keeps t_s and one other column.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
from array import array
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import FLOAT_MAX, CsvParseError, InvalidInputError, StorageError, shown

_META_KEYS = ("run_id", "start", "sample_rate_hz", "channels", "config")
_FIRST_WORD = re.compile(r"#\s*([^\s=]*)")  # a comment's first word: up to whitespace or '='
# each column pair's mux input, as acquisition.Channel wires it; every log says so
CHANNELS = "dry=0,wet=1"


def _finite6(name: str, x) -> float:
    """x rounded to the file format's 6 decimals, round(x, 6) with the same
    type and the same bits, if x is a finite number; otherwise (None, nan,
    inf, an int beyond the float range) InvalidInputError naming the field.

    The rounding is float arithmetic where that is exact. For a float below
    1e6 in size, y = x * 1e6 is within 6.1e-5 of the exact x * 10**6, so when
    y is 1e-4 or more from a tie the integer n nearest y is the one round()
    picks, and n / 1e6 (n below 2**53) is the correctly rounded double that
    round() gives. Near a tie, from 1e6 up, and for anything not exactly a
    float, the value is checked and round() itself runs."""
    if type(x) is float and -1e6 < x < 1e6:
        y = x * 1e6
        n = y + 1.5 * 2.0**52 - 1.5 * 2.0**52  # y rounded to an integer, as a float
        if -0.4999 < y - n < 0.4999:
            return n / 1e6 if n else x * 0.0  # x * 0.0 is -0.0 when x is negative
    # round(nan) is nan, round(inf) is inf and round(10**400) is 10**400
    if x is None or not -FLOAT_MAX <= x <= FLOAT_MAX:
        raise InvalidInputError(f"{name} must be finite, got {shown(x)}")
    return round(x, 6)


def _require_utf8(name: str, text: str) -> None:
    """Raise InvalidInputError unless text encodes as UTF-8, as the file is
    written: a lone surrogate does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidInputError(f"{name} must encode as UTF-8, got {text!r}") from None


def fingerprint(text: str) -> str:
    """Short stable hash used to tag a run with its configuration."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RunMeta:
    """Run identification carried in the file's comment lines."""

    run_id: str = ""
    start: str = ""  # ISO-8601, millisecond precision
    sample_rate_hz: float = 0.0
    config_fingerprint: str = ""

    def __post_init__(self):
        # a comment line keeps a value up to its LF, less its trailing whitespace
        for name in ("run_id", "start", "config_fingerprint"):
            text = getattr(self, name)
            if type(text) is not str:
                raise InvalidInputError(f"{name} must be a str, got {shown(text)}")
            if "\n" in text or text != text.rstrip():
                raise InvalidInputError(f"{name} must hold no LF or trailing whitespace, got {text!r}")
            _require_utf8(name, text)
        rate = _finite6("sample_rate_hz", self.sample_rate_hz)
        object.__setattr__(self, "sample_rate_hz", rate)


_tuple_new = tuple.__new__


class PsychroRow(
    namedtuple(
        "PsychroRow",
        ("t_s", "timestamp", "dry_code", "dry_temp_c", "wet_code", "wet_temp_c", "rh_pct", "dew_point_c"),
        defaults=(None, None),
    )
):
    """One logged tick: both channel readings plus derived humidity.

    An immutable named tuple (t_s: float, timestamp: str, dry_code: int,
    dry_temp_c: float, wet_code: int, wet_temp_c: float, rh_pct: float |
    None, dew_point_c: float | None), equal to the plain tuple of its fields.
    rh_pct and dew_point_c are a pair: both None when the psychrometric
    computation errored for that tick (they serialize as empty fields), or
    both set; one without the other raises InvalidInputError. A value the
    file cannot carry back (None or non-finite t_s or temperature, a
    timestamp that is not a str, holds ',', CR or LF or does not encode as
    UTF-8, a non-finite dew point or one above the dry bulb, RH outside
    0..100) raises InvalidInputError. The constructor is the only way to make a row: _make
    and _replace build through it.
    """

    __slots__ = ()

    def __new__(
        cls, t_s, timestamp, dry_code, dry_temp_c, wet_code, wet_temp_c, rh_pct=None, dew_point_c=None
    ):
        # bool is an int subclass, but True is not a code the file can carry
        if type(dry_code) is not int or not (0 <= dry_code <= 255):
            raise InvalidInputError(f"dry_code must be an integer 0..255, got {shown(dry_code)}")
        if type(wet_code) is not int or not (0 <= wet_code <= 255):
            raise InvalidInputError(f"wet_code must be an integer 0..255, got {shown(wet_code)}")
        # a ',' would add a column and a CR or LF end the line
        if type(timestamp) is not str:
            raise InvalidInputError(f"timestamp must be a str, got {shown(timestamp)}")
        if "," in timestamp or "\r" in timestamp or "\n" in timestamp:
            raise InvalidInputError(f"timestamp must not hold ',', CR or LF, got {timestamp!r}")
        if not timestamp.isascii():  # ASCII always encodes
            _require_utf8("timestamp", timestamp)
        t6 = _finite6("t_s", t_s)
        dry6 = _finite6("dry_temp_c", dry_temp_c)
        wet6 = _finite6("wet_temp_c", wet_temp_c)
        if rh_pct is None:
            if dew_point_c is not None:
                raise InvalidInputError(f"dew_point_c {shown(dew_point_c)} has no rh_pct: humidity is a pair")
        else:
            # the comparison also fails for nan
            if not (0.0 <= rh_pct <= 100.0):
                raise InvalidInputError(f"rh_pct must be finite and 0..100, got {shown(rh_pct)}")
            if dew_point_c is None:
                raise InvalidInputError(f"rh_pct {shown(rh_pct)} has no dew_point_c: humidity is a pair")
            rh_pct = _finite6("rh_pct", rh_pct)
            dew_point_c = _finite6("dew_point_c", dew_point_c)
            if dew_point_c > dry6:  # no air saturates above its own temperature
                raise InvalidInputError(f"dew_point_c {dew_point_c} is above dry_temp_c {dry6}")
        return _tuple_new(cls, (t6, timestamp, dry_code, dry6, wet_code, wet6, rh_pct, dew_point_c))

    @classmethod
    def _make(cls, iterable):
        """The row of a sequence of field values, checked as the constructor
        checks them; _replace builds its row through this."""
        return cls(*iterable)


# the row's fields are the log's columns, in file order
_COLUMNS = PsychroRow._fields
_NCOLS = len(_COLUMNS)
HEADER = ",".join(_COLUMNS)
_NUMERIC_COLUMNS = tuple((i, name) for i, name in enumerate(_COLUMNS) if name != "timestamp")
SERIES_COLUMNS = _COLUMNS[2:]  # the columns read_series reads: each after the timestamp


@dataclass
class RunLog:
    """An ordered run: metadata plus one PsychroRow per tick."""

    meta: RunMeta
    rows: list = field(default_factory=list)


# a row as one log line, CRLF included; %.6f writes a float as f"{x:.6f}" does
_ROW_FORMAT = "%.6f,%s,%d,%.6f,%d,%.6f,%.6f,%.6f\r\n"
# the line of a row with neither humidity value: a rail code, or wet above dry
_ROW_FORMAT_NO_HUMIDITY = "%.6f,%s,%d,%.6f,%d,%.6f,,\r\n"


class CsvWriter:
    """Streaming writer: metadata and header up front, then row by row.

    The file is unbuffered: the header lines, each row and the trailer go to
    the OS as one write of their bytes, so a killed run leaves only whole
    lines. The flush after the header and after each row marks where a line
    is on disk; a crash loses at most the in-flight row. `rows` counts
    the rows written. Single-owner, append-only while a run is live. A write,
    flush or close that fails (a full disk included) raises StorageError.
    """

    def __init__(self, path, meta: RunMeta):
        self.path = path
        self.rows = 0
        self._last_t = None
        lines = (
            f"# run_id = {meta.run_id}\r\n"
            f"# start = {meta.start}\r\n"
            f"# sample_rate_hz = {meta.sample_rate_hz:.6f}\r\n"
            f"# channels = {CHANNELS}\r\n"
            f"# config = {meta.config_fingerprint}\r\n"
            f"{HEADER}\r\n"
        ).encode("utf-8")
        try:
            self._fh = open(path, "wb", buffering=0)
        except OSError as exc:
            raise StorageError(path, str(exc)) from exc
        try:
            self._write_all(lines)
            self._fh.flush()
        except BaseException as exc:  # a Ctrl-C included: no handle is left open
            with contextlib.suppress(OSError):
                self._fh.close()  # the first error is the one reported
            if isinstance(exc, OSError):
                raise StorageError(path, str(exc)) from exc
            raise

    def _write_all(self, data: bytes, written: int = 0) -> None:
        """Write data from byte `written` on: a raw write may take only the
        first bytes it is given, and then only the rest goes again."""
        view = memoryview(data)
        while written < len(data):
            n = self._fh.write(view[written:])
            if not n:  # a write that takes nothing would never end the line
                raise OSError(f"write took none of {len(data) - written} bytes")
            written += n

    def write_row(self, row: PsychroRow) -> None:
        t = row.t_s
        if self._last_t is not None and t <= self._last_t:
            raise InvalidInputError(f"rows must have strictly increasing t_s: {t} after {self._last_t}")
        self._last_t = t
        if row.rh_pct is not None:  # a row's humidity is both values or neither
            line = (_ROW_FORMAT % row).encode()
        else:
            line = (_ROW_FORMAT_NO_HUMIDITY % row[:6]).encode()
        self.rows += 1  # no call between count and write: an interrupt lands before or after both
        try:
            written = self._fh.write(line)
            if written != len(line):
                self._write_all(line, written)
            self._fh.flush()
        except OSError as exc:
            self.rows -= 1  # the row is not whole on disk
            raise StorageError(self.path, str(exc)) from exc

    def abort(self, reason: str) -> None:
        """Append the one line of an aborted run's trailer, `# aborted = tick <rows>: reason`;
        a character of reason that UTF-8 cannot encode is written as its backslash escape."""
        # a line break in reason would start a line of its own, and a failed encode would leave no trailer
        line = f"# aborted = tick {self.rows}: {' '.join(reason.splitlines())}\r\n".encode("utf-8", "backslashreplace")
        try:
            self._write_all(line)
        except OSError as exc:
            raise StorageError(self.path, str(exc)) from exc

    def close(self) -> None:
        """Close the file; every line is already written."""
        try:
            self._fh.close()
        except OSError as exc:
            raise StorageError(self.path, str(exc)) from exc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def write_csv(run: RunLog, path) -> None:
    """Write a complete run to path in the documented CSV format."""
    with CsvWriter(path, run.meta) as writer:
        write_row = writer.write_row
        for row in run.rows:
            write_row(row)


def _has_literal_marks(text: str) -> bool:
    """True if text holds a non-ASCII character or an ASCII mark that
    float()/int() take in a number: '_' or whitespace, CR included."""
    return (
        not text.isascii()
        or " " in text
        or "_" in text
        or "\t" in text
        or "\r" in text
        or "\x0b" in text
        or "\x0c" in text
    )


def _require_plain(text: str, line_no: int, name: str) -> None:
    """Reject a number float()/int() take but write_csv never writes: one
    holding '_', whitespace or a non-ASCII character (a digit such as U+0669
    included). A file holding one would not rewrite byte for byte."""
    if _has_literal_marks(text):
        raise CsvParseError(line_no, f"bad {name} value {text!r}")


def _bad_number(cells: list, line_no: int) -> CsvParseError:
    """The error for a data row whose one-pass parse raised ValueError: it
    names the first numeric cell, in column order, that int() (a code) or
    float() (any other number; an empty humidity cell is a missing value)
    rejects."""
    for i, name in _NUMERIC_COLUMNS:
        text = cells[i]
        try:
            if name.endswith("_code"):
                int(text)
            elif text or name not in ("rh_pct", "dew_point_c"):
                float(text)
        except ValueError:
            break
    return CsvParseError(line_no, f"bad {name} value {text!r}")


def _parse_meta(key: str, text: str, line_no: int):
    """The value of one metadata line, or a CsvParseError at that line: the
    rate as a finite float, the channels as CHANNELS and nothing else, and
    any other key's text as it is."""
    if key == "sample_rate_hz":
        _require_plain(text, line_no, key)
        try:
            return _finite6(key, float(text))
        except InvalidInputError as exc:  # a rate that is not finite; a ValueError too, so caught first
            raise CsvParseError(line_no, str(exc)) from None
        except ValueError:
            raise CsvParseError(line_no, f"bad {key} value {text!r}") from None
    if key == "channels" and text != CHANNELS:
        raise CsvParseError(line_no, f"channels must be {CHANNELS}, got {text!r}")
    return text


def read_rows(path, sink) -> RunMeta:
    """Read a file produced by write_csv, hand each row to sink in file order,
    and return the file's RunMeta.

    The file is read a line at a time and never held whole. A `#` line whose
    first word (up to whitespace or '=') is a metadata key must read exactly
    `# key = value`, above the header and once, or it is a CsvParseError;
    other `#` lines are free text. Metadata lines may be absent (hand-written
    files), and each value is checked as its line is read (a channels line
    must hold CHANNELS); data rows are validated for column count, types and
    strictly increasing t_s, and a value PsychroRow or RunMeta rejects
    (non-finite floats, codes outside 0..255, RH outside 0..100, one humidity
    value without the other) is a CsvParseError too, as is a number holding
    '_', whitespace or a non-ASCII character, and a byte that is not UTF-8.
    A leading BOM is skipped. Lines end in LF or CRLF. Errors carry the
    1-based line number, counting LF-separated lines, and sink has had every
    row before it; a file that cannot be read is a CsvParseError at line 0.
    """
    try:
        # only LF ends a line, and a byte that is not UTF-8 reads as a lone surrogate
        fh = open(path, encoding="utf-8-sig", errors="surrogateescape", newline="\n")
    except OSError as exc:
        raise CsvParseError(0, f"cannot read input: {path}: {exc}") from exc
    meta: dict = {}  # key -> its value, checked at its own line
    comment_line_no = 0
    header_seen = False
    last_t = None
    with fh:
        # readline, not iteration: a wrapper that forwards fh's attributes but
        # not __iter__ (a traced perfbench pass counts flushes with one) reads too.
        # Only the read is in the try: a failed read is line 0, and an error
        # sink raises is left as it is.
        readline = fh.readline
        line_no = 0
        while True:
            try:
                line = readline()
            except OSError as exc:
                raise CsvParseError(0, f"cannot read input: {path}: {exc}") from exc
            if line == "":
                break
            line_no += 1
            if not line.isascii():
                try:  # the line end included: a sequence cut by a CR is an invalid continuation
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    message = f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
                    raise CsvParseError(line_no, message) from None
            line = line.removesuffix("\n").removesuffix("\r")
            if line == "":
                continue
            if line[0] == "#":
                comment_line_no = line_no
                key = _FIRST_WORD.match(line)[1]
                if key in _META_KEYS:  # any other comment is free-form text
                    prefix = f"# {key} = "
                    if header_seen or key in meta or not line.startswith(prefix):
                        rule = "after the header" if header_seen else "twice" if key in meta else f"not as '{prefix}value'"
                        raise CsvParseError(line_no, f"{key} line {rule}")
                    meta[key] = _parse_meta(key, line[len(prefix) :].rstrip(), line_no)
                continue
            if not header_seen:
                if line != HEADER:
                    raise CsvParseError(line_no, f"expected header {HEADER!r}, found {line!r}")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != _NCOLS:
                raise CsvParseError(line_no, f"expected {_NCOLS} columns, found {len(cells)}")
            if _has_literal_marks(line):  # rows write_csv wrote have none
                for i, name in _NUMERIC_COLUMNS:
                    _require_plain(cells[i], line_no, name)
            t_s, timestamp, dry_code, dry_temp, wet_code, wet_temp, rh, dew = cells
            try:
                row = PsychroRow(
                    float(t_s),
                    timestamp,
                    int(dry_code),
                    float(dry_temp),
                    int(wet_code),
                    float(wet_temp),
                    float(rh) if rh else None,
                    float(dew) if dew else None,
                )
            # InvalidInputError is a ValueError too, so it is caught first
            except InvalidInputError as exc:
                raise CsvParseError(line_no, str(exc)) from None
            except ValueError:
                raise _bad_number(cells, line_no) from None
            t = row.t_s
            if last_t is not None and t <= last_t:
                raise CsvParseError(line_no, f"t_s not increasing: {t} after {last_t}")
            last_t = t
            sink(row)
    if not header_seen:
        raise CsvParseError(max(comment_line_no, 1), "missing header line")

    return RunMeta(
        run_id=meta.get("run_id", ""),
        start=meta.get("start", ""),
        sample_rate_hz=meta.get("sample_rate_hz", 0.0),
        config_fingerprint=meta.get("config", ""),
    )


def read_csv(path) -> RunLog:
    """Read a file produced by write_csv (exact inverse): read_rows, with the
    rows collected into the returned RunLog."""
    rows: list = []
    meta = read_rows(path, rows.append)
    return RunLog(meta=meta, rows=rows)


def read_series(path, column: str):
    """(t_s values, column values) of the rows whose column has a value, as
    two array("d"): read_rows keeping two columns, not the rows. A column
    not in SERIES_COLUMNS raises InvalidInputError before the file is opened."""
    if column not in SERIES_COLUMNS:
        raise InvalidInputError(f"column must be one of {', '.join(SERIES_COLUMNS)}; got {column!r}")
    index = _COLUMNS.index(column)
    t_values, values = array("d"), array("d")

    def keep(row):
        value = row[index]
        if value is not None:
            t_values.append(row.t_s)
            values.append(value)

    read_rows(path, keep)
    return t_values, values
