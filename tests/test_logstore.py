import codecs
import copy
import functools
import hashlib
import json
import math
import os
import pickle
import random
import struct
import sys
import tempfile
from datetime import datetime
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraloq import (
    Channel,
    Constant,
    CsvParseError,
    InvalidInputError,
    RunConfig,
    StorageError,
    logstore,
    read_csv,
    run_acquisition,
    write_csv,
)
from paraloq.errors import FLOAT_MAX
from paraloq.logstore import (
    HEADER,
    CsvWriter,
    PsychroRow,
    RunLog,
    RunMeta,
    _finite6,
    fingerprint,
    read_rows,
)

# the benchmark's recorded digests: the one source of truth for golden outputs
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8"))

META = RunMeta(
    run_id="20260810T120000_00000001",
    start="2026-08-10T12:00:00.000",
    sample_rate_hz=2.0,
    channels={"dry": 0, "wet": 1},
    config_fingerprint="abc123def456",
)


def make_row(k, rate=2.0, rh=60.0, dew=12.0):
    return PsychroRow(
        t_s=k / rate,
        timestamp=f"2026-08-10T12:00:{k:02d}.000",
        dry_code=102,
        dry_temp_c=20.0,
        wet_code=92,
        wet_temp_c=18.039216,
        rh_pct=rh,
        dew_point_c=dew,
    )


class TestWrite:
    def test_empty_run_is_metadata_and_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(RunLog(meta=META, rows=[]), path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        assert lines[-1] == ""  # trailing CRLF
        body = [line for line in lines if line]
        assert body[:5] == [
            "# run_id = 20260810T120000_00000001",
            "# start = 2026-08-10T12:00:00.000",
            "# sample_rate_hz = 2.000000",
            "# channels = dry=0,wet=1",
            "# config = abc123def456",
        ]
        assert body[5] == HEADER
        assert HEADER == "t_s,timestamp,dry_code,dry_temp_c,wet_code,wet_temp_c,rh_pct,dew_point_c"
        assert len(body) == 6

    def test_single_row_formatting(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(RunLog(meta=META, rows=[make_row(0, rh=None, dew=None)]), path)
        last = path.read_text(encoding="utf-8").splitlines()[-1]
        assert last == "0.000000,2026-08-10T12:00:00.000,102,20.000000,92,18.039216,,"

    def test_line_endings_are_crlf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        write_csv(RunLog(meta=META, rows=[make_row(0)]), path)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")

    def test_unwritable_path_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            write_csv(RunLog(meta=META, rows=[]), tmp_path / "missing" / "x.csv")

    @pytest.mark.parametrize(
        "ks, message", [((1, 0), "0.0 after 0.5"), ((0, 0), "0.0 after 0.0")], ids=["back", "same"]
    )
    def test_rows_must_advance_in_time(self, tmp_path, ks, message):
        rows = [make_row(k) for k in ks]
        with pytest.raises(InvalidInputError, match=rf"^rows must have strictly increasing t_s: {message}$"):
            write_csv(RunLog(meta=META, rows=rows), tmp_path / "bad.csv")

    def test_streaming_writer_flushes_each_row(self, tmp_path):
        path = tmp_path / "stream.csv"
        with CsvWriter(path, META) as writer:
            writer.write_row(make_row(0))
            # visible on disk while the writer is still open
            assert path.read_text(encoding="utf-8").strip().endswith("12.000000")
            writer.write_row(make_row(1))
        assert len(read_csv(path).rows) == 2

    def test_a_failed_flush_or_close_is_a_storage_error(self, tmp_path):
        # a full disk shows at flush, which raised a bare OSError
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                return self.fh.write(text)

            def flush(self):
                raise OSError(28, "No space left on device")

            def close(self):
                self.fh.close()
                self.flush()

        path = tmp_path / "full.csv"
        writer = CsvWriter(path, META)
        writer._fh = FullDisk(writer._fh)
        with pytest.raises(StorageError, match="No space left"):
            writer.write_row(make_row(0))
        with pytest.raises(StorageError, match="No space left"):
            writer.close()

    def test_a_header_write_that_raises_anything_closes_the_file(self, tmp_path, monkeypatch):
        # only an OSError closed it; a Ctrl-C mid-header left the handle open
        handles = []

        def interrupted(self, data, written=0):
            handles.append(self._fh)
            raise KeyboardInterrupt

        monkeypatch.setattr(CsvWriter, "_write_all", interrupted)
        with pytest.raises(KeyboardInterrupt):
            CsvWriter(tmp_path / "x.csv", META)
        assert len(handles) == 1 and handles[0].closed

    def test_a_write_that_takes_7_bytes_a_call_writes_the_steady_golden_log(self, tmp_path, monkeypatch):
        # a raw write may take only the first bytes of a line; only the rest goes again
        run = run_acquisition(
            RunConfig(
                duration_s=600.0,
                stimuli={Channel.DRY: Constant(19.92858), Channel.WET: Constant(18.02167)},
                seed=0,
                start_time=datetime(2026, 8, 10, 12),
            )
        )
        whole = tmp_path / "whole.csv"
        write_csv(run, whole)
        assert hashlib.sha256(whole.read_bytes()).hexdigest() == GOLDEN["steady"]["csv_sha256"]
        writes = []

        class Trickle:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(len(data))
                return self.fh.write(data[:7])

            def flush(self):
                self.fh.flush()

            def close(self):
                self.fh.close()

        monkeypatch.setattr(logstore, "open", lambda *args, **kwargs: Trickle(open(*args, **kwargs)), raising=False)
        trickled = tmp_path / "trickled.csv"
        write_csv(run, trickled)
        assert trickled.read_bytes() == whole.read_bytes()
        # every byte went through the 7-byte writes
        assert sum(min(n, 7) for n in writes) == len(whole.read_bytes())

    def test_a_full_disk_on_the_third_row_keeps_the_header_and_two_whole_rows(self, tmp_path):
        class FullOnThirdRow:
            def __init__(self, fh):
                self.fh = fh
                self.rows = 0

            def write(self, data):
                self.rows += 1
                if self.rows == 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def flush(self):
                self.fh.flush()

            def close(self):
                self.fh.close()

        path, two = tmp_path / "full.csv", tmp_path / "two.csv"
        writer = CsvWriter(path, META)
        writer._fh = FullOnThirdRow(writer._fh)
        writer.write_row(make_row(0))
        writer.write_row(make_row(1))
        with pytest.raises(StorageError, match="No space left"):
            writer.write_row(make_row(2))
        writer.close()
        assert writer.rows == 2  # the rows on disk, not the rows tried
        write_csv(RunLog(meta=META, rows=[make_row(0), make_row(1)]), two)
        assert path.read_bytes() == two.read_bytes()

    def test_a_write_that_takes_nothing_is_a_storage_error(self, tmp_path):
        path = tmp_path / "stuck.csv"
        writer = CsvWriter(path, META)
        writer._fh.write = lambda data: 0
        with pytest.raises(StorageError, match="write took none of"):
            writer.write_row(make_row(0))
        writer.close()

    def test_a_comment_that_cannot_be_written_is_a_storage_error(self, tmp_path):
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                raise OSError(28, "No space left on device")

            def close(self):
                self.fh.close()

        writer = CsvWriter(tmp_path / "full.csv", META)
        writer._fh = FullDisk(writer._fh)
        with pytest.raises(StorageError, match="No space left"):
            writer.comment("aborted = tick 0: interrupted")
        writer.close()

    def test_the_aborted_trailer_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "aborted.csv"
        writer = CsvWriter(path, META)
        writer.write_row(make_row(0))
        writer.comment("aborted = tick 1: interrupted")
        assert path.read_bytes().endswith(b"12.000000\r\n# aborted = tick 1: interrupted\r\n")
        writer.close()


# a log's first three lines: a comment, the header and the row at t_s 0.0
_LOG_START = b"# run_id = x\r\n" + HEADER.encode() + b"\r\n0.0,t,102,20.0,92,18.0,,\r\n"


class TestRead:
    def test_round_trip_identity(self, tmp_path):
        run = RunLog(meta=META, rows=[make_row(k) for k in range(5)])
        path = tmp_path / "rt.csv"
        write_csv(run, path)
        assert read_csv(path) == run

    def test_reserialization_is_byte_stable(self, tmp_path):
        run = RunLog(meta=META, rows=[make_row(k) for k in range(4)])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run, first)
        write_csv(read_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("blank", [b"\n", b"\r\n", b"\n\r\n"], ids=["lf", "crlf", "both"])
    def test_blank_lines_change_no_row(self, tmp_path, blank):
        # before the first comment and the header, between rows and at the end
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        write_csv(RunLog(meta=META, rows=[make_row(k) for k in range(3)]), plain)
        lines = plain.read_bytes().split(b"\r\n")[:-1]
        spaced.write_bytes(blank + b"".join(line + b"\r\n" + blank for line in lines))
        expected, rows = [], []
        assert read_rows(spaced, rows.append) == read_rows(plain, expected.append)
        assert rows == expected == [make_row(k) for k in range(3)]

    def test_wrong_column_count_names_the_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(HEADER + "\n0.0,x,102,20.0,92,18.0,50.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.line_no == 2
        assert "7" in str(err.value)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("t_s,timestamp,dry_code,extra\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.line_no == 1

    def test_hand_written_minimal_file(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,t0,102,20.0,92,18.0,,\n"
            "0.5,t1,51,10.0,41,8.039216,55.5,7.25\n",
            encoding="utf-8",
        )
        run = read_csv(path)
        assert len(run.rows) == 2
        assert run.rows[0].rh_pct is None
        assert run.rows[1].dry_temp_c == 10.0
        assert run.meta.run_id == ""  # no metadata lines present
        # hand arithmetic: mean of 20 and 10
        assert (run.rows[0].dry_temp_c + run.rows[1].dry_temp_c) / 2 == 15.0

    def test_bad_code_value_rejected(self, tmp_path):
        path = tmp_path / "code.csv"
        path.write_text(HEADER + "\n0.0,t,300,20.0,92,18.0,,\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)
        path.write_text(HEADER + "\n0.0,t,xx,20.0,92,18.0,,\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("t_s", "x"),
            ("dry_code", "x"),
            ("dry_code", "1e"),
            ("dry_code", "1.5"),
            ("dry_temp_c", "x"),
            ("wet_code", "x"),
            ("wet_code", "1e"),
            ("wet_temp_c", "x"),
            ("wet_temp_c", ""),
            ("rh_pct", "x"),
            ("dew_point_c", "x"),
        ],
    )
    def test_a_non_number_names_its_column_and_line(self, tmp_path, column, cell):
        cells = dict(zip(HEADER.split(","), "0.5,t,102,20.0,92,18.0,50.0,12.0".split(",")))
        cells[column] = cell
        path = tmp_path / "bad.csv"
        path.write_text(
            HEADER + "\n0.0,t,102,20.0,92,18.0,,\n" + ",".join(cells.values()) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert str(err.value) == f"line 3: bad {column} value {cell!r}"
        assert err.value.line_no == 3

    def test_the_first_non_number_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n0.0,t,102,x,1e,y,z,\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="line 2: bad dry_temp_c value 'x'"):
            read_csv(path)

    @pytest.mark.parametrize(
        "row,field",
        [
            ("0.5,t,1_0,20.0,92,18.0,,", "dry_code"),
            ("0.5,t,102,2_0.5,92,18.0,,", "dry_temp_c"),
            ("0.5,t,102,20.0,92, 18.0,,", "wet_temp_c"),
            ("0.5,t,102,20.0,92,18.0\t,,", "wet_temp_c"),
            ("0.5,t,102,20.0,92,18.0\r,,", "wet_temp_c"),
            ("0.5,t,102,20.0,92,18.0,50.0,\x0c12.0", "dew_point_c"),
            ("0.5,t,102,20.0,\u0669\u0662,18.0,,", "wet_code"),
            ("0.5,t,102,20.0,92,18.0,50.0,12.0\u00a0", "dew_point_c"),
        ],
    )
    def test_python_literal_syntax_in_a_number_rejected(self, tmp_path, row, field):
        # float() and int() take '_' separators, surrounding whitespace and
        # non-ASCII digits; write_csv never writes them, so a rewrite would differ
        path = tmp_path / "literal.csv"
        path.write_text(HEADER + "\n0.0,t,102,20.0,92,18.0,,\n" + row + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=field) as err:
            read_csv(path)
        assert err.value.line_no == 3

    def test_python_literal_syntax_in_metadata_rejected(self, tmp_path):
        path = tmp_path / "literal_meta.csv"
        for text, field in [
            ("# sample_rate_hz = 2_0\n" + HEADER + "\n", "sample_rate_hz"),
            ("# channels = dry= 0\n" + HEADER + "\n", "channel index"),
            # the error names the key's own line, not the last comment line
            ("# channels = dry=0,wet=x\n# note\n" + HEADER + "\n", "bad channel index 'x'"),
            ("# sample_rate_hz = 2_0\n" + HEADER + "\n0.0,t,102,20.0,92,18.0,,\n# aborted = tick 1: x\n", "sample_rate_hz"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CsvParseError, match=field) as err:
                read_csv(path)
            assert err.value.line_no == 1

    def test_a_channels_entry_without_an_index_names_its_line(self, tmp_path):
        path = tmp_path / "channels.csv"
        path.write_text("# run_id = x\n# channels = dry=0,wet\n" + HEADER + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="^line 2: bad channels entry 'wet'$"):
            read_csv(path)

    def test_a_sample_rate_that_is_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text("# run_id = x\n# sample_rate_hz = abc\n" + HEADER + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="^line 2: bad sample_rate_hz value 'abc'$"):
            read_csv(path)

    def test_out_of_range_humidity_names_the_line(self, tmp_path):
        path = tmp_path / "rh.csv"
        path.write_text(
            HEADER + "\n0.0,t,102,20.0,92,18.0,80.0,16.0\n0.5,t,102,20.0,92,18.0,150.0,16.0\n",
            encoding="utf-8",
        )
        with pytest.raises(CsvParseError, match="rh_pct") as err:
            read_csv(path)
        assert err.value.line_no == 3

    def test_a_cr_in_a_timestamp_names_the_line(self, tmp_path):
        # in a file a LF or ',' splits the cell, so of the three only a CR reaches the row
        path = tmp_path / "cr.csv"
        path.write_bytes((HEADER + "\r\n0.0,t,102,20.0,92,18.0,,\r\n0.5,t\rx,102,20.0,92,18.0,,\r\n").encode())
        with pytest.raises(CsvParseError, match="timestamp must not hold") as err:
            read_csv(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("# sample_rate_hz = nan\n" + HEADER + "\n", 1),
            # an aborted run's trailer is the last comment line; the error names the rate's
            (
                "# run_id = x\r\n# sample_rate_hz = nan\r\n" + HEADER + "\r\n0.0,t,102,20.0,92,18.0,,\r\n"
                "0.5,t,102,20.0,92,18.0,,\r\n# aborted = tick 1: interrupted\r\n",
                2,
            ),
        ],
        ids=["alone", "before-a-trailer"],
    )
    def test_non_finite_sample_rate_is_a_parse_error(self, tmp_path, text, line_no):
        path = tmp_path / "rate.csv"
        path.write_bytes(text.encode())
        with pytest.raises(CsvParseError, match="sample_rate_hz must be finite") as err:
            read_csv(path)
        assert err.value.line_no == line_no

    def test_non_increasing_time_rejected(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text(
            HEADER + "\n1.0,t,102,20.0,92,18.0,,\n0.5,t,102,20.0,92,18.0,,\n",
            encoding="utf-8",
        )
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "text, line_no, rows",
        [
            ("# sample_rate_hz = nan\n" + HEADER + "\n0.0,t,102,20.0,92,18.0,,\n0.5,t,102,20.0,92,18.0,,\n", 1, 0),
            (
                HEADER + "\n0.0,t,102,20.0,92,18.0,,\n# channels = dry=0,wet=x\n0.5,t,102,20.0,92,18.0,,\n",
                3,
                1,
            ),
        ],
        ids=["rate-before-the-rows", "channels-between-two-rows"],
    )
    def test_a_bad_metadata_value_stops_the_read_at_its_line(self, tmp_path, text, line_no, rows):
        # the value is checked as its line is read, so no later row reaches the sink
        path = tmp_path / "meta.csv"
        path.write_text(text, encoding="utf-8")
        seen = []
        with pytest.raises(CsvParseError) as err:
            read_rows(path, seen.append)
        assert err.value.line_no == line_no
        assert len(seen) == rows

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("# run_id = x\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_free_comments_are_ignored(self, tmp_path):
        path = tmp_path / "note.csv"
        path.write_text(
            "# a free-form note\n" + HEADER + "\n0.0,t,102,20.0,92,18.0,,\n",
            encoding="utf-8",
        )
        assert len(read_csv(path).rows) == 1

    @pytest.mark.parametrize("brk", ["\u2028", "\x0c"])
    def test_only_lf_ends_a_line(self, tmp_path, brk):
        # str.splitlines() also breaks on these, which split a free-form
        # comment in two and made its second part look like a bad header
        path = tmp_path / "note.csv"
        path.write_text(
            f"# first part{brk}second part\n" + HEADER + "\n0.0,t,102,20.0,92,18.0,,\n"
            f"0.5,t{brk},102,20.0,92,18.0,,\n0.5,t,102,20.0,92,18.0,,\n",
            encoding="utf-8",
            newline="",
        )
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.line_no == 5  # LF-separated lines, comment included
        assert "t_s not increasing" in str(err.value)

    @pytest.mark.parametrize(
        "data, line_no, message",
        [
            (_LOG_START + b"0.5,t\xff,102,20.0,92,18.0,,\n", 4, "byte 0xff (invalid start byte)"),
            (_LOG_START + b"0.5,t\xe2\x82,102,20.0,92,18.0,,\n", 4, "byte 0xe2 (invalid continuation byte)"),
            (_LOG_START + b"# note \xc0\xaf\n", 4, "byte 0xc0 (invalid start byte)"),
            (_LOG_START + b"0.5,t,102,20.0,92,18.0,,\n\n0.0,t\xc3", 6, "byte 0xc3 (unexpected end of data)"),
            # a UTF-16 surrogate encoded as UTF-8, which UTF-8 forbids
            (_LOG_START + b"0.5,t\xed\xb2\x80,102,20.0,92,18.0,,\n", 4, "byte 0xed (invalid continuation byte)"),
            # a sequence cut by the CR of a CRLF: the CR is not a continuation byte
            (_LOG_START + b"0.0,t\xc3\r\n", 4, "byte 0xc3 (invalid continuation byte)"),
            (b"# run_id = x\r\nt_s,\xfftimestamp\r\n", 2, "byte 0xff (invalid start byte)"),
            (codecs.BOM_UTF8 + b"\xff" + HEADER.encode() + b"\r\n", 1, "byte 0xff (invalid start byte)"),
        ],
        ids=[
            "invalid-start",
            "cut-sequence",
            "in-a-comment",
            "cut-at-end",
            "encoded-surrogate",
            "cut-by-crlf",
            "in-the-header",
            "after-a-bom",
        ],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line_no, message):
        # the whole file was decoded at once, and a bad byte raised a bare UnicodeDecodeError
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        rows = []
        with pytest.raises(CsvParseError) as err:
            read_rows(path, rows.append)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: not UTF-8: {message}"
        assert [row.t_s for row in rows] == [0.0, 0.5][: max(line_no - 3, 0)]  # every row before that line

    def test_a_byte_that_is_not_utf8_after_a_bom_names_its_line(self, tmp_path):
        # the BOM a spreadsheet writes is skipped, and counts as no line
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + HEADER.encode() + b"\r\n0.0,t,102,20.0,92,18.0,,\r\n0.5,t\xff,1")
        rows = []
        with pytest.raises(CsvParseError, match=r"^line 3: not UTF-8: byte 0xff \(invalid start byte\)$"):
            read_rows(path, rows.append)
        assert [row.t_s for row in rows] == [0.0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's /proc")
    def test_a_file_that_opens_but_cannot_be_read_is_a_parse_error(self):
        # /proc/self/mem opens, and reading it from offset 0 fails with EIO
        with pytest.raises(CsvParseError) as err:
            read_rows("/proc/self/mem", [].append)
        assert err.value.line_no == 0
        assert str(err.value) == "line 0: cannot read input: /proc/self/mem: [Errno 5] Input/output error"

    def test_an_os_error_a_sink_raises_is_left_as_it_is(self, tmp_path):
        # only the read is a parse error at line 0; a sink writing to a full disk is not
        path = tmp_path / "run.csv"
        write_csv(RunLog(meta=META, rows=[make_row(k) for k in range(5)]), path)
        rows = []
        full = OSError(28, "No space left on device")

        def sink(row):
            if len(rows) == 2:
                raise full
            rows.append(row)

        with pytest.raises(OSError) as err:
            read_rows(path, sink)
        assert err.value is full
        assert rows == [make_row(0), make_row(1)]

    def test_a_read_that_fails_after_two_rows_is_line_0_with_both_rows_sunk(self, tmp_path, monkeypatch):
        path = tmp_path / "run.csv"
        path.write_text(f"{HEADER}\n0.0,t,102,20.0,92,18.0,,\n0.5,t,102,20.0,92,18.0,,\n", encoding="utf-8")

        class FailingReader:
            """Gives the header and two rows, then fails; it has readline and no __iter__."""

            def __init__(self, *args, **kwargs):
                self._lines = iter(path.read_text(encoding="utf-8").splitlines(keepends=True))

            def readline(self):
                line = next(self._lines, None)
                if line is None:
                    raise OSError(5, "Input/output error")
                return line

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(logstore, "open", FailingReader, raising=False)
        rows = []
        with pytest.raises(CsvParseError) as err:
            read_rows(path, rows.append)
        assert err.value.line_no == 0
        assert str(err.value) == f"line 0: cannot read input: {path}: [Errno 5] Input/output error"
        assert [(row.t_s, row.timestamp) for row in rows] == [(0.0, "t"), (0.5, "t")]

    def test_only_a_row_holding_a_mark_is_checked_field_by_field(self, tmp_path, monkeypatch):
        # an aborted run's trailer holds spaces and '_', and once sent every row around it to the check
        rows = [make_row(k) for k in range(50)]
        rows[9] = rows[9]._replace(timestamp="2026-08-10 12:00:09.000")
        path = tmp_path / "aborted.csv"
        with CsvWriter(path, META) as writer:
            for row in rows:
                writer.write_row(row)
            writer.comment("aborted = tick 50: interrupted")
        checked = []
        require_plain = logstore._require_plain

        def counted(text, line_no, name):
            checked.append((line_no, name))
            require_plain(text, line_no, name)

        monkeypatch.setattr(logstore, "_require_plain", counted)
        assert read_csv(path) == RunLog(meta=META, rows=rows)
        # row 10 is on line 16; the metadata's rate and channel indexes are checked under their own names
        assert {line_no for line_no, name in checked if name in PsychroRow._fields} == {16}

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_lf_and_crlf_files_read_alike(self, tmp_path, eol):
        path = tmp_path / "eol.csv"
        text = eol.join(["# run_id = x", HEADER, "0.0,t,102,20.0,92,18.0,,", ""])
        path.write_text(text, encoding="utf-8", newline="")
        run = read_csv(path)
        assert run.meta.run_id == "x"
        assert [row.timestamp for row in run.rows] == ["t"]


codes = st.integers(min_value=0, max_value=255)
temps = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
optional_pct = st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False))


@st.composite
def run_logs(draw):
    rate = draw(st.sampled_from([0.5, 1.0, 2.0, 8.0]))
    n = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for k in range(n):
        dry = draw(temps)
        rows.append(
            PsychroRow(
                t_s=k / rate,
                timestamp=f"2026-08-10T12:00:{k:02d}.000",
                dry_code=draw(codes),
                dry_temp_c=dry,
                wet_code=draw(codes),
                wet_temp_c=draw(temps),
                rh_pct=draw(optional_pct),
                # a row rejects dew above dry; test_row_rejects_dew_above_dry draws the rest
                dew_point_c=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=dry))),
            )
        )
    meta = RunMeta(
        run_id=draw(st.text(alphabet="0123456789abcdef", min_size=0, max_size=12)),
        start="2026-08-10T12:00:00.000",
        sample_rate_hz=rate,
        channels={"dry": 0, "wet": 1},
        config_fingerprint=draw(st.text(alphabet="0123456789abcdef", max_size=12)),
    )
    return RunLog(meta=meta, rows=rows)


@settings(max_examples=60, deadline=None)
@given(run=run_logs())
def test_round_trip_property(run, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "run.csv"
    write_csv(run, path)
    assert read_csv(path) == run


# -- block seams ---------------------------------------------------------------

# the text reader read_rows opens decodes a log _CHUNK_SIZE bytes at a time
# (8192 by default); these sizes put a seam inside every CRLF, every
# multi-byte character and every field of a small log
SEAM_BLOCK_SIZES = (1, 2, 7, 8192)


def _read_at_every_block_size(path) -> list:
    """What read_rows gives at each of SEAM_BLOCK_SIZES: the rows handed to
    the sink, then the RunMeta or the CsvParseError's line and message."""
    outcomes = []
    for size in SEAM_BLOCK_SIZES:

        def open_in_chunks(*args, size=size, **kwargs):
            fh = open(*args, **kwargs)
            fh._CHUNK_SIZE = size
            opened.append(fh)
            return fh

        rows, opened = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logstore, "open", open_in_chunks, raising=False)
            try:
                end = read_rows(path, rows.append)
            except CsvParseError as exc:
                end = (exc.line_no, str(exc))
        assert len(opened) == 1  # read_rows read through the patched open
        outcomes.append((rows, end))
    return outcomes


def _assert_seams_change_nothing(path):
    first, *others = _read_at_every_block_size(path)
    for size, outcome in zip(SEAM_BLOCK_SIZES[1:], others):
        assert outcome == first, f"block size {size} reads otherwise than block size 1"


# a timestamp may hold any text but ',', CR and LF: non-ASCII (multi-byte
# UTF-8), '_' and spaces included, which send its row to the per-field check;
# the draws hold lone surrogates too, which no row takes
stamps = st.text(alphabet=st.characters(exclude_characters=",\r\n", exclude_categories=()), max_size=4)


def _has_surrogate(text: str) -> bool:
    return any("\ud800" <= ch <= "\udfff" for ch in text)


def _refuses_surrogate_stamp(stamp: str) -> bool:
    """True, once the row has refused it, if stamp holds a lone surrogate."""
    if not _has_surrogate(stamp):
        return False
    with pytest.raises(InvalidInputError, match="^timestamp must encode as UTF-8"):
        PsychroRow(0.0, stamp, 102, 20.0, 92, 18.0)
    return True


@settings(max_examples=150, deadline=None)
@given(
    run=run_logs(),
    stamp=stamps,
    trailer=st.booleans(),
    bom=st.booleans(),
    edit=st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=255))),
)
def test_block_seams_change_nothing(run, stamp, trailer, bom, edit, tmp_path_factory):
    # a log write_csv wrote, perhaps with an aborted run's trailer, perhaps
    # saved by a spreadsheet with a leading BOM, perhaps with one byte changed
    if _refuses_surrogate_stamp(stamp):
        return
    path = tmp_path_factory.mktemp("seams") / "run.csv"
    run.rows[:1] = [row._replace(timestamp=stamp) for row in run.rows[:1]]
    write_csv(run, path)
    data = path.read_bytes()
    if trailer:
        data += f"# aborted = tick {len(run.rows)}: interrupted\r\n".encode()
    if bom:  # blocks of 1 and 2 bytes split it
        data = codecs.BOM_UTF8 + data
    if edit is not None:
        at, byte = edit[0] % len(data), edit[1]
        data = data[:at] + bytes([byte]) + data[at + 1 :]
    path.write_bytes(data)
    _assert_seams_change_nothing(path)
    if edit is None:
        assert read_csv(path) == run


def _format_row_reference(row):
    """The row formatter of the slots-dataclass row: one f-string per float."""

    def text(value):
        return "" if value is None else f"{value:.6f}"

    return ",".join(
        (
            f"{row.t_s:.6f}",
            row.timestamp,
            str(row.dry_code),
            f"{row.dry_temp_c:.6f}",
            str(row.wet_code),
            f"{row.wet_temp_c:.6f}",
            text(row.rh_pct),
            text(row.dew_point_c),
        )
    )


ROWS = [_format_row_reference(make_row(k)) for k in range(3)]


@pytest.mark.parametrize(
    "text",
    [
        # write_csv's own log: a seam falls inside each CRLF and inside the header
        "\r\n".join(["# run_id = x", "# sample_rate_hz = 2.000000", HEADER, *ROWS, ""]),
        # an aborted run's trailer, whose spaces and '_' are no row's
        "\r\n".join([HEADER, *ROWS, "# aborted = tick 3: interrupted", ""]),
        # a literal mark carried over in an unfinished last line
        "\r\n".join([HEADER, ROWS[0], ROWS[1].replace(",102,", ",1_02,"), ""]),
        "\r\n".join([HEADER, ROWS[0], ROWS[1].replace(",20.000000,", ", 20.000000,"), ""]),
        "\r\n".join([HEADER, ROWS[0], ROWS[1].replace(",92,", ",\u0669\u0662,"), ""]),
        "\r\n".join([HEADER, ROWS[0].replace("T12", "T\u00e912"), *ROWS[1:], ""]),
        # a CR inside a row, and a last line with no line end
        "\r\n".join([HEADER, ROWS[0], ROWS[1].replace(",92,", ",92\r,")]),
        "\n".join([HEADER, *ROWS]),
    ],
    ids=["crlf-header", "aborted-trailer", "underscore", "space", "arabic-digits", "accented-stamp", "cr", "no-eol"],
)
def test_block_seams_change_nothing_on_these_logs(tmp_path, text):
    path = tmp_path / "seams.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_seams_change_nothing(path)


@functools.cache
def _steady_log():
    """The bytes of the steady seed-0 log, ten minutes of the paper's constant
    dry/wet pair (the benchmark's steady golden log), and the row each of its
    row lines was written from. Not a fixture, so a failing example does not
    print the whole log."""
    stimuli = {Channel.DRY: Constant(19.92858), Channel.WET: Constant(18.02167)}
    run = run_acquisition(RunConfig(duration_s=600.0, stimuli=stimuli, start_time=datetime(2026, 8, 10, 12)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "steady.csv"
        write_csv(run, path)
        data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN["steady"]["csv_sha256"]
    return data, dict(zip((line for _, line in _row_lines(data)), run.rows))


def _row_lines(data: bytes):
    """(line number, line) of each line read_rows makes a row of, if it
    parses: after the first line that is neither blank nor a comment (the
    column header), each line that is neither."""
    lines = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
    taken = [(n, line.removesuffix(b"\r")) for n, line in enumerate(lines, start=1)]
    taken = [(n, line) for n, line in taken if line and not line.startswith(b"#")]
    return taken[1:]


positions = st.one_of(st.integers(min_value=0, max_value=700), st.integers(min_value=0))  # the metadata, or anywhere
inserted = st.one_of(st.binary(min_size=1, max_size=4), st.lists(st.sampled_from(b"\r\n#,.-_ 09eE\xef\xff")).map(bytes))
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), positions, st.integers(min_value=1, max_value=255)),
        st.tuples(st.just("insert"), positions, inserted),
        st.tuples(st.just("delete"), positions, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("truncate"), positions, st.none()),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(mutations=mutations)
def test_a_mutated_log_reads_to_its_error_line_and_no_further(mutations, tmp_path_factory):
    data, written = _steady_log()
    for kind, at, arg in mutations:
        at %= len(data) + 1
        if kind == "flip":
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ arg]) + data[at + 1 :]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + arg :]
        else:
            data = data[:at]
        if not data:
            break
    path = tmp_path_factory.mktemp("mutated") / "steady.csv"
    path.write_bytes(data)
    rows = []
    try:
        read_rows(path, rows.append)  # any exception but CsvParseError fails the test
        error_line = None
    except CsvParseError as exc:
        error_line = exc.line_no
    # a metadata value is checked at its own line too, so no row after an error line reaches the sink
    row_lines = [line for n, line in _row_lines(data) if error_line is None or n < error_line]
    assert len(rows) == len(row_lines)
    # a row line the mutations left as it was reads as the row it was written from
    for row, line in zip(rows, row_lines):
        assert row == written.get(line, row)


@pytest.mark.parametrize("field", ["dry_code", "wet_code"])
def test_row_rejects_a_bool_code(field):
    # bool is an int subclass: True used to be written as "True", which
    # read_csv then rejected as a bad code
    fields = dict(t_s=0.0, timestamp="t", dry_code=91, dry_temp_c=19.8, wet_code=91, wet_temp_c=17.9)
    fields[field] = True
    with pytest.raises(InvalidInputError, match=field):
        PsychroRow(**fields)


@pytest.mark.parametrize(
    "timestamp, message",
    [
        ("2026-08-10T12:00:00.000,x", "must not hold"),
        ("2026-08-10T12:00:00.000\nx", "must not hold"),
        ("2026-08-10T12:00:00.000\r", "must not hold"),
        (None, "must be a str, got None"),
        (1.5, "must be a str, got 1.5"),
        ("2026-08-10T12:00:00.000\udcff", "must encode as UTF-8"),
    ],
    ids=["comma", "LF", "CR", "None", "float", "lone surrogate"],
)
def test_row_rejects_a_timestamp_the_log_cannot_carry(timestamp, message):
    # a ',' wrote a 9-column line and a CR or LF broke the line, which read_csv
    # then rejected; None failed only in write_csv, with a bare TypeError, and a
    # lone surrogate there with a bare UnicodeEncodeError
    with pytest.raises(InvalidInputError, match=f"^timestamp {message}"):
        PsychroRow(0.0, timestamp, 102, 20.0, 92, 18.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"run_id": "a\nb"}, "^run_id must hold no LF"),  # the log failed with "line 2: expected header"
        ({"start": "x\r"}, "^start must hold no LF or trailing whitespace"),  # read back as "x"
        ({"run_id": " padded "}, "^run_id must hold no LF or trailing whitespace"),  # read back as " padded"
        ({"config_fingerprint": "abc\t"}, "^config_fingerprint must hold"),
        ({"run_id": None}, "^run_id must be a str, got None"),
        ({"start": 5}, "^start must be a str, got 5"),
        ({"channels": {"d,x": 0}}, "^a channel must be"),  # the log failed with "bad channels entry 'd'"
        ({"channels": {"d=x": 0}}, "^a channel must be"),
        ({"channels": {"d\nx": 0}}, "^a channel must be"),
        ({"channels": {0: 0}}, "^a channel must be"),
        ({"channels": [("dry", 0)]}, "^channels must be a mapping of name to mux input, got \\[\\('dry', 0\\)\\]$"),
        ({"channels": {"dry": True}}, "^a channel must be"),
        ({"channels": {"dry": 0.0}}, "^a channel must be"),
        # a lone surrogate built, then CsvWriter raised a bare UnicodeEncodeError and left its file open
        ({"run_id": "x\ud800"}, "^run_id must encode as UTF-8"),
        ({"start": "\udcff"}, "^start must encode as UTF-8"),
        ({"config_fingerprint": "\udfff"}, "^config_fingerprint must encode as UTF-8"),
        ({"channels": {"dry\ud800": 0}}, "^a channel name must encode as UTF-8"),
    ],
    ids=["run_id LF", "start CR", "run_id padded", "config tab", "run_id None", "start int",
         "channel comma", "channel equals", "channel LF", "channel int name", "channel pairs", "channel bool",
         "channel float",
         "run_id surrogate", "start surrogate", "config surrogate", "channel surrogate"],
)
def test_meta_rejects_text_a_log_line_cannot_carry_back(kwargs, message):
    with pytest.raises(InvalidInputError, match=message):
        RunMeta(**kwargs)


# any text, lone surrogates (category Cs) included: st.text() leaves them out
any_text = st.text(st.characters(exclude_categories=()))


@settings(max_examples=300, deadline=None)
@given(
    run_id=any_text,
    start=any_text,
    config_fingerprint=any_text,
    channels=st.dictionaries(any_text, st.integers()),
    lone=st.one_of(st.none(), st.characters(categories=("Cs",))),
)
def test_every_meta_that_builds_reads_back_equal(
    run_id, start, config_fingerprint, channels, lone, tmp_path_factory
):
    # any_text draws a lone surrogate only now and then; lone ends the run_id
    # with one in half the examples, so the refusal is tried on every run
    run_id += lone or ""
    if any(map(_has_surrogate, (run_id, start, config_fingerprint, *channels))):  # no log line can carry it
        with pytest.raises(InvalidInputError):
            RunMeta(run_id, start, 2.0, channels, config_fingerprint)
        return
    try:
        meta = RunMeta(run_id, start, 2.0, channels, config_fingerprint)
    except InvalidInputError:
        return
    path = tmp_path_factory.mktemp("meta") / "run.csv"
    write_csv(RunLog(meta, [make_row(0)]), path)
    assert read_csv(path) == RunLog(meta, [make_row(0)])


def test_meta_channels_are_a_read_only_copy(tmp_path):
    # a plain dict took an entry after the checks: "d,x" wrote a log that
    # read_csv rejected with "line 4: bad channels entry 'd'"
    given = {"dry": 0, "wet": 1}
    meta = RunMeta(run_id="x", sample_rate_hz=2.0, channels=given)
    given["d,x"] = 1
    with pytest.raises(TypeError):
        meta.channels["d,x"] = 1
    assert meta.channels == {"dry": 0, "wet": 1}
    # a read-only copy does not pickle; the meta still does, and copies as it did
    for copied in [pickle.loads(pickle.dumps(meta, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert copied == meta and type(copied.channels) is MappingProxyType
    assert copy.deepcopy(meta) == copy.copy(meta) == meta
    path = tmp_path / "run.csv"
    write_csv(RunLog(meta, [make_row(0)]), path)
    assert read_csv(path) == RunLog(meta, [make_row(0)])


@pytest.mark.parametrize("column", ["timestamp", "bogus", "t_s"])
def test_read_series_refuses_a_column_that_is_not_a_series_before_opening_the_file(tmp_path, column):
    # "timestamp" raised a bare TypeError and "bogus" a bare ValueError from tuple.index
    with pytest.raises(InvalidInputError, match=f"^column must be one of dry_code, .*, dew_point_c; got '{column}'$"):
        logstore.read_series(tmp_path / "missing.csv", column)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_s", None),
        ("dry_temp_c", None),
        ("wet_temp_c", float("nan")),
        ("dry_temp_c", float("-inf")),
        ("rh_pct", float("inf")),
        ("rh_pct", 150.0),
        ("rh_pct", -0.5),
        ("dew_point_c", float("nan")),
    ],
)
def test_row_rejects_an_impossible_value(field, value):
    fields = dict(t_s=0.0, timestamp="t", dry_code=91, dry_temp_c=19.8, wet_code=91, wet_temp_c=17.9)
    fields[field] = value
    with pytest.raises(InvalidInputError, match=field):
        PsychroRow(**fields)


@settings(max_examples=300, deadline=None)
@given(dry=temps, above=st.floats(min_value=1e-6, max_value=50.0))
def test_row_rejects_dew_above_dry(dry, above):
    # the rounded dew point above the rounded dry bulb: no air is saturated above its own temperature
    dew = round(dry, 6) + above
    with pytest.raises(InvalidInputError, match="dew_point_c .* is above dry_temp_c"):
        PsychroRow(0.0, "t", 91, dry, 91, 17.9, None, dew)
    PsychroRow(0.0, "t", 91, dry, 91, 17.9, None, dry)  # saturated air: dew equals dry


@pytest.mark.parametrize("field", ["t_s", "dry_temp_c", "wet_temp_c", "dew_point_c"])
def test_row_rejects_an_int_beyond_the_float_range(field):
    # round() keeps an int an int, and isfinite used to raise a bare OverflowError
    fields = dict(t_s=0.0, timestamp="t", dry_code=91, dry_temp_c=19.8, wet_code=91, wet_temp_c=17.9)
    fields[field] = 10**400
    with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
        PsychroRow(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((10**5000, "x", 1, 1.0, 1, 1.0), "t_s must be finite, got an int of 5001 digits"),
        ((0.0, "x", 10**5000, 1.0, 1, 1.0), "dry_code must be an integer 0..255, got an int of 5001 digits"),
        ((0.0, "x", 1, 1.0, 1, 1.0, -(10**5000)), "rh_pct must be finite and 0..100, got a negative int of 5001 digits"),
    ],
    ids=["t_s", "dry_code", "rh_pct"],
)
def test_row_rejects_an_int_too_long_for_str(fields, message):
    # past Python's 4,300-digit str limit the message used to fail to format,
    # raising a bare ValueError in place of InvalidInputError
    with pytest.raises(InvalidInputError) as err:
        PsychroRow(*fields)
    assert str(err.value) == message


def _finite6_reference(name, value):
    if value is None or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return round(value, 6)


def reference_row(t_s, timestamp, dry_code, dry_temp_c, wet_code, wet_temp_c, rh_pct, dew_point_c):
    """PsychroRow's rules written one field at a time, in field order: the
    field values it must hold, or the InvalidInputError it must raise."""
    for name, code in (("dry_code", dry_code), ("wet_code", wet_code)):
        if type(code) is not int or not (0 <= code <= 255):
            raise InvalidInputError(f"{name} must be an integer 0..255, got {code}")
    t_s = _finite6_reference("t_s", t_s)
    dry_temp_c = _finite6_reference("dry_temp_c", dry_temp_c)
    wet_temp_c = _finite6_reference("wet_temp_c", wet_temp_c)
    if rh_pct is not None:
        if not (0.0 <= rh_pct <= 100.0):
            raise InvalidInputError(f"rh_pct must be finite and 0..100, got {rh_pct!r}")
        rh_pct = round(rh_pct, 6)
    if dew_point_c is not None:
        dew_point_c = _finite6_reference("dew_point_c", dew_point_c)
        if dew_point_c > dry_temp_c:
            raise InvalidInputError(f"dew_point_c {dew_point_c} is above dry_temp_c {dry_temp_c}")
    return (t_s, timestamp, dry_code, dry_temp_c, wet_code, wet_temp_c, rh_pct, dew_point_c)


def _bits(values):
    # repr tells -0.0 from 0.0 and shows nan; type tells 1 from 1.0 and True
    return [(type(v), repr(v)) for v in values]


# each value a row can be given: mostly ones it takes, so the later checks are reached too
finite = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-7, 4.9999995e-7, -4.9999995e-7, 1e308]),
    # ties and the 1e6 edge, where _finite6 hands the value to round()
    st.sampled_from([12.3456785, -2.5e-6, 999999.9999995, math.nextafter(1e6, 0)]),
)
not_finite = st.sampled_from([None, float("nan"), float("inf"), float("-inf")])
temp = st.one_of(finite, finite, finite, not_finite)
code = st.one_of(*[st.integers(min_value=0, max_value=255)] * 3, st.sampled_from([-1, 256, True, False, 91.0]))
rh = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=-1.0, max_value=101.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 100.0, 100.0000001, -1e-9]),
)


@settings(max_examples=500, deadline=None)
@given(values=st.tuples(temp, st.just("t"), code, temp, code, temp, rh, st.one_of(st.none(), temp)))
def test_row_matches_its_field_by_field_reference(values):
    try:
        expected = reference_row(*values)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as err:
            PsychroRow(*values)
        assert str(err.value) == str(exc)
        return
    row = PsychroRow(*values)
    assert _bits(getattr(row, name) for name in PsychroRow._fields) == _bits(expected)


BASE_ROW = PsychroRow(0.5, "2026-08-10T12:00:00.500", 102, 20.0, 92, 18.039216, 82.872516, 16.998432)
timestamp = st.one_of(
    st.just("2026-08-10T12:00:00.000"),
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.sampled_from([None, 1.5, b"t", "a,b", "a\rb", "a\nb"]),
)
row_values = st.tuples(temp, timestamp, code, temp, code, temp, rh, st.one_of(st.none(), temp))


def _every_copy(row):
    """row rebuilt each way the language offers: pickle at every protocol, copy and deepcopy."""
    pickled = [pickle.loads(pickle.dumps(row, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(row), copy.deepcopy(row)]


@settings(max_examples=500, deadline=None)
@given(values=row_values)
def test_every_way_to_make_a_row_checks_it(values):
    # _make and _replace of collections.namedtuple call tuple.__new__ directly;
    # a row's go through the constructor, so none of them can skip a check
    makers = [
        lambda: PsychroRow._make(values),
        lambda: PsychroRow._make(iter(values)),
        lambda: BASE_ROW._replace(**dict(zip(PsychroRow._fields, values))),
    ]
    try:
        row = PsychroRow(*values)
    except InvalidInputError as exc:
        for make in makers:
            with pytest.raises(InvalidInputError) as err:
                make()
            assert str(err.value) == str(exc)
        return
    for other in [make() for make in makers] + _every_copy(row):
        assert type(other) is PsychroRow
        assert _bits(other) == _bits(row)


@settings(max_examples=300, deadline=None)
@given(values=row_values, index=st.integers(min_value=0, max_value=7))
def test_replacing_one_field_checks_it(values, index):
    name, value = PsychroRow._fields[index], values[index]
    fields = list(BASE_ROW)
    fields[index] = value
    try:
        expected = PsychroRow(*fields)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as err:
            BASE_ROW._replace(**{name: value})
        assert str(err.value) == str(exc)
        return
    assert _bits(BASE_ROW._replace(**{name: value})) == _bits(expected)


class Recording:
    """A writer's file that records each write and flush and passes it on."""

    def __init__(self, fh):
        self.fh = fh
        self.calls = []

    def write(self, data):
        self.calls.append(("write", bytes(data)))
        return self.fh.write(data)

    def flush(self):
        self.calls.append(("flush",))
        self.fh.flush()

    def close(self):
        self.fh.close()


# up to 1e15, with -0.0, halfway cases and ints, which round() keeps ints
magnitude = st.one_of(
    st.floats(min_value=-1e15, max_value=1e15),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 4.9999995e-7, -4.9999995e-7, 1e15, -1e15]),
    st.integers(min_value=-(10**15), max_value=10**15),
)
pct = st.one_of(st.floats(min_value=0.0, max_value=100.0), st.sampled_from([-0.0, 0.0, 100.0]))


def _dew_not_above_dry(values):
    """True for row values a row takes: a dew point that rounds to at most the dry bulb."""
    dew = values[7]
    return dew is None or round(dew, 6) <= round(values[3], 6)


@settings(max_examples=500, deadline=None)
@given(
    row=st.tuples(
        magnitude,
        st.text(alphabet=st.characters(exclude_characters=",\r\n", exclude_categories=()), max_size=24),
        st.integers(min_value=0, max_value=255),
        magnitude,
        st.integers(min_value=0, max_value=255),
        magnitude,
        st.one_of(st.none(), pct),
        st.one_of(st.none(), magnitude),
    )
    .filter(_dew_not_above_dry)
)
def test_write_row_hands_the_file_the_per_field_line(row):
    # both humidity values, one or none: one write of the whole line, then one flush
    if _refuses_surrogate_stamp(row[1]):
        return
    row = PsychroRow._make(row)
    with CsvWriter(os.devnull, META) as writer:
        writer._fh = recorder = Recording(writer._fh)
        writer.write_row(row)
    assert recorder.calls == [("write", (_format_row_reference(row) + "\r\n").encode()), ("flush",)]


def test_a_row_equals_the_plain_tuple_of_its_fields():
    assert BASE_ROW == (0.5, "2026-08-10T12:00:00.500", 102, 20.0, 92, 18.039216, 82.872516, 16.998432)
    assert hash(BASE_ROW) == hash(tuple(BASE_ROW))
    assert repr(BASE_ROW).startswith("PsychroRow(t_s=0.5, timestamp='2026-08-10T12:00:00.500', dry_code=102,")


def test_row_rounds_floats_to_six_decimals():
    row = PsychroRow(
        t_s=0.5,
        timestamp="t",
        dry_code=101,
        dry_temp_c=19.80392156862745,
        wet_code=101,
        wet_temp_c=19.80392156862745,
        rh_pct=19.80392156862745,
        dew_point_c=0.5,
    )
    assert row.dry_temp_c == row.wet_temp_c == row.rh_pct == 19.803922
    assert row.t_s == row.dew_point_c == 0.5


class _Float(float):
    pass


def _tie_or_neighbour(k, step):
    """The tie (k + 0.5) / 1e6, or the double one step (ulp) to either side of it."""
    tie = (k + 0.5) / 1e6
    return math.nextafter(tie, step * math.inf) if step else tie


def _in_decade(seed, exponent):
    """A float in the decade of 10**exponent, either sign, its mantissa drawn
    uniformly (hypothesis would draw mostly round numbers)."""
    return random.Random(seed).uniform(-10.0, 10.0) * 10.0**exponent


# the 1e6 edge, where _finite6 stops its float arithmetic, and the doubles either side of it
_EDGES = [edge for top in (1e6, -1e6) for edge in (top, math.nextafter(top, 0), math.nextafter(top, 2 * top))]
# what _finite6 can be given: every float (nan and inf too), ties, ints, bools, a subclass and None
rounded = st.one_of(
    st.floats(),
    st.builds(_in_decade, st.integers(), st.integers(min_value=-6, max_value=15)),
    st.floats(min_value=-1e-300, max_value=1e-300),  # both zeros and the subnormals
    st.integers(min_value=0, max_value=2**64 - 1).map(  # 64-bit patterns
        lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
    ),
    st.builds(_tie_or_neighbour, st.integers(-(10**12) + 1, 10**12 - 1), st.sampled_from([-1, 0, 1])),
    st.sampled_from(_EDGES),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([True, False]),
    st.floats().map(_Float),
    st.none(),
)


@settings(max_examples=2000, deadline=None)
@given(x=rounded)
@example(x=19.80392156862745)  # float arithmetic
@example(x=-1e-9)  # float arithmetic to -0.0
@example(x=12.3456785)  # a tie: round()
@example(x=1e6)  # from 1e6 up: round()
@example(x=7)  # an int: round()
@example(x=_Float(0.1))  # a float subclass: round()
@example(x=-4149818486.2001204)  # from 1e6 up: round(); float arithmetic gives -4149818486.2001204
def test_finite6_is_round_to_six_decimals_bit_for_bit(x):
    if x is not None and -FLOAT_MAX <= x <= FLOAT_MAX:
        assert _bits([_finite6("x", x)]) == _bits([round(x, 6)])
    else:  # None, nan, inf, -inf or an int beyond the float range
        with pytest.raises(InvalidInputError, match="^x must be finite, got "):
            _finite6("x", x)


def test_fingerprint_is_stable_and_short():
    assert fingerprint("abc") == fingerprint("abc")
    assert fingerprint("abc") != fingerprint("abd")
    assert len(fingerprint("abc")) == 12
