import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraloq import CsvParseError, InvalidInputError, StorageError, read_csv, write_csv
from paraloq.logstore import (
    HEADER,
    CsvWriter,
    PsychroRow,
    RunLog,
    RunMeta,
    fingerprint,
    round6,
)

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

    def test_rows_must_advance_in_time(self, tmp_path):
        rows = [make_row(1), make_row(0)]
        with pytest.raises(InvalidInputError):
            write_csv(RunLog(meta=META, rows=rows), tmp_path / "bad.csv")

    def test_streaming_writer_flushes_each_row(self, tmp_path):
        path = tmp_path / "stream.csv"
        with CsvWriter(path, META) as writer:
            writer.write_row(make_row(0))
            # visible on disk while the writer is still open
            assert path.read_text(encoding="utf-8").strip().endswith("12.000000")
            writer.write_row(make_row(1))
        assert len(read_csv(path).rows) == 2


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
        for meta, field in [
            ("sample_rate_hz = 2_0", "sample_rate_hz"),
            ("channels = dry= 0", "channel index"),
        ]:
            path.write_text(f"# {meta}\n" + HEADER + "\n", encoding="utf-8")
            with pytest.raises(CsvParseError, match=field) as err:
                read_csv(path)
            assert err.value.line_no == 1

    def test_out_of_range_humidity_names_the_line(self, tmp_path):
        path = tmp_path / "rh.csv"
        path.write_text(
            HEADER + "\n0.0,t,102,20.0,92,18.0,80.0,16.0\n0.5,t,102,20.0,92,18.0,150.0,16.0\n",
            encoding="utf-8",
        )
        with pytest.raises(CsvParseError, match="rh_pct") as err:
            read_csv(path)
        assert err.value.line_no == 3

    def test_non_finite_sample_rate_is_a_parse_error(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text("# sample_rate_hz = nan\n" + HEADER + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="sample_rate_hz must be finite") as err:
            read_csv(path)
        assert err.value.line_no == 1

    def test_non_increasing_time_rejected(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text(
            HEADER + "\n1.0,t,102,20.0,92,18.0,,\n0.5,t,102,20.0,92,18.0,,\n",
            encoding="utf-8",
        )
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.line_no == 3

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
        rows.append(
            PsychroRow(
                t_s=k / rate,
                timestamp=f"2026-08-10T12:00:{k:02d}.000",
                dry_code=draw(codes),
                dry_temp_c=draw(temps),
                wet_code=draw(codes),
                wet_temp_c=draw(temps),
                rh_pct=draw(optional_pct),
                dew_point_c=draw(st.one_of(st.none(), temps)),
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


@pytest.mark.parametrize("field", ["dry_code", "wet_code"])
def test_row_rejects_a_bool_code(field):
    # bool is an int subclass: True used to be written as "True", which
    # read_csv then rejected as a bad code
    fields = dict(t_s=0.0, timestamp="t", dry_code=91, dry_temp_c=19.8, wet_code=91, wet_temp_c=17.9)
    fields[field] = True
    with pytest.raises(InvalidInputError, match=field):
        PsychroRow(**fields)


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


def test_round6_quantization():
    assert round6(19.80392156862745) == 19.803922
    assert round6(0.5) == 0.5


def test_fingerprint_is_stable_and_short():
    assert fingerprint("abc") == fingerprint("abc")
    assert fingerprint("abc") != fingerprint("abd")
    assert len(fingerprint("abc")) == 12
