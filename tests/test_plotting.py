import math
import xml.etree.ElementTree as ET
from array import array
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraloq.errors import EmptyRunError, InvalidInputError
from paraloq.plotting import _BLOCK, ASCII_COLS, ASCII_ROWS, ascii_chart, svg_chart


class TestAsciiChart:
    def test_fixed_geometry(self):
        chart = ascii_chart([0.0, 0.5], [1.0, 2.0], "x")
        lines = chart.split("\n")
        assert len(lines) == ASCII_ROWS == 24
        assert all(len(line) == ASCII_COLS == 80 for line in lines)

    def test_golden_three_point_chart(self):
        # frozen layout contract: labels on the first/last plot rows,
        # markers at top/middle/bottom, footer names the column and extent
        lines = ascii_chart([0.0, 0.5, 1.0], [10.0, 30.0, 20.0], "dry_temp_c").split("\n")
        assert lines[0] == (
            "        30 |                 **********************************  "
            "               "
        )
        assert lines[11] == (
            "           |                                                   **"
            "***************"
        )
        assert lines[22] == (
            "        10 |*****************                                    "
            "               "
        )
        assert lines[23] == (
            "           dry_temp_c: t_s 0.000000 .. 1.000000                  "
            "               "
        )
        for idx in set(range(24)) - {0, 11, 22, 23}:
            assert "*" not in lines[idx]

    def test_flat_series_uses_one_row(self):
        lines = ascii_chart([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], "x").split("\n")
        assert sum(1 for line in lines if "*" in line) == 1

    def test_single_point(self):
        lines = ascii_chart([0.0], [1.0], "x").split("\n")
        assert sum(line.count("*") for line in lines) == 68  # every column marked

    def test_empty_rejected(self):
        with pytest.raises(EmptyRunError):
            ascii_chart([], [], "x")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ascii_chart([0.0], [1.0, 2.0], "x")

    def test_a_label_as_wide_as_the_gutter_is_kept_whole(self):
        lines = ascii_chart([0.0, 1.0], [-0.01234567, 1.0], "x").split("\n")
        assert lines[22].startswith("-0.0123457 |")  # 10 characters, not cut to -0.0123

    def test_huge_values_keep_the_gutter_width(self):
        lines = ascii_chart([0.0, 1.0], [1.5e12, -2.25e11], "x").split("\n")
        assert all(len(line) == 80 for line in lines)
        assert lines[0].split("|")[0].strip() == "1.5e+12"


class TestSvgChart:
    def test_structure(self):
        svg = svg_chart([0.0, 0.5, 1.0], [1.0, 3.0, 2.0], "wet_temp_c")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 1
        assert svg.count("<line") == 2  # the two axes
        assert "wet_temp_c" in svg

    def test_polyline_has_one_point_per_sample(self):
        svg = svg_chart([0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 1.0, 2.0], "x")
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 4

    def test_flat_series_centers_vertically(self):
        svg = svg_chart([0.0, 1.0], [2.0, 2.0], "x")
        points = svg.split('points="')[1].split('"')[0]
        ys = {pair.split(",")[1] for pair in points.split()}
        assert len(ys) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyRunError):
            svg_chart([], [], "x")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            svg_chart([0.0], [1.0, 2.0], "x")

    def test_label_is_xml_escaped(self):
        # the label used to be written bare, and "a<b & c" made the SVG ill-formed
        root = ET.fromstring(svg_chart([0.0, 1.0], [1.0, 2.0], "a<b & c"))
        assert "a<b & c" in [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]


BIG = 10**400  # an int beyond the float range


@pytest.mark.parametrize("chart", [ascii_chart, svg_chart])
@pytest.mark.parametrize(
    "t_values, values, message",
    [
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "t_values must not decrease"),
        ([1.0, 0.0], [1.0, 2.0], "t_values must not decrease"),
        # the last t of the first block above the first of the second
        ([*range(_BLOCK), _BLOCK - 1.5, *range(_BLOCK + 1, 2 * _BLOCK)], [1.0] * 2 * _BLOCK, "t_values must not decrease"),
        ([0.0, 0.5], [-1.7e308, 1.7e308], "value span must be finite, got -1.7e+308 .. 1.7e+308"),
        ([-1.7e308, 1.7e308], [1.0, 2.0], "t span must be finite, got -1.7e+308 .. 1.7e+308"),
        ([0.0, 0.5], [float("-inf"), float("-inf")], "value span must be finite, got -inf .. -inf"),
        # ints beyond the float range
        ([0.0, 1.0], [BIG, BIG], f"value extremes must be finite, got {BIG} .. {BIG}"),
        ([0.0, 1.0], [-BIG, 1.0], f"value extremes must be finite, got {-BIG} .. 1.0"),
        ([BIG, BIG], [1.0, 2.0], f"t extremes must be finite, got {BIG} .. {BIG}"),
        ([-BIG, -BIG], [1.0, 1.0], f"t extremes must be finite, got {-BIG} .. {-BIG}"),
        ([0.0, BIG], [1.0, 2.0], f"t extremes must be finite, got 0.0 .. {BIG}"),
    ],
    ids=["t-back-in-the-middle", "t-last-before-first", "t-back-at-a-block-seam", "value-span", "t-span", "infinite-values"]
    + ["flat-big-values", "big-values-with-a-float", "flat-big-t", "flat-big-t-and-values", "big-t-with-a-float"],
)
def test_a_series_no_chart_can_draw_is_refused(chart, t_values, values, message):
    # svg_chart drew the first case's t = 2.0 at x = 1180, and the value-span
    # case made ascii_chart raise a bare ValueError and svg_chart write "nan";
    # a flat axis of ints beyond the float range passed the span check (its
    # span is 0) and its label raised a bare OverflowError, and such an int
    # beside a float raised it in the span check
    with pytest.raises(InvalidInputError) as err:
        chart(t_values, values, "x")
    assert str(err.value) == message


def _drawable(t_values, values):
    """Whether the charts draw the series: t never decreases, and its t span
    and value span are finite."""
    return all(a <= b for a, b in zip(t_values, t_values[1:])) and all(
        math.isfinite(hi - lo) for lo, hi in ((t_values[0], t_values[-1]), (min(values), max(values)))
    )


def _points_oracle(t_values, values):
    """The polyline points as svg_chart wrote them with one closure per axis
    and one f-string per point: the bytes its one-pass form must keep."""
    vmin, vmax = min(values), max(values)
    tmin, tmax = t_values[0], t_values[-1]
    vspan, tspan = vmax - vmin, tmax - tmin
    plot_w, plot_h = 640 - 60.0 - 20.0, 480 - 40.0 - 40.0

    def x_of(t):
        frac = (t - tmin) / tspan if tspan > 0 else 0.5
        return 60.0 + frac * plot_w

    def y_of(v):
        frac = (v - vmin) / vspan if vspan > 0 else 0.5
        return 40.0 + (1.0 - frac) * plot_h

    return " ".join(f"{x_of(t):.2f},{y_of(v):.2f}" for t, v in zip(t_values, values))


number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e3, max_value=1e3),
    st.integers(min_value=-(10**6), max_value=10**6),
)


@st.composite
def series(draw):
    """(t values, values) of 1..200 samples, ints and floats: t as drawn
    (which the charts must refuse where it decreases), sorted or constant,
    values constant (with t sorted) or not. A span past the float range is
    refused too."""
    pairs = draw(st.lists(st.tuples(number, number), min_size=1, max_size=200))
    t_values, values = (list(column) for column in zip(*pairs))
    shape = draw(st.sampled_from(["as drawn", "sorted t", "constant t", "constant values"]))
    if shape == "sorted t":
        t_values.sort()
    elif shape == "constant t":
        t_values = [t_values[0]] * len(t_values)
    elif shape == "constant values":
        t_values.sort()
        values = [values[0]] * len(values)
    return t_values, values


@settings(max_examples=200, deadline=None)
@given(series())
def test_svg_points_match_the_per_point_formula(drawn):
    t_values, values = drawn
    if not _drawable(t_values, values):
        with pytest.raises(InvalidInputError):
            svg_chart(t_values, values, "x")
        return
    root = ET.fromstring(svg_chart(t_values, values, "x"))
    (polyline,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    assert polyline.get("points") == _points_oracle(t_values, values)


@settings(max_examples=200, deadline=None)
@given(series())
def test_ascii_chart_draws_what_svg_chart_draws(drawn):
    t_values, values = drawn
    if not _drawable(t_values, values):
        with pytest.raises(InvalidInputError):
            ascii_chart(t_values, values, "x")
        return
    lines = ascii_chart(t_values, values, "x").split("\n")
    assert [len(line) for line in lines] == [ASCII_COLS] * ASCII_ROWS


def _seam_series(n, shape):
    """n seeded samples: sorted float t and float values, bar the one named shape."""
    rng = Random(n)
    t_values = sorted(rng.uniform(-1e3, 1e6) for _ in range(n))
    values = [rng.uniform(-40.0, 120.0) for _ in range(n)]
    if shape == "constant t":
        t_values = [t_values[0]] * n
    elif shape == "constant values":
        values = [values[0]] * n
    elif shape == "constant both":
        t_values, values = [t_values[0]] * n, [values[0]] * n
    elif shape == "int values":
        values = [rng.randrange(-(10**6), 10**6) for _ in range(n)]
    return t_values, values


@pytest.mark.parametrize("form", [list, lambda xs: array("d", xs)], ids=["list", "array"])
@pytest.mark.parametrize("shape", ["sorted t", "constant t", "constant values", "constant both", "int values"])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 7201])
def test_svg_points_across_block_seams(n, shape, form):
    # the property above draws at most 200 samples, fewer than one block
    t_values, values = _seam_series(n, shape)
    t_values, values = form(t_values), form(values)
    root = ET.fromstring(svg_chart(t_values, values, "x"))
    (polyline,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    assert polyline.get("points") == _points_oracle(t_values, values)
