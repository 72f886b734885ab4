"""Post-hoc chart rendering for logged runs: fixed-size ASCII and SVG.

Both renderers are deterministic string generators so their output can be
golden-tested byte for byte. The ASCII chart is always 24 lines of 80
characters; the SVG is a fixed 640x480 polyline chart whose points are
formatted a block at a time, so drawing it holds about twice the text it
returns at its peak, not a string per sample.
"""

from __future__ import annotations

from math import inf

from .errors import FLOAT_MAX, EmptyRunError, InvalidInputError, shown

ASCII_COLS = 80
ASCII_ROWS = 24
_GUTTER = 10  # y-axis label width
_PLOT_COLS = ASCII_COLS - _GUTTER - 2  # "<label> |<plot>"
_PLOT_ROWS = ASCII_ROWS - 1  # last line is the x axis

SVG_WIDTH = 640
SVG_HEIGHT = 480
_MARGIN_LEFT = 60.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 40.0
_BLOCK = 256  # polyline points formatted by one % operation


def _axis_label(value: float) -> str:
    text = f"{value:.6g}"
    if len(text) > _GUTTER:
        text = f"{value:.3g}"
    return text.rjust(_GUTTER)


def _require_series(t_values, values):
    """(min(values), max(values)) of a series both charts can draw; raise
    EmptyRunError for no samples and InvalidInputError for lengths that differ,
    a t that decreases anywhere, or a t or value extreme or span that is not
    finite (an int beyond the float range is not).

    The order is checked against sorted() a block of t at a time, so the
    check holds one block's floats, not a copy of the series. The other
    checks read the first and last t and the value extremes alone: a nan
    inside a series (neither first nor last t, nor a value extreme) is not
    seen. Every series read_series returns is finite.
    """
    if len(values) == 0:
        raise EmptyRunError("nothing to plot")
    if len(t_values) != len(values):
        raise InvalidInputError("t_values and values must have the same length")
    for start in range(0, len(t_values), _BLOCK):
        ts = [*t_values[start : start + _BLOCK + 1]]  # one past the block: its seam with the next
        if sorted(ts) != ts:
            raise InvalidInputError("t_values must not decrease")
    vmin, vmax = min(values), max(values)
    for axis, lo, hi in (("t", t_values[0], t_values[-1]), ("value", vmin, vmax)):
        # an int beyond the float range has no float to draw (its span with
        # another such int can be 0); inf and nan are left to the span check
        if FLOAT_MAX < abs(lo) < inf or FLOAT_MAX < abs(hi) < inf:
            raise InvalidInputError(f"{axis} extremes must be finite, got {shown(lo)} .. {shown(hi)}")
        if not hi - lo <= FLOAT_MAX:
            raise InvalidInputError(f"{axis} span must be finite, got {shown(lo)} .. {shown(hi)}")
    return vmin, vmax


def ascii_chart(t_values, values, label: str) -> str:
    """Render values against time as an 80x24 character chart.

    Rows 1..23 are the plot area with max/min labels on the first and last
    plot rows; the final line shows the time extent and column label. A t
    that decreases, or a t or value extreme or span that is not finite,
    raises InvalidInputError.
    """
    vmin, vmax = _require_series(t_values, values)
    span = vmax - vmin
    n = len(values)

    grid = [[" "] * _PLOT_COLS for _ in range(_PLOT_ROWS)]
    for col in range(_PLOT_COLS):
        idx = round(col * (n - 1) / (_PLOT_COLS - 1))
        v = values[idx]
        if span > 0:
            row = round((vmax - v) / span * (_PLOT_ROWS - 1))
        else:
            row = _PLOT_ROWS // 2
        grid[row][col] = "*"

    lines = []
    for row in range(_PLOT_ROWS):
        if row == 0:
            prefix = _axis_label(vmax)
        elif row == _PLOT_ROWS - 1:
            prefix = _axis_label(vmin)
        else:
            prefix = " " * _GUTTER
        lines.append(f"{prefix} |{''.join(grid[row])}")
    footer = f"{'':{_GUTTER}} {label}: t_s {t_values[0]:.6f} .. {t_values[-1]:.6f}"
    lines.append(footer[:ASCII_COLS].ljust(ASCII_COLS))
    return "\n".join(lines)  # each line is already ASCII_COLS wide


def svg_chart(t_values, values, label: str) -> str:
    """Render values against time as a 640x480 SVG polyline chart.

    One "x,y" point per sample, in sample order, two decimals each. x spans
    the first to the last time value and y the smallest to the largest
    value; an axis whose span is not positive puts every point at its
    centre. The label is XML-escaped (&, <, >), so any label parses. A t
    that decreases, or a t or value extreme or span that is not finite,
    raises InvalidInputError: no point is drawn off the canvas or as "nan".

    The points are formatted _BLOCK samples at a time, by a single "%" per
    block over that many copies of one point's format. Where both axes vary
    that is "%.2f,%.2f", over the block's x and y lists interleaved into one
    tuple. A flat axis has one coordinate, so its "%.2f" text is made once
    and written into the point's format: the "%" then formats only the other
    axis, or nothing when both are flat. Either way the bytes are those of one
    "%" per point. The joined points are copied once, into the returned text.
    """
    vmin, vmax = _require_series(t_values, values)
    tmin, tmax = t_values[0], t_values[-1]
    vspan = vmax - vmin
    tspan = tmax - tmin
    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    t_ok, v_ok = tspan > 0, vspan > 0
    # a flat axis has one coordinate, formatted once into the per-point text
    x_text = "%.2f" if t_ok else "%.2f" % (_MARGIN_LEFT + 0.5 * plot_w)
    y_text = "%.2f" if v_ok else "%.2f" % (_MARGIN_TOP + 0.5 * plot_h)
    point = f"{x_text},{y_text} "
    blocks = []
    for start in range(0, len(values), _BLOCK):
        ts = t_values[start : start + _BLOCK]
        vs = values[start : start + _BLOCK]
        n = len(ts)
        xs = [_MARGIN_LEFT + (t - tmin) / tspan * plot_w for t in ts] if t_ok else ()
        ys = [_MARGIN_TOP + (1.0 - (v - vmin) / vspan) * plot_h for v in vs] if v_ok else ()
        if xs and ys:
            xy = [0.0] * (2 * n)
            xy[0::2] = xs
            xy[1::2] = ys
        else:
            xy = xs or ys
        blocks.append((point * n)[:-1] % tuple(xy))
    points = " ".join(blocks)
    del blocks  # so the chart holds at most two copies of its points: these, then the text returned
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP
    title = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    head = "\n".join(
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
            f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
            f'  <text x="{SVG_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{title}</text>',
            f'  <line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
            f'  <line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
            f'  <text x="{x0 - 6:.0f}" y="{y1 + 4:.0f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{vmax:.6g}</text>',
            f'  <text x="{x0 - 6:.0f}" y="{y0 + 4:.0f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{vmin:.6g}</text>',
            f'  <text x="{x0:.0f}" y="{y0 + 20:.0f}" font-family="monospace" '
            f'font-size="12">{tmin:.6f}</text>',
            f'  <text x="{x1:.0f}" y="{y0 + 20:.0f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{tmax:.6f}</text>',
            '  <polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="',
        )
    )
    return "".join((head, points, '"/>\n</svg>'))
