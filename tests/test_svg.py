import math
import pathlib
import re
import xml.etree.ElementTree as ET

import pytest

from klconc.cli import render_xy_plot


def test_drops_points_off_the_log_axes():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ys = [1.0, 0.0, -1.0, math.nan, math.inf, 2.0]
    body = render_xy_plot([("a", xs, ys), ("b", [0.0, math.nan], [1.0, 1.0])], "x", "y", "t")
    assert body.count("<circle") == 2  # (1, 1) and (6, 2); series b keeps only its legend entry
    assert body.count("<polyline") == 1
    assert body.count("font-size=\"12\">") == 2


def test_nothing_plottable_is_an_error():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_xy_plot([("a", [1.0, 2.0], [0.0, math.nan])], "x", "y", "t")


def _tick_labels(body, anchor):
    """Tick labels of the x axis (anchor "middle") or the y axis (anchor "end")."""
    return re.findall(rf'font-size="11" text-anchor="{anchor}">([^<]*)</text>', body)


def test_one_x_value_widens_the_span():
    # figure1 --ks 8 --svg draws one x value: the x span becomes [x/2, 2x]
    body = render_xy_plot([("a", [8.0], [0.01]), ("b", [8.0], [0.02])], "x", "y", "t")
    assert "nan" not in body and "inf" not in body
    assert _tick_labels(body, "middle") == ["5", "10"]


def test_many_ticks_keep_the_powers_of_ten():
    # 1e-6 .. 1 offers 19 1-2-5 ticks, more than nine: only the powers of ten stay
    body = render_xy_plot([("a", [1.0, 2.0], [1e-6, 1.0])], "x", "y", "t")
    assert _tick_labels(body, "end") == ["1e-06", "1e-05", "0.0001", "0.001", "0.01", "0.1", "1"]


GOLDEN = pathlib.Path(__file__).parent / "golden"

# One input that reaches the rest of the writer: eight series (the palette wraps
# after six), a single point (no polyline), a series whose points are all dropped
# (legend only), markup characters in every string, x over six decades (only the
# powers of ten stay) and y inside [3.1, 4.9], which holds no 1-2-5 tick.
_MARKUP = '&<>"'
_EDGE_SERIES = [
    (f"single {_MARKUP}", [1e3], [4.0]),
    (f"dropped {_MARKUP}", [0.0, 2.0, math.nan], [1.0, -1.0, 1.0]),
] + [
    (f"s{i} {_MARKUP}", [1.0, 1e3, 1e6], [3.1 + 0.1 * i, 4.0 - 0.05 * i, 4.9 - 0.2 * i])
    for i in range(6)
]
_EDGE_LABELS = (f"x {_MARKUP}", f"y {_MARKUP}", f"title {_MARKUP}")
_EDGE_X_TICKS = ["1", "10", "100", "1000", "10000", "100000", "1e+06"]
_EDGE_Y_TICKS = ["3.1", "4.9"]


def test_edge_plot_matches_golden():
    body = render_xy_plot(_EDGE_SERIES, *_EDGE_LABELS)
    assert body.encode() == (GOLDEN / "plot-edge.svg").read_bytes()
    assert body.count("<polyline") == 6 and body.count("<circle") == 19
    assert _tick_labels(body, "middle") == _EDGE_X_TICKS
    assert _tick_labels(body, "end") == _EDGE_Y_TICKS


def test_text_nodes_read_back_their_raw_strings():
    root = ET.fromstring(render_xy_plot(_EDGE_SERIES, *_EDGE_LABELS))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    x_label, y_label, title = _EDGE_LABELS
    names = [name for name, _, _ in _EDGE_SERIES]
    assert texts == [title, *_EDGE_X_TICKS, *_EDGE_Y_TICKS, x_label, y_label, *names]
