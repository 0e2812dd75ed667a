import math
import re

import pytest

from klconc.svg import render_xy_plot


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
