import math

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
