"""Tiny hand-rolled SVG log-log line plots.

No plotting dependency: elements are emitted directly with fixed float
formatting, so the same data always yields byte-identical files.
"""

from __future__ import annotations

import math

__all__ = ["render_xy_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 520
_MARGIN_L = 78
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * (1 + 1e-12):
        for mult in (1.0, 2.0, 5.0):
            t = mult * 10.0**e
            if lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12):
                ticks.append(t)
        e += 1
    if len(ticks) > 9:
        ticks = [t for t in ticks if f"{t:.0e}".startswith("1")]
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(x, y, size, body: str, anchor: str = "middle", extra: str = "") -> str:
    """One ``<text>`` element with ``&``, ``<`` and ``>`` escaped in ``body``;
    an empty ``anchor`` omits ``text-anchor``, ``extra`` is appended as is."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{anchor}{extra}>{body}</text>'


def _log_scale(values: list[float], px_lo: float, px_hi: float):
    """``(lo, hi, to_px)``: the span of ``values``, widened to [v/2, 2v] for a
    single value v, and the map of that span onto [px_lo, px_hi] in log10."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo / 2.0, hi * 2.0

    def to_px(v: float) -> float:
        frac = (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        return px_lo + frac * (px_hi - px_lo)

    return lo, hi, to_px


def render_xy_plot(
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render named (x, y) series as polylines with circle markers on log-log axes.

    Points with a nonpositive or nonfinite coordinate are dropped. Raises
    ValueError when no plottable points remain.
    """
    cleaned = []
    for name, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0
        ]
        cleaned.append((name, pts))
    all_pts = [pt for _, pts in cleaned for pt in pts]
    if not all_pts:
        raise ValueError("nothing to plot: no finite points in range")

    ax_bottom = _HEIGHT - _MARGIN_B
    x_lo, x_hi, xp = _log_scale([p[0] for p in all_pts], _MARGIN_L, _WIDTH - _MARGIN_R)
    y_lo, y_hi, yp = _log_scale([p[1] for p in all_pts], ax_bottom, _MARGIN_T)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(f"{_WIDTH / 2:.0f}", 22, 15, title),
        f'<line x1="{_MARGIN_L}" y1="{ax_bottom}" x2="{_WIDTH - _MARGIN_R}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for t in _decade_ticks(x_lo, x_hi):
        px = _fmt(xp(t))
        out.append(f'<line x1="{px}" y1="{ax_bottom}" x2="{px}" y2="{ax_bottom + 5}" stroke="black"/>')
        out.append(_text(px, ax_bottom + 18, 11, f"{t:.6g}"))
    for t in _decade_ticks(y_lo, y_hi):
        py = yp(t)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(_text(_MARGIN_L - 8, _fmt(py + 4), 11, f"{t:.6g}", anchor="end"))

    out.append(_text(f"{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}", _HEIGHT - 14, 13, x_label))
    cy = f"{(_MARGIN_T + ax_bottom) / 2:.0f}"
    out.append(_text(18, cy, 13, y_label, extra=f' transform="rotate(-90 18 {cy})"'))

    legend, legend_x = [], _WIDTH - _MARGIN_R - 180
    for idx, (name, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(xp(x))},{_fmt(yp(y))}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_fmt(xp(x))}" cy="{_fmt(yp(y))}" r="3" fill="{color}"/>')
        y0 = _MARGIN_T + 6 + idx * 18
        legend.append(f'<rect x="{legend_x}" y="{y0 - 9}" width="12" height="12" fill="{color}"/>')
        legend.append(_text(legend_x + 18, y0 + 2, 12, name, anchor=""))

    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"
