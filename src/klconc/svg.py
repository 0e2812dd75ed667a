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


def _label(v: float) -> str:
    return f"{v:.6g}"


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

    def span(vals):
        lo, hi = min(vals), max(vals)
        if hi == lo:
            lo, hi = lo / 2.0, hi * 2.0
        return lo, hi

    x_lo, x_hi = span([p[0] for p in all_pts])
    y_lo, y_hi = span([p[1] for p in all_pts])

    def to_px(v, lo, hi, px_lo, px_hi):
        frac = (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        return px_lo + frac * (px_hi - px_lo)

    def xp(v):
        return to_px(v, x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)

    def yp(v):
        return to_px(v, y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.0f}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_escape(title)}</text>'
    )

    ax_bottom = _HEIGHT - _MARGIN_B
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{ax_bottom}" x2="{_WIDTH - _MARGIN_R}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )

    for t in _decade_ticks(x_lo, x_hi):
        px = xp(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{ax_bottom}" x2="{_fmt(px)}" y2="{ax_bottom + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{ax_bottom + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{_label(t)}</text>'
        )
    for t in _decade_ticks(y_lo, y_hi):
        py = yp(t)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{_label(t)}</text>'
        )

    out.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 14}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{_escape(x_label)}</text>'
    )
    cy = (_MARGIN_T + ax_bottom) / 2
    out.append(
        f'<text x="18" y="{cy:.0f}" font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {cy:.0f})">{_escape(y_label)}</text>'
    )

    for idx, (name, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(xp(x))},{_fmt(yp(y))}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_fmt(xp(x))}" cy="{_fmt(yp(y))}" r="3" fill="{color}"/>')

    legend_x = _WIDTH - _MARGIN_R - 180
    legend_y = _MARGIN_T + 6
    for idx, (name, _) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        y0 = legend_y + idx * 18
        out.append(f'<rect x="{legend_x}" y="{y0 - 9}" width="12" height="12" fill="{color}"/>')
        out.append(
            f'<text x="{legend_x + 18}" y="{y0 + 2}" font-family="sans-serif" '
            f'font-size="12">{_escape(name)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
