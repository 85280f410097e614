"""Minimal deterministic SVG plotting for log-log count data.

Self-contained string generation: fixed canvas, decade ticks, scatter
markers, and power-law overlay lines. No timestamps and fixed float
formatting, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["loglog_panel_svg"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 55

_COLORS = ("#1f5fa8", "#c23b22", "#2e8b57", "#8b5a2b")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _text(value: str) -> str:
    """value as SVG character data, with &, < and > escaped."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _LogAxes:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = np.log10(x_range[0]), np.log10(x_range[1])
        self.y0, self.y1 = np.log10(y_range[0]), np.log10(y_range[1])
        self.plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
        self.plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(self, x: float) -> float:
        return _MARGIN_L + (np.log10(x) - self.x0) / (self.x1 - self.x0) * self.plot_w

    def py(self, y: float) -> float:
        return _MARGIN_T + (self.y1 - np.log10(y)) / (self.y1 - self.y0) * self.plot_h


def _decades(lo: float, hi: float):
    start = int(np.floor(np.log10(lo)))
    stop = int(np.ceil(np.log10(hi)))
    return [10.0**k for k in range(start, stop + 1) if lo <= 10.0**k <= hi]


def loglog_panel_svg(
    title: str,
    series: list,
    fit_lines: list,
    x_label: str,
    y_label: str,
    metadata: str = "",
) -> str:
    """Render one log-log panel.

    series: dicts with keys label, x, y (positive arrays), marker
    ("circle" or "square"). fit_lines: dicts with keys label, a, b; drawn
    as y = a x^b across the x range. metadata is embedded as an SVG
    comment (seed, config hash).
    """
    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series])
    positive = ys > 0
    if not np.any(positive):
        raise ValueError("no positive data to plot")
    x_range = (xs.min() / 1.3, xs.max() * 1.3)
    y_lo = ys[positive].min()
    y_range = (max(y_lo / 1.8, 1e-3), ys[positive].max() * 1.8)
    ax = _LogAxes(x_range, y_range)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    ]
    if metadata:
        parts.append(f"<!-- {metadata} -->")
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_text(title)}</text>'
    )
    # Frame
    x_px0, x_px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y_px0, y_px1 = _MARGIN_T, _HEIGHT - _MARGIN_B
    parts.append(
        f'<rect x="{x_px0}" y="{y_px0}" width="{x_px1 - x_px0}" '
        f'height="{y_px1 - y_px0}" fill="none" stroke="black"/>'
    )
    # Decade ticks and gridlines
    for xv in _decades(*[x_range[0], x_range[1]]):
        px = ax.px(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y_px0}" x2="{_fmt(px)}" y2="{y_px1}" '
            f'stroke="#dddddd"/>'
        )
        exp = int(round(np.log10(xv)))
        parts.append(
            f'<text x="{_fmt(px)}" y="{y_px1 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    for yv in _decades(*[y_range[0], y_range[1]]):
        py = ax.py(yv)
        parts.append(
            f'<line x1="{x_px0}" y1="{_fmt(py)}" x2="{x_px1}" y2="{_fmt(py)}" '
            f'stroke="#dddddd"/>'
        )
        exp = int(round(np.log10(yv)))
        parts.append(
            f'<text x="{x_px0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    parts.append(
        f'<text x="{(x_px0 + x_px1) // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_text(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y_px0 + y_px1) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y_px0 + y_px1) // 2})">{_text(y_label)}</text>'
    )
    # Fit lines under the markers
    for k, line in enumerate(fit_lines):
        color = _COLORS[k % len(_COLORS)]
        grid = np.geomspace(x_range[0], x_range[1], 100)
        pts = []
        for xv in grid:
            with np.errstate(over="ignore"):  # an inf yv is out of y_range
                yv = line["a"] * xv ** line["b"]
            if y_range[0] <= yv <= y_range[1]:
                pts.append(f"{_fmt(ax.px(xv))},{_fmt(ax.py(yv))}")
        if len(pts) >= 2:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    # Markers
    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        marker = s.get("marker", "circle")
        for xv, yv in zip(s["x"], s["y"]):
            if yv <= 0 or not (y_range[0] <= yv <= y_range[1]):
                continue
            px, py = ax.px(xv), ax.py(yv)
            if marker == "square":
                parts.append(
                    f'<rect x="{_fmt(px - 3)}" y="{_fmt(py - 3)}" width="6" '
                    f'height="6" fill="{color}" fill-opacity="0.75"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                    f'fill="{color}" fill-opacity="0.75"/>'
                )
    # Legend
    legend_y = y_px0 + 16
    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        parts.append(
            f'<rect x="{x_px0 + 12}" y="{legend_y - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x_px0 + 28}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12">{_text(s["label"])}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
