"""Minimal deterministic SVG scatter plots.

Hand-rolled rather than delegated to a plotting library so that identical
inputs give byte-identical files (no embedded ids, dates, or font metrics).
"""

from __future__ import annotations

import math
from pathlib import Path

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 480, 420
_ML, _MR, _MT, _MB = 64, 20, 40, 56


def _ticks(lo: float, hi: float):
    """Ticks over [lo, hi], 1, 2 or 5 times a power of ten apart."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def svg_scatter(path, series, title="", xlabel="", ylabel="") -> None:
    """Write a scatter plot with the y = x reference line.

    series: mapping label -> (x array, y array); each series gets one color
    from a fixed palette.
    """
    xs = [float(v) for _, (x, _) in series.items() for v in x]
    ys = [float(v) for _, (_, y) in series.items() for v in y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    lo = min(min(xs), min(ys))
    hi = max(max(xs), max(ys))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.06 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(v):
        return _ML + (v - lo) / (hi - lo) * plot_w

    def sy(v):
        return _MT + (hi - v) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_esc(title)}</text>',
    ]
    for t in _ticks(lo, hi):
        x = sx(t)
        y = sy(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
                     f'y2="{_MT + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MT + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{t:g}</text>')
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{t:g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="black"/>')
    parts.append(f'<line x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" '
                 f'x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
                 f'stroke="#888888" stroke-dasharray="5,4"/>')
    legend_y = _MT + 14
    for i, (label, (x, y)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        for xv, yv in zip(x, y):
            parts.append(f'<circle cx="{sx(float(xv)):.2f}" '
                         f'cy="{sy(float(yv)):.2f}" r="3" fill="{color}" '
                         f'fill-opacity="0.65"/>')
        if label:
            parts.append(f'<circle cx="{_ML + 12}" cy="{legend_y - 3}" r="4" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{_ML + 22}" y="{legend_y}" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{_esc(label)}</text>')
            legend_y += 16
    parts.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{_esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{_MT + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 '
                 f'{_MT + plot_h / 2:.1f})">{_esc(ylabel)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
