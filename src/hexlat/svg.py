"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the emitted figures must be byte-stable across
runs and machines, which rules out plotting libraries with their own
layout heuristics and version-dependent output.  Only what the figures
need is implemented: axes, 1-2-5 ticks, polylines, and a legend.
"""

from __future__ import annotations

import math

__all__ = ["line_plot"]

# (stroke colour, dash attribute) of the curves in turn, wrapping after six
_STYLES = [("#1f77b4", ""), ("#d62728", ' stroke-dasharray="6,3"'),
           ("#2ca02c", ' stroke-dasharray="2,2"'), ("#9467bd", ' stroke-dasharray="8,3,2,3"'),
           ("#ff7f0e", ' stroke-dasharray="4,4"'), ("#8c564b", ' stroke-dasharray="1,3"')]

_W, _H = 640, 460
_ML, _MR, _MT, _MB = 64, 16, 34, 46  # margins: left right top bottom


def _fmt(v: float) -> str:
    """Stable short decimal formatting for coordinates and tick labels."""
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def line_plot(
    curves: list[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render (x, y, label) curves as a complete SVG document (string);
    an empty label leaves the curve out of the legend."""
    if not curves:
        raise ValueError("need at least one series")
    if any(len(x) != len(y) or len(x) < 2 for x, y, _ in curves):
        raise ValueError("series needs matching x/y of length >= 2")
    xs = [v for x, _, _ in curves for v in x]
    ys = [v for _, y, _ in curves for v in y]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 <= x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0) or 1.0
    y0, y1 = y0 - pad, y1 + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for t in _ticks(x0, x1):
        if not x0 <= t <= x1:
            continue
        X = _fmt(px(t))
        parts.append(
            f'<line x1="{X}" y1="{_MT + ph}" x2="{X}" y2="{_MT + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{X}" y="{_MT + ph + 18}" font-size="11" font-family="sans-serif" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y0, y1):
        if not y0 <= t <= y1:
            continue
        Y = _fmt(py(t))
        parts.append(f'<line x1="{_ML - 5}" y1="{Y}" x2="{_ML}" y2="{Y}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{Y}" font-size="11" font-family="sans-serif" '
            f'text-anchor="end" dominant-baseline="middle">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{Y}" x2="{_ML + pw}" y2="{Y}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
    for i, (x, y, _) in enumerate(curves):
        color, extra = _STYLES[i % len(_STYLES)]
        pts = " ".join(f"{_fmt(px(u))},{_fmt(py(v))}" for u, v in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{extra}/>'
        )
    # legend, top-right inside the frame
    ly = _MT + 14
    for i, (_, _, label) in enumerate(curves):
        if not label:
            continue
        color, extra = _STYLES[i % len(_STYLES)]
        lx = _ML + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"{extra}/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
        ly += 16
    if title:
        parts.append(
            f'<text x="{_W / 2:g}" y="20" font-size="13" font-family="sans-serif" '
            f'text-anchor="middle">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + pw / 2:g}" y="{_H - 10}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MT + ph / 2:g}" font-size="12" font-family="sans-serif" '
            f'text-anchor="middle" transform="rotate(-90 16 {_MT + ph / 2:g})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
