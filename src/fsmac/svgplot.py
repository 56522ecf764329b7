"""Minimal standalone SVG line plots: polylines, axis ticks, dashed overlays.
No plotting dependency so outputs are self-contained and diffable."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "render_plot"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 36, 48
_COLORS = ["#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#ccb974", "#64b5cd",
           "#937860", "#da8bc3"]


@dataclass
class Series:
    x: list
    y: list
    label: str = ""
    closed: bool = False
    marker: bool = False


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _text(x, y, body, size, anchor: str = "", extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


_DASHED = 'stroke-dasharray="6 4" stroke-width="1"'


def render_plot(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: list[tuple[float, str]] = (),
    hlines: list[tuple[float, str]] = (),
) -> str:
    """A standalone SVG with the given polylines and dashed guide lines."""
    xs = [float(v) for s in series for v in s.x if math.isfinite(v)]
    ys = [float(v) for s in series for v in s.y if math.isfinite(v)]
    xs += [v for v, _ in vlines]
    ys += [v for v, _ in hlines]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo2, x_hi2 = x_lo - x_pad, x_hi + x_pad
    y_lo2, y_hi2 = y_lo - y_pad, y_hi + y_pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    left, right, top, bottom = _MARGIN_L, _MARGIN_L + plot_w, _MARGIN_T, _MARGIN_T + plot_h

    def sx(v: float) -> float:
        return left + (v - x_lo2) / (x_hi2 - x_lo2) * plot_w

    def sy(v: float) -> float:
        return bottom - (v - y_lo2) / (y_hi2 - y_lo2) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(_WIDTH / 2, top - 12, title, 14, "middle"))
    for t in _nice_ticks(x_lo2, x_hi2):
        px = f"{sx(t):.2f}"
        parts.append(_line(px, bottom, px, bottom + 5, 'stroke="#333"'))
        parts.append(_text(px, bottom + 18, _fmt(t), 11, "middle"))
    for t in _nice_ticks(y_lo2, y_hi2):
        py = sy(t)
        parts.append(_line(left - 5, f"{py:.2f}", left, f"{py:.2f}", 'stroke="#333"'))
        parts.append(_text(left - 8, f"{py + 4:.2f}", _fmt(t), 11, "end"))
    if xlabel:
        parts.append(_text(left + plot_w / 2, _HEIGHT - 10, xlabel, 12, "middle"))
    if ylabel:
        mid = top + plot_h / 2
        parts.append(_text(16, mid, ylabel, 12, "middle", f' transform="rotate(-90 16 {mid})"'))
    for v, label in vlines:
        px = sx(v)
        parts.append(_line(f"{px:.2f}", top, f"{px:.2f}", bottom, f'stroke="#2a8f2a" {_DASHED}'))
        if label:
            parts.append(_text(f"{px + 4:.2f}", top + 14, label, 10, extra=' fill="#2a8f2a"'))
    for v, label in hlines:
        py = sy(v)
        parts.append(_line(left, f"{py:.2f}", right, f"{py:.2f}", f'stroke="#2255cc" {_DASHED}'))
        if label:
            parts.append(_text(right - 4, f"{py - 5:.2f}", label, 10, "end", ' fill="#2255cc"'))
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = [(sx(float(x)), sy(float(y))) for x, y in zip(s.x, s.y)
               if math.isfinite(float(x)) and math.isfinite(float(y))]
        tag = "polygon" if s.closed else "polyline"
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        parts.append(f'<{tag} points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        if s.marker:
            parts += [f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>'
                      for px, py in pts]
        if s.label:
            ly = top + 16 + 14 * i
            parts.append(_line(right - 110, ly - 4, right - 90, ly - 4,
                               f'stroke="{color}" stroke-width="1.6"'))
            parts.append(_text(right - 84, ly, s.label, 10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
