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


def render_plot(
    path: str,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: list[tuple[float, str]] = (),
    hlines: list[tuple[float, str]] = (),
) -> None:
    """Write a standalone SVG with the given polylines and dashed guide lines."""
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

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo2) / (x_hi2 - x_lo2) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo2) / (y_hi2 - y_lo2) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for t in _nice_ticks(x_lo2, x_hi2):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo2, y_hi2):
        py = sy(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            'stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2})">{ylabel}</text>'
        )
    for v, label in vlines:
        px = sx(v)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" y2="{_MARGIN_T + plot_h}" '
            'stroke="#2a8f2a" stroke-dasharray="6 4" stroke-width="1"/>'
        )
        if label:
            parts.append(
                f'<text x="{px + 4:.2f}" y="{_MARGIN_T + 14}" font-family="sans-serif" '
                f'font-size="10" fill="#2a8f2a">{label}</text>'
            )
    for v, label in hlines:
        py = sy(v)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + plot_w}" y2="{py:.2f}" '
            'stroke="#2255cc" stroke-dasharray="6 4" stroke-width="1"/>'
        )
        if label:
            parts.append(
                f'<text x="{_MARGIN_L + plot_w - 4}" y="{py - 5:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10" fill="#2255cc">{label}</text>'
            )
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(s.x, s.y)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        tag = "polygon" if s.closed else "polyline"
        parts.append(
            f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        if s.marker:
            for x, y in zip(s.x, s.y):
                if math.isfinite(float(x)) and math.isfinite(float(y)):
                    parts.append(
                        f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" r="2.5" '
                        f'fill="{color}"/>'
                    )
        if s.label:
            ly = _MARGIN_T + 16 + 14 * i
            parts.append(
                f'<line x1="{_MARGIN_L + plot_w - 110}" y1="{ly - 4}" '
                f'x2="{_MARGIN_L + plot_w - 90}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="1.6"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L + plot_w - 84}" y="{ly}" font-family="sans-serif" '
                f'font-size="10">{s.label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
