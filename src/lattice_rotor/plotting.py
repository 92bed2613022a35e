"""Static SVG emission with byte-level determinism.

No raster backends and no plotting libraries: the charts here are a few
hundred primitives, and hand-assembled SVG is the only way to promise
that two runs with the same report produce identical files.  All
coordinates go through one fixed-width formatter; nothing depends on
locale, dict order, or float repr.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["curve_svg", "cell_svg"]

_W, _H = 800, 560
_ML, _MR, _MT, _MB = 90, 30, 56, 70
_FLOOR = 1e-40


def _f(x: float) -> str:
    return f"{x:.3f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_label(value: float) -> str:
    return f"1e{value:+.0f}" if abs(value) >= 4 else f"{10.0 ** value:.4g}"


def _log_ticks(lo: float, hi: float, target: int = 5):
    if hi - lo < 1e-12:
        return [lo]
    step = max(1, int(round((hi - lo) / target)))
    first = math.ceil(lo)
    ticks = [t for t in range(first, int(math.floor(hi)) + 1, step)]
    return ticks or [lo]


def curve_svg(
    ts_log10: Sequence[float],
    values: Sequence[float],
    achieved: Sequence[bool],
    eps: float,
    title: str,
) -> str:
    """Worst fractional distance against dilation, both axes log10.

    Achieved points are filled dots joined by the curve; missed points
    get a distinct cross glyph so a partial run is visible at a glance.
    A dashed rule marks the tolerance.
    """
    n = len(ts_log10)
    assert n == len(values) == len(achieved) and n >= 1
    xs = list(ts_log10)
    ys = [math.log10(max(v, _FLOOR)) for v in values]
    y_eps = math.log10(max(eps, _FLOOR))

    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = min(ys + [y_eps]), max(ys + [y_eps])
    pad = max(0.3, 0.08 * (y_hi - y_lo))
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MT + ph * (y_hi - y) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_f(_W / 2)}" y="30" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle" fill="#222222">{_esc(title)}</text>',
        f'<rect x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(pw)}" height="{_f(ph)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for t in _log_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_f(x)}" y1="{_f(_MT + ph)}" x2="{_f(x)}" '
            f'y2="{_f(_MT + ph + 6)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(x)}" y="{_f(_MT + ph + 22)}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" fill="#222222">{_tick_label(t)}</text>'
        )
    for t in _log_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_f(_ML - 6)}" y1="{_f(y)}" x2="{_f(_ML)}" y2="{_f(y)}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(_ML - 10)}" y="{_f(y + 4)}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end" fill="#222222">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{_f(_ML + pw / 2)}" y="{_f(_H - 18)}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" fill="#222222">dilation t (log)</text>'
    )
    parts.append(
        f'<text x="22" y="{_f(_MT + ph / 2)}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" fill="#222222" '
        f'transform="rotate(-90 22 {_f(_MT + ph / 2)})">worst frac distance (log)</text>'
    )

    ye = py(y_eps)
    parts.append(
        f'<line x1="{_f(_ML)}" y1="{_f(ye)}" x2="{_f(_ML + pw)}" y2="{_f(ye)}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{_f(_ML + pw - 4)}" y="{_f(ye - 6)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end" fill="#666666">tolerance</text>'
    )

    if n >= 2:
        pts = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#3465a4" stroke-width="1.5"/>'
        )
    for x, y, ok in zip(xs, ys, achieved):
        cx, cy = px(x), py(y)
        if ok:
            parts.append(
                f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="4" fill="#3465a4"/>'
            )
        else:
            parts.append(
                f'<path d="M {_f(cx - 5)} {_f(cy - 5)} L {_f(cx + 5)} {_f(cy + 5)} '
                f'M {_f(cx - 5)} {_f(cy + 5)} L {_f(cx + 5)} {_f(cy - 5)}" '
                f'stroke="#cc0000" stroke-width="2" fill="none"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cell_svg(
    residues: Sequence[Tuple[float, float]],
    eps: float,
    title: str,
) -> str:
    """Residues of the rotated, dilated configuration inside one lattice
    cell, centered on the nearest lattice point.

    Every coordinate lives in [-1/2, 1/2]; the dashed circle is the
    tolerance around the cell's lattice point.
    """
    side = 420.0
    cx0, cy0 = _W / 2, _MT + side / 2 + 10

    def px(x: float) -> float:
        return cx0 + side * x

    def py(y: float) -> float:
        return cy0 - side * y

    left, top = px(-0.5), py(0.5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_f(_W / 2)}" y="30" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle" fill="#222222">{_esc(title)}</text>',
        f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(side)}" height="{_f(side)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<line x1="{_f(px(-0.5))}" y1="{_f(py(0.0))}" x2="{_f(px(0.5))}" '
        f'y2="{_f(py(0.0))}" stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{_f(px(0.0))}" y1="{_f(py(-0.5))}" x2="{_f(px(0.0))}" '
        f'y2="{_f(py(0.5))}" stroke="#dddddd" stroke-width="1"/>',
        f'<circle cx="{_f(px(0.0))}" cy="{_f(py(0.0))}" r="3" fill="#444444"/>',
        f'<circle cx="{_f(px(0.0))}" cy="{_f(py(0.0))}" r="{_f(side * eps)}" '
        f'fill="none" stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>',
    ]
    for fx, fy in residues:
        parts.append(
            f'<circle cx="{_f(px(fx))}" cy="{_f(py(fy))}" r="4" fill="#3465a4" '
            f'fill-opacity="0.8"/>'
        )
    parts.append(
        f'<text x="{_f(_W / 2)}" y="{_f(top + side + 30)}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" fill="#222222">'
        f"residues mod the lattice, one cell</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
