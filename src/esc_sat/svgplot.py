"""Minimal SVG rendering of trajectories; no plotting dependency.

Three stacked panels (map input, output, control) with polylines, a fixed
viewBox, a zero line and value-axis ticks at the powers of ten falling
inside each panel's range.
"""

from __future__ import annotations

import numpy as np

from .sim import Trajectory

__all__ = ["render_trajectory_svg"]

_WIDTH = 900
_PANEL_H = 220
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 30
_GAP = 30
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_MAX_POINTS = 2000


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = [0.0] if lo <= 0.0 <= hi else []
    span = hi - lo
    if span <= 0:
        return ticks
    for k in range(-12, 13):
        v = 10.0**k
        if v < 0.05 * span:
            continue
        for s in (v, -v):
            if lo <= s <= hi:
                ticks.append(s)
    return sorted(set(ticks))


def _panel(series: np.ndarray, times: np.ndarray, title: str, top: float) -> list[str]:
    stride = max(1, int(np.ceil(times.size / _MAX_POINTS)))
    t = times[::stride]
    ys = np.atleast_2d(series.T)[:, ::stride]
    lo = float(np.min(ys))
    hi = float(np.max(ys))
    if hi - lo < 1e-12:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = top + _PANEL_H, top
    t0, t1 = float(t[0]), float(t[-1])

    def sx(tt):
        return x0 + (tt - t0) / (t1 - t0) * (x1 - x0)

    def sy(vv):
        return y0 + (vv - lo) / (hi - lo) * (y1 - y0)

    out = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{_PANEL_H}" '
        'fill="none" stroke="#555" stroke-width="1"/>',
        f'<text x="{x0}" y="{y1 - 8}" font-size="14" fill="#111">{title}</text>',
    ]
    for tick in _decade_ticks(lo, hi):
        yy = sy(tick)
        dash = ' stroke-dasharray="4 4"' if tick != 0.0 else ""
        out.append(
            f'<line x1="{x0}" y1="{yy:.2f}" x2="{x1}" y2="{yy:.2f}" '
            f'stroke="#bbb" stroke-width="0.8"{dash}/>'
        )
        out.append(
            f'<text x="{x0 - 6}" y="{yy + 4:.2f}" font-size="11" fill="#333" '
            f'text-anchor="end">{tick:g}</text>'
        )
    for j, row in enumerate(ys):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, row))
        color = _PALETTE[j % len(_PALETTE)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tt = t0 + frac * (t1 - t0)
        out.append(
            f'<text x="{sx(tt):.2f}" y="{y0 + 16}" font-size="11" fill="#333" '
            f'text-anchor="middle">{tt:.3g}</text>'
        )
    return out


def render_trajectory_svg(traj: Trajectory, path: str) -> None:
    height = _MARGIN_T + 3 * (_PANEL_H + _GAP) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {height}" '
        f'width="{_WIDTH}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    tops = [_MARGIN_T + i * (_PANEL_H + _GAP) for i in range(3)]
    parts += _panel(traj.theta, traj.times, "map input theta(t)", tops[0])
    parts += _panel(traj.y[:, None], traj.times, "map output y(t)", tops[1])
    parts += _panel(traj.u, traj.times, "control u(t)", tops[2])
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
