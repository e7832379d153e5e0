"""Deterministic SVG 1.1 emission for circle packings.

The input is the (n, 4) integer inversive rows (cocurvature, curvature,
curvature*x, curvature*y) that ``enumerate_orbit`` returns with an
embedding.  One <line> per line (curvature 0), ordered by (normal, offset),
then one <circle> per proper circle, ordered by |curvature| and then by the
centre in float64, the rounding ``circles.csv`` prints, so identical inputs
give byte-identical files.  Stroke widths scale with the radius
(1/|curvature|), clamped to stay visible.
"""

from __future__ import annotations

import numpy as np

from .region import Rect

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_SIZE = 800  # output width in pixels
_STROKE_SCALE = 0.25  # stroke width per unit radius, before clamping


def _fmt(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def svg_document(rows, viewport: Rect | None = None) -> str:
    """Render the circles of the integer inversive rows into an SVG string
    with a y-up coordinate system."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    lines = rows[rows[:, 1] == 0]
    lines = lines[np.lexsort((lines[:, 0], lines[:, 3], lines[:, 2]))]
    _, b, wx, wy = rows[rows[:, 1] != 0].T
    # int64 entries below 2**53 convert to float exactly, so each quotient
    # rounds as Python's int / int does
    cx, cy, r = wx / b, wy / b, 1.0 / np.abs(b)
    order = np.lexsort((cy, cx, np.abs(b)))
    cx, cy, r = cx[order], cy[order], r[order]
    if viewport is None:
        if len(r):
            viewport = ((cx - r).min(), (cx + r).max(), (cy - r).min(), (cy + r).max())
        else:
            viewport = (-1.0, 1.0, -1.0, 1.0)
    x0, x1, y0, y1 = (float(v) for v in viewport)
    w = x1 - x0
    h = y1 - y0
    if w <= 0 or h <= 0:
        raise ValueError("empty viewport")
    pad = 0.02 * max(w, h)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    height = max(1, round(_SIZE * h / w))
    min_width = w / _SIZE  # one output pixel
    max_width = 0.1 * max(w, h)
    max_radius = float(r.max()) if len(r) else 1.0

    parts = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{height}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}">\n',
        '<g fill="none" stroke="#1a1a1a" transform="scale(1,-1)">\n',
    ]
    line_width = _fmt(_clamp(_STROKE_SCALE * max_radius, min_width, max_width))
    for a, _, nx, ny in lines.tolist():
        seg = _clip_line(float(nx), float(ny), a / 2, (x0, x1, y0, y1))
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke-width="{line_width}"/>\n'
        )
    for x, y, radius in zip(cx.tolist(), cy.tolist(), r.tolist()):
        sw = _clamp(_STROKE_SCALE * radius, min_width, max_width)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
            f'stroke-width="{_fmt(sw)}"/>\n'
        )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


def write_svg(path, rows, viewport: Rect | None = None) -> int:
    doc = svg_document(rows, viewport)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(doc)
    return len(doc)


def _clip_line(nx: float, ny: float, c: float, rect: Rect):
    """Segment of the line {(nx, ny) . p = c} inside the rectangle, or None."""
    x0, x1, y0, y1 = rect
    # direction along the line
    dx, dy = -ny, nx
    px, py = c * nx, c * ny
    ts = [
        t_num / t_den
        for t_den, t_num in ((dx, x0 - px), (dx, x1 - px), (dy, y0 - py), (dy, y1 - py))
        if abs(t_den) > 1e-15
    ]
    pts = []
    for t in sorted(ts):
        x, y = px + t * dx, py + t * dy
        if x0 - 1e-9 <= x <= x1 + 1e-9 and y0 - 1e-9 <= y <= y1 + 1e-9:
            pts.append((x, y))
    if len(pts) < 2:
        return None
    return pts[0], pts[-1]


def _clamp(v: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, v))
