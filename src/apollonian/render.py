"""Deterministic SVG 1.1 emission for circle packings.

One <circle> element per proper circle and one <line> per line, ordered by
(curvature, center) so identical inputs give byte-identical files.  Stroke
widths scale with the radius (1/curvature), clamped to stay visible.
"""

from __future__ import annotations

import math

from .geometry import Circle, Rect

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_SIZE = 800  # output width in pixels
_STROKE_SCALE = 0.25  # stroke width per unit radius, before clamping


def _fmt(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def svg_document(circles: list[Circle], viewport: Rect | None = None) -> str:
    """Render circles into an SVG string with a y-up coordinate system."""
    circles = sorted(circles, key=_order_key)
    if viewport is None:
        viewport = _bounds(circles)
    x0, x1, y0, y1 = viewport
    w = x1 - x0
    h = y1 - y0
    if w <= 0 or h <= 0:
        raise ValueError("empty viewport")
    pad = 0.02 * max(w, h)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    height = max(1, round(_SIZE * h / w))
    min_width = w / _SIZE  # one output pixel
    max_radius = max((c.radius for c in circles if not c.is_line), default=1.0)

    parts = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{height}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}">\n',
        '<g fill="none" stroke="#1a1a1a" transform="scale(1,-1)">\n',
    ]
    for c in circles:
        if c.is_line:
            seg = _clip_line(c, (x0, x1, y0, y1))
            if seg is None:
                continue
            (ax, ay), (bx, by) = seg
            sw = _clamp(_STROKE_SCALE * max_radius, min_width, 0.1 * max(w, h))
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f'stroke-width="{_fmt(sw)}"/>\n'
            )
        else:
            cx, cy = c.center
            sw = _clamp(_STROKE_SCALE * c.radius, min_width, 0.1 * max(w, h))
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(c.radius)}" '
                f'stroke-width="{_fmt(sw)}"/>\n'
            )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


def write_svg(path, circles: list[Circle], viewport: Rect | None = None) -> int:
    doc = svg_document(circles, viewport)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(doc)
    return len(doc)


def _order_key(c: Circle):
    if c.is_line:
        return (c.unsigned_curvature, 0, (c.wx, c.wy, c.offset))
    return (c.unsigned_curvature, 1, c.center)


def _bounds(circles: list[Circle]) -> Rect:
    xs, ys = [], []
    for c in circles:
        if c.is_line:
            continue
        cx, cy = c.center
        r = c.radius
        xs += [cx - r, cx + r]
        ys += [cy - r, cy + r]
    if not xs:
        return (-1.0, 1.0, -1.0, 1.0)
    return (min(xs), max(xs), min(ys), max(ys))


def _clip_line(line: Circle, rect: Rect):
    """Segment of the line inside the rectangle, or None."""
    x0, x1, y0, y1 = rect
    nx, ny = line.wx, line.wy
    c = line.offset
    # direction along the line
    dx, dy = -ny, nx
    px, py = c * nx, c * ny
    ts = []
    for t_den, t_num in (
        (dx, x0 - px),
        (dx, x1 - px),
    ):
        if abs(t_den) > 1e-15:
            ts.append(t_num / t_den)
    for t_den, t_num in (
        (dy, y0 - py),
        (dy, y1 - py),
    ):
        if abs(t_den) > 1e-15:
            ts.append(t_num / t_den)
    if not ts:
        return None
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
