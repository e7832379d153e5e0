"""Region decisions on inversive rows: does a circle meet a rectangle, and can
a branch of a walk still reach it.

A row is (cocurvature, curvature, curvature*x, curvature*y); a line has
curvature 0, its normal in the last two entries and twice its offset as
cocurvature (see ``geometry``).  Rows need not have unit norm: the radius is
sqrt(wx^2 + wy^2 - cocurvature*curvature) / |curvature|.  The closed interior
of a row is its closed disk for positive curvature, the closed outside of
the disk for negative curvature, and for a line the closed half-plane its
normal points into.  A rectangle (xmin, xmax, ymin, ymax) is closed, and a
curve meets it when both its closed interior and its closed exterior do.

Integer rows are decided exactly.  The corners are taken as the exact binary
values of the given floats, so (0.1, 0.3) is the float nearest that point,
not the decimal; a circle through the decimal corner is decided by where the
float corner actually lies.
"""

from __future__ import annotations

import math

import numpy as np

# |curvature| below which a float row is a line
LINE_EPS = 1e-12

Rect = tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)


def check_rect(rect) -> tuple[float, float, float, float]:
    """The rectangle as four floats; ValueError unless it is four finite
    numbers with xmin <= xmax and ymin <= ymax."""
    try:
        x0, x1, y0, y1 = (float(v) for v in rect)
    except (TypeError, ValueError):
        raise ValueError(f"a window is four numbers xmin, xmax, ymin, ymax; got {rect!r}") from None
    if not all(map(math.isfinite, (x0, x1, y0, y1))) or x0 > x1 or y0 > y1:
        raise ValueError(f"window needs finite xmin <= xmax and ymin <= ymax; got {rect!r}")
    return x0, x1, y0, y1


def meets(rows, rect) -> np.ndarray:
    """Bool mask over the (n, 4) inversive rows: which curves meet the
    closed rectangle, exactly for integer rows."""
    interior, exterior = _sides(rows, rect)
    return interior & exterior


def branch_alive(duals, rect) -> np.ndarray:
    """Bool mask over the (n, 4) oriented dual rows of n branches: whose
    closed interior, which holds every circle the branch creates, meets the
    closed rectangle.  Integer rows are tested in float64 first and the
    rows it rejects are decided again exactly, so no live branch is pruned;
    a row kept within float64 rounding of the boundary costs one visit."""
    duals = np.asarray(duals)
    alive = _sides(duals.astype(float), rect)[0]
    if duals.dtype.kind in "iu":
        redo = np.flatnonzero(~alive)
        alive[redo] = _sides(duals[redo], rect)[0]
    return alive


def _sides(rows, rect) -> tuple[np.ndarray, np.ndarray]:
    """Bool masks over the (n, 4) rows: whether the closed interior, and
    whether the closed exterior, meets the closed rectangle.  Integer rows
    are compared exactly, in Python ints scaled by |curvature| and by the
    common denominator of the corners; float rows use the same formulas in
    float64."""
    rows = np.asarray(rows)
    exact = rows.dtype.kind in "iu"
    if exact:
        fracs = [float(v).as_integer_ratio() for v in rect]
        den = math.lcm(*(d for _, d in fracs))
        corners = [n * (den // d) for n, d in fracs]
        if np.abs(rows).max(initial=0) >= 1 << 30:  # an int64 norm could overflow
            rows = rows.astype(object)
    else:
        den, corners, rows = 1.0, [float(v) for v in rect], rows.astype(float)
    a, b, wx, wy = rows.T
    norms = wx * wx + wy * wy - a * b  # (|b| * radius)^2
    lines = np.abs(b) < LINE_EPS
    if exact:
        a, b, wx, wy, norms = (col.astype(object) for col in (a, b, wx, wy, norms))
    x0, x1, y0, y1 = corners
    interior, exterior = np.empty((2, len(b)), dtype=bool)

    # circle, scaled by |b|*den: centre (X, Y), radius den*sqrt(norm),
    # corners |b|*corner
    circ = ~lines
    neg = b[circ] < 0
    bb = np.where(neg, -b[circ], b[circ])
    cx = np.where(neg, -wx[circ], wx[circ]) * den
    cy = np.where(neg, -wy[circ], wy[circ]) * den
    gaps = []
    for lo, hi, c in ((x0, x1, cx), (y0, y1, cy)):
        below = bb * lo - c  # > 0 when the centre is below the interval
        above = c - bb * hi  # > 0 when the centre is above it
        near = np.maximum(np.maximum(below, above), 0)
        far = np.maximum(np.abs(below), np.abs(above))
        gaps.append((near, far))
    (nx, fx), (ny, fy) = gaps
    r2 = norms[circ] * (den * den)
    disk = nx * nx + ny * ny <= r2  # the closed disk meets the rectangle
    outside = fx * fx + fy * fy >= r2  # so does the closed outside of it
    interior[circ] = np.where(neg, outside, disk)
    exterior[circ] = np.where(neg, disk, outside)

    # line {w.p = a/2}, scaled by 2*den: the corners' signed offsets, > 0 on
    # the side the normal points into
    a, wx, wy = a[lines], wx[lines], wy[lines]
    vals = np.array([2 * (wx * x + wy * y) - a * den for x in (x0, x1) for y in (y0, y1)])
    interior[lines] = vals.max(axis=0) >= 0
    exterior[lines] = vals.min(axis=0) <= 0
    return interior, exterior
