"""Region decisions on inversive rows: does a circle meet a rectangle, and can
a configuration's descendants still meet it.

A row is (cocurvature, curvature, curvature*x, curvature*y); a line has
curvature 0, its unit normal in the last two entries and twice its offset as
cocurvature (see ``geometry``).  A rectangle is (xmin, xmax, ymin, ymax) and
is closed.  A circle is in the rectangle when its curve meets it: the
distance from its centre to the rectangle is at most its radius and the
distance to the farthest corner is at least its radius.  A line is in it
unless all four corners lie strictly on one side.

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


def meets(rows, rect) -> np.ndarray:
    """Bool mask over the (n, 4) inversive rows: which curves meet the
    closed rectangle.  Integer rows are compared exactly, in Python ints
    scaled by |curvature| and by the common denominator of the corners;
    float rows use the same formulas in float64."""
    rows = np.asarray(rows)
    if rows.dtype.kind in "iu":
        fracs = [float(v).as_integer_ratio() for v in rect]
        den = math.lcm(*(d for _, d in fracs))
        corners = [n * (den // d) for n, d in fracs]
        rows = rows.astype(object)
        lines = rows[:, 1] == 0
    else:
        den = 1.0
        corners = [float(v) for v in rect]
        rows = rows.astype(float)
        lines = np.abs(rows[:, 1]) < LINE_EPS
    x0, x1, y0, y1 = corners
    out = np.zeros(rows.shape[0], dtype=bool)

    # circle, scaled by |b|*den: centre (X, Y), radius den, corners |b|*corner
    _, b, wx, wy = rows[~lines].T
    neg = b < 0
    bb = np.where(neg, -b, b)
    cx = np.where(neg, -wx, wx) * den
    cy = np.where(neg, -wy, wy) * den
    gaps = []
    for lo, hi, c in ((x0, x1, cx), (y0, y1, cy)):
        below = bb * lo - c  # > 0 when the centre is below the interval
        above = c - bb * hi  # > 0 when the centre is above it
        near = np.maximum(np.maximum(below, above), 0)
        far = np.maximum(np.abs(below), np.abs(above))
        gaps.append((near, far))
    (nx, fx), (ny, fy) = gaps
    r2 = den * den
    out[~lines] = (nx * nx + ny * ny <= r2) & (fx * fx + fy * fy >= r2)

    # line {w.p = a/2}, scaled by 2*den: the corners' signed offsets
    a, _, wx, wy = rows[lines].T
    vals = np.array([2 * (wx * x + wy * y) - a * den for x in (x0, x1) for y in (y0, y1)])
    out[lines] = (vals.min(axis=0) <= 0) & (vals.max(axis=0) >= 0)
    return out


def prune_margin(root_rows) -> float:
    """How far past the rectangle a branch's hull may reach and stay alive:
    twice the largest radius among the root's proper circles."""
    b = np.abs(np.asarray(root_rows, dtype=float)[:, 1])
    return 2.0 / b[b >= LINE_EPS].min()


def branch_alive(rows4, rect, margin: float) -> np.ndarray:
    """Conservative prune over the (m, 4, 4) rows of m configurations.

    The descendants of a configuration stay near the hull of its proper
    circles, so a configuration lives while that hull, widened by
    ``margin``, meets the rectangle.  Configurations without a proper circle
    are kept: nothing bounds them.
    """
    x0, x1, y0, y1 = rect
    rows4 = np.asarray(rows4, dtype=float)
    b = rows4[:, :, 1]
    proper = np.abs(b) >= LINE_EPS
    bsafe = np.where(proper, b, 1.0)
    r = 1.0 / np.abs(bsafe)
    cx = rows4[:, :, 2] / bsafe
    cy = rows4[:, :, 3] / bsafe
    xmin = np.where(proper, cx - r, np.inf).min(axis=1)
    xmax = np.where(proper, cx + r, -np.inf).max(axis=1)
    ymin = np.where(proper, cy - r, np.inf).min(axis=1)
    ymax = np.where(proper, cy + r, -np.inf).max(axis=1)
    alive = (xmax >= x0 - margin) & (xmin <= x1 + margin)
    alive &= (ymax >= y0 - margin) & (ymin <= y1 + margin)
    return alive | ~proper.any(axis=1)
