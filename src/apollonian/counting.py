"""Counting statistics: curvature count curves, region counts, power-law
exponent fits, distribution ratios, and box-counting dimension."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadruples import MAX_BOUND, PackingOrbit
from .region import LINE_EPS, Rect, meets

# circles sorted at once by count_by_curvature (4 MB of int32)
COUNT_CHUNK = 1 << 20


@dataclass
class CountCurve:
    """N(T) samples: the number of circles of unsigned curvature <= T."""

    ts: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.counts = np.asarray(self.counts)
        if np.any(np.diff(self.ts) < 0):
            raise ValueError("grid must be sorted ascending")
        if np.any(np.diff(self.counts) < 0):
            raise ValueError("counts must be non-decreasing in T")


@dataclass
class ExponentFit:
    alpha_hat: float
    stderr: float
    window: tuple[float, float]
    c_hat: float


def count_by_curvature(orbit: PackingOrbit, grid) -> CountCurve:
    """Exact counts with multiplicity at each grid point (unsigned curvatures)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and grid.max() > orbit.bound:
        raise ValueError(
            f"grid point {grid.max():g} exceeds the orbit bound {orbit.bound}"
        )
    if not np.isfinite(grid).all():
        raise ValueError("grid points must be finite")
    if orbit.bound > MAX_BOUND:
        raise ValueError(f"orbit bound {orbit.bound} exceeds {MAX_BOUND}; int32 keys would wrap")
    b = orbit.curvatures
    # |b| <= t exactly when |b| <= floor(t); integer keys keep searchsorted
    # from casting the curvatures to float.  |b| <= bound <= MAX_BOUND < 2^31,
    # so int32 holds them, and a key below -1 counts nothing, as -1 does
    keys = np.floor(np.maximum(grid, -1.0)).astype(np.int32)
    counts = np.zeros(grid.shape, dtype=np.intp)
    # one sorted chunk at a time, so that no copy of the whole array is made
    for start in range(0, b.size, COUNT_CHUNK):
        u = b[start : start + COUNT_CHUNK].astype(np.int32)
        np.abs(u, out=u)
        u.sort()
        counts += np.searchsorted(u, keys, side="right")
    return CountCurve(grid, counts)


def fit_exponent(curve: CountCurve, window: tuple[float, float]) -> ExponentFit:
    """Least squares slope of log N against log T over the window.

    The slope estimates the growth exponent and exp(intercept) the prefactor
    of the power law N(T) ~ c * T^alpha.
    """
    tmin, tmax = window
    mask = (curve.ts >= tmin) & (curve.ts <= tmax)
    if mask.sum() < 5:
        raise ValueError(f"window {window} holds {int(mask.sum())} samples; need >= 5")
    n = curve.counts[mask]
    if np.any(n <= 0):
        raise ValueError("window contains zero counts; shrink it")
    x = np.log(curve.ts[mask])
    y = np.log(n.astype(float))
    k = x.size
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(k - 2, 1)
    stderr = float(math.sqrt(float(resid @ resid) / dof / sxx))
    return ExponentFit(
        alpha_hat=slope,
        stderr=stderr,
        window=(float(tmin), float(tmax)),
        c_hat=math.exp(intercept),
    )


def count_in_region(rows: np.ndarray, bound: float, rect: Rect) -> int:
    """Circles, given as (n, 4) inversive rows, with unsigned curvature
    <= bound whose curve meets the closed rectangle (``region.meets``)."""
    rows = np.asarray(rows)
    return int(np.count_nonzero(meets(rows[np.abs(rows[:, 1]) <= bound], rect)))


def ratio_uniformity(rows: np.ndarray, bound: float, e1: Rect, e2: Rect) -> float:
    """N(T, E1) / N(T, E2) over (n, 4) inversive rows; the ratio stabilizes
    toward the ratio of the residual-set measures of the two regions as T
    grows."""
    denom = count_in_region(rows, bound, e2)
    if denom == 0:
        raise ZeroDivisionError(f"no circle of curvature <= {bound} meets {e2}")
    return count_in_region(rows, bound, e1) / denom


class ResolutionWarning(UserWarning):
    """A box size is finer than the enumeration bound resolves."""


def box_counts(rows: np.ndarray, eps_grid, viewport: Rect | None = None) -> np.ndarray:
    """Occupied-box counts B(eps) for the union of the curves of the (n, 4)
    inversive rows.

    Each circle curve is sampled at arc steps of eps/3 (at least 8 samples)
    and its samples are binned to the eps-mesh; circles smaller than a box
    mark their bounding boxes.  Lines are sampled across the viewport when
    one is given and skipped otherwise.  Each box size is counted in one pass
    over chunks of at most ``_SAMPLES_PER_CHUNK`` cells (``_cell_chunks``),
    each dropped before the next is made (``_count_cells``), so memory
    follows one chunk and the occupied boxes, not the number of samples.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0):
        raise ValueError("box sizes must be positive")
    rows = np.asarray(rows).reshape(-1, 4)
    lines = np.abs(rows[:, 1]) < LINE_EPS
    line_rows = rows[lines].astype(float) if viewport is not None else np.empty((0, 4))
    idx = np.flatnonzero(~lines)
    radii = rows[idx, 1].astype(float)
    np.abs(radii, out=radii)
    max_curv = radii.max(initial=0.0)
    if max_curv > 0 and eps_grid.min() < 2.0 / max_curv:
        warnings.warn(
            f"box size {eps_grid.min():g} is below the resolution supported by "
            f"the enumeration bound {max_curv:g}",
            ResolutionWarning,
            stacklevel=2,
        )
    # circles by increasing radius, so that those smaller than a box are a
    # prefix at every box size; only the centres and radii are kept, and the
    # centres are computed a chunk of rows at a time
    np.divide(1.0, radii, out=radii)
    order = np.argsort(radii)
    radii = radii[order]
    idx = idx[order]
    del order
    cx = np.empty(idx.size)
    cy = np.empty(idx.size)
    for lo in range(0, idx.size, _SAMPLES_PER_CHUNK):
        part = rows[idx[lo : lo + _SAMPLES_PER_CHUNK]]
        b = part[:, 1].astype(float)
        cx[lo : lo + b.size] = part[:, 2] / b
        cy[lo : lo + b.size] = part[:, 3] / b
    del idx
    # every cell lies in the rectangle of these bounds divided by eps and
    # floored: adding, multiplying and dividing by eps round monotonically,
    # so no sample of a circle leaves its bounding box, and no kept line
    # sample leaves the viewport
    bounds = [
        (cx - radii).min(initial=math.inf),
        (cx + radii).max(initial=-math.inf),
        (cy - radii).min(initial=math.inf),
        (cy + radii).max(initial=-math.inf),
    ]
    if line_rows.size:
        x0, x1, y0, y1 = viewport
        bounds = [min(bounds[0], x0), max(bounds[1], x1), min(bounds[2], y0), max(bounds[3], y1)]
    out = np.zeros(eps_grid.size, dtype=np.int64)
    if not (radii.size or line_rows.size):
        return out
    for k, eps in enumerate(eps_grid):
        fx0, fx1, fy0, fy1 = (math.floor(v / eps) for v in bounds)
        out[k] = _count_cells(
            _cell_chunks(cx, cy, radii, eps, line_rows, viewport),
            fx0,
            fy0,
            fx1 - fx0 + 1,
            fy1 - fy0 + 1,
        )
    return out


# samples per chunk: sampling a chunk takes near 80 bytes a sample, so about
# 1.3 MB at any box size; chunks of 2^13 to 2^16 count at the same speed
_SAMPLES_PER_CHUNK = 1 << 14


def _cell_chunks(cx, cy, r, eps: float, line_rows, viewport):
    """Cells (ix, iy) of the eps-mesh that the curves mark, as chunks of at
    most ``_SAMPLES_PER_CHUNK`` cells, each made when the previous one has
    been used: the bounding-box cells of the circles smaller than a box
    (r <= eps/2, a prefix of the radii, which ascend), the samples of the
    other circles, then the samples of the lines."""
    m = int(np.searchsorted(r, eps / 2.0, side="right"))
    for lo in range(0, m, _SAMPLES_PER_CHUNK):
        hi = min(m, lo + _SAMPLES_PER_CHUNK)
        yield from _bounding_cells(cx[lo:hi], cy[lo:hi], r[lo:hi], eps)
    yield from _sample_cells(cx[m:], cy[m:], r[m:], eps)
    if line_rows.size:
        x0, x1, y0, y1 = viewport
        span = math.hypot(x1 - x0, y1 - y0)
        ts = np.arange(-span, span, eps / 3.0)
        # the line {(nx, ny) . p = a/2} as p = (a/2) n + t (-ny, nx)
        for a, _, nx, ny in line_rows:
            for lo in range(0, ts.size, _SAMPLES_PER_CHUNK):
                t = ts[lo : lo + _SAMPLES_PER_CHUNK]
                xs = a / 2.0 * nx - t * ny
                ys = a / 2.0 * ny + t * nx
                inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
                yield np.floor(xs[inside] / eps).astype(np.int64), np.floor(ys[inside] / eps).astype(np.int64)


def _bounding_cells(cx, cy, r, eps: float):
    """Cells of the bounding boxes of circles with r <= eps/2, as up to four
    (ix, iy) parts: such a box is at most 2x2 cells, and most are one cell,
    so only the wide and tall ones mark a second column or row."""
    lox = np.floor((cx - r) / eps).astype(np.int64)
    loy = np.floor((cy - r) / eps).astype(np.int64)
    hix = np.minimum(np.floor((cx + r) / eps).astype(np.int64), lox + 1)
    hiy = np.minimum(np.floor((cy + r) / eps).astype(np.int64), loy + 1)
    wide = hix > lox
    tall = hiy > loy
    both = wide & tall
    yield lox, loy
    yield hix[wide], loy[wide]
    yield lox[tall], hiy[tall]
    yield hix[both], hiy[both]


def _sample_cells(cx: np.ndarray, cy: np.ndarray, r: np.ndarray, eps: float):
    """Cells (ix, iy) of the samples of the circles at arc steps of eps/3,
    at least 8 per circle, one chunk of ``_SAMPLES_PER_CHUNK`` consecutive
    samples at a time (the last chunk may be shorter); a circle with more
    samples than a chunk spans several."""
    n = np.maximum(8, np.ceil(2 * math.pi * r / (eps / 3.0)).astype(np.int64))
    ends = np.cumsum(n)
    total = int(ends[-1]) if n.size else 0
    for s0 in range(0, total, _SAMPLES_PER_CHUNK):
        s1 = min(s0 + _SAMPLES_PER_CHUNK, total)
        # circles c0 .. c1 - 1 hold samples s0 .. s1 - 1
        c0 = int(np.searchsorted(ends, s0, side="right"))
        c1 = int(np.searchsorted(ends, s1 - 1, side="right")) + 1
        first = ends[c0:c1] - n[c0:c1]
        owner = np.repeat(
            np.arange(c1 - c0), np.minimum(ends[c0:c1], s1) - np.maximum(first, s0)
        )
        # sample j of a circle with n samples sits at angle j * (2 pi / n),
        # which is np.linspace(0, 2 pi, n, endpoint=False) to the bit
        th = (np.arange(s0, s1) - first[owner]) * (2 * math.pi / n[c0:c1][owner])
        xs = cx[c0:c1][owner] + r[c0:c1][owner] * np.cos(th)
        ys = cy[c0:c1][owner] + r[c0:c1][owner] * np.sin(th)
        yield np.floor(xs / eps).astype(np.int64), np.floor(ys / eps).astype(np.int64)


# cells of the largest rectangle that _count_cells marks on a boolean map
# (bytes, one a cell)
_BOX_BAND_CELLS = 1 << 22


def _count_cells(chunks, x0: int, y0: int, width: int, height: int) -> int:
    """Distinct cells among the (ix, iy) int64 index pairs of the chunks, all
    inside the rectangle of ``width`` x ``height`` cells at (x0, y0).

    The cells are keyed row-major over the rectangle.  A rectangle of at
    most ``_BOX_BAND_CELLS`` cells is a boolean map, on which each chunk
    marks its keys.  A larger one keeps the distinct keys seen so far as one
    sorted union and each later chunk's distinct keys (sorted, then compared
    with their neighbours), and merges those into the union whenever they
    outnumber it.  So the work and memory follow the occupied cells, not
    the area of the rectangle nor the number of chunks that mark a cell.
    """
    if width * height >= 1 << 63:
        raise OverflowError(f"a {width} x {height} cell rectangle overflows int64 keys")
    if width * height <= _BOX_BAND_CELLS:
        cells = np.zeros(width * height, dtype=bool)
        for ix, iy in chunks:
            cells[_row_major(ix, iy, x0, y0, width)] = True
        return int(np.count_nonzero(cells))
    union, pending = np.empty(0, dtype=np.int64), []  # pending: the chunks' keys since the last merge
    for ix, iy in chunks:
        pending.append(_distinct(_row_major(ix, iy, x0, y0, width)))
        if sum(map(len, pending)) > union.size:
            union, pending = _distinct(np.concatenate([union, *pending])), []
    return _distinct(np.concatenate([union, *pending])).size


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D array, ascending; sorts it in place.
    A sort and a neighbour compare: ``np.unique`` hashes int64 keys, which is
    several times slower here."""
    keys.sort()
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _row_major(ix: np.ndarray, iy: np.ndarray, x0: int, y0: int, width: int) -> np.ndarray:
    """(iy - y0) * width + (ix - x0), computed in place in one new array."""
    key = iy - y0
    key *= width
    key += ix
    key -= x0
    return key


def boxcount_dimension(
    rows: np.ndarray, eps_grid, viewport: Rect | None = None
) -> float:
    """Least-squares slope of log B(eps) against log(1/eps): the box-counting
    dimension estimate of the union of the curves of the (n, 4) inversive
    rows.  It needs at least two distinct box sizes."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    if len(set(eps_grid.tolist())) < 2:
        raise ValueError(f"a slope needs at least two distinct box sizes; got {eps_grid.tolist()}")
    b = box_counts(rows, eps_grid, viewport=viewport)
    if np.any(b <= 0):
        raise ValueError("a box size produced zero occupied boxes")
    x = np.log(1.0 / eps_grid)
    y = np.log(b.astype(float))
    xbar = x.mean()
    return float(((x - xbar) * (y - y.mean())).sum() / ((x - xbar) ** 2).sum())
