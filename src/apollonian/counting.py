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
    (r <= eps/2) mark their bounding boxes.  Lines are sampled across the
    viewport when one is given and skipped otherwise.

    The box sizes fall into chains whose ratios are powers of two
    (``_chains``); the default grid 2^-k is one chain.  Dividing by 2^s is
    exact and floor(y / 2) = floor(floor(y) / 2), so the cell of a point at
    eps0 * 2^s is its cell at eps0, the finest size of the chain, shifted
    right by s bits.  So each circle marks its bounding box once, at the
    finest size of the chain that holds it in a box (``_boxes``), and every
    coarser size pools that occupancy 2x2 or shifts its keys
    (``_coarsen``).  Only the rest are binned at every size
    (``_cell_keys``): the samples of the circles larger than half a box,
    and the boxes of the few circles that rounding makes three cells wide
    or tall at their first size, where the clamp of ``_boxes`` does not
    commute with the shift.  The rows are read, and the samples made, in
    chunks of at most ``_SAMPLES_PER_CHUNK``, so memory follows one chunk,
    the occupied boxes and the circles sampled at the finest size, not the
    number of rows or samples.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise ValueError("box counting needs at least one box size")
    for eps in eps_grid.tolist():
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"box sizes must be finite and positive; got {eps}")
    rows = np.asarray(rows).reshape(-1, 4)
    # one pass for the largest curvature and the bounds of the circles;
    # every cell lies in the rectangle of these bounds divided by eps and
    # floored: adding, multiplying and dividing by eps round monotonically,
    # so no sample of a circle leaves its bounding box, and no kept line
    # sample leaves the viewport
    max_curv = 0.0
    bounds = [math.inf, -math.inf, math.inf, -math.inf]
    lines: list = []
    for curv, cx, cy, r in _circle_chunks(rows, lines):
        max_curv = max(max_curv, curv)
        bounds = [
            min(bounds[0], float((cx - r).min())),
            max(bounds[1], float((cx + r).max())),
            min(bounds[2], float((cy - r).min())),
            max(bounds[3], float((cy + r).max())),
        ]
    finest = float(eps_grid.min())
    if max_curv > 0 and finest < 2.0 / max_curv:
        warnings.warn(
            f"box size {finest:g} is below the resolution supported by "
            f"the enumeration bound {max_curv:g}",
            ResolutionWarning,
            stacklevel=2,
        )
    line_rows = np.concatenate([np.empty((0, 4)), *lines]) if viewport is not None else np.empty((0, 4))
    out = np.zeros(eps_grid.size, dtype=np.int64)
    if max_curv == 0 and not line_rows.size:
        return out
    if line_rows.size:
        x0, x1, y0, y1 = viewport
        bounds = [min(bounds[0], x0), max(bounds[1], x1), min(bounds[2], y0), max(bounds[3], y1)]
    for eps0, levels in _chains(eps_grid):
        fx0, fx1, fy0, fy1 = (math.floor(v / eps0) for v in bounds)
        # the rectangle of the cells at eps0 * 2^s
        rects = {s: (fx0 >> s, fy0 >> s, (fx1 >> s) - (fx0 >> s) + 1, (fy1 >> s) - (fy0 >> s) + 1) for s in levels}
        occupied, (cx, cy, r) = _mark_finest(rows, eps0, rects[0])
        rounds = _rounds(cx, cy, r)
        # of the circles left, those with r <= eps0/2 are the ones whose
        # box was clamped.  They are binned at every size: shifted, a
        # clamped box is part of the box at the coarser size, not all of it
        cut = r <= eps0 / 2.0
        boxed = cut.copy()
        shifts = sorted(levels)
        for s, after in zip(shifts, shifts[1:] + [None]):
            eps = math.ldexp(eps0, s)
            x0, y0, width, height = rects[s]
            # the circles that this size is the first to hold in a box
            # mark their boxes once, here, and are pooled from here on
            new = r <= eps / 2.0
            new &= ~boxed
            if new.any():
                boxed |= new
                keys, _, caught = _boxes(cx[new], cy[new], r[new], eps, x0, y0, width)
                cut[np.flatnonzero(new)[caught]] = True
                occupied = _mark_keys(keys, width, height, occupied)
            coarser = _coarsen(occupied, rects[s], rects[after], after - s) if after is not None else None
            keys = _cell_keys(cx[cut], cy[cut], r[cut], rounds, eps, rects[s], line_rows, viewport)
            out[levels[s]] = _occupied(_mark_keys(keys, width, height, occupied))
            occupied = coarser
    return out


def _chains(eps_grid: np.ndarray) -> list[tuple[float, dict[int, list[int]]]]:
    """The box sizes as chains (eps0, {s: [k, ...]}): size k of the grid is
    eps0 * 2^s exactly, and eps0, the finest size of its chain, is on the
    grid.  Sizes whose ratio is not a power of two fall in different chains;
    a repeated size keeps every index."""
    chains: list[tuple[float, dict[int, list[int]]]] = []
    for k in np.argsort(eps_grid, kind="stable").tolist():
        eps = float(eps_grid[k])
        for eps0, levels in chains:
            mant, exp = math.frexp(eps / eps0)
            if mant == 0.5 and math.ldexp(eps0, exp - 1) == eps:
                levels.setdefault(exp - 1, []).append(k)
                break
        else:
            chains.append((eps, {0: [k]}))
    return chains


# rows read, or samples made, per chunk: sampling a chunk takes near 80
# bytes a sample, so about 1.3 MB at any box size; chunks of 2^13 to 2^16
# count at the same speed
_SAMPLES_PER_CHUNK = 1 << 14


def _circle_chunks(rows: np.ndarray, lines: list | None = None):
    """(largest |curvature|, cx, cy, r) of the circles among the rows, a
    chunk of at most ``_SAMPLES_PER_CHUNK`` rows at a time; the lines of
    each chunk are appended to ``lines`` as float rows when it is a list,
    and skipped otherwise."""
    for lo in range(0, len(rows), _SAMPLES_PER_CHUNK):
        part = rows[lo : lo + _SAMPLES_PER_CHUNK]
        b = part[:, 1].astype(float)
        r = np.abs(b)
        is_line = r < LINE_EPS
        if is_line.any():
            if lines is not None:
                lines.append(part[is_line].astype(float))
            part, b, r = part[~is_line], b[~is_line], r[~is_line]
            if not r.size:
                continue
        cx = part[:, 2] / b
        cy = part[:, 3] / b
        curv = float(r.max())
        np.divide(1.0, r, out=r)
        yield curv, cx, cy, r


def _mark_finest(rows, eps0: float, rect: tuple[int, int, int, int]):
    """The cells at eps0 of the boxes of ``_boxes``, as ``_mark_keys``
    gives them over the rectangle ``rect`` (x0, y0, width, height), and
    (cx, cy, r) of the circles that mark no box or a clamped one, reading
    the rows a chunk at a time."""
    x0, y0, width, height = rect
    rest: list = [[], [], []]

    def keys():
        for _, cx, cy, r in _circle_chunks(rows):
            keys, big, cut = _boxes(cx, cy, r, eps0, x0, y0, width)
            other = big | cut
            if other.any():
                for part, kept in zip(rest, (cx, cy, r)):
                    part.append(kept[other])
            yield from keys

    occupied = _mark_keys(keys(), width, height)
    return occupied, [np.concatenate([np.empty(0), *part]) for part in rest]


def _boxes(cx, cy, r, eps: float, x0: int, y0: int, width: int):
    """The bounding boxes at eps of the circles with r <= eps/2, as four
    arrays of row-major keys over the rectangle of ``width`` columns at
    (x0, y0): the lower-left cell of each box, then the cells right of,
    above, and diagonal to it of the boxes two cells wide, tall, or both;
    and the masks of the circles with r > eps/2, which mark nothing, and
    of the circles whose box was clamped.  Such a box is at most 2x2 cells,
    but rounding can make floor((cx + r)/eps) exceed floor((cx - r)/eps)
    by 2; the box is then clamped to 2 cells."""
    lox = np.floor((cx - r) / eps)
    loy = np.floor((cy - r) / eps)
    wide = np.floor((cx + r) / eps)
    tall = np.floor((cy + r) / eps)
    wide -= lox
    tall -= loy
    big = r > eps / 2.0
    cut = wide > 1
    cut |= tall > 1
    corner = _row_major(lox.astype(np.int64), loy.astype(np.int64), x0, y0, width)
    wide = wide > 0
    tall = tall > 0
    if big.any():
        keep = ~big
        corner, wide, tall = corner[keep], wide[keep], tall[keep]
    # each array is new: the consumer may sort it in place
    right = corner[wide]
    right += 1
    above = corner[tall]
    above += width
    both = corner[wide & tall]
    both += width + 1
    return [corner, right, above, both], big, cut


def _coarsen(cells: np.ndarray, rect, to, steps: int) -> np.ndarray:
    """The cells that ``_mark_keys`` marked over the rectangle ``rect``
    (x0, y0, width, height), at 2^steps times the box size, marked over
    the rectangle ``to`` of that size: cell (ix, iy) goes to
    (ix >> steps, iy >> steps)."""
    x0, y0, width, _ = rect
    if cells.dtype == bool:
        for i in range(steps):
            cells = _pool(cells, x0 >> i, y0 >> i)
        return cells
    ky, kx = np.divmod(cells, width)
    kx += x0
    kx >>= steps
    ky += y0
    ky >>= steps
    keys = _row_major(kx, ky, *to[:3])
    del kx, ky
    return _mark_keys([keys], *to[2:])


def _pool(cells: np.ndarray, x0: int, y0: int) -> np.ndarray:
    """The (h, w) boolean occupancy of the cells at (x0, y0) and after, at
    twice the box size: cell (ix, iy) goes to (ix >> 1, iy >> 1), so the
    map is padded to whole 2x2 blocks and each block ORed into one cell."""
    h, w = cells.shape
    px, py = x0 & 1, y0 & 1
    if px or py or (h | w) & 1:
        padded = np.zeros((h + py + (h + py) % 2, w + px + (w + px) % 2), dtype=bool)
        padded[py : py + h, px : px + w] = cells
        cells = padded
    pairs = cells[0::2] | cells[1::2]
    return pairs.view(np.uint16) != 0


def _cell_keys(cx, cy, r, rounds, eps: float, rect, line_rows, viewport):
    """Row-major keys over the rectangle ``rect`` (x0, y0, width, height)
    of the cells of the eps-mesh that the curves mark, as arrays of at most
    ``_SAMPLES_PER_CHUNK`` keys (four a chunk of boxes), each made when the
    previous one has been used: the boxes of the circles (cx, cy, r), all
    with r <= eps/2, the samples of the circles of ``rounds`` with
    r > eps/2, then the samples of the lines."""
    x0, y0, width, _ = rect
    for lo in range(0, r.size, _SAMPLES_PER_CHUNK):
        hi = lo + _SAMPLES_PER_CHUNK
        yield from _boxes(cx[lo:hi], cy[lo:hi], r[lo:hi], eps, x0, y0, width)[0]
    for ix, iy in _sample_cells(rounds, eps):
        yield _row_major(ix, iy, x0, y0, width)
    if line_rows.size:
        vx0, vx1, vy0, vy1 = viewport
        span = math.hypot(vx1 - vx0, vy1 - vy0)
        ts = np.arange(-span, span, eps / 3.0)
        # the line {(nx, ny) . p = a/2} as p = (a/2) n + t (-ny, nx)
        for a, _, nx, ny in line_rows:
            for lo in range(0, ts.size, _SAMPLES_PER_CHUNK):
                t = ts[lo : lo + _SAMPLES_PER_CHUNK]
                xs = a / 2.0 * nx - t * ny
                ys = a / 2.0 * ny + t * nx
                inside = (xs >= vx0) & (xs <= vx1) & (ys >= vy0) & (ys <= vy1)
                ix = np.floor(xs[inside] / eps).astype(np.int64)
                iy = np.floor(ys[inside] / eps).astype(np.int64)
                yield _row_major(ix, iy, x0, y0, width)


def _rounds(cx: np.ndarray, cy: np.ndarray, r: np.ndarray):
    """The circles arranged for ``_sample_cells``, as (cx, cy, run, radii,
    repeats): ``radii`` holds the distinct radii by falling number of
    ``repeats``, and the circles come in rounds, round k holding the k-th
    circle of each radius repeated more than k times, in the order of the
    place ``run`` of its radius in ``radii``."""
    by_r = np.argsort(r, kind="stable")
    r_sorted = r[by_r]
    new = np.empty(r.size, dtype=bool)
    new[:1] = True
    np.not_equal(r_sorted[1:], r_sorted[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    radius = np.cumsum(new) - 1
    repeats = np.diff(starts, append=r.size)
    rank = np.argsort(-repeats, kind="stable")
    place = np.empty_like(rank)
    place[rank] = np.arange(rank.size)
    run = place[radius]
    # by round (the index among the circles of one radius), then by run
    order = np.argsort((np.arange(r.size) - starts[radius]) * rank.size + run, kind="stable")
    return cx[by_r[order]], cy[by_r[order]], run[order], r_sorted[starts[rank]], repeats[rank]


def _sample_cells(rounds, eps: float):
    """Cells (ix, iy) of the samples at arc steps of eps/3, at least 8 per
    circle, of the circles of ``rounds`` (``_rounds``) with r > eps/2, in
    chunks of at most ``_SAMPLES_PER_CHUNK`` samples; a circle with more
    samples than a chunk spans several.

    Sample j of a circle with n samples sits at angle j * (2 pi / n), which
    is np.linspace(0, 2 pi, n, endpoint=False) to the bit.  Equal radii
    have equal n, so r cos and r sin of the samples are read from one
    table, a run of n rows per distinct radius in the order of ``radii``.
    The table is made a piece of at most a chunk of rows at a time: whole
    runs, or part of one run longer than that.  Round k of the circles
    holds one circle of each radius with more than k repeats, which are the
    first radii, so it reads a prefix of each piece, in order: a sample is
    its circle's centre plus the next row of the piece, with no index per
    sample.
    """
    cx, cy, run, radii, repeats = rounds
    sampled = radii > eps / 2.0
    if not sampled.any():
        return
    if not sampled.all():
        keep = sampled[run]
        cx, cy, run = cx[keep], cy[keep], (np.cumsum(sampled) - 1)[run[keep]]
        radii, repeats = radii[sampled], repeats[sampled]
    n = np.maximum(8, np.ceil(2 * math.pi * radii / (eps / 3.0)).astype(np.int64))
    run_ends = np.cumsum(n)
    # round k holds the k-th circle of runs 0 .. held[k] - 1, from circle
    # first_of[k] on
    held = np.searchsorted(-repeats, -np.arange(int(repeats[0])), side="left")
    first_of = np.cumsum(held) - held
    p0, rows = 0, int(run_ends[-1])
    while p0 < rows:
        # the piece of table rows p0 .. p1 - 1, in runs u0 .. u1 - 1
        u0 = int(np.searchsorted(run_ends, p0, side="right"))
        p1 = min(rows, p0 + _SAMPLES_PER_CHUNK)
        whole = int(np.searchsorted(run_ends, p1, side="right"))
        if whole > u0:
            p1 = int(run_ends[whole - 1])
        u1 = int(np.searchsorted(run_ends, p1 - 1, side="right")) + 1
        # the rows of each run in the piece
        starts = run_ends[u0:u1] - n[u0:u1]
        width = np.minimum(run_ends[u0:u1], p1) - np.maximum(starts, p0)
        th = np.arange(p0, p1)
        th -= np.repeat(starts, width)
        th = th * np.repeat(2 * math.pi / n[u0:u1], width)
        rr = np.repeat(radii[u0:u1], width)
        rcos = np.cos(th)
        rcos *= rr
        rsin = np.sin(th, out=th)
        rsin *= rr
        del th, rr
        # round k reads runs u0 .. u0 + per[k] - 1: its circles, from
        # first_of[k] + u0, read rows 0 .. round_len[k] - 1 of the piece
        per = np.minimum(held[held > u0], u1) - u0
        round_len = np.cumsum(width)[per - 1]
        offset = np.arange(int(per.sum())) - np.repeat(np.cumsum(per) - per, per)
        circles = np.repeat(first_of[: per.size] + u0, per) + offset
        ends = np.cumsum(width[offset])
        first = ends - width[offset]
        round_ends = np.cumsum(round_len)
        total = int(round_ends[-1])
        for s0 in range(0, total, _SAMPLES_PER_CHUNK):
            s1 = min(s0 + _SAMPLES_PER_CHUNK, total)
            # circles c0 .. c1 - 1 of the piece hold samples s0 .. s1 - 1
            c0 = int(np.searchsorted(ends, s0, side="right"))
            c1 = int(np.searchsorted(ends, s1 - 1, side="right")) + 1
            counts = np.minimum(ends[c0:c1], s1) - np.maximum(first[c0:c1], s0)
            xs = np.repeat(cx[circles[c0:c1]], counts)
            ys = np.repeat(cy[circles[c0:c1]], counts)
            # add the rows that each round the chunk meets reads
            k0 = int(np.searchsorted(round_ends, s0, side="right"))
            k1 = int(np.searchsorted(round_ends, s1 - 1, side="right")) + 1
            for end, length in zip(round_ends[k0:k1].tolist(), round_len[k0:k1].tolist()):
                lo, hi = max(s0, end - length), min(s1, end)
                xs[lo - s0 : hi - s0] += rcos[lo - end + length : hi - end + length]
                ys[lo - s0 : hi - s0] += rsin[lo - end + length : hi - end + length]
            xs /= eps
            ys /= eps
            yield np.floor(xs, out=xs).astype(np.int64), np.floor(ys, out=ys).astype(np.int64)
        p0 = p1


# cells of the largest rectangle that _mark_keys marks on a boolean map
# (bytes, one a cell)
_BOX_BAND_CELLS = 1 << 22


def _mark_keys(keys, width: int, height: int, cells=None) -> np.ndarray:
    """The cells of the int64 key arrays, row-major over a rectangle of
    ``width`` x ``height`` cells (``_occupied`` counts them).

    A rectangle of at most ``_BOX_BAND_CELLS`` cells is a (height, width)
    boolean map, on which each array marks its keys.  For a larger one the
    distinct keys, ascending, are returned: this keeps the distinct keys
    seen so far as one sorted union and each later array's distinct keys
    (sorted in place, then compared with their neighbours), and merges
    those into the union whenever they outnumber it.  So the work and
    memory follow the occupied cells, not the area of the rectangle nor the
    number of arrays that mark a cell.  ``cells``, when given, holds cells
    already marked, as this returns them: a map is marked in place, and
    distinct keys start the union.
    """
    if width * height >= 1 << 63:
        raise OverflowError(f"a {width} x {height} cell rectangle overflows int64 keys")
    if width * height <= _BOX_BAND_CELLS:
        if cells is None:
            cells = np.zeros((height, width), dtype=bool)
        flat = cells.reshape(-1)
        for key in keys:
            flat[key] = True
        return cells
    union = np.empty(0, dtype=np.int64) if cells is None else cells
    pending = []  # the arrays' distinct keys since the last merge
    for key in keys:
        pending.append(_distinct(key))
        if sum(map(len, pending)) > union.size:
            union, pending = _distinct(np.concatenate([union, *pending])), []
    return _distinct(np.concatenate([union, *pending]))


def _occupied(cells: np.ndarray) -> int:
    """The number of cells that ``_mark_keys`` marked."""
    return int(np.count_nonzero(cells)) if cells.dtype == bool else cells.size


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
