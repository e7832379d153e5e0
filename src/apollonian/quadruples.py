"""Integer Descartes quadruples, the four swap reflections, and orbit enumeration.

A Descartes quadruple holds the signed curvatures of four mutually tangent
circles (the bounding circle of a bounded packing carries the negative sign).
Replacing entry i by twice the sum of the others minus itself swaps the
corresponding circle for the second solution of the tangency problem; the four
swaps generate the group whose orbit of the root quadruple enumerates every
circle of the packing.  Each reduced word (no letter repeated twice in a row)
creates exactly one new circle, whose curvature is the new maximal entry, and
new entries never decrease along a branch, which makes breadth-first search
with a curvature bound exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Quad = tuple[int, int, int, int]

# Reflection matrices acting on row vectors (v -> v @ S_i).  Entry i of the
# result is 2*(sum of the other entries) - v_i; the rest are unchanged.
SWAP_MATRICES = np.array(
    [
        [[-1, 0, 0, 0], [2, 1, 0, 0], [2, 0, 1, 0], [2, 0, 0, 1]],
        [[1, 2, 0, 0], [0, -1, 0, 0], [0, 2, 1, 0], [0, 2, 0, 1]],
        [[1, 0, 2, 0], [0, 1, 2, 0], [0, 0, -1, 0], [0, 0, 2, 1]],
        [[1, 0, 0, 2], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, -1]],
    ],
    dtype=np.int64,
)

# Exact inversive coordinates (cocurvature, curvature, curvature*center) for
# the roots whose standard plane embedding is integral.  Row order matches the
# quadruple entry order.
KNOWN_EMBEDDINGS: dict[Quad, tuple[tuple[int, int, int, int], ...]] = {
    # bounding unit circle at the origin, half-radius circles at (+-1/2, 0),
    # third-radius circle at (0, 2/3)
    (-1, 2, 2, 3): ((1, -1, 0, 0), (0, 2, -1, 0), (0, 2, 1, 0), (1, 3, 0, 2)),
    # strip between the lines y=0 and y=2 with unit circles at (0,1), (2,1)
    (0, 0, 1, 1): ((0, 0, 0, -1), (4, 0, 0, 1), (0, 1, 0, 1), (4, 1, 2, 1)),
}

# numpy int64 headroom: new entries are bounded by 6*bound, and the sieve
# consumes pairwise products, so bounds up to 1e8 keep every intermediate
# below 2^63.
MAX_BOUND = 10**8

# lines formatted per call in _write_rows: bounds the format string, the
# argument tuple and the text held at once to a few MB
ROWS_PER_CHUNK = 1 << 16


class OverflowBoundError(ValueError):
    """Requested bound would risk silent int64 wraparound."""


class NotDescartesError(ValueError):
    """Input quadruple does not satisfy the Descartes relation."""


def descartes_form(v) -> int:
    """Evaluate 2*(a^2+b^2+c^2+d^2) - (a+b+c+d)^2; zero iff v is a Descartes quadruple.

    Uses Python integers, so the result is exact for any magnitude.
    """
    a, b, c, d = (int(x) for x in v)
    s = a + b + c + d
    return 2 * (a * a + b * b + c * c + d * d) - s * s


def apply_swap(v, i: int) -> Quad:
    """Swap entry i (1-based, matching S_1..S_4) of a Descartes quadruple."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"swap index must be in 1..4, got {i}")
    vv = [int(x) for x in v]
    j = i - 1
    vv[j] = 2 * (sum(vv) - vv[j]) - vv[j]
    return tuple(vv)


def is_primitive(v) -> bool:
    """True iff the gcd of the four entries is 1 (swaps preserve the gcd)."""
    return math.gcd(*(int(x) for x in v)) == 1


def reduce_to_root(v, max_iter: int = 100_000) -> Quad:
    """Reduce a quadruple to its root by repeatedly shrinking the maximal entry.

    Applies, among the swaps that strictly decrease the maximum entry, the one
    with the smallest index (determinism); stops at the fixed point.  Raises
    NotDescartesError for invalid input and RuntimeError if the iteration cap
    is hit, which signals a non-Descartes quadruple that slipped validation.
    """
    cur = tuple(int(x) for x in v)
    if descartes_form(cur) != 0:
        raise NotDescartesError(f"Q{cur} = {descartes_form(cur)} != 0")
    if all(x == 0 for x in cur):
        raise ValueError("the zero quadruple has no root")
    for _ in range(max_iter):
        m = max(cur)
        best = None
        for i in (1, 2, 3, 4):
            cand = apply_swap(cur, i)
            if max(cand) < m:
                best = cand
                break  # smallest index wins
        if best is None:
            return cur
        cur = best
    raise RuntimeError(f"root reduction did not terminate after {max_iter} swaps")


def is_root(v) -> bool:
    """True iff no swap strictly decreases the maximal entry."""
    cur = tuple(int(x) for x in v)
    m = max(cur)
    return all(max(apply_swap(cur, i)) >= m for i in (1, 2, 3, 4))


@dataclass
class PackingOrbit:
    """Circles of a packing enumerated up to a curvature bound.

    ``curvatures[k]`` is the signed curvature of circle id ``k``; ids 0..3 are
    the root circles that pass the bound/region filter, later ids follow BFS
    creation order.  ``edges`` (optional) lists tangent circle pairs, i.e.
    pairs co-occurring in some enumerated quadruple.  ``quads`` (optional)
    stores one row per enumerated quadruple in BFS order with ``quad_depths``
    giving the word length.  ``acc_rows`` (optional) carries the exact
    inversive coordinates of each circle when the root has a known integral
    embedding.
    """

    root: Quad
    bound: int
    curvatures: np.ndarray
    quad_count: int
    edges: np.ndarray | None = None
    quads: np.ndarray | None = None
    quad_depths: np.ndarray | None = None
    acc_rows: np.ndarray | None = None
    region: tuple[float, float, float, float] | None = None
    generations: int = 0

    @property
    def unsigned_curvatures(self) -> np.ndarray:
        return np.abs(self.curvatures)

    @property
    def circle_count(self) -> int:
        return int(self.curvatures.shape[0])


def _rows_meet_window(rows: np.ndarray, window, margin: float) -> np.ndarray:
    """Vectorized test whether a circle given by inversive rows can meet the
    window once widened by ``margin``.  rows has shape (n, 4)."""
    x0, x1, y0, y1 = window
    cocurv = rows[:, 0].astype(float)
    b = rows[:, 1].astype(float)
    wx = rows[:, 2].astype(float)
    wy = rows[:, 3].astype(float)
    ok = np.ones(len(rows), dtype=bool)
    proper = b != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / np.abs(b)
        cx = wx / b
        cy = wy / b
    p = proper
    ok[p] &= (cx[p] + r[p] >= x0 - margin) & (cx[p] - r[p] <= x1 + margin)
    ok[p] &= (cy[p] + r[p] >= y0 - margin) & (cy[p] - r[p] <= y1 + margin)
    # line {w.z = cocurv/2}: meets any expanded window unless all four corners
    # are strictly on its positive/negative side
    ln = ~proper
    if ln.any():
        c = cocurv[ln] / 2.0
        corners = [
            wx[ln] * (x0 - margin) + wy[ln] * (y0 - margin),
            wx[ln] * (x0 - margin) + wy[ln] * (y1 + margin),
            wx[ln] * (x1 + margin) + wy[ln] * (y0 - margin),
            wx[ln] * (x1 + margin) + wy[ln] * (y1 + margin),
        ]
        lo = np.minimum.reduce(corners) - c
        hi = np.maximum.reduce(corners) - c
        ok[ln] = (lo <= 0) & (hi >= 0)
    return ok


def _branch_alive(rows4: np.ndarray, window, margin: float) -> np.ndarray:
    """Prune test for BFS branches under a region restriction.

    rows4 has shape (n, 4, 4): the four inversive rows of each quadruple.
    All descendants of a quadruple stay inside the coordinate hull of its
    proper circles (lines excepted), so a branch whose hull of proper circles
    misses the widened window on either axis is dead.
    """
    x0, x1, y0, y1 = window
    b = rows4[:, :, 1].astype(float)
    proper = b != 0
    bsafe = np.where(proper, b, 1.0)
    r = 1.0 / np.abs(bsafe)
    cx = rows4[:, :, 2] / bsafe
    cy = rows4[:, :, 3] / bsafe
    big = np.inf
    xmin = np.where(proper, cx - r, big).min(axis=1)
    xmax = np.where(proper, cx + r, -big).max(axis=1)
    ymin = np.where(proper, cy - r, big).min(axis=1)
    ymax = np.where(proper, cy + r, -big).max(axis=1)
    alive = (xmax >= x0 - margin) & (xmin <= x1 + margin)
    alive &= (ymax >= y0 - margin) & (ymin <= y1 + margin)
    # no proper circle at all: keep (cannot bound the branch)
    alive |= ~proper.any(axis=1)
    return alive


def embedding_for_root(root: Quad) -> np.ndarray | None:
    rows = KNOWN_EMBEDDINGS.get(tuple(int(x) for x in root))
    return None if rows is None else np.array(rows, dtype=np.int64)


def enumerate_orbit(
    root,
    bound: int,
    *,
    tangency: bool = False,
    keep_quads: bool = False,
    embedding: np.ndarray | str | None = None,
    region: tuple[float, float, float, float] | None = None,
    region_margin: float | None = None,
    max_depth: int | None = None,
) -> PackingOrbit:
    """Breadth-first enumeration of all packing circles with |curvature| <= bound.

    Walks reduced words in the four swaps from the root quadruple; a branch is
    pruned once its new (maximal) entry exceeds the bound, which is exhaustive
    because new entries never decrease along a reduced word.  Every nonempty
    word contributes exactly one circle, so the returned multiset carries the
    true geometric multiplicity (mirror-symmetric packings repeat curvatures).

    ``embedding`` may be "auto" (look up the exact integral embedding of the
    root), an explicit (4, 4) integer array of inversive rows, or None.
    ``region`` (xmin, xmax, ymin, ymax) restricts the output to circles that
    meet the rectangle and prunes branches that leave it; it requires an
    embedding and is the only way to enumerate an unbounded (strip) packing,
    short of ``max_depth``.
    """
    root = tuple(int(x) for x in root)
    q0 = descartes_form(root)
    if q0 != 0:
        raise NotDescartesError(f"root {root} has Q = {q0} != 0")
    if not is_root(root):
        raise ValueError(f"{root} is not a root quadruple; reduce_to_root it first")
    bound = int(bound)
    if bound > MAX_BOUND:
        raise OverflowBoundError(f"bound {bound} exceeds supported maximum {MAX_BOUND}")
    if bound < min(abs(x) for x in root):
        raise ValueError(f"bound {bound} is below every root curvature {root}")

    if isinstance(embedding, str):
        if embedding != "auto":
            raise ValueError(f"unknown embedding spec {embedding!r}")
        rows0 = embedding_for_root(root)
        if rows0 is None and region is not None:
            raise ValueError(f"no built-in embedding for root {root}; pass explicit rows")
    elif embedding is not None:
        rows0 = np.asarray(embedding, dtype=np.int64)
        if rows0.shape != (4, 4):
            raise ValueError("embedding must be a (4, 4) array of inversive rows")
        if not np.array_equal(rows0[:, 1], np.array(root, dtype=np.int64)):
            raise ValueError("embedding curvature column does not match the root")
    else:
        rows0 = None

    unbounded = any(x == 0 for x in root)
    if unbounded and region is None and max_depth is None:
        raise ValueError(
            "unbounded packing (zero curvature entry): N(T) is infinite; "
            "pass region=... or max_depth=..."
        )
    if region is not None:
        if rows0 is None:
            raise ValueError("region filtering requires an embedding")
        if region_margin is None:
            proper = rows0[:, 1] != 0
            region_margin = 2.0 / np.abs(rows0[proper, 1]).min()

    with_rows = rows0 is not None
    track_ids = tangency

    # root circles: always materialized, filtered by bound (and region) below
    root_curv = np.array(root, dtype=np.int64)
    circ_curv = [root_curv]
    circ_rows = [rows0] if with_rows else None

    root_in_ball = max(abs(x) for x in root) <= bound
    quad_count = 1 if root_in_ball else 0
    quads_acc = [np.array([root], dtype=np.int64)] if (keep_quads and root_in_ball) else ([] if keep_quads else None)
    depths_acc = [np.array([0], dtype=np.int32)] if (keep_quads and root_in_ball) else ([] if keep_quads else None)

    edge_acc = None
    if track_ids:
        edge_acc = [np.array([[i, j] for i in range(4) for j in range(i + 1, 4)], dtype=np.int64)]

    frontier_q = np.array([root], dtype=np.int64)
    frontier_last = np.array([-1], dtype=np.int8)
    frontier_ids = np.array([[0, 1, 2, 3]], dtype=np.int64) if track_ids else None
    frontier_rows = rows0[None, :, :].copy() if with_rows else None
    next_id = 4
    depth = 0

    while frontier_q.shape[0] > 0:
        depth += 1
        if max_depth is not None and depth > max_depth:
            break
        nq, nlast, nids, nrows = [], [], [], []
        for i in range(4):
            mask = frontier_last != i
            if not mask.any():
                continue
            q = frontier_q[mask]
            new_entry = 2 * (q.sum(axis=1) - q[:, i]) - q[:, i]
            keep = new_entry <= bound
            if not keep.any():
                continue
            child = q[keep].copy()
            child[:, i] = new_entry[keep]
            crows = None
            if with_rows:
                r = frontier_rows[mask][keep]
                crows = r.copy()
                crows[:, i, :] = 2 * r.sum(axis=1) - 3 * r[:, i, :]
                if region is not None:
                    alive = _branch_alive(crows, region, region_margin)
                    if not alive.all():
                        child = child[alive]
                        crows = crows[alive]
                        keep_idx = np.flatnonzero(keep)[alive]
                    else:
                        keep_idx = np.flatnonzero(keep)
                else:
                    keep_idx = np.flatnonzero(keep)
            else:
                keep_idx = np.flatnonzero(keep)
            n = child.shape[0]
            if n == 0:
                continue
            quad_count += n
            circ_curv.append(child[:, i].copy())
            if with_rows:
                circ_rows.append(crows[:, i, :].copy())
            if keep_quads:
                quads_acc.append(child)
                depths_acc.append(np.full(n, depth, dtype=np.int32))
            if track_ids:
                ids = frontier_ids[mask][keep_idx].copy()
                new_ids = np.arange(next_id, next_id + n, dtype=np.int64)
                kept_pos = [p for p in range(4) if p != i]
                e = np.empty((3 * n, 2), dtype=np.int64)
                for k, p in enumerate(kept_pos):
                    e[k * n : (k + 1) * n, 0] = ids[:, p]
                    e[k * n : (k + 1) * n, 1] = new_ids
                edge_acc.append(e)
                ids[:, i] = new_ids
                nids.append(ids)
            next_id += n
            nq.append(child)
            nlast.append(np.full(n, i, dtype=np.int8))
            if with_rows:
                nrows.append(crows)
        if not nq:
            break
        frontier_q = np.concatenate(nq)
        frontier_last = np.concatenate(nlast)
        if track_ids:
            frontier_ids = np.concatenate(nids)
        if with_rows:
            frontier_rows = np.concatenate(nrows)

    curv = np.concatenate(circ_curv)
    rows_all = np.concatenate(circ_rows) if with_rows else None

    keep_mask = np.abs(curv) <= bound
    if region is not None:
        keep_mask &= _rows_meet_window(rows_all, region, 0.0)

    edges = None
    if track_ids:
        edges = np.concatenate(edge_acc)
        if not keep_mask.all():
            edges = edges[keep_mask[edges[:, 0]] & keep_mask[edges[:, 1]]]
            remap = np.cumsum(keep_mask) - 1
            edges = remap[edges]

    orbit = PackingOrbit(
        root=root,
        bound=bound,
        curvatures=curv[keep_mask],
        quad_count=quad_count,
        edges=edges,
        quads=np.concatenate(quads_acc) if keep_quads and quads_acc else (np.empty((0, 4), dtype=np.int64) if keep_quads else None),
        quad_depths=np.concatenate(depths_acc) if keep_quads and depths_acc else (np.empty(0, dtype=np.int32) if keep_quads else None),
        acc_rows=rows_all[keep_mask] if with_rows else None,
        region=region,
        generations=depth,
    )
    return orbit


def verify_distinct_circles(orbit: PackingOrbit) -> bool:
    """Validation mode for the reduced-word walk: check on exact inversive
    rows that no two words created the same circle.

    Distinct words may well revisit the same curvature vector (a root fixed
    by one of the swaps makes the whole packing mirror-symmetric), but the
    circles themselves must all differ; requires an embedding.
    """
    if orbit.acc_rows is None:
        raise ValueError("distinct-circle validation needs an embedding")
    rows = np.unique(orbit.acc_rows, axis=0)
    return rows.shape[0] == orbit.acc_rows.shape[0]


def write_orbit_dump(orbit: PackingOrbit, path) -> int:
    """Write the enumerated quadruples, one per line: depth then the four
    signed curvatures comma-separated.  Returns the number of lines."""
    if orbit.quads is None:
        raise ValueError("orbit was enumerated without keep_quads=True")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_rows(fh, "%d %d,%d,%d,%d\n", (orbit.quad_depths, *orbit.quads.T))
    return orbit.quads.shape[0]


def write_circles(orbit: PackingOrbit, path) -> None:
    """Write one line per circle, sorted by |curvature| and then by the exact
    inversive row (cocurvature, curvature, curvature*x, curvature*y).  With an
    embedding a line is ``curvature,x,y`` with the centre printed ``%.9f``,
    and a straight line (curvature 0) is ``0,,``; without one it is the
    signed curvature alone."""
    b = orbit.curvatures
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if orbit.acc_rows is None:
            fh.write("curvature\n")
            _write_rows(fh, "%d\n", (b[np.argsort(np.abs(b), kind="stable")],))
            return
        fh.write("curvature,x,y\n")
        rows = orbit.acc_rows
        order = np.lexsort((rows[:, 3], rows[:, 2], b, rows[:, 0], np.abs(b)))
        n_lines = int(np.count_nonzero(b == 0))  # |b| = 0 sorts first
        fh.write("0,,\n" * n_lines)
        order = order[n_lines:]
        bs = b[order]
        # int64 entries below 2**53 convert to float exactly, so each quotient
        # rounds as Python's int / int does; + 0.0 turns -0.0 into 0.0
        x = rows[order, 2] / bs + 0.0
        y = rows[order, 3] / bs + 0.0
        _write_rows(fh, "%d,%.9f,%.9f\n", (bs, x, y))


def _write_rows(fh, line_fmt: str, columns) -> None:
    """Write ``line_fmt % (columns[0][k], columns[1][k], ...)`` for each row k
    of the equal-length 1-D arrays ``columns``, ROWS_PER_CHUNK lines per
    ``%`` call.  Columns are converted with ``tolist``, so ``%d`` sees Python
    ints and ``%.9f`` Python floats, formatted exactly as an f-string would."""
    width = len(columns)
    n = len(columns[0])
    for start in range(0, n, ROWS_PER_CHUNK):
        stop = min(start + ROWS_PER_CHUNK, n)
        flat = [None] * ((stop - start) * width)
        for j, col in enumerate(columns):
            flat[j::width] = col[start:stop].tolist()
        fh.write((line_fmt * (stop - start)) % tuple(flat))
