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

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .region import branch_alive, check_rect, meets

Quad = tuple[int, int, int, int]

log = logging.getLogger(__name__)

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

# the entries a swap leaves in place, for each swap index
KEPT_POSITIONS = np.array([[p for p in range(4) if p != i] for i in range(4)])

# lines formatted at once by _write_table: its unit matrix takes about 64
# bytes a line, so a chunk and the digit arrays beside it stay near 1 MB
ROWS_PER_CHUNK = 1 << 14


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
    is hit, as it is for a quadruple more than ``max_iter`` swaps from its root.
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
    giving the word length (under a ``region``, see ``enumerate_orbit``).
    ``acc_rows`` (optional) carries the exact inversive row (cocurvature,
    curvature, curvature*x, curvature*y) of each circle when the root has a
    known integral embedding; its column 1 equals ``curvatures``.
    """

    root: Quad
    bound: int
    curvatures: np.ndarray
    quad_count: int
    edges: np.ndarray | None = None
    quads: np.ndarray | None = None
    quad_depths: np.ndarray | None = None
    acc_rows: np.ndarray | None = None
    generations: int = 0

    @property
    def unsigned_curvatures(self) -> np.ndarray:
        return np.abs(self.curvatures)

    @property
    def circle_count(self) -> int:
        return int(self.curvatures.shape[0])


def embedding_for_root(root: Quad) -> np.ndarray | None:
    rows = KNOWN_EMBEDDINGS.get(tuple(int(x) for x in root))
    return None if rows is None else np.array(rows, dtype=np.int64)


def enumerate_orbit(
    root,
    bound: int,
    *,
    tangency: bool = False,
    keep_quads: bool = False,
    embedding: str | None = None,
    region: tuple[float, float, float, float] | None = None,
) -> PackingOrbit:
    """Breadth-first enumeration of all packing circles with |curvature| <= bound.

    Walks reduced words in the four swaps from the root quadruple; a branch is
    pruned once its new (maximal) entry exceeds the bound, which is exhaustive
    because new entries never decrease along a reduced word.  Every nonempty
    word contributes exactly one circle, so the returned multiset carries the
    true geometric multiplicity (mirror-symmetric packings repeat curvatures).

    Each generation is one pass over one frontier of circles.  A circle is
    a row of lanes: its signed curvature alone, or, with an embedding, its
    exact inversive row, whose lane 1 is the curvature.  Swap i replaces
    circle C_i of a quadruple by 2*S - 3*C_i, S the sum of its four circles,
    on every lane at once; the bound is tested on the curvature lane.  The
    next frontier is laid out in four contiguous blocks, one per swap, each
    in parent order, so that the quads a swap made are one slice of it and
    the next generation forbids repeating that swap by masking the slice.
    Child ids, edges, quads and circles all follow this swap-major order.
    Each generation's circles are written into one int64 result that grows
    in place, so the walk never joins its pieces into a second copy.

    Without an embedding the lanes are int32 whenever 8*m < 2**31, m the
    larger of the bound and the largest |root entry|, and int64 otherwise;
    rows are always int64.  Every entry of a walked quad lies in [-m, m]
    (one negative entry at most, the bounding circle), so its doubled sum
    2*S lies in [-2*m, 8*m], and a kept child 2*S - 3*C_old in (0, bound]:
    no int32 step can wrap.  Under ``MAX_BOUND`` that holds for every root
    whose entries are below 2**28.  The returned arrays are int64 on every
    path.

    One DEBUG record per generation on the ``apollonian.quadruples`` logger
    gives its depth, its width (the quads it made) and the quads made so
    far.

    ``embedding`` may be "auto" (look up the exact integral embedding of the
    root) or None.
    ``region`` (xmin, xmax, ymin, ymax) keeps the circles whose curve meets
    the closed rectangle (``region.meets``, exact).  The walk visits only the
    quadruples whose swap's dual circle, which holds the whole branch, meets
    it (``region.branch_alive``), so ``quads`` and ``quad_count`` count those.
    A region needs an embedding and is the only way to enumerate an
    unbounded (strip) packing.
    """
    root = tuple(int(x) for x in root)
    q0 = descartes_form(root)
    if q0 != 0:
        raise NotDescartesError(f"root {root} has Q = {q0} != 0")
    if not is_root(root):
        raise ValueError(f"{root} is not a root quadruple; reduce_to_root it first")
    if sum(x < 0 for x in root) > 1:
        # every child would be negative and pass the bound: the walk would
        # never end
        raise ValueError(f"root {root} has more than one negative curvature; a packing has one bounding circle at most")
    bound = int(bound)
    if bound > MAX_BOUND:
        raise OverflowBoundError(f"bound {bound} exceeds supported maximum {MAX_BOUND}")
    if bound < min(abs(x) for x in root):
        raise ValueError(f"bound {bound} is below every root curvature {root}")
    if region is not None:
        region = check_rect(region)

    if embedding is None:
        rows0 = None
    elif isinstance(embedding, str) and embedding == "auto":
        rows0 = embedding_for_root(root)
    else:
        raise ValueError(f"unknown embedding spec {embedding!r}")

    if any(x == 0 for x in root) and region is None:
        raise ValueError("unbounded packing (zero curvature entry): N(T) is infinite; pass region=...")
    if region is not None and rows0 is None:
        raise ValueError(f"region filtering needs a built-in embedding (embedding='auto'); root {root}")

    # the root circles, one row of lanes each; lane ``lane`` is the curvature
    if rows0 is None:
        start, lane = np.array(root, dtype=_lane_dtype(root, bound))[:, None], 0
    else:
        start, lane = rows0, 1

    # every circle, root circles first, in one int64 array grown in place;
    # filtered by bound (and region) below
    circles = np.empty((4, start.shape[1]), dtype=np.int64)
    circles[:] = start
    count = 4
    quad_count = int(max(abs(x) for x in root) <= bound)  # the root quad
    quads_acc = [np.array([root] * quad_count, dtype=np.int64).reshape(-1, 4)] if keep_quads else None
    depths_acc = [np.zeros(quad_count, dtype=np.int32)] if keep_quads else None
    edge_acc = [np.array([[i, j] for i in range(4) for j in range(i + 1, 4)], dtype=np.int64)] if tangency else None

    # the frontier is entry-major, (4, n, lanes), and circle ids (4, n), so
    # that each entry position is one contiguous block
    frontier = start[:, None, :].copy()
    frontier_ids = np.arange(4, dtype=np.int64)[:, None] if tangency else None
    ends = [0] * 5  # the root was made by no swap
    depth = 0

    while True:
        depth += 1
        width = frontier.shape[1]
        # swap i replaces C_i by 2*S - 3*C_i, S the sum of the quadruple's
        # circles; on the curvature lane that stays within the bound exactly
        # when q_i >= ceil((2*sum(q) - bound) / 3)
        twice_sum = 2 * frontier.sum(axis=0, dtype=frontier.dtype)
        keep = frontier[..., lane] >= (twice_sum[:, lane] - bound + 2) // 3
        for i in range(4):
            keep[i, ends[i] : ends[i + 1]] = False  # no swap repeats
        # the children lie in four contiguous blocks, one per swap and each
        # in parent order: swap i's are columns ends[i]:ends[i + 1].
        # ``parent`` indexes the swapped circle C_old among the frontier's
        # 4 * width, ascending, until it is reduced to frontier positions
        parent = np.flatnonzero(keep)
        del keep
        new = frontier.reshape(4 * width, -1).take(parent, axis=0)  # C_old
        if region is not None:
            # the swap's branch lies in the closed interior of its dual
            # circle D, and 2D = S - 2*C_old is an integer row
            alive = branch_alive(twice_sum.take(parent % width, axis=0) // 2 - 2 * new, region)
            parent, new = parent[alive], new[alive]
            del alive
        ends = [0, *np.searchsorted(parent, width * np.arange(1, 5)).tolist()]
        n = ends[4]
        quad_count += n
        log.debug("generation %d: %d quads, %d in all", depth, n, quad_count)
        if n == 0:
            break
        parent %= width
        new *= -3
        new += twice_sum.take(parent, axis=0)  # 2*S - 3*C_old
        del twice_sum
        child = frontier.take(parent, axis=1)
        if tangency:
            ids = frontier_ids.take(parent, axis=1)
            e = np.empty((3 * n, 2), dtype=np.int64)
        del parent
        for i in range(4):
            a, b = ends[i], ends[i + 1]
            child[i, a:b] = new[a:b]
            if tangency:
                # edges from the three kept circles to the new one, grouped
                # by swap, then by kept position, then by child
                block = e[3 * a : 3 * b].reshape(3, b - a, 2)
                block[..., 0] = ids[KEPT_POSITIONS[i], a:b]
                ids[i, a:b] = np.arange(count + a, count + b)
                block[..., 1] = ids[i, a:b]
        if count + n > len(circles):
            # an eighth more than needed, as ndarray.resize zero-fills what
            # it adds; it reallocates, and glibc moves a large block by
            # remapping its pages, not copying them.  No view of ``circles``
            # outlives its statement, so the reference check, which a
            # debugger's frame locals can trip, is off
            circles.resize((count + n + (count + n) // 8, circles.shape[1]), refcheck=False)
        circles[count : count + n] = new
        if keep_quads:
            # a copy, so that the accumulator does not hold the whole child
            quads_acc.append(child[..., lane].T.copy())
            depths_acc.append(np.full(n, depth, dtype=np.int32))
        if tangency:
            edge_acc.append(e)
            frontier_ids = ids
        count += n
        frontier = child
    circles.resize((count, circles.shape[1]), refcheck=False)
    edges = np.concatenate(edge_acc) if tangency else None
    del edge_acc

    # a child is never the bounding circle or a line, and the keep test
    # holds it within the bound, so 0 < b <= bound; only the root circles
    # can break the bound, so without a region a mask is built only when
    # one of them does
    roots_kept = np.abs(start[:, lane]) <= bound
    keep_mask = None
    if region is not None:
        keep_mask = meets(circles, region)
        keep_mask[:4] &= roots_kept
    elif not roots_kept.all():
        keep_mask = np.ones(count, dtype=bool)
        keep_mask[:4] = roots_kept
    if keep_mask is not None and not keep_mask.all():
        circles = circles[keep_mask]
        if tangency:
            edges = edges[keep_mask[edges[:, 0]] & keep_mask[edges[:, 1]]]
            remap = np.cumsum(keep_mask) - 1
            edges = remap[edges]

    return PackingOrbit(
        root=root,
        bound=bound,
        curvatures=np.ascontiguousarray(circles[:, lane]),
        quad_count=quad_count,
        edges=edges,
        quads=np.concatenate(quads_acc, dtype=np.int64) if keep_quads else None,
        quad_depths=np.concatenate(depths_acc) if keep_quads else None,
        acc_rows=None if rows0 is None else circles,
        generations=depth,
    )


def _lane_dtype(root: Quad, bound: int) -> type:
    """int32 when every doubled quad sum 2*S of a curvature walk of ``root``
    to ``bound`` fits in it, that is when 8*m < 2**31, m the larger of the
    bound and the largest |root entry| (see ``enumerate_orbit``); int64
    otherwise."""
    m = max(bound, *(abs(x) for x in root))
    return np.int32 if 8 * m < 2**31 else np.int64


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
    with open(path, "wb") as fh:
        _write_table(fh, (orbit.quad_depths, *orbit.quads.T), b" ,,,\n")
    return orbit.quads.shape[0]


def write_circles(orbit: PackingOrbit, path) -> None:
    """Write one line per circle, sorted by |curvature| and then by the exact
    inversive row (cocurvature, curvature, curvature*x, curvature*y).  With an
    embedding a line is ``curvature,x,y`` with the centre printed ``%.9f``,
    and a straight line (curvature 0) is ``0,,``; without one it is the
    signed curvature alone, in orbit order within each |curvature|.  The
    order is ``_lexsort_int64``'s: stable radix passes over 16-bit digits of
    the keys, the same permutation ``np.lexsort`` gives."""
    b = orbit.curvatures
    with open(path, "wb") as fh:
        if orbit.acc_rows is None:
            fh.write(b"curvature\n")
            _write_table(fh, (b[_lexsort_int64((np.abs(b),))],), b"\n")
            return
        fh.write(b"curvature,x,y\n")
        rows = orbit.acc_rows
        order = _lexsort_int64((rows[:, 3], rows[:, 2], b, rows[:, 0], np.abs(b)))
        n_lines = int(np.count_nonzero(b == 0))  # |b| = 0 sorts first
        fh.write(b"0,,\n" * n_lines)
        order = order[n_lines:]
        bs = b[order]
        # int64 entries below 2**53 convert to float exactly, so each quotient
        # rounds as Python's int / int does; + 0.0 turns -0.0 into 0.0
        x = rows[order, 2] / bs + 0.0
        y = rows[order, 3] / bs + 0.0
        _write_table(fh, (bs, x, y), b",,\n")


def _lexsort_int64(keys) -> np.ndarray:
    """The permutation ``np.lexsort(keys)`` gives for equal-length 1-D int64
    ``keys``, the last key primary.  Each key is offset from its minimum in
    uint64, which keeps its order and cannot overflow, and split into as many
    16-bit digits as its span needs, least significant first.  numpy sorts
    16-bit keys stably by radix, so each digit costs one O(n) pass where an
    int64 key costs an O(n log n) comparison sort."""
    if len(keys[0]) == 0:
        return np.zeros(0, dtype=np.intp)
    digits = []
    for key in keys:
        offset = key.view(np.uint64) - key.min().astype(np.uint64)
        for _ in range(0, max(int(offset.max()).bit_length(), 1), 16):
            digits.append(offset.astype(np.uint16))
            offset >>= 16
    del offset  # the digits hold all the sort needs; freeing it lowers the peak
    return np.lexsort(digits)


def _write_table(fh, columns, ends: bytes) -> None:
    """Write the rows of the equal-length 1-D arrays ``columns`` to the
    binary file ``fh``, ROWS_PER_CHUNK lines at a time, as ``_format_rows``
    prints them."""
    n = len(columns[0])
    for start in range(0, n, ROWS_PER_CHUNK):
        fh.write(_format_rows([col[start : start + ROWS_PER_CHUNK] for col in columns], ends))


def _format_rows(columns, ends: bytes) -> np.ndarray:
    """ASCII text, as a uint8 array, of the rows of the equal-length 1-D
    arrays ``columns``: row k is, for each column j, its entry k followed by
    the byte ``ends[j]``.  Signed integer columns print as ``%d`` and
    float64 columns as ``%.9f`` would print them, to the byte: a rounding tie
    goes to the even digit, and a value below zero, or -0.0, keeps its ``-``
    even when it prints as zero.  Raises ValueError on a float that is not
    finite or not below 2**64 in magnitude.

    The rows are laid out in a (rows, units) uint32 matrix of four-byte
    units: one per 4-digit block (``_digit_table``), one per separator and
    following sign.  A unit is padded with NUL bytes, and dropping the NULs
    of the matrix gives the text.
    """
    table = _digit_table()
    units = []
    end = 0  # no separator before the first column
    for col, next_end in zip(columns, ends):
        col = np.asarray(col)
        if col.dtype.kind == "f":
            neg, whole, frac = _fixed_point(col)
        else:
            neg, frac = col < 0, None
            # |int64 min| wraps to itself, whose uint64 view is 2**63
            whole = np.abs(col.astype(np.int64)).view(np.uint64)
        units.append(np.where(neg, _unit(end, _MINUS), _unit(end)))
        units += _integer_units(whole)
        if frac is not None:
            head = frac // 10**8
            tail = frac - head * 10**8
            hi = tail // 10**4
            units.append(table[_POINT_HEAD + head])
            units.append(table[_PADDED * 10**4 + hi])
            units.append(table[_PADDED * 10**4 + tail - hi * 10**4])
        end = next_end
    units.append(_unit(end))
    out = np.empty((len(columns[0]), len(units)), dtype=np.uint32)
    for j, u in enumerate(units):
        out[:, j] = u
    text = out.view(np.uint8).ravel()
    return text[text != 0]


_MINUS, _POINT, _ZERO = ord("-"), ord("."), ord("0")
# styles of a 4-digit block, rows of _digit_table: 0 left of the leading
# block (all NUL), _LEADING for the leading block (no leading zeros) and
# _PADDED right of it (zero-padded).  A block's style is the number of
# true statements among "a higher block is nonzero" and "this block or a
# higher one is nonzero, or this is the lowest block".
_LEADING, _PADDED = 1, 2
# entry of ``.d`` for the first decimal d in _digit_table
_POINT_HEAD = 3 * 10**4


def _unit(*text: int) -> np.uint32:
    """The four-byte unit of up to four bytes, NUL-padded."""
    return np.frombuffer(bytes(text).ljust(4, b"\0"), dtype=np.uint32)[0]


@functools.cache
def _digit_table() -> np.ndarray:
    """(3 * 10**4 + 10,) uint32 four-byte units: entry ``style * 10**4 + n``
    prints the block n < 10**4 in that style, right-aligned with NUL padding,
    and entry ``_POINT_HEAD + d`` prints ``.d``.  Built on first use, not at
    import."""
    n = np.arange(10**4)[:, None]
    powers = 10 ** np.arange(3, -1, -1)
    digits = (n // powers % 10 + _ZERO).astype(np.uint8)
    table = np.zeros((3 * 10**4 + 10, 4), dtype=np.uint8)
    significant = (n >= powers) | (powers == 1)
    table[_LEADING * 10**4 : (_LEADING + 1) * 10**4] = np.where(significant, digits, 0)
    table[_PADDED * 10**4 : (_PADDED + 1) * 10**4] = digits
    table[_POINT_HEAD:, 0] = _POINT
    table[_POINT_HEAD:, 1] = _ZERO + np.arange(10)
    return table.view(np.uint32).ravel()


def _integer_units(q: np.ndarray) -> list[np.ndarray]:
    """``_digit_table`` units printing the uint64 integers ``q``, most
    significant block first."""
    table = _digit_table()
    nb = (len(str(int(q.max(initial=0)))) + 3) // 4
    units = []
    cur = True  # the lowest block prints even when it is zero
    for _ in range(nb):
        hi = q // 10**4
        nxt = hi != 0
        style = nxt.astype(np.uint64)
        style += cur
        idx = style * 10**4
        idx += q - hi * 10**4
        units.append(table[idx])
        q, cur = hi, nxt
    return units[::-1]


def _fixed_point(x: np.ndarray):
    """Sign, whole part (uint64) and 9-digit fraction (int64) of the float64
    ``x`` rounded half-even to 9 decimals, as ``%.9f`` rounds."""
    y = np.abs(x)
    if not (y < 2.0**64).all():
        raise ValueError("can only print finite floats below 2**64 in magnitude")
    neg = np.signbit(x)
    # p is y * 10**9 to within p * 2**-53, so rint(p) is its correct rounding
    # unless p lies that close to a tie.  Rows within 8 times that are
    # recomputed exactly; from p >= 2**49 on, where p holds too few bits of
    # fraction to tell, that is every row.
    p = y * 1e9
    exact = np.flatnonzero(np.abs(p - np.floor(p) - 0.5) <= np.maximum(1.0, p) * 2.0**-50)
    k = np.rint(p)
    k[exact] = 0
    k = k.astype(np.int64)
    whole = k // 10**9
    frac = k - whole * 10**9
    whole = whole.view(np.uint64)
    for r in exact.tolist():
        num, den = float(y[r]).as_integer_ratio()
        q, rem = divmod(num * 10**9, den)
        if 2 * rem > den or (2 * rem == den and q % 2):
            q += 1
        whole[r], frac[r] = divmod(q, 10**9)
    return neg, whole, frac
