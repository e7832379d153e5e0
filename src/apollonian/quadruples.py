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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .region import Rect, branch_alive, check_rect, meets

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

# the most quads a frontier piece of ``enumerate_orbit`` holds; each piece
# is swapped on its own, so the walk's transients scale with it, not with a
# generation's width.  From 2**14 to 2**17 the T = 3e5 walk runs equally
# fast; larger pieces raise its peak, and 2**16 keeps every generation of a
# T = 2e4 walk (at most 31,310 quads) in one piece
PIECE = 1 << 16

# lines formatted at once by _write_table: its unit matrix takes about 64
# bytes a line, so a chunk and the digit arrays beside it stay near 1 MB
ROWS_PER_CHUNK = 1 << 14


class OverflowBoundError(ValueError):
    """Requested bound would risk silent int64 wraparound."""


class NotDescartesError(ValueError):
    """Input quadruple does not satisfy the Descartes relation."""


class WalkFaultError(RuntimeError):
    """The orbit walk made more circles than fit in the packing: its kernel
    has a fault, such as a repeated swap, which would cycle without end."""


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


def check_walk(root, bound, region=None) -> tuple[Quad, int, Rect | None]:
    """What ``enumerate_orbit`` walks, and ``config`` accepts: the root,
    bound and region as the walk takes them, or the ValueError (or
    subclass) of the first rule they break."""
    root = tuple(int(x) for x in root)
    q = descartes_form(root)
    if q != 0:
        raise NotDescartesError(f"root {root} fails the Descartes relation: Q = {q}")
    if not is_root(root):
        try:
            hint = f"its root is {reduce_to_root(root)}"
        except RuntimeError as exc:  # the reduction hit its swap cap
            hint = str(exc)
        raise ValueError(f"{root} is not a root quadruple; {hint}")
    if sum(x < 0 for x in root) > 1:
        # every child would be negative and pass the bound: the walk would
        # never end
        raise ValueError(f"root {root} has more than one negative curvature; a packing has one bounding circle at most")
    # a bound of at least 1 that reaches a root circle, with int64 headroom
    lowest = max(1, min(abs(x) for x in root))
    if not lowest <= bound <= MAX_BOUND:
        error = OverflowBoundError if bound > MAX_BOUND else ValueError
        raise error(f"bound must lie in [{lowest}, {MAX_BOUND}] for root {root}; got {bound}")
    if region is not None:
        region = check_rect(region)
        if embedding_for_root(root) is None:
            raise ValueError(f"a region window needs a plane embedding, and root {root} has no built-in one")
    elif 0 in root:
        raise ValueError(f"unbounded packing (zero curvature in root {root}): N(T) is infinite without a region window")
    return root, int(bound), region


@dataclass
class PackingOrbit:
    """Circles of a packing enumerated up to a curvature bound.

    ``curvatures[k]`` is the signed curvature of circle id ``k``; the first
    ids are the root circles that pass the bound/region filter, later ids
    follow BFS creation order.  Under a region only the circles that meet it
    are stored.  ``twins`` (optional) counts the tangent pairs of prime
    |curvature| on the circle of each pair with the larger |curvature|, so
    pi_2(t) is its sum over |curvature| <= t.  ``quads`` (optional)
    stores one row per enumerated quadruple in BFS order with ``quad_depths``
    giving the word length (under a ``region``, see ``enumerate_orbit``).
    ``acc_rows`` (optional) carries the exact inversive row (cocurvature,
    curvature, curvature*x, curvature*y) of each circle when the root has a
    known integral embedding; its column 1 equals ``curvatures``.
    ``primes`` is ``prime_table(bound)``, built once per orbit: a walk that
    counts twins hands over the table it sieved.

    Rows and quads are int64, depths int32 and twins uint8.  ``curvatures``
    are int64 with rows and otherwise have the walk's lane dtype, int32 for
    every root and bound ``enumerate_orbit`` walks in int32; as |b| <=
    bound <= ``MAX_BOUND`` < 2**31, they hold every value.
    """

    root: Quad
    bound: int
    curvatures: np.ndarray
    quad_count: int
    twins: np.ndarray | None = None
    quads: np.ndarray | None = None
    quad_depths: np.ndarray | None = None
    acc_rows: np.ndarray | None = None
    generations: int = 0
    _primes: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = prime_table(self.bound)
        return self._primes

    @property
    def unsigned_curvatures(self) -> np.ndarray:
        return np.abs(self.curvatures)

    @property
    def circle_count(self) -> int:
        return int(self.curvatures.shape[0])


def embedding_for_root(root: Quad) -> np.ndarray | None:
    rows = KNOWN_EMBEDDINGS.get(tuple(int(x) for x in root))
    return None if rows is None else np.array(rows, dtype=np.int64)


def prime_table(vmax: int) -> np.ndarray:
    """Boolean table over 0..vmax, True at the primes (Eratosthenes);
    ValueError above ``MAX_BOUND``, the largest |entry| a walk keeps."""
    if vmax > MAX_BOUND:
        raise ValueError(f"the prime sieve reaches {MAX_BOUND}; got {vmax}")
    sieve = np.ones(vmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(vmax)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def enumerate_orbit(
    root,
    bound: int,
    *,
    twins: bool = False,
    keep_quads: bool = False,
    rows: bool = False,
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
    on every lane at once; the bound is tested on the curvature lane.  A
    generation's children are laid out swap-major: the quads swap 0 made,
    in parent order, then swap 1's, and so on.  Child ids, quads and
    circles all follow this order, and so does the next frontier, in which
    the next generation forbids repeating a swap by masking the columns it
    made.

    The frontier is a sequence of pieces of at most ``PIECE`` quads, each
    with the ends of the swap blocks it holds.  Each piece is swapped on its
    own and then dropped, each swap's children of it an array of their own;
    at the end of the generation the children, in swap-major order, are cut
    into the pieces of the next frontier.  So the walk's transients scale
    with ``PIECE``, not with a generation's width.  A generation narrower
    than ``PIECE`` that is one piece stays that piece.  Every result (the
    kept circles, their twin counts, the quads and their depths) is written
    once, piece by piece, into the array the walk returns, which grows in
    place: the walk never joins pieces or generations into a second copy,
    and under a region it stores only the circles that meet it.

    A bounded packing holds at most (bound / a)**2 + 1 circles of curvature
    at most the bound, a its bounding circle's curvature, as their disks are
    disjoint and each covers at least pi / bound**2 of the bounding disk's
    pi / a**2.  A walk that makes more has a fault, such as a repeated swap,
    which would give back its parent and cycle without end; it raises
    ``WalkFaultError`` at the first generation past the bound.

    Without an embedding the lanes are int32 whenever 8*m < 2**31, m the
    larger of the bound and the largest |root entry|, and int64 otherwise;
    rows are always int64.  Every entry of a walked quad lies in [-m, m]
    (one negative entry at most, the bounding circle), so its doubled sum
    2*S lies in [-2*m, 8*m], and a kept child 2*S - 3*C_old in (0, bound]:
    no int32 step can wrap.  Under ``MAX_BOUND`` that holds for every root
    whose entries are below 2**28.  The result is stored in the lane dtype,
    so a curvature-only walk returns its curvatures in int32 when its lanes
    are; quads are int64 on every path (see ``PackingOrbit``).

    ``twins`` counts the twin-prime tangencies as the walk goes.  The
    frontier then carries a ``(4, m)`` bool lane, each entry "prime and
    kept": of prime |curvature|, within the bound and, under a region,
    meeting it.  Each tangent pair is two root circles or a child and one
    of the three entries its swap kept, so a flagged child counts its
    flagged kept entries, and each root pair counts on its circle of larger
    |curvature|, the later on a tie.  A child has the largest |curvature|
    of its quad, so a pair lies within t exactly when that circle does.

    One DEBUG record per generation on the ``apollonian.quadruples`` logger
    gives its depth, its width (the quads it made) and the quads made so
    far.

    ``rows`` walks the exact inversive rows of the root's built-in
    embedding, when it has one, and its curvatures otherwise.
    ``region`` (xmin, xmax, ymin, ymax) keeps the circles whose curve meets
    the closed rectangle (``region.meets``, exact), tested once on each
    circle as it is made.  The walk visits only the quadruples whose swap's
    dual circle, which holds the whole branch, meets it
    (``region.branch_alive``), so ``quads`` and ``quad_count`` count those.
    A region needs ``rows`` and is the only way to enumerate an unbounded
    (strip) packing.  ``check_walk`` states what the walk accepts.
    """
    root, bound, region = check_walk(root, bound, region)
    if region is not None and not rows:
        raise ValueError("a region is tested on exact rows; pass rows=True")
    rows0 = embedding_for_root(root) if rows else None

    # the root circles, one row of lanes each; lane ``lane`` is the curvature
    if rows0 is None:
        start, lane = np.array(root, dtype=_lane_dtype(root, bound))[:, None], 0
    else:
        start, lane = rows0, 1

    # a child is never the bounding circle or a line, and the keep test
    # holds it within the bound, so 0 < b <= bound; only the root circles
    # can break the bound
    b0 = np.abs(start[:, lane])
    kept = b0 <= bound
    # the circles a valid walk can make, by area (see above)
    most = bound**2 // min(root) ** 2 + 1 if min(root) < 0 else math.inf
    walked = int(np.count_nonzero(kept))
    quad_count = int(kept.all())  # the root quad
    if region is not None:
        kept &= meets(start, region)
    primes = flags = counts = None
    if twins:
        primes = prime_table(bound)
        flags = kept & primes[np.where(kept, b0, 0)]
        f, b = flags.tolist(), b0.tolist()
        counts = np.array([f[k] * sum(f[j] for j in range(4) if (b[j], j) < (b[k], k)) for k in range(4)], np.uint8)
        counts, flags = counts[kept], flags[:, None]
    # the results, each written once and grown in place by ``_grow``: the
    # kept circles, root circles first, with their twin counts, and the
    # quads with their depths
    circles = start[kept]
    quads = np.full((quad_count, 4), root, dtype=np.int64) if keep_quads else None
    depths = np.zeros(quad_count, dtype=np.int32) if keep_quads else None

    # the frontier: pieces (quads, ends, flags), see ``_swap_piece``; the
    # root quad is one piece, made by no swap
    frontier = deque([(start[:, None, :].copy(), [0] * 5, flags)])
    count, depth = len(circles), 0

    while True:
        depth += 1
        made, n = _swap_frontier(frontier, bound, lane, region)
        quad_count += n
        walked += n
        log.debug("generation %d: %d quads, %d in all", depth, n, quad_count)
        if n == 0:
            break
        if walked > most:
            raise WalkFaultError(f"the walk of {root} to {bound} made {walked} circles; at most {most} fit in the packing")
        if keep_quads:
            _grow((quads, depths), quad_count)
            depths[quad_count - n : quad_count] = depth
        count = _lay_out(made, circles, counts, count, quads, quad_count - n, lane, region, primes)
        frontier = _cut(made)
    _grow((circles, counts), count, exact=True)
    if keep_quads:
        _grow((quads, depths), quad_count, exact=True)

    return PackingOrbit(
        root=root,
        bound=bound,
        curvatures=np.ascontiguousarray(circles[:, lane]),
        quad_count=quad_count,
        twins=counts,
        quads=quads,
        quad_depths=depths,
        acc_rows=None if rows0 is None else circles,
        generations=depth,
        _primes=primes,
    )


def _grow(arrays, rows, exact=False):
    """Resize each of ``arrays`` (None skipped) in place to hold ``rows``
    rows: to exactly that with ``exact``, else, when it holds fewer, to an
    eighth more, as ``ndarray.resize`` zero-fills what it adds.  A resize
    reallocates, and glibc moves a large block by remapping its pages, not
    copying them.  No view of a result outlives its statement, so the
    reference check, which a debugger's frame locals can trip, is off."""
    for a in arrays:
        if a is not None and (exact or len(a) < rows):
            a.resize((rows if exact else rows + rows // 8, *a.shape[1:]), refcheck=False)


def _swap_frontier(frontier, bound, lane, region):
    """Swap every piece of ``frontier``, dropping each once it is done.

    Returns ``made`` and the number of children in it.  ``made[i]`` holds
    the nonempty children pieces of swap i, in parent order, or with a lone
    frontier piece ``made[0]`` holds its children as one piece; so the
    pieces of ``made[0]``, ``made[1]``, ... are in swap-major order."""
    split = len(frontier) > 1
    made = [deque() for _ in range(4)]
    n = 0
    while frontier:
        for i, piece in enumerate(_swap_piece(*frontier.popleft(), bound, lane, region, split)):
            if len(piece[3]):
                made[i].append(piece)
                n += len(piece[3])
    return made, n


def _lay_out(made, circles, counts, count, quads, q, lane, region, primes):
    """Write one generation's children pieces ``made``, one write per
    piece: their quads into ``quads`` (or None) from row ``q`` on, and those
    of their new circles that meet the region (all without one) into the
    circles from row ``count`` on.  With the prime table ``primes``, set the
    pieces' flags and write the kept circles' twin counts into ``counts``.
    Returns the new circle count."""
    for block in made:
        for child, ends, flags, new in block:
            if quads is not None:
                quads[q : q + len(new)] = child[..., lane].T
                q += len(new)
            inside = None if region is None else meets(new, region)
            if primes is not None:
                flag = primes[new[:, lane]]
                if inside is not None:
                    flag &= inside
                for i in range(4):
                    flags[i, ends[i] : ends[i + 1]] = flag[ends[i] : ends[i + 1]]
                # a flagged child counts its flagged kept entries: its
                # column's flags less its own
                twins = flag * (flags.sum(axis=0, dtype=np.uint8) - flag)
            if inside is not None:
                new = new[inside]
                twins = None if primes is None else twins[inside]
            b = count + len(new)
            _grow((circles, counts), b)
            circles[count:b] = new
            if primes is not None:
                counts[count:b] = twins
            count = b
    return count


def _swap_piece(quads, ends, flags, bound, lane, region, split):
    """The four swaps on one frontier piece; returns its children as pieces.

    A piece is ``quads``, a ``(4, m, lanes)`` array whose entry positions
    are contiguous blocks; ``ends``, its columns ``ends[i]:ends[i + 1]``
    made by swap i, which may not repeat; and ``flags``, the ``(4, m)``
    prime-and-kept flags of its entries, or None.  The children come as one
    piece in four swap blocks, each in parent order, or, with ``split``, as
    one piece per swap, which can be released on its own; each also holds
    its new circles as one ``(k, lanes)`` array, their flags unset."""
    m = quads.shape[1]
    # swap i replaces C_i by 2*S - 3*C_i, S the sum of the quadruple's
    # circles; on the curvature lane that stays within the bound exactly
    # when q_i >= ceil((2*sum(q) - bound) / 3)
    twice_sum = 2 * quads.sum(axis=0, dtype=quads.dtype)
    keep = quads[..., lane] >= (twice_sum[:, lane] - bound + 2) // 3
    for i in range(4):
        keep[i, ends[i] : ends[i + 1]] = False  # no swap repeats
    # ``parent`` indexes the swapped circle C_old among the piece's 4 * m,
    # ascending, so swap i's children are parent[cut[i]:cut[i + 1]]
    parent = np.flatnonzero(keep)
    del keep
    new = quads.reshape(4 * m, -1).take(parent, axis=0)  # C_old
    if region is not None:
        # the swap's branch lies in the closed interior of its dual circle
        # D, and 2D = S - 2*C_old is an integer row
        alive = branch_alive(twice_sum.take(parent % m, axis=0) // 2 - 2 * new, region)
        parent, new = parent[alive], new[alive]
        del alive
    cut = np.searchsorted(parent, m * np.arange(5)).tolist()
    # parent % m, by the offset of each swap block, as parent is ascending
    for i in range(1, 4):
        parent[cut[i] : cut[i + 1]] -= i * m
    new *= -3
    new += twice_sum.take(parent, axis=0)  # 2*S - 3*C_old
    if not split:
        child = quads.take(parent, axis=1)
        for i in range(4):
            child[i, cut[i] : cut[i + 1]] = new[cut[i] : cut[i + 1]]
        return [(child, cut, None if flags is None else flags.take(parent, axis=1), new)]
    pieces = []
    for i in range(4):
        a, b = cut[i], cut[i + 1]
        child = quads.take(parent[a:b], axis=1)
        child[i] = new[a:b]
        ends = [0] * (i + 1) + [b - a] * (4 - i)
        pieces.append((child, ends, None if flags is None else flags.take(parent[a:b], axis=1), child[i]))
    return pieces


def _cut(made) -> deque:
    """The next frontier: the children pieces of ``made``, swap 0's first,
    cut into pieces of at most ``PIECE`` columns, each released once it is
    copied.  Children that are one piece of at most ``PIECE`` columns are
    the frontier as they are."""
    lone = sum(map(len, made)) == 1 and next(filter(None, made))
    if lone and lone[0][0].shape[1] <= PIECE:
        child, ends, flags, _ = lone.popleft()
        return deque([(child, ends, flags)])
    pieces = deque()
    parts = []  # (children, ends, flags) column slices of the piece being filled
    room = PIECE
    for block in made:
        while block:
            child, ends, flags, _ = block.popleft()
            a, width = 0, child.shape[1]
            while a < width:
                b = min(a + room, width)
                # the swap blocks of columns a:b
                part_ends = [min(max(e, a), b) - a for e in ends]
                parts.append((child[:, a:b], part_ends, None if flags is None else flags[:, a:b]))
                room -= b - a
                a = b
                if room == 0:
                    pieces.append(_join(parts))
                    parts, room = [], PIECE
    if parts:
        pieces.append(_join(parts))
    return pieces


def _join(parts):
    """One contiguous frontier piece from (children, ends, flags) column
    slices in swap-major order: its swap block i is the slices' blocks i in
    turn, so its ends are the sums of theirs."""
    quads = np.concatenate([child for child, _, _ in parts], axis=1)
    ends = [sum(column) for column in zip(*(ends for _, ends, _ in parts))]
    flags = None if parts[0][2] is None else np.concatenate([flags for *_, flags in parts], axis=1)
    return quads, ends, flags


def _lane_dtype(root: Quad, bound: int) -> type:
    """int32 when every doubled quad sum 2*S of a curvature walk of ``root``
    to ``bound`` fits in it, that is when 8*m < 2**31, m the larger of the
    bound and the largest |root entry| (see ``enumerate_orbit``); int64
    otherwise."""
    m = max(bound, *(abs(x) for x in root))
    return np.int32 if 8 * m < 2**31 else np.int64


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
    # the sort keys must be int64, and a walk without rows returns int32
    b = orbit.curvatures.astype(np.int64, copy=False)
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
    int64 key costs an O(n log n) comparison sort.  Raises TypeError on a
    key of another dtype, whose uint64 view would not be its values."""
    if any(key.dtype != np.int64 for key in keys):
        raise TypeError(f"keys must be int64, got {', '.join(str(key.dtype) for key in keys)}")
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
