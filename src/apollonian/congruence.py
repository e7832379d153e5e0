"""Reductions of the swap group mod q, Cayley graphs on the finite images,
adjacency spectra, and Cheeger-constant diagnostics.

The four swap matrices generate a finite group inside GL_4(Z/q); its Cayley
graph with respect to the swaps is 4-regular and, over square-free q, the
family exhibits a uniform spectral gap below the top eigenvalue 4, which is
what the expander reports measure.  Mod 2 every generator reduces to the
identity (all off-diagonal entries are even), so the image is trivial and
each generator contributes a weight-1 self-loop, keeping the adjacency
operator exactly 4-regular.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .arithmetic import is_squarefree
from .quadruples import SWAP_MATRICES

# group images larger than this are skipped: q = 11 and 13 (1,771,440 and
# 4,769,856 elements) need a larger cap
ELEMENT_CAP_DEFAULT = 500_000
MAX_GROUP_MODULUS = 16  # 4 bits per matrix entry pack a 4x4 matrix into one uint64
MAX_ORBIT_MODULUS = 255  # orbit_mod stores one byte per coordinate
_CHEEGER_MAX_VERTICES = 20  # exact_cheeger enumerates all 2^n vertex subsets
# a Lanczos eigenpair (lam, v) is accepted when
# |A v - lam v| <= _EIGEN_TOL * max(1, |lam|) * sqrt(n)
_EIGEN_TOL = 1e-8
# thick-restart Lanczos: basis size, restarts before EigenConvergenceError,
# and the converged residual relative to the largest Ritz value; Ritz values
# of B B^T at most _ZERO_RITZ times the largest are zero singular values.
# Ten vectors take as many operator calls as twenty at q = 7 (106) and a
# sixth more at q = 11, in half the memory.  The Cayley graphs converge in a
# few restarts; random 4-regular graphs of 1,000 to 2,000 vertices, whose
# top eigenvalues crowd together, take up to 300
_LANCZOS_BASIS = 10
_LANCZOS_RESTARTS = 1000
_LANCZOS_TOL = 1e-12
_ZERO_RITZ = 1e-12
# a restart rotates the basis this many columns at a time
_RESTART_COLUMNS = 4096
# orbit_mod keeps its results, one byte per coordinate, up to this many bytes
# in all; the least recently used orbit goes first
_ORBIT_MEMO_BYTES = 32 << 20


class SizeCapError(RuntimeError):
    pass


class EigenConvergenceError(RuntimeError):
    pass


def _pack_mats(mats: np.ndarray) -> np.ndarray:
    """(n, 4, 4) matrices with entries < 16 -> (n,) uint64 keys, the first
    entry in the top nibble, so key order is lexicographic order."""
    b = np.ascontiguousarray(mats, dtype=np.uint8).reshape(len(mats), 8, 2)
    return ((b[:, :, 0] << 4) | b[:, :, 1]).view(">u8")[:, 0].astype(np.uint64)


def _pack_vecs(vecs: np.ndarray) -> np.ndarray:
    """(n, 1, 4) vectors with entries < 256 -> (n,) uint32 keys, the first
    coordinate in the top byte, so key order is lexicographic order."""
    b = np.ascontiguousarray(vecs, dtype=np.uint8).reshape(len(vecs), 4)
    return b.view(">u4")[:, 0].astype(np.uint32)


def _swaps(x: np.ndarray, q: int) -> np.ndarray:
    """(4, n, ...) stack of x @ S_i mod q, i = 0..3, for every row vector of
    the uint8 array x (last axis).  S_i rewrites coordinate i alone, as
    2 * (sum of all four) - 3 * x_i, so no matrix product is needed."""
    wide = x.astype(np.int16)
    twice_sum = 2 * (wide[..., 0] + wide[..., 1] + wide[..., 2] + wide[..., 3])
    out = np.repeat(x[None], 4, axis=0)
    for i in range(4):
        out[i, ..., i] = (twice_sum - 3 * wide[..., i]) % q
    return out


def _next_sphere(cur: np.ndarray, near_keys: np.ndarray, first: int, q: int, pack):
    """One breadth-first step of ``_swap_closure`` from sphere d, ``cur``.

    ``near_keys`` are the keys of spheres d - 1 and d, each sorted, ``first``
    the id of their first element.  Returns sphere d + 1 (its elements and
    sorted keys) and the (len(cur), 4) int32 ids of the swap images of
    ``cur``; those in sphere d + 1 are numbered from first + len(near_keys).
    A function of its own, so that a step's temporaries are freed before
    the next step allocates its own.
    """
    cand = _swaps(cur, q).reshape(-1, *cur.shape[1:])
    cand_keys = pack(cand)
    # equal keys are equal elements, so any sort picks a valid copy
    order = np.argsort(cand_keys)
    cand_keys = cand_keys[order]
    # two sorted runs, which the stable sort merges in linear time
    near_ids = np.argsort(near_keys, kind="stable")
    near_keys = near_keys[near_ids]
    near_ids = (near_ids + first).astype(np.int32)
    pos = np.searchsorted(near_keys, cand_keys)
    np.minimum(pos, len(near_keys) - 1, out=pos)
    hit = near_keys[pos] == cand_keys
    head = ~hit  # the first copy of each image in sphere d + 1
    head[1:] &= cand_keys[1:] != cand_keys[:-1]
    sorted_ids = np.cumsum(head, dtype=np.int32)
    sorted_ids += first + len(near_keys) - 1
    ids = np.empty(len(cand), dtype=np.int32)
    ids[order] = np.where(hit, near_ids[pos], sorted_ids)
    return cand[order[head]], cand_keys[head], ids.reshape(4, -1).T


def _swap_closure(start: np.ndarray, q: int, pack, cap: int | None = None):
    """Closure of ``start`` under the four swaps mod q, with its neighbour
    table, by breadth-first search one sphere at a time.

    ``start`` holds distinct uint8 elements of shape (n, rows, 4), each row a
    vector mod q; ``pack`` maps elements one-to-one to order-preserving
    integer keys.  Returns the elements sorted by key, the sorted keys, and
    the (n, 4) int32 table whose entry [u, i] is the index of u's image
    under swap i.  Raises SizeCapError once more than ``cap`` elements are
    found.

    Sphere d holds the elements at swap distance d from ``start``, sorted by
    key, and an element's breadth-first id is its sphere's offset plus its
    position there.  The swaps are involutions, so every image of sphere d
    lies in sphere d - 1, d or d + 1: the images, sorted by key, are looked
    up in the first two by one binary search, and those found in neither,
    deduplicated, are sphere d + 1.  One final argsort ranks the ids into
    key order.
    """
    keys = pack(start)
    order = np.argsort(keys)
    spheres, sphere_keys, rows = [start[order]], [keys[order]], []
    # the id of the first element of spheres d - 1 and d; ids given so far
    first, n = 0, len(start)
    while len(spheres[-1]):
        near_keys = np.concatenate(sphere_keys[-2:])
        sphere, keys, ids = _next_sphere(spheres[-1], near_keys, first, q, pack)
        first = n - len(spheres[-1])
        n += len(sphere)
        if cap is not None and n > cap:
            raise SizeCapError(f"orbit mod {q} exceeds the element cap {cap}")
        spheres.append(sphere)
        sphere_keys.append(keys)
        rows.append(ids)
    # drop each list once it is joined: these joins and gathers set the
    # closure's peak
    keys = np.concatenate(sphere_keys)
    del sphere_keys
    order = np.argsort(keys)
    elements = np.concatenate(spheres)[order]
    del spheres
    table = np.concatenate(rows)[order]
    del rows
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    return elements, keys[order], rank[table]


@dataclass
class FiniteGroupImage:
    """The group generated by the swaps in GL_4(Z/q), elements sorted by
    packed key so membership and index lookups are binary searches.
    ``table[u, i]`` is the index of elements[u] * S_i, as the closure found
    it: the neighbour table of the Cayley graph."""

    modulus: int
    elements: np.ndarray  # (n, 4, 4) uint8
    keys: np.ndarray  # (n,) uint64, sorted
    generators: np.ndarray  # (4, 4, 4) uint8
    table: np.ndarray  # (n, 4) int32

    @property
    def order(self) -> int:
        return int(len(self.elements))

    def index_of(self, mats: np.ndarray) -> np.ndarray:
        return self._index_of_keys(_pack_mats(mats % self.modulus))

    def _index_of_keys(self, keys: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.keys, keys)
        idx = np.clip(idx, 0, len(self.keys) - 1)
        ok = self.keys[idx] == keys
        if not ok.all():
            raise KeyError("matrix outside the group image")
        return idx


def reduce_group_mod(q: int, element_cap: int = ELEMENT_CAP_DEFAULT) -> FiniteGroupImage:
    """Closure of the four swap generators under multiplication mod q."""
    q = int(q)
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > MAX_GROUP_MODULUS:
        raise ValueError(
            f"group reduction is supported for moduli up to {MAX_GROUP_MODULUS}; "
            f"orbit_mod covers larger moduli"
        )
    start = (np.eye(4, dtype=np.uint8) % q)[None]
    elements, keys, table = _swap_closure(start, q, _pack_mats, cap=element_cap)
    return FiniteGroupImage(
        modulus=q,
        elements=elements,
        keys=keys,
        generators=(SWAP_MATRICES % q).astype(np.uint8),
        table=table,
    )


@dataclass
class CayleyGraph:
    """A regular graph as its neighbour table: ``table[u, i]`` is the index
    of the i-th neighbour of u (for a Cayley graph, of u * S_i), and an entry
    equal to u is a weight-1 self-loop.  The adjacency operator is
    A[u, v] = #{i : table[u, i] = v}."""

    modulus: int
    table: np.ndarray  # (n, k) int32

    @property
    def n(self) -> int:
        return len(self.table)

    def is_connected(self) -> bool:
        return bool(_breadth_first_sides(self.table)[0].all())


def build_cayley(img: FiniteGroupImage) -> CayleyGraph:
    """4-regular Cayley graph {g, g*S_i} on the group image: the closure's
    neighbour table, shared, not copied.

    A generator fixing an element (which happens exactly when it reduces to
    the identity, i.e. q <= 2) contributes a weight-1 self-loop.
    """
    return CayleyGraph(img.modulus, img.table)


@dataclass
class SpectralReport:
    lambda0: float
    lambda1: float | None
    lambda_min: float | None
    cheeger_lower: float | None
    cheeger_upper: float | None
    n: int


def _breadth_first_sides(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reached, side) of a breadth-first search from vertex 0: which
    vertices it reaches, and the parity of each one's depth."""
    n = len(table)
    reached = np.zeros(n, dtype=bool)
    side = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier, parity = np.zeros(1, dtype=np.intp), False
    while len(frontier):
        parity = not parity
        fresh = np.zeros(n, dtype=bool)
        fresh[table[frontier]] = True
        fresh &= ~reached
        frontier = np.flatnonzero(fresh)
        reached |= fresh
        side[frontier] = parity
    return reached, side


def _gather_sum(x: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """sum over i of x[neighbours[i]]: the adjacency operator of the (k, n)
    transposed neighbour table applied to x, one row of it at a time.  The
    gathers are fastest on C-contiguous intp rows: ``np.take`` copies and
    converts a strided or int32 index array on every call."""
    out = np.take(x, neighbours[0])
    for nb in neighbours[1:]:
        out += np.take(x, nb)
    return out


def _uniform_stream(n: int, stream: int) -> np.ndarray:
    """n float64 values in [-1, 1), a fixed function of (n, stream): the
    splitmix64 outputs at indices stream * n + 1 .. stream * n + n, so
    distinct streams of one length never share an index.  Integer ops only,
    so that no command imports ``numpy.random``."""
    z = np.arange(stream * n + 1, stream * n + n + 1, dtype=np.uint64)
    # uint64 arrays wrap silently, as splitmix64 needs
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # the top 53 bits, scaled to [0, 2), then shifted
    out = (z >> np.uint64(11)).astype(np.float64)
    out *= 2.0**-52
    out -= 1.0
    return out


def _top_eigenpairs(op, v0: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues (ascending) and unit eigenvectors (rows) of
    the symmetric operator ``op`` (a function x -> A x on float64 vectors),
    by thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 2000)
    started from ``v0``.

    The basis holds ``_LANCZOS_BASIS`` vectors.  Each new vector first drops
    its components along the vectors of the recurrence (the previous two, or
    all of them on the first step after a restart), then is orthogonalised
    against all earlier ones by one full classical Gram-Schmidt pass, so the
    projected matrix is kept whole rather than tridiagonal.  A restart keeps
    the top half of the Ritz vectors.  A Ritz pair has converged when its residual
    is at most ``_LANCZOS_TOL`` times the largest Ritz value; after
    ``_LANCZOS_RESTARTS`` restarts without convergence of the top k,
    EigenConvergenceError.  When the basis spans an invariant subspace
    before it is full, it goes on from a fresh ``_uniform_stream``
    direction (streams 1, 2, ...) made orthogonal to it.
    """
    n = len(v0)
    m = min(_LANCZOS_BASIS, n)
    basis = np.empty((m + 1, n))
    basis[0] = v0 / np.linalg.norm(v0)
    h = np.zeros((m, m))  # basis[:m] A basis[:m]^T
    fresh = 0
    kept = 0
    for _ in range(_LANCZOS_RESTARTS):
        for i in range(kept, m):
            w = op(basis[i])
            # the recurrence's own terms first: the previous and current
            # vectors, or every vector on the first step after a restart
            lo = 0 if i == kept else i - 1
            coef = np.zeros(i + 1)
            coef[lo:] = basis[lo : i + 1] @ w
            w -= coef[lo:] @ basis[lo : i + 1]
            c = basis[: i + 1] @ w
            w -= c @ basis[: i + 1]
            coef += c
            h[: i + 1, i] = h[i, : i + 1] = coef
            beta = float(np.linalg.norm(w))
            if i + 1 < m and not beta > _LANCZOS_TOL * np.abs(h[: i + 1, : i + 1]).max():
                # an invariant subspace: go on from a fresh direction
                fresh += 1
                beta, w = 0.0, _uniform_stream(n, fresh)
                for _ in range(2):
                    w -= (basis[: i + 1] @ w) @ basis[: i + 1]
                w /= np.linalg.norm(w)
            elif beta > 0:
                w /= beta
            basis[i + 1] = w
            if i + 1 < m:
                h[i + 1, i] = h[i, i + 1] = beta
        theta, y = np.linalg.eigh(h)
        # the residual of Ritz pair j is beta * |y[m - 1, j]|
        if (beta * np.abs(y[-1, -k:]) <= _LANCZOS_TOL * np.abs(theta).max()).all():
            return theta[-k:], y[:, -k:].T @ basis[:m]
        kept = max(k, m // 2)
        # basis[:kept] = Y^T basis[:m], a block of columns at a time, so the
        # product needs no (kept, n) temporary
        yt = y[:, -kept:].T
        for j in range(0, n, _RESTART_COLUMNS):
            basis[:kept, j : j + _RESTART_COLUMNS] = yt @ basis[:m, j : j + _RESTART_COLUMNS]
        basis[kept] = basis[m]
        # the Ritz values on the diagonal; the next step fills row and
        # column ``kept`` (the arrow beta * y[m - 1]) from its Gram-Schmidt
        h[:] = 0.0
        h[:kept, :kept] = np.diag(theta[-kept:])
    raise EigenConvergenceError(
        f"Lanczos did not converge within {_LANCZOS_RESTARTS} restarts"
    )


def spectrum(g: CayleyGraph) -> SpectralReport:
    """lambda_0, lambda_1, lambda_min of the adjacency operator A plus the
    Cheeger bounds (k - lambda_1)/2 <= h <= sqrt(2k(k - lambda_1)), k the
    degree (the table's row length).

    Thick-restart Lanczos (``_top_eigenpairs``) with A applied from the
    neighbour table.  One breadth-first search from vertex 0 checks that the
    graph is connected and gives each vertex the parity of its depth as its
    side; then:

    - a graph of more than two vertices whose every table entry joins the
      two sides (so no self-loop, no odd cycle; every swap Cayley graph mod
      q >= 3: the swaps have determinant -1, so the sides are det = +1 and
      det = -1) has A = [[0, B], [B^T, 0]] with eigenvalues +-sigma(B).
      One run gives the top two eigenvalues sigma_0^2, sigma_1^2 of B B^T
      on the side of vertex 0, and lambda_0 = sigma_0, lambda_1 = sigma_1
      and lambda_min = -sigma_0; each eigenvector u lifts to
      (u, +-B^T u/sigma);
    - any other graph, the 2-vertex ones among them (their B B^T has one
      eigenvalue, not two), takes the top two eigenpairs of A and the top
      one of -A.

    Every run starts from ``_uniform_stream(size, 0)``, so the result is a
    fixed function of the table.  On the bipartite route the run holds a
    basis of (_LANCZOS_BASIS + 1) * n/2 float64 and the two (k, n/2) intp
    half tables, besides the table itself.

    Every returned eigenpair (lam, v) is checked on the full A:
    |A v - lam v| <= 1e-8 * max(1, |lam|) * sqrt(n), else
    EigenConvergenceError.  A graph that is not regular (some vertex appears
    in the table other than k times) or not connected raises ValueError: on
    a disconnected graph a Lanczos run can return true eigenpairs of one
    component and miss a larger eigenvalue of another.

    Known limit: a connected graph whose top eigenvalues crowd together can
    exhaust the ``_LANCZOS_RESTARTS`` restarts and raise
    EigenConvergenceError; the cycle C_1001 with steps +-1 needs more than
    1,000.  No swap Cayley graph does this: they have 1, 120 or at least
    14,400 vertices and a uniform spectral gap.
    """
    table = g.table
    n, k = table.shape
    if n == 1:
        return SpectralReport(float(k), None, None, None, None, 1)
    if (np.bincount(table.ravel(), minlength=n) != k).any():
        raise ValueError("spectrum needs a regular graph: every vertex k times in the table")
    reached, side = _breadth_first_sides(table)
    if not reached.all():
        raise ValueError("spectrum needs a connected graph")

    def adjacency(x):
        return _gather_sum(x, table.T)

    if n == 2 or (side[table] == side[:, None]).any():
        v0 = _uniform_stream(n, 0)
        vals, vecs = _top_eigenpairs(adjacency, v0, 2)
        low, low_vec = _top_eigenpairs(lambda x: -adjacency(x), v0, 1)
        pairs = [(-low[0], low_vec[0]), (vals[0], vecs[0]), (vals[1], vecs[1])]
    else:
        rows, cols = np.flatnonzero(~side), np.flatnonzero(side)
        # neighbours of each side, as positions within the other side:
        # one C-contiguous intp row per generator, for _gather_sum (a
        # fancy index keeps the memory order of its index array, and
        # table.T[:, rows] is Fortran-ordered)
        pos = np.empty(n, dtype=np.intp)
        pos[rows] = np.arange(len(rows))
        pos[cols] = np.arange(len(cols))
        row_nb = pos[np.ascontiguousarray(table.T[:, rows])]
        col_nb = pos[np.ascontiguousarray(table.T[:, cols])]
        del pos

        def bt(x):  # B^T x
            return _gather_sum(x, col_nb)

        vals, vecs = _top_eigenpairs(
            lambda x: _gather_sum(bt(x), row_nb), _uniform_stream(len(rows), 0), 2
        )
        # Ritz values at rounding level of sigma_0^2 are zero singular values
        vals = np.where(vals > _ZERO_RITZ * vals[-1], vals, 0.0)
        (s1, s0), (u1, u0) = np.sqrt(vals), vecs

        def lift(u, s, sign):
            v = np.empty(n)
            v[rows] = u
            # |B^T u| = s, so for s ~ 0 the eigenvector is (u, 0):
            # dividing rounding noise by s would not give it
            v[cols] = sign * bt(u) / s if s > _EIGEN_TOL else 0.0
            return v / np.linalg.norm(v)

        pairs = [(-s0, lift(u0, s0, -1)), (s1, lift(u1, s1, 1)), (s0, lift(u0, s0, 1))]
    for lam, vec in pairs:
        resid = float(np.linalg.norm(adjacency(vec) - lam * vec))
        # written so that a NaN residual fails too
        if not resid <= _EIGEN_TOL * max(1.0, abs(lam)) * np.sqrt(n):
            raise EigenConvergenceError(f"eigen residual {resid:.2e} above tolerance")
    lammin, lam1, lam0 = (float(lam) for lam, _ in pairs)
    gap = k - lam1
    return SpectralReport(
        lambda0=lam0,
        lambda1=lam1,
        lambda_min=lammin,
        cheeger_lower=gap / 2.0,
        cheeger_upper=float(np.sqrt(2.0 * k * gap)),
        n=n,
    )


def exact_cheeger(g: CayleyGraph) -> float:
    """Exhaustive Cheeger constant: min over nonempty W with |W| <= n/2 of
    #boundary_edges(W) / |W|.  Self-loops never cross a cut."""
    n = g.n
    if n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    if n > _CHEEGER_MAX_VERTICES:
        raise SizeCapError(f"exhaustive Cheeger limited to {_CHEEGER_MAX_VERTICES} vertices")
    # every subset W at once, as the bits of its index; an edge {u, v}
    # appears in the table from both ends, and crosses the cut from u's
    # entry exactly when u is in W and v is not
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    size = np.zeros(len(subsets), dtype=np.int64)
    boundary = np.zeros(len(subsets), dtype=np.int64)
    for u, nbrs in enumerate(g.table.tolist()):
        inside = (subsets >> u) & 1
        size += inside
        for v in nbrs:
            boundary += inside & ~(subsets >> v) & 1
    small = size <= n // 2
    return float((boundary[small] / size[small]).min())


def expander_report(
    moduli, element_cap: int = ELEMENT_CAP_DEFAULT
) -> list[tuple[int, int, SpectralReport]]:
    """(q, group order, spectral report) per square-free modulus, skipping
    those whose image exceeds the element cap."""
    out = []
    for q in moduli:
        q = int(q)
        if not is_squarefree(q):
            raise ValueError(f"expander reports take square-free moduli; got {q}")
        try:
            img = reduce_group_mod(q, element_cap=element_cap)
        except SizeCapError:
            continue
        # spectrum reads only the neighbour table: the elements and keys
        # go before it runs
        order, graph = img.order, build_cayley(img)
        del img
        out.append((q, order, spectrum(graph)))
    return out


_orbit_memo: OrderedDict[tuple, np.ndarray] = OrderedDict()
_orbit_memo_lock = threading.Lock()


def _largest_simple_prime(q: int) -> int:
    """The largest prime p >= 5 that divides q exactly once, or 1 if none
    does."""
    best, rest, p = 1, q, 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if p >= 5 and e == 1:
            best = p
        p += 1
    # what is left is 1 or a prime above every p tried, dividing q once
    return rest if rest >= 5 else best


def _cone_keys(p: int) -> np.ndarray:
    """Packed keys (as ``_pack_vecs`` packs them), ascending, of the nonzero
    solutions of Q(v) = 2 * sum(v_i^2) - (sum v_i)^2 = 0 mod an odd prime p.

    With s = v1 + v2 + v3 and t = v1^2 + v2^2 + v3^2, Q = 0 exactly when
    (v4 - s)^2 = 2 s^2 - 2 t: each triple takes v4 = s -+ y for the square
    roots +-y of the right side, none, one (y = 0) or two of them.  These
    depend on (s, t) mod p alone, so each triple reads them from tables
    indexed by s = (v1 + v2 mod p) + v3 and t = (v1^2 + v2^2 mod p) +
    (v3^2 mod p), both in [0, 2p - 2]: no array of p^3 entries is reduced
    mod p.
    """
    a = np.arange(p)
    sq = a * a % p
    count = np.bincount(sq, minlength=p)  # square roots of each residue
    root = np.zeros(p, dtype=np.int64)
    half = (p + 1) // 2
    root[sq[:half]] = a[:half]  # 0 .. (p-1)/2 have distinct squares
    w = 2 * p - 1
    r = np.arange(w) % p
    d = (2 * sq[r][:, None] - 2 * r) % p  # [s, t]
    y = root[d]
    lo, hi = (r[:, None] - y) % p, (r[:, None] + y) % p
    # one 8-byte entry per (s, t): both candidate v4, ascending, as two
    # uint32, and one 2-byte entry: whether each is a solution
    v4 = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=-1).astype(np.uint32)
    v4 = v4.reshape(-1).view(np.uint64)
    n = count[d]
    solves = np.stack([n >= 1, n == 2], axis=-1).reshape(-1).view(np.uint16)
    i = np.arange(p, dtype=np.int32)
    sq = sq.astype(np.int32)
    idx = (((i[:, None] + i) % p) * w + (sq[:, None] + sq) % p)[:, :, None] + (i * w + sq)
    pairs, solves = v4[idx], solves[idx]
    del idx
    # the triple's key into both halves of its pair; equal halves make this
    # independent of byte order
    wide = i.astype(np.uint64) * np.uint64(0x1_0000_0001)
    pairs |= (wide[:, None, None] << np.uint64(24)) | (wide[:, None] << np.uint64(16))
    pairs |= wide << np.uint64(8)
    keys = pairs.view(np.uint32)[solves.view(bool)]
    # triples in lexicographic order, each with its v4 ascending: the keys
    # come out sorted, and the first is the zero vector
    return keys[1:]


def _crt_keys(orbit_a: np.ndarray, a: int, orbit_b: np.ndarray, b: int) -> np.ndarray:
    """Packed keys of every vector mod a*b (a, b coprime) whose reductions
    mod a and mod b are rows of the (n, 4) uint8 arrays ``orbit_a`` and
    ``orbit_b``, unsorted."""
    x = np.arange(a * b)
    crt = np.empty((a, b), dtype=np.uint8)
    crt[x % a, x % b] = x
    out = np.zeros((len(orbit_a), len(orbit_b)), dtype=np.uint32)
    for i in range(4):
        # one coordinate of every pair at a time, gathered in uint8
        out <<= 8
        out |= crt[orbit_a[:, i]][:, orbit_b[:, i]]
    return out.reshape(-1)


def _build_orbit(start: tuple[int, ...], q: int) -> np.ndarray:
    """The orbit that ``orbit_mod`` returns, built: q = 1 and a prime q >= 5
    directly, a q with no prime >= 5 dividing it once by the breadth-first
    closure, and any other q = r * p, p its largest prime >= 5 dividing it
    once, by CRT from the orbits mod r and mod p."""
    if q == 1:
        return np.zeros((1, 4), dtype=np.uint8)
    p = _largest_simple_prime(q)
    if p == 1:
        begin = np.array(start, dtype=np.uint8).reshape(1, 1, 4)
        return _swap_closure(begin, q, _pack_vecs)[0].reshape(-1, 4)
    if q == p:
        keys = _cone_keys(p) if any(start) else np.zeros(1, dtype=np.uint32)
    else:
        r = q // p
        orbit_r = _orbit(tuple(x % r for x in start), r)
        orbit_p = _orbit(tuple(x % p for x in start), p)
        keys = _crt_keys(orbit_r, r, orbit_p, p)
        keys.sort()
    return keys.astype(">u4").view(np.uint8).reshape(-1, 4)


def _orbit(start: tuple[int, ...], q: int) -> np.ndarray:
    """The orbit of ``start``, a Descartes quadruple reduced mod q, from the
    memo, else built and kept there: the memo's own array, read-only.
    The lock is not held while an orbit is built, since building one mod q
    asks this function for the orbits of q's factors."""
    key = (start, q)
    with _orbit_memo_lock:
        orbit = _orbit_memo.get(key)
        if orbit is not None:
            _orbit_memo.move_to_end(key)
            return orbit
    orbit = _build_orbit(start, q)
    orbit.flags.writeable = False
    if orbit.nbytes <= _ORBIT_MEMO_BYTES:
        with _orbit_memo_lock:
            _orbit_memo[key] = orbit
            while sum(o.nbytes for o in _orbit_memo.values()) > _ORBIT_MEMO_BYTES:
                _orbit_memo.popitem(last=False)
    return orbit


def orbit_mod(root, q: int) -> np.ndarray:
    """Orbit of the root quadruple under the swaps mod q, as a sorted (n, 4)
    uint8 array (q <= 255); the proportion of the orbit satisfying a
    congruence is the natural density estimate for the matching congruence
    slice of the sieve.

    The orbit is built from the factors of q by strong approximation for the
    Apollonian group (Fuchs, J. Number Theory 2011): mod a prime p >= 5 it is
    the whole nonzero cone Q = 0 mod p (``_cone_keys``), or {0} when p
    divides the root, and for coprime moduli it is the CRT product of the
    factors' orbits, the 2- and 3-parts kept together.  So a q with no
    prime >= 5 dividing it once is walked by a breadth-first closure under
    the swaps, and any other q = r * p, p the largest prime >= 5 dividing q
    once, is the CRT product of the orbits mod r and mod p, joined on packed
    keys and sorted once.  The root must satisfy the Descartes relation mod
    q.

    Each orbit is computed once per process and kept, keyed by (root mod q,
    q), within ``_ORBIT_MEMO_BYTES``; the orbits mod r and mod p that a
    composite q is built from are kept there too, so every multiple of p
    reads one cone.  Every call returns a fresh uint8 copy, so a caller that
    multiplies entries widens them itself.
    """
    q = int(q)
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > MAX_ORBIT_MODULUS:
        raise ValueError(f"moduli above {MAX_ORBIT_MODULUS} are not supported")
    start = tuple(int(x) % q for x in root)
    if (2 * sum(x * x for x in start) - sum(start) ** 2) % q:
        raise ValueError(f"root {tuple(root)} is not a Descartes quadruple mod {q}")
    return _orbit(start, q).copy()
