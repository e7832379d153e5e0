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

import math
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
# spectrum solves up to this many vertices densely: the group images mod
# square-free q <= 16 have 1, 120 or at least 14,400 elements
_DENSE_MAX_VERTICES = 2000
_CHEEGER_MAX_VERTICES = 20  # exact_cheeger enumerates all 2^n vertex subsets
# a Lanczos eigenpair (lam, v) is accepted when
# |A v - lam v| <= _EIGEN_TOL * max(1, |lam|) * sqrt(n)
_EIGEN_TOL = 1e-8
# thick-restart Lanczos: basis size (ARPACK's default ncv), restarts before
# EigenConvergenceError, and the converged residual relative to the largest
# Ritz value; Ritz values of B B^T at most _ZERO_RITZ times the largest are
# zero singular values
_LANCZOS_BASIS = 20
_LANCZOS_RESTARTS = 100
_LANCZOS_TOL = 1e-12
_ZERO_RITZ = 1e-12
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
    twice_sum = 2 * wide.sum(axis=-1)
    out = np.repeat(x[None], 4, axis=0)
    for i in range(4):
        out[i, ..., i] = (twice_sum - 3 * wide[..., i]) % q
    return out


def _swap_closure(start: np.ndarray, q: int, pack, cap: int | None = None):
    """Closure of ``start`` under the four swaps mod q, by breadth-first
    search.

    ``start`` holds distinct uint8 elements of shape (n, rows, 4), each row a
    vector mod q; ``pack`` maps elements one-to-one to order-preserving
    integer keys.  Returns the elements sorted by key and the sorted keys.
    Raises SizeCapError once more than ``cap`` elements are found.
    """
    seen = pack(start)
    order = np.argsort(seen)
    frontier, seen = start[order], seen[order]
    found, found_keys = [frontier], [seen]
    while len(frontier):
        cand = _swaps(frontier, q).reshape(-1, *frontier.shape[1:])
        keys = pack(cand)
        # equal keys are equal elements, so any sort picks a valid copy
        order = np.argsort(keys)
        keys = keys[order]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        fresh &= seen[pos] != keys
        frontier, new = cand[order[fresh]], keys[fresh]
        # two sorted runs: the stable sort merges them in linear time
        seen = np.sort(np.concatenate([seen, new]), kind="stable")
        if cap is not None and len(seen) > cap:
            raise SizeCapError(f"orbit mod {q} exceeds the element cap {cap}")
        found.append(frontier)
        found_keys.append(new)
    order = np.argsort(np.concatenate(found_keys))
    return np.concatenate(found)[order], seen


@dataclass
class FiniteGroupImage:
    """The group generated by the swaps in GL_4(Z/q), elements sorted by
    packed key so membership and index lookups are binary searches."""

    modulus: int
    elements: np.ndarray  # (n, 4, 4) uint8
    keys: np.ndarray  # (n,) uint64, sorted
    generators: np.ndarray  # (4, 4, 4) uint8

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
    elements, keys = _swap_closure(start, q, _pack_mats, cap=element_cap)
    return FiniteGroupImage(
        modulus=q,
        elements=elements,
        keys=keys,
        generators=(SWAP_MATRICES % q).astype(np.uint8),
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
    """4-regular Cayley graph {g, g*S_i} on the group image.

    A generator fixing an element (which happens exactly when it reduces to
    the identity, i.e. q <= 2) contributes a weight-1 self-loop.
    """
    x = img.elements
    twice_sum = 2 * x.sum(axis=-1, dtype=np.int16)
    table = np.empty((img.order, 4), dtype=np.int32)
    # one copy of the elements holds g * S_i for one swap i at a time, as
    # _swaps computes it: column i alone becomes 2 * (row sum) - 3 * x_i mod q
    images = x.copy()
    for i in range(4):
        images[..., i] = (twice_sum - 3 * x[..., i].astype(np.int16)) % img.modulus
        table[:, i] = img._index_of_keys(_pack_mats(images))
        images[..., i] = x[..., i]
    return CayleyGraph(modulus=img.modulus, table=table)


@dataclass
class SpectralReport:
    lambda0: float
    lambda1: float | None
    lambda_min: float | None
    cheeger_lower: float | None
    cheeger_upper: float | None
    n: int
    method: str


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


def _two_colouring(table: np.ndarray) -> np.ndarray | None:
    """Sides (False, True) of a proper 2-colouring of the graph with
    neighbour table ``table``, or None when the graph is disconnected, has a
    self-loop or has an odd cycle.

    The side of a vertex is the parity of its breadth-first depth from
    vertex 0; every table entry is then checked to join the two sides, so a
    self-loop fails the check by itself.
    """
    reached, side = _breadth_first_sides(table)
    if not reached.all():
        return None
    return side if (side[table] != side[:, None]).all() else None


def _gather_sum(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum over i of x[table[:, i]]: the adjacency operator of the table
    applied to x, one column of the table at a time."""
    out = np.take(x, table[:, 0])
    for i in range(1, table.shape[1]):
        out += np.take(x, table[:, i])
    return out


def _top_eigenpairs(op, v0: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues (ascending) and unit eigenvectors (rows) of
    the symmetric operator ``op`` (a function x -> A x on float64 vectors),
    by thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 2000)
    started from ``v0``.

    The basis holds ``_LANCZOS_BASIS`` vectors, each orthogonalised against
    all earlier ones by two classical Gram-Schmidt passes, so the projected
    matrix is kept whole rather than tridiagonal.  A restart keeps the top
    half of the Ritz vectors.  A Ritz pair has converged when its residual
    is at most ``_LANCZOS_TOL`` times the largest Ritz value; after
    ``_LANCZOS_RESTARTS`` restarts without convergence of the top k,
    EigenConvergenceError.  When the basis spans an invariant subspace
    before it is full, it goes on from a random vector orthogonal to it.
    """
    n = len(v0)
    m = min(_LANCZOS_BASIS, n)
    basis = np.empty((m + 1, n))
    basis[0] = v0 / np.linalg.norm(v0)
    h = np.zeros((m, m))  # basis[:m] A basis[:m]^T
    rng = np.random.default_rng(1)
    kept = 0
    for _ in range(_LANCZOS_RESTARTS):
        for i in range(kept, m):
            w = op(basis[i])
            coef = np.zeros(i + 1)
            for _ in range(2):
                c = basis[: i + 1] @ w
                w -= c @ basis[: i + 1]
                coef += c
            h[: i + 1, i] = h[i, : i + 1] = coef
            beta = float(np.linalg.norm(w))
            if i + 1 < m and not beta > _LANCZOS_TOL * np.abs(h[: i + 1, : i + 1]).max():
                # an invariant subspace: go on from a fresh direction
                beta, w = 0.0, rng.standard_normal(n)
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
        basis[:kept] = y[:, -kept:].T @ basis[:m]
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

    Up to ``_DENSE_MAX_VERTICES`` vertices, a dense symmetric solver.
    Above it, thick-restart Lanczos (``_top_eigenpairs``) with A applied
    from the neighbour table:

    - a connected, loop-free graph with a proper 2-colouring (every swap
      Cayley graph mod q >= 3: the swaps have determinant -1, so the sides
      are det = +1 and det = -1) has A = [[0, B], [B^T, 0]] with eigenvalues
      +-sigma(B).  One run gives the top two eigenvalues sigma_0^2, sigma_1^2
      of B B^T on the side of vertex 0, and lambda_0 = sigma_0,
      lambda_1 = sigma_1 and lambda_min = -sigma_0; each eigenvector u lifts
      to (u, +-B^T u/sigma);
    - any other graph takes the top two eigenpairs of A and the top one of -A.

    Lanczos needs n >= 3 (B B^T of a 2-vertex bipartite graph has one
    eigenvalue, not two); the dense route takes every graph that small.

    Every returned eigenpair (lam, v) is checked on the full A:
    |A v - lam v| <= 1e-8 * max(1, |lam|) * sqrt(n), else
    EigenConvergenceError.  A graph that is not regular (some vertex appears
    in the table other than k times) raises ValueError.
    """
    table = g.table
    n, k = table.shape
    if n == 1:
        return SpectralReport(float(k), None, None, None, None, 1, "trivial")
    if (np.bincount(table.ravel(), minlength=n) != k).any():
        raise ValueError("spectrum needs a regular graph: every vertex k times in the table")

    def adjacency(x):
        return _gather_sum(x, table)

    if n <= _DENSE_MAX_VERTICES:
        a = np.zeros((n, n))
        np.add.at(a, (np.repeat(np.arange(n), k), table.ravel()), 1.0)
        vals = np.linalg.eigvalsh(a)
        lam0, lam1, lammin = float(vals[-1]), float(vals[-2]), float(vals[0])
        method = "dense"
    else:
        side = _two_colouring(table)
        rng = np.random.default_rng(0)
        if side is None:
            v0 = rng.standard_normal(n)
            vals, vecs = _top_eigenpairs(adjacency, v0, 2)
            low, low_vec = _top_eigenpairs(lambda x: -adjacency(x), v0, 1)
            pairs = [(-low[0], low_vec[0]), (vals[0], vecs[0]), (vals[1], vecs[1])]
        else:
            rows, cols = np.flatnonzero(~side), np.flatnonzero(side)
            # neighbours of each side, as positions within the other side
            pos = np.empty(n, dtype=table.dtype)
            pos[rows] = np.arange(len(rows))
            pos[cols] = np.arange(len(cols))
            row_nb, col_nb = pos[table[rows]], pos[table[cols]]

            def bt(x):  # B^T x
                return _gather_sum(x, col_nb)

            vals, vecs = _top_eigenpairs(
                lambda x: _gather_sum(bt(x), row_nb), rng.standard_normal(len(rows)), 2
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
        method = "lanczos"
    gap = k - lam1
    return SpectralReport(
        lambda0=lam0,
        lambda1=lam1,
        lambda_min=lammin,
        cheeger_lower=gap / 2.0,
        cheeger_upper=float(np.sqrt(2.0 * k * gap)),
        n=n,
        method=method,
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
        graph = build_cayley(img)
        out.append((q, img.order, spectrum(graph)))
    return out


_orbit_memo: OrderedDict[tuple, np.ndarray] = OrderedDict()
_orbit_memo_lock = threading.Lock()


def _split_modulus(q: int) -> tuple[int, list[int]]:
    """q = q1 * p_1 * ... * p_k, the p_i the primes >= 5 that divide q
    exactly once, ascending.  For square-free q, q1 divides 6."""
    primes, rest, p = [], q, 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if p >= 5 and e == 1:
            primes.append(p)
        p += 1
    if rest >= 5:
        primes.append(rest)
    return q // math.prod(primes), primes


def _cone_keys(p: int) -> np.ndarray:
    """Packed keys (as ``_pack_vecs`` packs them), ascending, of the nonzero
    solutions of Q(v) = 2 * sum(v_i^2) - (sum v_i)^2 = 0 mod an odd prime p.

    With s = v1 + v2 + v3 and t = v1^2 + v2^2 + v3^2, Q = 0 exactly when
    (v4 - s)^2 = 2 s^2 - 2 t: each triple takes v4 = s -+ y for the square
    roots +-y of the right side, none, one (y = 0) or two of them.
    """
    a = np.arange(p, dtype=np.int16)
    sq = (np.arange(p) ** 2 % p).astype(np.int16)  # a * a overflows int16
    count = np.bincount(sq, minlength=p).astype(np.uint8)  # roots of y^2 = r
    root = np.zeros(p, dtype=np.int16)
    half = (p + 1) // 2
    root[sq[:half]] = a[:half]  # 0 .. (p-1)/2 have distinct squares
    s = (a[:, None, None] + a[None, :, None] + a) % p
    t = sq[:, None, None] + sq[None, :, None] + sq
    d = ((2 * sq)[s] - 2 * t) % p
    n, y = count[d], root[d]
    lo, hi = (s - y) % p, (s + y) % p
    wide = a.astype(np.uint32)
    triple = (wide[:, None, None] << 24) | (wide[None, :, None] << 16) | (wide << 8)
    pairs = np.empty((p, p, p, 2), dtype=np.uint32)
    pairs[..., 0] = triple | np.minimum(lo, hi)
    pairs[..., 1] = triple | np.maximum(lo, hi)
    keys = pairs[np.stack([n >= 1, n == 2], axis=-1)]
    # triples in lexicographic order, each with its v4 ascending: the keys
    # come out sorted, and the first is the zero vector
    return keys[1:]


def _crt_keys(keys_a: np.ndarray, a: int, keys_b: np.ndarray, b: int) -> np.ndarray:
    """Packed keys of every vector mod a*b (a, b coprime) whose reductions
    mod a and mod b have keys in ``keys_a`` and ``keys_b``, unsorted."""
    x = np.arange(a * b)
    crt = np.empty((a, b), dtype=np.uint8)
    crt[x % a, x % b] = x
    out = np.zeros((len(keys_a), len(keys_b)), dtype=np.uint32)
    for shift in (24, 16, 8, 0):
        # one coordinate of every pair at a time, gathered in uint8
        out <<= 8
        out |= crt[(keys_a >> shift) & 0xFF][:, (keys_b >> shift) & 0xFF]
    return out.reshape(-1)


def orbit_mod(root, q: int) -> np.ndarray:
    """Orbit of the root quadruple under the swaps mod q, as a sorted (n, 4)
    array; the proportion of the orbit satisfying a congruence is the natural
    density estimate for the matching congruence slice of the sieve.

    The orbit is built from the factors of q by strong approximation for the
    Apollonian group (Fuchs, J. Number Theory 2011): mod a prime p >= 5 it is
    the whole nonzero cone Q = 0 mod p, or {0} when p divides the root, and
    for coprime moduli it is the CRT product of the factors' orbits, the 2-
    and 3-parts kept together.  So q = q1 * p_1 * ... * p_k, with p_i the
    primes >= 5 dividing q once; only the orbit mod q1 comes from a
    breadth-first closure under the swaps, each p_i from ``_cone_keys``.
    The factors are joined by CRT on packed keys and sorted once.  The root
    must satisfy the Descartes relation mod q.

    Each orbit is computed once per process and kept, keyed by (root mod q,
    q), within ``_ORBIT_MEMO_BYTES``; every call returns a fresh array.
    """
    q = int(q)
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > MAX_ORBIT_MODULUS:
        raise ValueError(f"moduli above {MAX_ORBIT_MODULUS} are not supported")
    start = np.array([int(x) % q for x in root], dtype=np.uint8)
    wide = [int(x) for x in start]
    if (2 * sum(x * x for x in wide) - sum(wide) ** 2) % q:
        raise ValueError(f"root {tuple(root)} is not a Descartes quadruple mod {q}")
    key = (tuple(wide), q)
    with _orbit_memo_lock:
        orbit = _orbit_memo.get(key)
        if orbit is not None:
            _orbit_memo.move_to_end(key)
    if orbit is None:
        q1, primes = _split_modulus(q)
        keys = _swap_closure((start % q1).reshape(1, 1, 4), q1, _pack_vecs)[1]
        m = q1
        for p in primes:
            cone = _cone_keys(p) if (start % p).any() else np.zeros(1, dtype=np.uint32)
            keys = _crt_keys(keys, m, cone, p)
            m *= p
        keys.sort()
        orbit = keys.astype(">u4").view(np.uint8).reshape(-1, 4)
        if orbit.nbytes <= _ORBIT_MEMO_BYTES:
            with _orbit_memo_lock:
                _orbit_memo[key] = orbit
                while sum(o.nbytes for o in _orbit_memo.values()) > _ORBIT_MEMO_BYTES:
                    _orbit_memo.popitem(last=False)
    return orbit.astype(np.int64)
