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
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .arithmetic import is_squarefree
from .quadruples import SWAP_MATRICES

DENSE_CAP_DEFAULT = 5000
ELEMENT_CAP_DEFAULT = 10**7
MAX_GROUP_MODULUS = 16  # 4 bits per matrix entry pack a 4x4 matrix into one uint64
MAX_ORBIT_MODULUS = 255  # orbit_mod stores one byte per coordinate
# a Lanczos eigenpair (lam, v) is accepted when
# |A v - lam v| <= _EIGEN_TOL * max(1, |lam|) * sqrt(n)
_EIGEN_TOL = 1e-8
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
    modulus: int
    n: int
    edges: np.ndarray  # (m, 2) int64, u < v, each undirected edge once
    loops: np.ndarray  # (n,) int64: weight-1 self-loop count per vertex
    degree: int = 4

    def adjacency(self) -> sp.csr_matrix:
        n = self.n
        if len(self.edges):
            u, v = self.edges[:, 0], self.edges[:, 1]
            a = sp.coo_matrix(
                (
                    np.ones(2 * len(self.edges)),
                    (np.concatenate([u, v]), np.concatenate([v, u])),
                ),
                shape=(n, n),
            )
        else:
            a = sp.coo_matrix((n, n))
        if self.loops.any():
            a = a + sp.diags(self.loops.astype(float))
        return a.tocsr()

    def is_connected(self) -> bool:
        ncomp, _ = sp.csgraph.connected_components(self.adjacency(), directed=False)
        return bool(ncomp == 1)


def build_cayley(img: FiniteGroupImage) -> CayleyGraph:
    """4-regular Cayley graph {g, g*S_i} on the group image.

    A generator fixing an element (which happens exactly when it reduces to
    the identity, i.e. q <= 2) contributes a weight-1 self-loop.
    """
    n = img.order
    idx = np.arange(n, dtype=np.int64)
    loops = np.zeros(n, dtype=np.int64)
    pair_keys = []
    for images in _swaps(img.elements, img.modulus):
        # _swaps reduces mod q already, so the keys are searched as they are
        nb = img._index_of_keys(_pack_mats(images))
        loops += nb == idx
        # each swap is an involution, so {u, u S_i} is found from both ends:
        # keep it from the smaller one
        up = idx < nb
        pair_keys.append(idx[up] * n + nb[up])
    key = np.sort(np.concatenate(pair_keys))
    edges = np.stack([key // n, key % n], axis=1)
    return CayleyGraph(modulus=img.modulus, n=n, edges=edges, loops=loops)


@dataclass
class SpectralReport:
    lambda0: float
    lambda1: float | None
    lambda_min: float | None
    cheeger_lower: float | None
    cheeger_upper: float | None
    n: int
    method: str


def _two_colouring(a: sp.csr_matrix) -> np.ndarray | None:
    """Sides (False, True) of a proper 2-colouring of the graph with
    symmetric adjacency matrix ``a``, or None when the graph has a self-loop,
    is disconnected, or has an odd cycle.

    The side of a vertex is the parity of its breadth-first distance from
    vertex 0; every edge is then checked to join the two sides.
    """
    n = a.shape[0]
    if a.diagonal().any():
        return None
    # a is symmetric, so the directed search is the undirected one;
    # sp.csgraph is imported on first use, not with this module
    order, pred = sp.csgraph.breadth_first_order(a, 0, directed=True)
    if len(order) < n:
        return None
    # pointer jumping: side[v] is the parity of the path from v to pred[v];
    # doubling the jumps reaches vertex 0 after log2(depth) rounds
    pred[0] = 0
    side = np.ones(n, dtype=bool)
    side[0] = False
    while pred.any():
        side ^= side[pred]
        pred = pred[pred]
    tails = np.repeat(np.arange(n), np.diff(a.indptr))
    return side if (side[tails] != side[a.indices]).all() else None


def spectrum(g: CayleyGraph, dense_cap: int = DENSE_CAP_DEFAULT) -> SpectralReport:
    """lambda_0, lambda_1, lambda_min of the adjacency operator A plus the
    Cheeger bounds (k - lambda_1)/2 <= h <= sqrt(2k(k - lambda_1)).

    Up to ``dense_cap`` vertices, a dense symmetric solver.  Above it, one
    deterministic Lanczos (ARPACK) run:

    - a connected, loop-free graph with a proper 2-colouring (every swap
      Cayley graph mod q >= 3: the swaps have determinant -1, so the sides
      are det = +1 and det = -1) has A = [[0, B], [B^T, 0]] with eigenvalues
      +-sigma(B).  The top two eigenvalues sigma_0^2, sigma_1^2 of B B^T on
      the side of vertex 0 give lambda_0 = sigma_0, lambda_1 = sigma_1 and
      lambda_min = -sigma_0; each eigenvector u lifts to (u, +-B^T u/sigma);
    - any other graph takes the two largest and the smallest eigenpair of A.

    Every returned eigenpair (lam, v) is checked on the full A:
    |A v - lam v| <= 1e-8 * max(1, |lam|) * sqrt(n), else
    EigenConvergenceError.
    """
    a = g.adjacency()
    k = g.degree
    if g.n == 1:
        return SpectralReport(float(a[0, 0]), None, None, None, None, 1, "trivial")
    if g.n <= dense_cap:
        vals = np.linalg.eigvalsh(a.toarray())
        lam0, lam1, lammin = float(vals[-1]), float(vals[-2]), float(vals[0])
        method = "dense"
    else:
        side = _two_colouring(a)
        rng = np.random.default_rng(0)
        try:
            if side is None:
                vals, vecs = spla.eigsh(a, k=3, which="BE", v0=rng.standard_normal(g.n))
                pairs = list(zip(vals, vecs.T))  # lambda_min, lambda_1, lambda_0
            else:
                rows, cols = np.flatnonzero(~side), np.flatnonzero(side)
                b = a[rows][:, cols]
                bbt = spla.LinearOperator(
                    (len(rows), len(rows)), matvec=lambda x: b @ (b.T @ x), dtype=float
                )
                vals, vecs = spla.eigsh(
                    bbt, k=2, which="LA", v0=rng.standard_normal(len(rows))
                )
                (s1, s0), (u1, u0) = np.sqrt(np.maximum(vals, 0.0)), vecs.T

                def lift(u, s, sign):
                    v = np.empty(g.n)
                    v[rows] = u
                    # |B^T u| = s, so for s ~ 0 the eigenvector is (u, 0):
                    # dividing rounding noise by s would not give it
                    v[cols] = sign * (b.T @ u) / s if s > _EIGEN_TOL else 0.0
                    return v / np.linalg.norm(v)

                pairs = [(-s0, lift(u0, s0, -1)), (s1, lift(u1, s1, 1)), (s0, lift(u0, s0, 1))]
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigenConvergenceError(str(exc)) from exc
        for lam, vec in pairs:
            resid = float(np.linalg.norm(a @ vec - lam * vec))
            # written so that a NaN residual fails too
            if not resid <= _EIGEN_TOL * max(1.0, abs(lam)) * np.sqrt(g.n):
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
        n=g.n,
        method=method,
    )


def exact_cheeger(g: CayleyGraph, cap: int = 20) -> float:
    """Exhaustive Cheeger constant: min over nonempty W with |W| <= n/2 of
    #boundary_edges(W) / |W|.  Self-loops never cross a cut."""
    n = g.n
    if n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    if n > cap:
        raise SizeCapError(f"exhaustive Cheeger limited to {cap} vertices")
    adj_bits = [0] * n
    deg = [0] * n
    for u, v in g.edges:
        adj_bits[u] |= 1 << int(v)
        adj_bits[v] |= 1 << int(u)
        deg[u] += 1
        deg[v] += 1
    best = float("inf")
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            wmask = 0
            for v in subset:
                wmask |= 1 << v
            # deg(v) counts boundary edges once and internal edges once per
            # endpoint; subtracting internal neighbors leaves the boundary
            boundary = sum(
                deg[v] - bin(adj_bits[v] & wmask).count("1") for v in subset
            )
            best = min(best, boundary / size)
    return best


def expander_report(
    moduli,
    element_cap: int = ELEMENT_CAP_DEFAULT,
    dense_cap: int = DENSE_CAP_DEFAULT,
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
        out.append((q, img.order, spectrum(graph, dense_cap=dense_cap)))
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
