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
        keys = _pack_mats(mats % self.modulus)
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
        nb = img.index_of(images)
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
    exact_cheeger: float | None = None


def spectrum(
    g: CayleyGraph,
    dense_cap: int = DENSE_CAP_DEFAULT,
    tol: float = 1e-8,
) -> SpectralReport:
    """lambda_0, lambda_1, lambda_min of the adjacency operator plus the
    Cheeger bounds (k - lambda_1)/2 <= h <= sqrt(2k(k - lambda_1)).

    Dense symmetric solver up to ``dense_cap`` vertices; deterministic
    Lanczos iteration above it, with the Rayleigh residual of every returned
    eigenpair checked against ``tol``.
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
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(g.n)
        af = a.astype(float)
        try:
            vals, vecs = spla.eigsh(af, k=2, which="LA", v0=v0)
            vmin, wmin = spla.eigsh(af, k=1, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigenConvergenceError(str(exc)) from exc
        for lam, vec in zip(
            np.concatenate([vals, vmin]), np.concatenate([vecs.T, wmin.T])
        ):
            resid = float(np.linalg.norm(af @ vec - lam * vec))
            if resid > tol * max(1.0, abs(lam)) * np.sqrt(g.n):
                raise EigenConvergenceError(f"eigen residual {resid:.2e} above tolerance")
        lam0, lam1 = float(vals[-1]), float(vals[-2])
        lammin = float(vmin[0])
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


def orbit_mod(root, q: int) -> np.ndarray:
    """Orbit of the root quadruple under the swaps mod q, as a sorted (n, 4)
    array; the proportion of the orbit satisfying a congruence is the natural
    density estimate for the matching congruence slice of the sieve.

    Each orbit is computed once per process and kept, keyed by (root mod q,
    q), within ``_ORBIT_MEMO_BYTES``; every call returns a fresh array.
    """
    q = int(q)
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > MAX_ORBIT_MODULUS:
        raise ValueError(f"moduli above {MAX_ORBIT_MODULUS} are not supported")
    start = np.array([int(x) % q for x in root], dtype=np.uint8)
    key = (tuple(start.tolist()), q)
    with _orbit_memo_lock:
        orbit = _orbit_memo.get(key)
        if orbit is not None:
            _orbit_memo.move_to_end(key)
    if orbit is None:
        orbit = _swap_closure(start.reshape(1, 1, 4), q, _pack_vecs)[0].reshape(-1, 4)
        if orbit.nbytes <= _ORBIT_MEMO_BYTES:
            with _orbit_memo_lock:
                _orbit_memo[key] = orbit
                while sum(o.nbytes for o in _orbit_memo.values()) > _ORBIT_MEMO_BYTES:
                    _orbit_memo.popitem(last=False)
    return orbit.astype(np.int64)
