import itertools
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from apollonian import congruence as cg
from apollonian.arithmetic import is_prime, is_squarefree
from apollonian.quadruples import SWAP_MATRICES
from conftest import STRIP_ROOT, TEST_ROOTS, graph_from_edges


def edges_and_loops(g):
    """The graph's undirected edges (u < v, lexicographic, repeated for each
    table entry that gives them) and its self-loop count per vertex, read
    off the neighbour table."""
    u = np.repeat(np.arange(g.n), g.table.shape[1])
    v = g.table.ravel().astype(np.int64)
    up = u < v
    edges = np.stack([u[up], v[up]], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return edges, np.bincount(u[u == v], minlength=g.n)


@pytest.fixture(scope="module")
def img3():
    return cg.reduce_group_mod(3)


@pytest.fixture(scope="module")
def img5():
    return cg.reduce_group_mod(5)


def test_generators_are_involutions_mod_q():
    for q in (2, 3, 5, 7, 11, 13):
        for g in range(4):
            s = SWAP_MATRICES[g] % q
            assert np.array_equal((s @ s) % q, np.eye(4, dtype=np.int64) % q)


def test_form_preserved_mod_q():
    rng = np.random.default_rng(1)
    vs = rng.integers(0, 1000, size=(500, 4))
    for q in (3, 5, 7):
        for g in range(4):
            w = (vs @ SWAP_MATRICES[g]) % q
            qv = (2 * (vs * vs).sum(axis=1) - vs.sum(axis=1) ** 2) % q
            qw = (2 * (w * w).sum(axis=1) - w.sum(axis=1) ** 2) % q
            assert (qv == qw).all()


def test_mod2_image_trivial():
    img = cg.reduce_group_mod(2)
    assert img.order == 1
    g = cg.build_cayley(img)
    assert g.n == 1
    assert g.table.tolist() == [[0, 0, 0, 0]]
    rep = cg.spectrum(g)
    assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
    assert rep.lambda1 is None


def test_group_orders_golden(img3, img5):
    # golden values recorded from the first verified run
    assert img3.order == 120
    assert img5.order == 14400
    assert cg.reduce_group_mod(6).order == 120  # mod-2 part is trivial
    assert cg.reduce_group_mod(10).order == 14400


def test_group_order_divides_gl4(img3):
    q = 3
    gl4 = (q**4 - 1) * (q**4 - q) * (q**4 - q**2) * (q**4 - q**3)
    assert gl4 % img3.order == 0


def test_closure_under_generators(img3):
    q = 3
    for g in range(4):
        prods = (img3.elements.astype(np.int64) @ img3.generators[g].astype(np.int64)) % q
        idx = img3.index_of(prods)
        assert len(np.unique(idx)) == img3.order  # right multiplication permutes


def test_cayley_regularity_and_connectivity(img3, img5):
    for img in (img3, img5):
        g = cg.build_cayley(img)
        edges, loops = edges_and_loops(g)
        assert 2 * len(edges) + int(loops.sum()) == 4 * g.n
        assert g.is_connected()
        deg = np.zeros(g.n, dtype=int)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        deg += loops
        assert (deg == 4).all()


def test_spectrum_k5():
    k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
    rep = cg.spectrum(k5)
    assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
    assert rep.lambda1 == pytest.approx(-1.0, abs=1e-9)
    assert rep.lambda_min == pytest.approx(-1.0, abs=1e-9)


def test_spectrum_circulant_closed_form():
    n = 12
    circ = graph_from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    rep = cg.spectrum(circ)
    lam = sorted(
        2 * math.cos(2 * math.pi * j / n) + 2 * math.cos(4 * math.pi * j / n)
        for j in range(n)
    )
    assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
    assert rep.lambda1 == pytest.approx(lam[-2], abs=1e-9)
    assert rep.lambda_min == pytest.approx(lam[0], abs=1e-9)


def lanczos_spectrum(g):
    """spectrum(g) with the dense route closed to every graph of 3 or more
    vertices, the least size Lanczos takes."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cg, "_DENSE_MAX_VERTICES", 2)
        return cg.spectrum(g)


def test_spectrum_iterative_matches_dense(img3):
    complete = [graph_from_edges(n, itertools.combinations(range(n), 2)) for n in (3, 4, 5, 8, 20)]
    cycles = [circulant(n, (1,)) for n in (4, 5, 6)]
    # C4 with every edge twice: graph_from_edges would merge the repeats
    doubled_c4 = [[(i - 1) % 4, (i + 1) % 4] * 2 for i in range(4)]
    doubled_c4 = cg.CayleyGraph(modulus=0, table=np.array(doubled_c4, dtype=np.int32))
    cayley = [cg.build_cayley(img3), cg.build_cayley(cg.reduce_group_mod(6))]
    for g in [*complete, *cycles, doubled_c4, *cayley]:
        n, k = g.table.shape
        a = np.zeros((n, n))
        np.add.at(a, (np.repeat(np.arange(n), k), g.table.ravel()), 1.0)
        ref = np.linalg.eigvalsh(a)
        lan = lanczos_spectrum(g)
        assert lan.method == "lanczos"
        assert lan.lambda0 == pytest.approx(ref[-1], abs=1e-8)
        assert lan.lambda1 == pytest.approx(ref[-2], abs=1e-8)
        assert lan.lambda_min == pytest.approx(ref[0], abs=1e-8)


def record_lanczos(monkeypatch):
    """Patch the Lanczos solver to log (operator size, k) of every call."""
    calls = []
    real = cg._top_eigenpairs

    def logged(op, v0, k):
        calls.append((len(v0), k))
        return real(op, v0, k)

    monkeypatch.setattr(cg, "_top_eigenpairs", logged)
    return calls


def circulant(n, steps):
    return graph_from_edges(n, [(i, (i + d) % n) for i in range(n) for d in steps])


def circulant_spectrum(n, steps):
    return sorted(
        sum(2 * math.cos(2 * math.pi * j * d / n) for d in steps) for j in range(n)
    )


@pytest.mark.parametrize(
    "n, steps, half",
    [
        (41, (1, 2), False),  # odd cycles: the general path
        (40, (1, 3), True),  # odd steps on an even cycle: bipartite
    ],
)
def test_spectrum_lanczos_paths_circulant_closed_form(monkeypatch, n, steps, half):
    calls = record_lanczos(monkeypatch)
    rep = lanczos_spectrum(circulant(n, steps))
    lam = circulant_spectrum(n, steps)
    assert rep.method == "lanczos"
    assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
    assert rep.lambda1 == pytest.approx(lam[-2], abs=1e-9)
    assert rep.lambda_min == pytest.approx(lam[0], abs=1e-9)
    if half:
        assert rep.lambda_min == pytest.approx(-4.0, abs=1e-9)
        assert calls == [(n // 2, 2)]
    else:
        # the top two of A and the top one of -A
        assert calls == [(n, 2), (n, 1)]


def test_spectrum_lanczos_complete_bipartite(monkeypatch):
    # K_{m,m}: eigenvalues m, -m and 0 (2m - 2 times), so sigma_1 = 0 and
    # the second eigenvector lifts to (u, 0).  At m = 40 the Ritz value of
    # that eigenvector is rounding noise of about 1e-13, whose square root
    # would be far above the lift's threshold
    calls = record_lanczos(monkeypatch)
    for m in (20, 40):
        k = graph_from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
        del calls[:]
        rep = lanczos_spectrum(k)
        assert calls == [(m, 2)]
        assert rep.lambda0 == pytest.approx(m, abs=1e-9)
        assert rep.lambda1 == pytest.approx(0.0, abs=1e-9)
        assert rep.lambda_min == pytest.approx(-m, abs=1e-9)
        # the degree is m, not 4: the gap is m - 0
        assert rep.cheeger_lower == pytest.approx(m / 2, abs=1e-9)
        dense = cg.spectrum(k)
        assert dense.method == "dense"
        assert dense.cheeger_lower == pytest.approx(m / 2, abs=1e-9)


def test_spectrum_rejects_an_irregular_table():
    # vertex 0 is the neighbour of 1 and of 2, and has only one entry itself:
    # as a graph, the path 1 - 0 - 2 with degrees 2, 1, 1
    path = cg.CayleyGraph(modulus=0, table=np.array([[1], [0], [0]], dtype=np.int32))
    with pytest.raises(ValueError, match="regular"):
        cg.spectrum(path)


def test_top_eigenpairs_match_dense_eigh():
    rng = np.random.default_rng(3)
    n = 300
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    vals, vecs = cg._top_eigenpairs(lambda x: a @ x, rng.standard_normal(n), 2)
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert vals == pytest.approx(ref_vals[-2:], abs=1e-10)
    assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)
    for vec, ref in zip(vecs, ref_vecs[:, -2:].T):
        assert abs(float(vec @ ref)) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(a @ vec - (vec @ a @ vec) * vec) < 1e-8


def test_top_eigenpairs_go_on_past_an_invariant_start():
    # e_0 is an eigenvector: the first step leaves exactly nothing, and the
    # second copy of the top eigenvalue 5 is found from a fresh direction
    d = np.ones(100)
    d[:2] = 5.0
    vals, vecs = cg._top_eigenpairs(lambda x: d * x, np.eye(100)[0], 2)
    assert vals == pytest.approx([5.0, 5.0], abs=1e-10)
    assert np.allclose(np.linalg.norm(vecs[:, :2], axis=1), 1.0)


def test_top_eigenpairs_raises_after_the_restart_cap(monkeypatch):
    graph = cg.build_cayley(cg.reduce_group_mod(7))
    monkeypatch.setattr(cg, "_LANCZOS_RESTARTS", 1)
    with pytest.raises(cg.EigenConvergenceError, match="restarts"):
        cg.spectrum(graph)


@pytest.mark.parametrize("graph", [circulant(41, (1, 2)), circulant(40, (1, 3))])
def test_spectrum_lanczos_rejects_inexact_eigenvectors(monkeypatch, graph):
    real = cg._top_eigenpairs

    def perturbed(op, v0, k):
        vals, vecs = real(op, v0, k)
        vecs = vecs + 1e-4 * np.random.default_rng(1).standard_normal(vecs.shape)
        return vals, vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    monkeypatch.setattr(cg, "_top_eigenpairs", perturbed)
    with pytest.raises(cg.EigenConvergenceError):
        lanczos_spectrum(graph)


def test_two_colouring_rejects_loops_odd_cycles_and_disconnected():
    assert cg._two_colouring(circulant(41, (1, 2)).table) is None
    assert cg._two_colouring(circulant(40, (1, 2)).table) is None
    two_squares = graph_from_edges(8, [(i, (i + 1) % 4 + 4 * (i // 4)) for i in range(8)])
    assert cg._two_colouring(two_squares.table) is None
    assert not two_squares.is_connected()
    # one edge and a self-loop at each end: connected, no odd cycle, but a
    # loop joins a side to itself
    looped = cg.CayleyGraph(modulus=0, table=np.array([[1, 0], [0, 1]], dtype=np.int32))
    assert looped.is_connected()
    assert cg._two_colouring(looped.table) is None
    side = cg._two_colouring(circulant(40, (1, 3)).table)
    assert side.tolist() == [i % 2 == 1 for i in range(40)]


def test_spectral_gap_small_moduli(monkeypatch):
    calls = record_lanczos(monkeypatch)
    lam1, method = {}, {}
    for q in (3, 5, 6, 7, 10):
        img = cg.reduce_group_mod(q)
        graph = cg.build_cayley(img)
        # every swap has determinant -1, so the sides are det = +1 and -1
        det = np.rint(np.linalg.det(img.elements.astype(float))).astype(np.int64) % q
        assert set(det.tolist()) == {1, q - 1}
        side = cg._two_colouring(graph.table)
        assert side is not None
        assert np.array_equal(side, det != det[0])
        rep = cg.spectrum(graph)
        assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
        assert rep.lambda_min == pytest.approx(-4.0, abs=1e-9)
        lam1[q], method[q] = rep.lambda1, rep.method
    # 120 vertices are solved densely, 14,400 and more by one half-operator
    # Lanczos run each
    assert method == {3: "dense", 5: "lanczos", 6: "dense", 7: "lanczos", 10: "lanczos"}
    assert calls == [(n // 2, 2) for n in (14400, 117600, 14400)]
    assert lam1[6] == pytest.approx(lam1[3], abs=1e-7)
    assert lam1[10] == pytest.approx(lam1[5], abs=1e-7)
    assert max(lam1.values()) < 4.0 - 0.05


def test_exact_cheeger_k5():
    k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
    assert cg.exact_cheeger(k5) == pytest.approx(3.0)


def test_exact_cheeger_doubled_cycle():
    # 4-regular: 6-cycle with each edge doubled collapses to the simple
    # 6-cycle adjacency-wise if multiedges merge, so use C6(+-1,+-2) instead
    n = 6
    g = graph_from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    h = cg.exact_cheeger(g)
    # brute-force oracle recomputed inline
    best = math.inf
    edges = set(map(tuple, edges_and_loops(g)[0].tolist()))
    for size in range(1, n // 2 + 1):
        for sub in itertools.combinations(range(n), size):
            w = set(sub)
            boundary = sum(1 for a, b in edges if (a in w) != (b in w))
            best = min(best, boundary / size)
    assert h == pytest.approx(best)


def test_exact_cheeger_caps():
    single = cg.CayleyGraph(modulus=2, table=np.zeros((1, 4), dtype=np.int32))
    with pytest.raises(ValueError):
        cg.exact_cheeger(single)
    big = graph_from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
    with pytest.raises(cg.SizeCapError):
        cg.exact_cheeger(big)


def test_cheeger_sandwich_on_small_graphs():
    graphs = [
        graph_from_edges(5, itertools.combinations(range(5), 2)),
        graph_from_edges(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 2)]),
        graph_from_edges(6, [(i, (i + d) % 6) for i in range(6) for d in (1, 2)]),
    ]
    for g in graphs:
        rep = cg.spectrum(g)
        h = cg.exact_cheeger(g)
        assert rep.cheeger_lower <= h + 1e-9
        assert h <= rep.cheeger_upper + 1e-9


def test_size_cap_enforced():
    with pytest.raises(cg.SizeCapError):
        cg.reduce_group_mod(7, element_cap=1000)


def test_size_cap_boundary():
    # the image mod 5 has 14,400 elements: a cap of exactly that admits it
    assert cg.reduce_group_mod(5, element_cap=14_400).order == 14_400
    with pytest.raises(cg.SizeCapError):
        cg.reduce_group_mod(5, element_cap=14_399)


def test_expander_report_skips_capped_and_rejects_nonsquarefree():
    reports = cg.expander_report([2, 3, 7], element_cap=1000)
    assert [r[0] for r in reports] == [2, 3]
    with pytest.raises(ValueError):
        cg.expander_report([4])


@pytest.mark.parametrize("m", [3, 5])
def test_group_mod_2m_has_the_spectrum_of_the_group_mod_m(m):
    # the swaps are the identity mod 2, so the report takes the row of 2m
    # from m; a direct run agrees
    odd, even = cg.reduce_group_mod(m), cg.reduce_group_mod(2 * m)
    assert even.order == odd.order
    a, b = cg.spectrum(cg.build_cayley(odd)), cg.spectrum(cg.build_cayley(even))
    assert abs(a.lambda1 - b.lambda1) <= 1e-12
    for field in ("lambda0", "lambda_min", "cheeger_lower", "cheeger_upper"):
        assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12, field
    assert (a.n, a.method) == (b.n, b.method)


def test_orbit_mod_basics():
    orb = cg.orbit_mod((-1, 2, 2, 3), 2)
    assert orb.shape == (1, 4)  # swaps act trivially mod 2
    assert cg.orbit_mod((-1, 2, 2, 3), 1).shape == (1, 4)
    orb3 = cg.orbit_mod((-1, 2, 2, 3), 3)
    assert len(orb3) > 1
    # closed under every swap
    packed = {tuple(r) for r in orb3.tolist()}
    for g in range(4):
        img = (orb3 @ SWAP_MATRICES[g]) % 3
        assert {tuple(r) for r in img.tolist()} == packed


def test_orbit_divides_group_order(img3, img5):
    for img in (img3, img5):
        orb = cg.orbit_mod((-1, 2, 2, 3), img.modulus)
        assert img.order % len(orb) == 0


def test_orbit_crt_multiplicativity():
    n2 = len(cg.orbit_mod((-1, 2, 2, 3), 2))
    n3 = len(cg.orbit_mod((-1, 2, 2, 3), 3))
    n5 = len(cg.orbit_mod((-1, 2, 2, 3), 5))
    n6 = len(cg.orbit_mod((-1, 2, 2, 3), 6))
    n15 = len(cg.orbit_mod((-1, 2, 2, 3), 15))
    assert n6 == n2 * n3
    assert n15 == n3 * n5


def naive_closure(start, q):
    """Reference closure: level BFS with int64 matrix products by the swaps,
    membership by a dict of raw bytes, result in lexicographic order."""
    start = np.asarray(start, dtype=np.int64) % q
    seen = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        stack = np.array(frontier)
        frontier = []
        for g in SWAP_MATRICES:
            for x in (stack @ g) % q:
                if x.tobytes() not in seen:
                    seen[x.tobytes()] = x
                    frontier.append(x)
    flat = np.array(list(seen.values())).reshape(len(seen), -1)
    return flat[np.lexsort(flat.T[::-1])].reshape(-1, *start.shape)


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = OrderedDict()
    monkeypatch.setattr(cg, "_orbit_memo", memo)
    return memo


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7)])
@pytest.mark.parametrize("q", [3, 5, 6, 7, 11, 15])
def test_orbit_mod_matches_naive_closure(fresh_memo, root, q):
    orb = cg.orbit_mod(root, q)
    assert orb.dtype == np.uint8
    assert np.array_equal(orb, naive_closure(root, q))


def dense_orbit(root, q):
    """Reference orbit for the sweep below, where naive_closure is too slow:
    level BFS with int32 matrix products by the swaps, each vector coded by
    its base-q digits and marked in a table over all q^4 vectors, so the
    marked codes in ascending order are the orbit in lexicographic order."""
    digits = (q ** np.arange(3, -1, -1)).astype(np.int32)
    visited = np.zeros(q**4, dtype=bool)
    owner = np.empty(q**4, dtype=np.int32)
    frontier = np.asarray(root, dtype=np.int32)[None] % q
    visited[frontier @ digits] = True
    while len(frontier):
        cand = (frontier @ SWAP_MATRICES.astype(np.int32) % q).reshape(-1, 4)
        codes = cand @ digits
        new = ~visited[codes]
        cand, codes = cand[new], codes[new]
        # one copy of each repeated code: the one whose index the write kept
        idx = np.arange(len(codes), dtype=np.int32)
        owner[codes] = idx
        first = owner[codes] == idx
        frontier = cand[first]
        visited[codes[first]] = True
    return np.flatnonzero(visited)[:, None] // digits % q


@pytest.mark.parametrize("q", [1, 2, 3, 5, 6, 9, 10, 11, 12])
def test_dense_orbit_matches_naive_closure(q):
    for root in TEST_ROOTS[:2] + [STRIP_ROOT]:
        assert np.array_equal(dense_orbit(root, q), naive_closure(root, q))


SWEEP_ROOTS = TEST_ROOTS + [STRIP_ROOT, (-2, 4, 4, 6)]


@pytest.mark.parametrize("q", range(1, 71))
def test_orbit_mod_matches_reference_for_every_small_modulus(fresh_memo, q):
    orbits = []  # the orbits mod q are disjoint: roots in one share it
    for root in SWEEP_ROOTS:
        start = np.array(root) % q
        ref = next((o for o in orbits if (o == start).all(axis=1).any()), None)
        if ref is None:
            ref = dense_orbit(root, q)
            orbits.append(ref)
        assert np.array_equal(cg.orbit_mod(root, q), ref), root


@pytest.mark.parametrize("root", [(-5, 10, 10, 15), (0, 0, 5, 5), (-7, 14, 14, 21)])
@pytest.mark.parametrize("q", [5, 7, 10, 14, 15, 35, 70])
def test_orbit_mod_of_a_root_divisible_by_a_prime_of_q(fresh_memo, root, q):
    assert np.array_equal(cg.orbit_mod(root, q), dense_orbit(root, q))


@pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)])
def test_orbit_mod_prime_is_the_nonzero_cone(fresh_memo, p):
    orb = cg.orbit_mod((-1, 2, 2, 3), p).astype(np.int64)  # squares overflow uint8
    chi = 1 if p % 4 == 1 else -1
    assert len(orb) == p**3 + chi * (p * p - p) - 1
    assert not ((2 * (orb**2).sum(axis=1) - orb.sum(axis=1) ** 2) % p).any()
    assert orb.any(axis=1).all()


def test_orbit_mod_walks_only_the_part_of_q_at_2_and_3(fresh_memo, monkeypatch):
    walked = []
    real = cg._swap_closure

    def recording(start, q, pack, cap=None):
        walked.append(q)
        return real(start, q, pack, cap)

    monkeypatch.setattr(cg, "_swap_closure", recording)
    for q in [q for q in range(1, 71) if is_squarefree(q)] + [210, 231]:
        walked.clear()
        cg.orbit_mod((-1, 2, 2, 3), q)
        assert walked == [math.gcd(q, 6)]
    # 5 divides 50 = 2 * 5^2 more than once, so the whole of 50 is walked
    walked.clear()
    cg.orbit_mod((-1, 2, 2, 3), 50)
    assert walked == [50]


def test_orbit_mod_rejects_a_root_off_the_cone():
    with pytest.raises(ValueError, match="Descartes"):
        cg.orbit_mod((1, 2, 3, 4), 7)


@pytest.mark.parametrize("q", [3, 5, 6, 7])
def test_reduce_group_mod_matches_naive_closure(q):
    img = cg.reduce_group_mod(q)
    assert np.array_equal(img.elements, naive_closure(np.eye(4, dtype=np.int64), q))
    assert (img.keys[1:] > img.keys[:-1]).all()
    assert np.array_equal(img.keys, cg._pack_mats(img.elements))


def test_orbit_memo_returns_fresh_copies(fresh_memo):
    root = (-1, 2, 2, 3)
    first = cg.orbit_mod(root, 7)
    again = cg.orbit_mod(root, 7)
    assert again is not first and np.array_equal(first, again)
    assert len(fresh_memo) == 1
    first[:] = 0
    again[0, 0] += 1
    assert np.array_equal(cg.orbit_mod(root, 7), naive_closure(root, 7))


def test_orbit_memo_shares_entries_across_congruent_roots(fresh_memo):
    base = cg.orbit_mod((-1, 2, 2, 3), 5)
    shifted = cg.orbit_mod((-1 + 5, 2 - 10, 2, 3 + 25), 5)
    assert np.array_equal(base, shifted)
    assert len(fresh_memo) == 1
    cg.orbit_mod((-2, 3, 6, 7), 5)
    assert len(fresh_memo) == 2


def test_orbit_memo_evicts_least_recently_used(fresh_memo, monkeypatch):
    root = (-1, 2, 2, 3)
    sizes = {q: naive_closure(root, q).nbytes // 8 for q in (5, 7, 11)}  # uint8 bytes
    # room for the orbits mod 5 and 7, not for the one mod 11 as well
    monkeypatch.setattr(cg, "_ORBIT_MEMO_BYTES", sizes[11] + sizes[5])
    cg.orbit_mod(root, 5)
    cg.orbit_mod(root, 7)
    cg.orbit_mod(root, 5)  # now 7 is the least recently used
    cg.orbit_mod(root, 11)
    assert [key[1] for key in fresh_memo] == [5, 11]
    assert sum(o.nbytes for o in fresh_memo.values()) <= cg._ORBIT_MEMO_BYTES
    for q in (5, 7, 11):
        assert np.array_equal(cg.orbit_mod(root, q), naive_closure(root, q))
    # an orbit larger than the whole budget is returned but not kept
    monkeypatch.setattr(cg, "_ORBIT_MEMO_BYTES", sizes[5] - 1)
    fresh_memo.clear()
    assert np.array_equal(cg.orbit_mod(root, 5), naive_closure(root, 5))
    assert len(fresh_memo) == 0


def test_orbit_memo_under_concurrent_callers(fresh_memo, monkeypatch):
    root = (-1, 2, 2, 3)
    moduli = (3, 5, 6, 7, 10, 11, 13, 15)
    expected = {q: naive_closure(root, q) for q in moduli}
    uint8_bytes = {q: orb.nbytes // 8 for q, orb in expected.items()}
    # room for the two largest orbits, so threads evict one another's entries
    monkeypatch.setattr(cg, "_ORBIT_MEMO_BYTES", uint8_bytes[13] + uint8_bytes[15])
    assert sum(uint8_bytes.values()) > cg._ORBIT_MEMO_BYTES
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for q in rng.choice(moduli, size=1500):
                if not np.array_equal(cg.orbit_mod(root, q), expected[q]):
                    errors.append(f"wrong orbit mod {q}")
        except Exception as exc:  # reported through the assertion below
            errors.append(repr(exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sum(o.nbytes for o in fresh_memo.values()) <= cg._ORBIT_MEMO_BYTES


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7])
def test_cayley_edges_match_unique_reference(q):
    img = cg.reduce_group_mod(q)
    idx = np.arange(img.order)
    graph = cg.build_cayley(img)
    assert graph.table.dtype == np.int32 and graph.table.shape == (img.order, 4)
    pairs = []
    for g in range(4):
        prods = (img.elements.astype(np.int64) @ img.generators[g].astype(np.int64)) % q
        nb = img.index_of(prods)
        assert np.array_equal(graph.table[:, g], nb)
        # each swap is an involution, so its column undoes itself
        assert np.array_equal(graph.table[graph.table[:, g], g], idx)
        pairs.append(np.stack([np.minimum(idx, nb), np.maximum(idx, nb)], axis=1))
    edges, loops = edges_and_loops(graph)
    if q == 2:
        # every generator is the identity mod 2: four self-loops
        assert (graph.table == idx[:, None]).all()
        assert len(edges) == 0 and loops.tolist() == [4]
    else:
        expected = np.unique(np.concatenate(pairs), axis=0)
        assert np.array_equal(edges, expected)
        assert not loops.any()


@pytest.mark.parametrize("root, q", [((-1, 2, 2, 3), 8), ((-1, 2, 2, 3), 50), ((-2, 3, 6, 7), 36)])
def test_orbit_closure_table_is_the_swap_table(root, q):
    start = (np.array(root) % q).astype(np.uint8).reshape(1, 1, 4)
    elements, keys, table = cg._swap_closure(start, q, cg._pack_vecs)
    assert np.array_equal(elements.reshape(-1, 4), naive_closure(np.array(root), q))
    assert np.array_equal(keys, cg._pack_vecs(elements))
    images = cg._swaps(elements, q)
    for i in range(4):
        assert np.array_equal(keys[table[:, i]], cg._pack_vecs(images[i]))
        assert np.array_equal(table[table[:, i], i], np.arange(len(keys)))


def test_build_cayley_memory_at_q7():
    # 117,600 elements of 16 bytes: the table and one rewritten copy of the
    # elements, not a (4, n, 4, 4) stack of all four swaps (23 MB)
    img = cg.reduce_group_mod(7)
    tracemalloc.start()
    try:
        graph = cg.build_cayley(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n == img.order == 117_600
    assert peak < 12 << 20


# traced peaks at q = 7 under numpy 2.4.6, each measured in a fresh process:
# reduce_group_mod 12.90 MB with the closure that kept one growing sorted
# array of every key seen and searched each swap image again to build the
# table, 11.17 MB walking by spheres; spectrum 18.80 MB with the restart's
# (kept, n) temporary and int32 (n, k) half tables, 17.00 MB with column
# blocks and (k, n) intp half tables.  The bounds are the former figures.


def test_reduce_group_mod_memory_at_q7():
    tracemalloc.start()
    try:
        img = cg.reduce_group_mod(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.order == 117_600
    assert peak < 12.9 * 2**20


def test_spectrum_memory_at_q7():
    graph = cg.build_cayley(cg.reduce_group_mod(7))
    tracemalloc.start()
    try:
        report = cg.spectrum(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.method == "lanczos"
    assert peak < 18.8 * 2**20
