import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import congruence as cg
from apollonian.arithmetic import is_prime, is_squarefree
from apollonian.quadruples import SWAP_MATRICES
from conftest import STRIP_ROOT, TEST_ROOTS, adjacency_matrix, graph_from_edges, random_regular


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


def test_spectrum_iterative_matches_dense(img3):
    complete = [graph_from_edges(n, itertools.combinations(range(n), 2)) for n in (3, 4, 5, 8, 20)]
    cycles = [circulant(n, (1,)) for n in (4, 5, 6)]
    # C4 with every edge twice: graph_from_edges would merge the repeats
    doubled_c4 = [[(i - 1) % 4, (i + 1) % 4] * 2 for i in range(4)]
    doubled_c4 = cg.CayleyGraph(modulus=0, table=np.array(doubled_c4, dtype=np.int32))
    cayley = [cg.build_cayley(img3), cg.build_cayley(cg.reduce_group_mod(6))]
    for g in [*complete, *cycles, doubled_c4, *cayley]:
        ref = np.linalg.eigvalsh(adjacency_matrix(g))
        lan = cg.spectrum(g)
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
    rep = cg.spectrum(circulant(n, steps))
    lam = circulant_spectrum(n, steps)
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
        rep = cg.spectrum(k)
        assert calls == [(m, 2)]
        assert rep.lambda0 == pytest.approx(m, abs=1e-9)
        assert rep.lambda1 == pytest.approx(0.0, abs=1e-9)
        assert rep.lambda_min == pytest.approx(-m, abs=1e-9)
        # the degree is m, not 4: the gap is m - 0
        assert rep.cheeger_lower == pytest.approx(m / 2, abs=1e-9)


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


def splitmix64(state):
    """The reference generator, in Python ints: (next state, output)."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


def test_uniform_stream_is_splitmix64_in_minus_one_to_one():
    state, ref = 0, []
    for _ in range(12):
        state, z = splitmix64(state)
        ref.append((z >> 11) * 2.0**-52 - 1.0)
    x = cg._uniform_stream(12, 0)
    assert x.tolist() == ref
    assert np.array_equal(cg._uniform_stream(12, 0), x)
    # stream s of length n is the index range after s * n
    assert np.array_equal(cg._uniform_stream(4, 2), x[8:])
    big = cg._uniform_stream(100_000, 3)
    assert big.dtype == np.float64
    assert -1.0 <= big.min() and big.max() < 1.0
    assert abs(big.mean()) < 0.01


@pytest.mark.parametrize("q, lam1", [(5, 3.854101966249686), (7, 3.69962814827532)])
def test_spectrum_lambda1_at_q5_and_q7(q, lam1):
    rep = cg.spectrum(cg.build_cayley(cg.reduce_group_mod(q)))
    assert rep.lambda1 == pytest.approx(lam1, abs=1e-10)


def test_spectrum_needs_no_linalg_norm(monkeypatch):
    # np.linalg.norm calls a BLAS dot, which in a fresh process can wait on
    # a sleeping BLAS thread; the spectra sum their norms without it: the
    # general path at q = 5, the bipartite lift, and a fresh direction
    g5 = cg.build_cayley(cg.reduce_group_mod(5))

    def no_norm(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm was called")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert cg.spectrum(g5).lambda1 == pytest.approx(3.854101966249686, abs=1e-10)
    lam = circulant_spectrum(40, (1, 3))
    rep = cg.spectrum(circulant(40, (1, 3)))
    assert (rep.lambda1, rep.lambda_min) == (pytest.approx(lam[-2], abs=1e-9), pytest.approx(-4.0, abs=1e-9))
    d = np.ones(100)
    d[:2] = 5.0
    vals, _ = cg._top_eigenpairs(lambda x: d * x, np.eye(100)[0], 2)
    assert vals == pytest.approx([5.0, 5.0], abs=1e-10)


def test_norm_matches_linalg_norm():
    x = np.random.default_rng(2).standard_normal(1000)
    assert cg._norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-14)
    assert cg._norm(np.zeros(3)) == 0.0


def test_lanczos_restarts_import_no_numpy_random():
    # the invariant start above and K_{20,20} (B B^T of rank one) both go
    # on from fresh directions; a fresh interpreter, so that numpy.random
    # imported by other tests does not count
    code = """
import sys
import numpy as np
from apollonian import congruence as cg
streams = []
real = cg._uniform_stream
def logged(n, stream):
    streams.append(stream)
    return real(n, stream)
cg._uniform_stream = logged
d = np.ones(100)
d[:2] = 5.0
vals, _ = cg._top_eigenpairs(lambda x: d * x, np.eye(100)[0], 2)
assert np.allclose(vals, [5.0, 5.0], atol=1e-10), vals
m = 20
table = np.empty((2 * m, m), dtype=np.int32)
table[:m] = np.arange(m, 2 * m)
table[m:] = np.arange(m)
rep = cg.spectrum(cg.CayleyGraph(modulus=0, table=table))
assert abs(rep.lambda0 - m) < 1e-9 and abs(rep.lambda1) < 1e-9, rep
# the starts take stream 0, the fresh directions 1, 2, ...
print(0 in streams, max(streams) >= 1, 'numpy.random' in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cg.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.split() == ["True", "True", "False"]


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
        cg.spectrum(graph)


def test_two_colouring_rejects_loops_odd_cycles_and_disconnected(monkeypatch):
    # the half operator is taken exactly when the breadth-first sides are a
    # proper 2-colouring: not on an odd cycle or a self-loop
    calls = record_lanczos(monkeypatch)
    looped_c4 = [[(i - 1) % 4, (i + 1) % 4, i] for i in range(4)]
    looped_c4 = cg.CayleyGraph(modulus=0, table=np.array(looped_c4, dtype=np.int32))
    for graph in (circulant(41, (1, 2)), circulant(40, (1, 2)), looped_c4):
        del calls[:]
        cg.spectrum(graph)
        assert calls == [(graph.n, 2), (graph.n, 1)]
    del calls[:]
    cg.spectrum(circulant(40, (1, 3)))
    assert calls == [(20, 2)]
    sides = cg._breadth_first_sides(circulant(40, (1, 3)).table)
    assert sides[1].tolist() == [i % 2 == 1 for i in range(40)]
    two_squares = graph_from_edges(8, [(i, (i + 1) % 4 + 4 * (i // 4)) for i in range(8)])
    assert not two_squares.is_connected()
    with pytest.raises(ValueError, match="connected"):
        cg.spectrum(two_squares)
    assert calls == [(20, 2)]


def disjoint_union(*graphs):
    """The neighbour table of the disjoint union, vertices of each graph in
    turn."""
    tables, first = [], 0
    for g in graphs:
        tables.append(g.table + first)
        first += g.n
    return cg.CayleyGraph(modulus=0, table=np.concatenate(tables))


def test_spectrum_rejects_a_disconnected_graph(monkeypatch):
    # each component is a connected 4-regular graph of its own; a Lanczos
    # run on the union could return true eigenpairs of one component and
    # miss lambda_1 = 4 of the other
    calls = record_lanczos(monkeypatch)
    k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
    for part in (k5, circulant(1001, (1, 2))):
        with pytest.raises(ValueError, match="connected"):
            cg.spectrum(disjoint_union(part, part))
    assert calls == []


@pytest.mark.parametrize(
    "table, expected",
    [
        ([[1], [0]], (1.0, -1.0, -1.0)),  # K2
        ([[1, 0], [0, 1]], (2.0, 0.0, 0.0)),  # K2 with a self-loop at each end
        ([[1, 1, 1], [0, 0, 0]], (3.0, -3.0, -3.0)),  # K2 with three parallel edges
    ],
)
def test_spectrum_of_two_vertex_graphs(monkeypatch, table, expected):
    # B B^T of a 2-vertex bipartite graph has one eigenvalue, so every
    # 2-vertex graph takes the general route
    calls = record_lanczos(monkeypatch)
    rep = cg.spectrum(cg.CayleyGraph(modulus=0, table=np.array(table, dtype=np.int32)))
    assert (rep.lambda0, rep.lambda1, rep.lambda_min) == pytest.approx(expected, abs=1e-9)
    assert rep.cheeger_lower == pytest.approx((len(table[0]) - expected[1]) / 2, abs=1e-9)
    assert calls == [(2, 2), (2, 1)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 300),
    k=st.integers(2, 6),
    bipartite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_matches_the_dense_solver_on_random_regular_graphs(n, k, bipartite, seed):
    # the bipartite graphs take an even n, the general ones an even degree;
    # k = 2 gives a cycle
    if bipartite:
        n -= n % 2
    else:
        k += k % 2
    graph = random_regular(n, k, bipartite, seed)
    assert graph.is_connected()
    assert (np.bincount(graph.table.ravel(), minlength=graph.n) == k).all()
    a = adjacency_matrix(graph)
    assert np.array_equal(a, a.T)
    ref = np.linalg.eigvalsh(a)
    rep = cg.spectrum(graph)
    assert rep.lambda0 == pytest.approx(ref[-1], abs=1e-8)
    assert rep.lambda1 == pytest.approx(ref[-2], abs=1e-8)
    assert rep.lambda_min == pytest.approx(ref[0], abs=1e-8)


def test_spectral_gap_small_moduli(monkeypatch):
    calls = record_lanczos(monkeypatch)
    lam1 = {}
    for q in (3, 5, 6, 7, 10):
        img = cg.reduce_group_mod(q)
        graph = cg.build_cayley(img)
        # every swap has determinant -1, so the sides are det = +1 and -1
        det = np.rint(np.linalg.det(img.elements.astype(float))).astype(np.int64) % q
        assert set(det.tolist()) == {1, q - 1}
        reached, side = cg._breadth_first_sides(graph.table)
        assert reached.all()
        assert np.array_equal(side, det != det[0])
        rep = cg.spectrum(graph)
        assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
        assert rep.lambda_min == pytest.approx(-4.0, abs=1e-9)
        lam1[q] = rep.lambda1
    # one half-operator Lanczos run per graph, 120 vertices and more alike
    assert calls == [(60, 2), (7200, 2), (60, 2), (58800, 2), (7200, 2)]
    assert lam1[3] == pytest.approx(3.0, abs=1e-9)
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
    assert a.n == b.n


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
        fresh_memo.clear()
        walked.clear()
        cg.orbit_mod((-1, 2, 2, 3), q)
        # q = 1 and the primes >= 5 and their products are not walked at all
        assert walked == ([] if math.gcd(q, 6) == 1 else [math.gcd(q, 6)]), q
    # 5 divides 50 = 2 * 5^2 more than once, so the whole of 50 is walked
    fresh_memo.clear()
    walked.clear()
    cg.orbit_mod((-1, 2, 2, 3), 50)
    assert walked == [50]


def test_orbit_mod_builds_a_product_from_its_factors_memoized_orbits(fresh_memo, monkeypatch):
    root = (-1, 2, 2, 3)
    cg.orbit_mod(root, 5)
    cg.orbit_mod(root, 7)
    built = []

    def recording(name):
        real = getattr(cg, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("_cone_keys", "_swap_closure"):
        monkeypatch.setattr(cg, name, recording(name))
    assert np.array_equal(cg.orbit_mod(root, 35), dense_orbit(root, 35))
    assert built == []
    # 70 = 2 * 35: only the part at 2 is walked; the orbit mod 35 is read
    assert np.array_equal(cg.orbit_mod(root, 70), dense_orbit(root, 70))
    assert built == ["_swap_closure"]


@pytest.mark.parametrize("q", [q for q in range(1, 71) if is_squarefree(q)])
def test_orbit_mod_without_room_to_keep_its_factors(fresh_memo, monkeypatch, q):
    # no orbit fits, so every factor of q is built again for each call
    monkeypatch.setattr(cg, "_ORBIT_MEMO_BYTES", 3)
    for root in SWEEP_ROOTS:
        assert np.array_equal(cg.orbit_mod(root, q), dense_orbit(root, q)), root
    assert len(fresh_memo) == 0


def reference_cone_keys(p):
    """The cone mod p as ``_cone_keys`` built it before it read tables: s, t,
    the right side 2 s^2 - 2 t and both candidate v4 computed per triple,
    reduced mod p over all p^3 triples."""
    a = np.arange(p, dtype=np.int16)
    sq = (np.arange(p) ** 2 % p).astype(np.int16)
    count = np.bincount(sq, minlength=p).astype(np.uint8)
    root = np.zeros(p, dtype=np.int16)
    half = (p + 1) // 2
    root[sq[:half]] = a[:half]
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
    return pairs[np.stack([n >= 1, n == 2], axis=-1)][1:]


@pytest.mark.parametrize("p", [p for p in range(5, 102) if is_prime(p)])
def test_cone_keys_match_the_per_triple_construction(p):
    keys = cg._cone_keys(p)
    assert keys.dtype == np.uint32
    assert np.array_equal(keys, reference_cone_keys(p))


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
    moduli = (3, 5, 6, 7, 10, 11, 13, 15, 30, 35, 42)
    expected = {q: naive_closure(root, q) for q in moduli}
    uint8_bytes = {q: orb.nbytes // 8 for q, orb in expected.items()}
    # room for the orbits mod 13 and 15, not for the one mod 35, so threads
    # evict one another's entries, the factors of 30, 35 and 42 among them
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
# blocks and (k, n) intp half tables, 11.78 MB with a 10-vector basis in
# place of 20.  The bounds are the former figures.


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
    assert report.lambda1 == pytest.approx(3.69962814827532, abs=1e-10)
    assert peak < 17.0 * 2**20
