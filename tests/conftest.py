import numpy as np
import pytest

from apollonian import geometry
from apollonian.congruence import CayleyGraph
from apollonian.quadruples import enumerate_orbit

STANDARD_ROOT = (-1, 2, 2, 3)
STRIP_ROOT = (0, 0, 1, 1)
STRIP_WINDOW = (0.0, 2.0, 0.0, 2.0)

# roots used by the residue/density checks; all satisfy the Descartes relation
TEST_ROOTS = [(-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 4, 12, 13), (-6, 10, 15, 19)]


def graph_from_edges(n, edges):
    """The simple graph on n vertices with these edges (repeats merged) as a
    neighbour table, each row ascending; every vertex must have the same
    degree."""
    nbrs = [[] for _ in range(n)]
    for a, b in sorted(set((min(a, b), max(a, b)) for a, b in edges)):
        nbrs[a].append(b)
        nbrs[b].append(a)
    if len({len(x) for x in nbrs}) != 1:
        raise ValueError("a neighbour table needs a regular graph")
    return CayleyGraph(modulus=0, table=np.array([sorted(x) for x in nbrs], dtype=np.int32))


def random_regular(n, k, bipartite, seed):
    """A connected k-regular multigraph on n vertices, loops and parallel
    edges allowed, as a neighbour table.

    Bipartite (n even, sides 0 .. n/2 - 1 and n/2 .. n - 1): k perfect
    matchings between the sides, the first the identity and the second a
    cyclic shift, so that the first two alone form one cycle through every
    vertex.  Otherwise (k even): k/2 permutations and their inverses, the
    first a cyclic shift.  Then the vertices are relabelled at random,
    within each side."""
    rng = np.random.default_rng(seed)
    if bipartite:
        m = n // 2
        perms = [np.arange(m), np.roll(np.arange(m), 1)]
        perms += [rng.permutation(m) for _ in range(k - 2)]
        table = np.empty((n, k), dtype=np.int64)
        for i, p in enumerate(perms):
            table[:m, i] = m + p
            table[m + p, i] = np.arange(m)
        relabel = np.concatenate([rng.permutation(m), m + rng.permutation(m)])
    else:
        perms = [np.roll(np.arange(n), 1)] + [rng.permutation(n) for _ in range(k // 2 - 1)]
        table = np.empty((n, k), dtype=np.int64)
        for i, p in enumerate(perms):
            table[:, 2 * i] = p
            table[p, 2 * i + 1] = np.arange(n)
        relabel = rng.permutation(n)
    # vertex u becomes relabel[u]
    out = np.empty_like(table)
    out[relabel] = relabel[table]
    return CayleyGraph(modulus=0, table=out.astype(np.int32))


def adjacency_matrix(g):
    """The dense adjacency matrix A[u, v] = #{i : table[u, i] = v}."""
    n, k = g.table.shape
    a = np.zeros((n, n))
    np.add.at(a, (np.repeat(np.arange(n), k), g.table.ravel()), 1.0)
    return a


@pytest.fixture(scope="session")
def std_orbit_1e4():
    """Standard packing to T=1e4 with twin counts, quadruples, and exact
    plane embedding; shared by most statistics tests."""
    return enumerate_orbit(
        STANDARD_ROOT, 10**4, twins=True, keep_quads=True, rows=True
    )


@pytest.fixture(scope="session")
def std_orbit_1e5():
    """Curvature multiset only, for exponent fits."""
    return enumerate_orbit(STANDARD_ROOT, 10**5)


@pytest.fixture(scope="session")
def std_geo_1e3():
    return geometry.generate_packing_geometric(geometry.standard_seed(), 1000)
