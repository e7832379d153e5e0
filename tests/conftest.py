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


@pytest.fixture(scope="session")
def std_orbit_1e4():
    """Standard packing to T=1e4 with twin counts, quadruples, and exact
    plane embedding; shared by most statistics tests."""
    return enumerate_orbit(
        STANDARD_ROOT, 10**4, twins=True, keep_quads=True, embedding="auto"
    )


@pytest.fixture(scope="session")
def std_orbit_1e5():
    """Curvature multiset only, for exponent fits."""
    return enumerate_orbit(STANDARD_ROOT, 10**5)


@pytest.fixture(scope="session")
def std_geo_1e3():
    return geometry.generate_packing_geometric(geometry.standard_seed(), 1000)
