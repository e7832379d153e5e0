import math

import numpy as np
import pytest

from apollonian import arithmetic as ar
from apollonian.quadruples import PackingOrbit, enumerate_orbit

from conftest import TEST_ROOTS


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 97, 7919]
    for p in primes:
        assert ar.is_prime(p)
    for n in [0, 1, 4, 9, 15, 21, 25, 91, 561, 7917]:
        assert not ar.is_prime(n)


def test_is_prime_large_deterministic():
    # strong pseudoprime to several bases, composite: 3215031751 = 151*751*28351
    assert not ar.is_prime(3215031751)
    assert ar.is_prime(2**31 - 1)
    with pytest.raises(ValueError):
        ar.is_prime(10**15)


def test_prime_mask_matches_scalar():
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 10**5, size=2000)
    mask = ar.prime_mask(vals)
    for v, m in zip(vals[:300], mask[:300]):
        assert m == ar.is_prime(int(v))


def test_is_squarefree():
    assert ar.is_squarefree(1)
    assert ar.is_squarefree(6)
    assert ar.is_squarefree(30)
    assert not ar.is_squarefree(4)
    assert not ar.is_squarefree(12)
    assert not ar.is_squarefree(0)


def test_tally_small_bounds():
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    t = ar.tally(orb)
    assert t.multiset == {1: 1, 2: 2, 3: 2, 6: 4}
    orb1 = enumerate_orbit((-1, 2, 2, 3), 1)
    assert ar.tally(orb1).multiset == {1: 1}


def test_tally_strip_one_period():
    orb = enumerate_orbit(
        (0, 0, 1, 1), 1, embedding="auto", region=(0.0, 2.0, 0.0, 2.0)
    )
    t = ar.tally(orb)
    assert t.multiset == {1: 2}  # the two lines carry curvature 0 and drop out


def test_prime_stats_t3():
    orb = enumerate_orbit((-1, 2, 2, 3), 3, tangency=True)
    s = ar.prime_stats(orb)
    assert s.pi == 4  # two 2s and two 3s
    assert s.pi2 == 5  # (2,2) once and (2,3) four times


def test_prime_stats_t1():
    orb = enumerate_orbit((-1, 2, 2, 3), 1, tangency=True)
    s = ar.prime_stats(orb)
    assert s.pi == 0 and s.pi2 == 0


def test_prime_stats_rejects_imprimitive():
    orb = enumerate_orbit((-2, 4, 4, 6), 20, tangency=True)
    with pytest.raises(ValueError):
        ar.prime_stats(orb)


def test_prime_upper_bound_shape(std_orbit_1e4):
    stats = ar.prime_count_curve(std_orbit_1e4, [100, 1000, 10000])
    ratios = [s.pi * math.log(s.bound) / s.bound**1.3057 for s in stats]
    assert max(ratios) / min(ratios) < 2.0


def test_prime_count_tracks_total_over_log(std_orbit_1e4):
    u = np.sort(std_orbit_1e4.unsigned_curvatures)
    stats = ar.prime_count_curve(std_orbit_1e4, [100, 1000, 10000])
    ratios = [
        s.pi * math.log(s.bound) / float(np.searchsorted(u, s.bound, side="right"))
        for s in stats
    ]
    assert max(ratios) / min(ratios) < 3.0


def test_residues_mod_basics(std_orbit_1e4):
    t = ar.tally(std_orbit_1e4)
    assert ar.residues_mod(t, 1) == frozenset({0})
    assert ar.residues_mod(t, 2) == frozenset({0, 1})
    with pytest.raises(ValueError):
        ar.residues_mod(t, 0)


@pytest.mark.parametrize("root", TEST_ROOTS)
def test_residue_stability_mod_24(root):
    t3 = ar.tally(enumerate_orbit(root, 10**3))
    t4 = ar.tally(enumerate_orbit(root, 10**4))
    assert ar.residues_mod(t3, 24) == ar.residues_mod(t4, 24)


# relative deviation bars at T=1e4, frozen from the first verified run; the
# limit law density -> kappa/24 converges more slowly for larger root
# curvatures (all four roots reach 25% by T=1e5, asserted in acceptance)
DENSITY_BARS_1E4 = {
    (-1, 2, 2, 3): 0.15,
    (-2, 3, 6, 7): 0.18,
    (-3, 4, 12, 13): 0.25,
    (-6, 10, 15, 19): 0.42,
}


@pytest.mark.parametrize("root", TEST_ROOTS)
def test_distinct_density_near_kappa(root):
    t3 = ar.tally(enumerate_orbit(root, 10**3))
    t4 = ar.tally(enumerate_orbit(root, 10**4))
    kappa = len(ar.residues_mod(t4, 24))
    target = kappa / 24
    d3, d4 = ar.distinct_density(t3), ar.distinct_density(t4)
    assert abs(d4 - target) <= DENSITY_BARS_1E4[root] * target
    # densities climb toward the limit
    assert target > d4 > d3


def test_distinct_density_stabilization():
    d3 = ar.distinct_density(ar.tally(enumerate_orbit((-1, 2, 2, 3), 10**3)))
    d4 = ar.distinct_density(ar.tally(enumerate_orbit((-1, 2, 2, 3), 10**4)))
    assert abs(d4 - d3) < 0.05


def test_missing_integers_shrink(std_orbit_1e4):
    m3 = ar.missing_integers(ar.tally(enumerate_orbit((-1, 2, 2, 3), 10**3)))
    m4 = ar.missing_integers(ar.tally(std_orbit_1e4))
    assert len(m4) / 10**4 < len(m3) / 10**3
    # inadmissible residues never appear
    t = ar.tally(std_orbit_1e4)
    adm = ar.residues_mod(t, 24)
    assert all(int(n) % 24 in adm for n in m4)


def test_missing_integers_below_first_curvature():
    # a tally whose bound sits below every curvature except the listed ones
    orb = enumerate_orbit((-1, 2, 2, 3), 3)
    t = ar.tally(orb)
    missing = ar.missing_integers(t)
    present = set(t.distinct.tolist())
    adm = ar.residues_mod(t, 24)
    expect = [n for n in range(1, 4) if n % 24 in adm and n not in present]
    assert missing.tolist() == expect


def test_no_odd_prime_triple(std_orbit_1e4):
    assert ar.no_odd_prime_triple(std_orbit_1e4)


def test_no_quadruple_with_three_odd_primes(std_orbit_1e4):
    q = np.abs(std_orbit_1e4.quads)
    pm = ar.prime_mask(q.ravel()).reshape(q.shape)
    odd_prime = pm & (q % 2 == 1)
    assert int((odd_prime.sum(axis=1) >= 3).sum()) == 0


def test_odd_prime_triangle_negative_control():
    # a quadruple row holding three odd primes is a triangle of them
    def orbit(rows):
        quads = np.array(rows, dtype=np.int64)
        return PackingOrbit(root=(3, 5, 7, 11), bound=11, curvatures=np.unique(quads),
                            quad_count=len(quads), quads=quads)

    assert not ar.no_odd_prime_triple(orbit([(3, 5, 7, 11)]))
    # rows with two odd primes at most: 8 and -2 are even, 9 is not prime
    assert ar.no_odd_prime_triple(orbit([(3, 5, 8, 9), (-2, 3, 6, 7)]))
    with pytest.raises(ValueError, match="keep_quads"):
        ar.no_odd_prime_triple(enumerate_orbit((-1, 2, 2, 3), 100, tangency=True))


def _quads_orbit(rows):
    quads = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return PackingOrbit(root=(-1, 2, 2, 3), bound=int(np.abs(quads).max(initial=1)),
                        curvatures=np.unique(quads), quad_count=len(quads), quads=quads)


def _odd_prime_triple_free_whole(quads):
    """The former formula: one (n, 4) prime mask of |quads| at once."""
    q = np.abs(quads)
    pm = ar.prime_mask(q.ravel()).reshape(q.shape)
    return not bool(((pm & (q % 2 == 1)).sum(axis=1) >= 3).any())


# every row holds at most two odd primes: 0, 1, 2, 9 and even entries are not
# odd primes, and a negative entry counts by its absolute value
EDGE_QUADS = [(0, 1, 2, 3), (-1, -2, 2, 9), (0, 0, 0, 0), (1, 1, 1, 1),
              (2, 2, 2, 3), (-3, -5, 2, 4), (-2, 3, 6, 7), (1, 9, 15, 21)]


@pytest.mark.parametrize("chunk", [1 << 16, 1000, 1])
def test_no_odd_prime_triple_matches_the_whole_array_formula(monkeypatch, std_orbit_1e4, chunk):
    monkeypatch.setattr(ar, "_TRIPLE_CHUNK", chunk)
    quads = std_orbit_1e4.quads if chunk > 1 else std_orbit_1e4.quads[:3000]
    planted = np.array([(-3, 5, -7, 2)])  # |-3|, 5 and |-7| are odd primes
    cases = {
        "orbit": (quads, True),
        "edges": (EDGE_QUADS, True),
        "orbit and edges": (np.vstack([quads, EDGE_QUADS]), True),
        "planted last": (np.vstack([quads, EDGE_QUADS, planted]), False),
        "planted first": (np.vstack([planted, quads]), False),
        "all odd primes": ([(3, 5, 7, 11)], False),
    }
    for name, (rows, expected) in cases.items():
        rows = np.asarray(rows, dtype=np.int64)
        assert _odd_prime_triple_free_whole(rows) is expected, name
        assert ar.no_odd_prime_triple(_quads_orbit(rows)) is expected, name


def test_no_odd_prime_triple_beyond_the_sieve(monkeypatch):
    # past the sieve limit the entries go to Miller-Rabin one by one
    monkeypatch.setattr(ar, "_SIEVE_MAX", 10)
    assert ar.no_odd_prime_triple(_quads_orbit(EDGE_QUADS))
    assert not ar.no_odd_prime_triple(_quads_orbit(EDGE_QUADS + [(-13, 2, 17, 19)]))


def test_empty_orbit_triple_free():
    orb = enumerate_orbit((-1, 2, 2, 3), 1, tangency=True, keep_quads=True)
    assert ar.no_odd_prime_triple(orb)


def test_pi_bounded_by_counts(std_orbit_1e4):
    s = ar.prime_stats(std_orbit_1e4)
    assert s.pi <= std_orbit_1e4.circle_count
    assert s.pi2 <= len(std_orbit_1e4.edges)
