import math

import numpy as np
import pytest

from apollonian import sieve as sv
from apollonian.arithmetic import is_prime
from apollonian.quadruples import enumerate_orbit


@pytest.fixture(scope="module")
def series_coord(std_orbit_1e4):
    return sv.build_series(std_orbit_1e4, ("coord", 4))


# std_orbit_1e4 comes from conftest; redeclare locally for module scope reuse
@pytest.fixture(scope="module")
def std_orbit_1e4():
    return enumerate_orbit((-1, 2, 2, 3), 10**4, keep_quads=True)


def test_parse_selector():
    assert sv.parse_selector("coord:4") == ("coord", 4)
    assert sv.parse_selector("product:3:4") == ("product", 3, 4)
    for bad in ("coord:5", "product:3:3", "foo", "product:1", "max"):
        with pytest.raises(ValueError):
            sv.parse_selector(bad)


def test_series_singleton_at_root_bound():
    # a root with no symmetric swap: the only quadruple at T = max(root)
    orb = enumerate_orbit((-4, 8, 9, 9), 9, keep_quads=True)
    s = sv.build_series(orb, ("coord", 1))
    assert s.X == 1
    assert s.values.tolist() == [-4]


def test_series_X_matches_quad_count(series_coord, std_orbit_1e4):
    assert series_coord.X == std_orbit_1e4.quad_count


def test_series_requires_quads():
    orb = enumerate_orbit((-1, 2, 2, 3), 100)
    with pytest.raises(ValueError):
        sv.build_series(orb, ("coord", 1))


@pytest.mark.parametrize("selector", [("coord", 2), ("product", 1, 2), ("product", 3, 4)])
def test_slice_density_from_the_uint8_orbit(std_orbit_1e4, selector):
    # entries mod 77 reach 76, so products of two wrap in uint8
    from apollonian.congruence import orbit_mod

    series = sv.build_series(std_orbit_1e4, selector)
    om = orbit_mod(series.root, 77)
    assert om.dtype == np.uint8
    fvals = sv.apply_selector(selector, om.astype(np.int64))
    expected = float((fvals % 77 == 0).sum() / len(om))
    assert sv.slice_series(series, 77).g_hat == expected


def test_slice_mass_is_direct_count(series_coord):
    for q in (2, 3, 5, 7):
        sl = sv.slice_series(series_coord, q)
        assert sl.mass == int((series_coord.values % q == 0).sum())
        assert 0.0 <= sl.g_hat <= 1.0
        assert sl.r_hat == pytest.approx(sl.mass - sl.g_hat * series_coord.X)


def test_slice_rejects_bad_moduli(series_coord):
    with pytest.raises(ValueError):
        sv.slice_series(series_coord, 4)
    with pytest.raises(ValueError):
        sv.slice_series(series_coord, 1)


def test_slice_rejects_max_selector(std_orbit_1e4):
    # max has no congruence density, so no series is built for it
    with pytest.raises(ValueError, match="unknown selector"):
        sv.build_series(std_orbit_1e4, ("max",))


def test_degenerate_zero_series_slices():
    s = sv.SieveSeries(root=(-1, 2, 2, 3), selector=("coord", 1), bound=10,
                       values=np.zeros(50, dtype=np.int64))
    for q in (2, 3, 5):
        assert int((s.values % q == 0).sum()) == s.X


def test_residue_masses_partition(series_coord):
    q = 5
    masses = [int((series_coord.values % q == r).sum()) for r in range(q)]
    assert sum(masses) == series_coord.X


def test_coprime_mass_monotonicity(series_coord):
    m2 = int((series_coord.values % 2 == 0).sum())
    m3 = int((series_coord.values % 3 == 0).sum())
    m6 = int((series_coord.values % 6 == 0).sum())
    assert m6 <= min(m2, m3)


def test_almost_prime_count_basics(series_coord):
    assert sv.almost_prime_count(series_coord, 2) == series_coord.X
    odd = int((series_coord.values % 2 != 0).sum())
    assert sv.almost_prime_count(series_coord, 3) == odd
    zs = [2, 3, 5, 11, 31, 101]
    ss = [sv.almost_prime_count(series_coord, z) for z in zs]
    assert all(a >= b for a, b in zip(ss, ss[1:]))
    with pytest.raises(ValueError):
        sv.almost_prime_count(series_coord, 1)


def _primes_below(z, excluded=frozenset()):
    return [p for p in range(2, math.ceil(z))
            if p < z and p not in excluded and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("excluded", [frozenset(), frozenset({2})])
def test_sieve_primes_match_is_prime(excluded):
    # integer and half-integer z over [0, 300], the empty cases z <= 2 and
    # z = 2.5 among them
    for z in [k / 2 for k in range(601)] + [-3, 2.000001]:
        want = [p for p in range(301) if p < z and p not in excluded and is_prime(p)]
        assert sv.sieve_primes(z, excluded) == want, z


@pytest.mark.parametrize("excluded", [frozenset(), frozenset({2})])
def test_almost_prime_counts_match_direct_recount(series_coord, excluded):
    zs = [100, 2, 7, 7, 3.5, 53]
    want = []
    for z in zs:
        coprime = np.ones(series_coord.X, dtype=bool)
        for p in _primes_below(z, excluded):
            coprime &= series_coord.values % p != 0
        want.append(int(coprime.sum()))
    assert sv.almost_prime_counts(series_coord, zs, excluded) == want
    assert [sv.almost_prime_count(series_coord, z, excluded) for z in zs] == want
    with pytest.raises(ValueError):
        sv.almost_prime_counts(series_coord, [5, 1.5], excluded)


def test_prime_count_consistency_with_sieve(series_coord, std_orbit_1e4):
    """Sieving by all primes up to sqrt(max) leaves exactly the units and the
    primes above the cutoff."""
    from apollonian import arithmetic as ar

    vals = np.abs(series_coord.values)
    z = int(math.isqrt(int(vals.max()))) + 1
    s = sv.almost_prime_count(series_coord, z)
    pm = ar.prime_mask(vals)
    expected = int(((pm & (vals >= z)) | (vals <= 1)).sum())
    assert s == expected


def test_detect_excluded_primes(std_orbit_1e4):
    prod = sv.build_series(std_orbit_1e4, ("product", 3, 4))
    assert sv.detect_excluded_primes(prod) == frozenset({2})
    coord = sv.build_series(std_orbit_1e4, ("coord", 4))
    assert sv.detect_excluded_primes(coord) == frozenset()


def test_level_distribution_report(series_coord):
    rep = sv.level_distribution_report(series_coord, 50)
    qs = [s.q for s in rep.slices]
    assert qs == [q for q in range(2, 50) if sv.is_squarefree(q)]
    assert rep.sum_abs_r == pytest.approx(sum(abs(s.r_hat) for s in rep.slices))
    assert rep.empirical_exponent < 0.98
    assert sv.level_distribution_report(series_coord, 2).sum_abs_r == 0.0


def test_level_exponent_names_x_for_a_one_value_series():
    one = sv.SieveSeries(root=(-1, 2, 2, 3), selector=("coord", 4), bound=3,
                         values=np.array([3], dtype=np.int64))
    rep = sv.level_distribution_report(one, 4)
    assert rep.X == 1 and rep.sum_abs_r > 0
    with pytest.raises(ValueError, match=r"X >= 2; got X = 1"):
        rep.empirical_exponent
    # no remainder still reads -inf, whatever X
    assert sv.LevelDistributionReport(X=1, slices=[], sum_abs_r=0.0).empirical_exponent == float("-inf")


def test_level_distribution_uniform_control():
    # a synthetic series exactly equidistributed mod every q <= 10: the mass
    # of each slice equals X/q exactly, so the remainder against the true
    # density 1/q vanishes
    n = 2520 * 4  # divisible by lcm(1..10)
    s = sv.SieveSeries(root=(-1, 2, 2, 3), selector=("coord", 1), bound=10,
                       values=np.arange(1, n + 1, dtype=np.int64))
    for q in (2, 3, 5, 6, 7, 10):
        mass = int((s.values % q == 0).sum())
        assert mass * q == n
        assert abs(mass - n / q) < 1e-9


def test_sieve_dimension_trace(series_coord):
    slices = [sv.slice_series(series_coord, p) for p in _primes_below(30)]
    trace = sv.sieve_dimension_trace(slices, [30, 3, 10])
    assert [z for z, _ in trace] == [3, 10, 30]
    for z, v in trace:
        want = sum(sv.slice_series(series_coord, p).g_hat * math.log(p) for p in _primes_below(z))
        assert v == pytest.approx(want, rel=1e-12)
    vals = [v for _, v in trace]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    without_7 = [s for s in slices if s.q != 7]
    with pytest.raises(ValueError, match=r"\[7\]"):
        sv.sieve_dimension_trace(without_7, [3, 10, 30])
    # an excluded prime needs no slice
    assert sv.sieve_dimension_trace(without_7, [3, 5], excluded={2})[-1][1] == pytest.approx(
        slices[1].g_hat * math.log(3)
    )
