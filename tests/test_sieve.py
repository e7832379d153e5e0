import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import sieve as sv
from apollonian.arithmetic import is_prime, is_squarefree
from apollonian.quadruples import enumerate_orbit, prime_table
from conftest import STRIP_ROOT, STRIP_WINDOW

SQUAREFREE_Q = [q for q in range(2, 256) if is_squarefree(q)]


def _values(series):
    """The values f(v) of a series, for the direct recounts."""
    return np.prod(np.stack(series.columns), axis=0)


def _series(*columns):
    """A hand-made series: one column is coord:1, two are product:1:2."""
    selector = ("coord", 1) if len(columns) == 1 else ("product", 1, 2)
    columns = tuple(np.array(c, dtype=np.int64) for c in columns)
    bound = max(int(np.abs(c).max()) for c in columns)
    return sv.SieveSeries(root=(-1, 2, 2, 3), selector=selector, bound=bound, columns=columns)


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
    assert _values(s).tolist() == [-4]


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
    fvals = np.prod(np.stack(sv.selector_columns(selector, om.astype(np.int64))), axis=0)
    expected = float((fvals % 77 == 0).sum() / len(om))
    assert sv.slice_series(series, 77).g_hat == expected


def test_slice_mass_is_direct_count(series_coord):
    for q in (2, 3, 5, 7):
        sl = sv.slice_series(series_coord, q)
        assert sl.mass == int((_values(series_coord) % q == 0).sum())
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
    s = _series(np.zeros(50))
    for q in (2, 3, 5):
        assert sv.slice_series(s, q).mass == s.X


def test_residue_masses_partition(series_coord):
    q = 5
    masses = [int((_values(series_coord) % q == r).sum()) for r in range(q)]
    assert sum(masses) == series_coord.X


def test_coprime_mass_monotonicity(series_coord):
    m2, m3, m6 = (sv.slice_series(series_coord, q).mass for q in (2, 3, 6))
    assert m6 <= min(m2, m3)


def test_almost_prime_count_basics(series_coord):
    assert sv.almost_prime_count(series_coord, 2) == series_coord.X
    odd = int((_values(series_coord) % 2 != 0).sum())
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
            coprime &= _values(series_coord) % p != 0
        want.append(int(coprime.sum()))
    assert sv.almost_prime_counts(series_coord, zs, excluded) == want
    assert [sv.almost_prime_count(series_coord, z, excluded) for z in zs] == want
    with pytest.raises(ValueError):
        sv.almost_prime_counts(series_coord, [5, 1.5], excluded)


def test_prime_count_consistency_with_sieve(series_coord, std_orbit_1e4):
    """Sieving by all primes up to sqrt(max) leaves exactly the units and the
    primes above the cutoff."""
    vals = np.abs(_values(series_coord))
    z = int(math.isqrt(int(vals.max()))) + 1
    s = sv.almost_prime_count(series_coord, z)
    pm = prime_table(int(vals.max()))[vals]
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
    one = _series([3])
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
    s = _series(np.arange(1, n + 1))
    for q in (2, 3, 5, 6, 7, 10):
        mass = sv.slice_series(s, q).mass
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


MASS_SERIES = ["coord:4", "product:1:2", "strip coord:1", "hand coord", "hand product"]


@pytest.fixture(scope="module")
def mass_series(std_orbit_1e4):
    strip = enumerate_orbit(STRIP_ROOT, 300, keep_quads=True, embedding="auto", region=STRIP_WINDOW)
    series = {
        "coord:4": sv.build_series(std_orbit_1e4, ("coord", 4)),
        "product:1:2": sv.build_series(std_orbit_1e4, ("product", 1, 2)),
        "strip coord:1": sv.build_series(strip, ("coord", 1)),
        "hand coord": _series([0, 1, -1, -30, 255, 0, 7, -2, 221, -253]),
        "hand product": _series([0, 1, -1, -6, 17, -1, 251], [5, 0, -1, 35, -15, 1, -2]),
    }
    assert (_values(series["strip coord:1"]) == 0).any()
    return series


def _fake_orbit_mod(root, q):
    # one point for the orbit mod q: the masses come from the series alone,
    # and orbit_mod takes seconds at the largest q
    return np.array([[x % q for x in root]], dtype=np.uint8)


@pytest.mark.parametrize("name", MASS_SERIES)
def test_slice_masses_match_a_recount_for_every_modulus(mass_series, monkeypatch, name):
    monkeypatch.setattr(sv, "orbit_mod", _fake_orbit_mod)
    series = mass_series[name]
    values = _values(series)
    for q in SQUAREFREE_Q:
        assert sv.slice_series(series, q).mass == int((values % q == 0).sum()), q
    assert (sv.detect_excluded_primes(series) == {2}) == bool((values % 2 == 0).all())


def _survivors(values, zs, excluded):
    out = []
    for z in zs:
        coprime = np.ones(values.size, dtype=bool)
        for p in _primes_below(z, excluded):
            coprime &= values % p != 0
        out.append(int(coprime.sum()))
    return out


@pytest.mark.parametrize("name", MASS_SERIES)
@pytest.mark.parametrize("excluded", [frozenset(), frozenset({2})])
def test_almost_prime_counts_match_a_recount_past_256(mass_series, name, excluded):
    zs = [2, 3.5, 100, 256, 257, 300, 1000]
    series = mass_series[name]
    want = _survivors(_values(series), zs, excluded)
    assert sv.almost_prime_counts(series, zs, excluded) == want


@settings(max_examples=150, deadline=None)
@given(
    columns=st.integers(1, 2).flatmap(
        lambda k: st.lists(
            st.tuples(*[st.integers(-700, 700)] * k), min_size=1, max_size=30
        )
    ),
    qs=st.lists(st.sampled_from(SQUAREFREE_Q), min_size=1, max_size=5),
    zs=st.lists(st.floats(2, 800), min_size=1, max_size=4),
    excluded=st.sampled_from([frozenset(), frozenset({2}), frozenset({3, 5})]),
)
def test_masses_and_survivors_match_a_recount_on_random_columns(columns, qs, zs, excluded):
    series = _series(*zip(*columns))
    values = _values(series)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "orbit_mod", _fake_orbit_mod)
        for q in qs:
            assert sv.slice_series(series, q).mass == int((values % q == 0).sum()), q
    assert sv.almost_prime_counts(series, zs, excluded) == _survivors(values, zs, excluded)


@pytest.mark.parametrize("chunk", [1, 1000, 1 << 18])
def test_masks_match_a_recount_in_chunks_of_any_size(std_orbit_1e4, monkeypatch, chunk):
    monkeypatch.setattr(sv, "_CHUNK", chunk)
    quads = std_orbit_1e4.quads[:3000] if chunk == 1 else std_orbit_1e4.quads
    zs = [2, 3, 7, 100, 300]
    for sel in [("coord", 1), ("product", 1, 2)]:
        series = sv.SieveSeries((-1, 2, 2, 3), sel, 10**4, sv.selector_columns(sel, quads))
        values = _values(series)
        bits = sum(
            (values % p == 0).astype(np.uint64) << np.uint64(i) for i, p in enumerate(sv._MASK_PRIMES)
        )
        masks, counts = np.unique(bits, return_counts=True)
        assert series.masks.tolist() == masks.tolist()
        assert series.mask_counts.tolist() == counts.tolist()
        assert sv.almost_prime_counts(series, zs) == _survivors(values, zs, frozenset())
