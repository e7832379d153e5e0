"""One region semantics for every path: a circle is in a rectangle when its
curve meets the closed rectangle, whose corners are the exact binary values
of the given floats."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import counting as ct
from apollonian import geometry as geo
from apollonian.geometry import Circle
from apollonian.quadruples import embedding_for_root, enumerate_orbit, prime_table
from apollonian.region import branch_alive, check_rect, meets

from test_quadruples import _reference_walk

STANDARD = (-1, 2, 2, 3)
STRIP = (0, 0, 1, 1)

# (rectangle, exact count at T = 2000 on the standard packing)
ROADMAP_RECTS = [
    ((0.1, 0.3, 0.1, 0.3), 0),
    ((0.05, 0.15, 0.6, 0.7), 0),
    ((-0.2, 0.2, -0.2, 0.2), 292),
]

STRIP_WINDOWS = {
    (0.0, 2.0, 0.0, 2.0): {150: 196, 300: 502, 1000: 2350},
    (-0.3, 0.7, -0.1, 1.3): {150: 32, 300: 76, 1000: 349},
}


def _multiset(rows) -> Counter:
    return Counter(map(tuple, np.asarray(rows).tolist()))


def _unrestricted(root, bound, rect):
    """Rows of every circle that can meet ``rect``: the whole orbit of a
    bounded root, or a strip orbit over a window 3 wider on each side."""
    if root == STANDARD:
        return enumerate_orbit(root, bound, embedding="auto").acc_rows
    x0, x1, y0, y1 = rect
    wide = (x0 - 3, x1 + 3, y0 - 3, y1 + 3)
    return enumerate_orbit(root, bound, embedding="auto", region=wide).acc_rows


def _scalar_reference(row, rect) -> tuple[bool, float]:
    """The former per-circle float test for a proper circle, and its
    curvature-scaled distance from deciding the other way,
    |b| * min(|dmin - r|, |dmax - r|)."""
    x0, x1, y0, y1 = rect
    _, b, wx, wy = (float(v) for v in row)
    cx, cy, r = wx / b, wy / b, 1.0 / abs(b)
    dmin = math.hypot(max(x0 - cx, 0.0, cx - x1), max(y0 - cy, 0.0, cy - y1))
    dmax = max(math.hypot(cx - x, cy - y) for x in (x0, x1) for y in (y0, y1))
    return dmin <= r <= dmax, abs(b) * min(abs(dmin - r), abs(dmax - r))


def _boundary_slack(row, rect) -> float:
    return _scalar_reference(row, rect)[1]


def test_meets_basic_cases():
    unit = Circle.from_center_radius((0, 0), 1.0)
    line = Circle.line((0, 1), 0.0)
    cases = [
        (unit, (-2, 2, -2, 2), True),
        (unit, (5, 6, 5, 6), False),
        # rectangle strictly inside the disk: the curve does not enter
        (unit, (0, 0.5, 0, 0.5), False),
        (line, (-1, 1, -1, 1), True),
        (line, (-1, 1, 0.5, 1), False),
    ]
    int_rows = {unit: (-1, 1, 0, 0), line: (0, 0, 0, 1)}
    for c, rect, expected in cases:
        assert meets(np.array([int_rows[c]], dtype=np.int64), rect).tolist() == [expected]
        assert meets(c.vector()[None], rect).tolist() == [expected]


def test_meets_is_exact_on_integer_rows():
    # curvature-3 circle of the standard packing: centre (0, 2/3), radius
    # 1/3, so its top point (0, 1) is a corner of the first rectangle
    row = np.array([[1, 3, 0, 2]], dtype=np.int64)
    assert meets(row, (0.0, 0.5, 1.0, 1.5)).tolist() == [True]
    # moving the corner by 2^-40 misses the curve; float rounding cannot see it
    assert meets(row, (2.0**-40, 0.5, 1.0, 1.5)).tolist() == [False]
    assert meets(row.astype(float), (2.0**-40, 0.5, 1.0, 1.5)).tolist() == [True]
    # the curvature-38 circle, centre (3/38, 12/38), passes through the
    # decimal point (0.1, 0.3) but not through the float corner
    c38 = np.array([[4, 38, 3, 12]], dtype=np.int64)
    assert meets(c38, (0.1, 0.3, 0.1, 0.3)).tolist() == [False]


def test_meets_empty_and_mixed_rows():
    assert meets(np.empty((0, 4), dtype=np.int64), (0, 1, 0, 1)).tolist() == []
    strip = enumerate_orbit(STRIP, 1, embedding="auto", region=(0.0, 2.0, 0.0, 2.0))
    # both lines and both unit circles meet one period
    assert meets(strip.acc_rows, (0.0, 2.0, 0.0, 2.0)).all()
    assert meets(strip.acc_rows.astype(float), (0.0, 2.0, 0.0, 2.0)).all()


@pytest.mark.parametrize(
    "rect",
    [rect for rect, _ in ROADMAP_RECTS]
    + [(-1.0, 0.0, -1.0, 1.0), (-0.8, 0.4, -0.9, 0.7), (0.25, 0.5, -0.75, 0.0)],
)
def test_meets_matches_scalar_reference(std_orbit_1e4, rect):
    rows = std_orbit_1e4.acc_rows[:20000]
    exact = meets(rows, rect)
    approx = meets(rows.astype(float), rect)
    for row, e, f in zip(rows, exact, approx):
        ref, slack = _scalar_reference(row, rect)
        if slack > 1e-9:
            assert e == f == ref, row


@pytest.mark.parametrize("rect, exact", ROADMAP_RECTS)
def test_three_paths_agree_on_roadmap_rectangles(rect, exact):
    bound = 2000
    full = enumerate_orbit(STANDARD, bound, embedding="auto").acc_rows
    assert enumerate_orbit(STANDARD, bound, embedding="auto", region=rect).circle_count == exact
    assert ct.count_in_region(full, bound, rect) == exact
    # the float walk may decide circles on the boundary the other way
    walk = geo.generate_packing_geometric(geo.standard_seed(), bound, region=rect)
    walked = Counter(tuple(round(v) for v in c.vector()) for c in walk)
    expected = _multiset(full[meets(full, rect)])
    differ = (walked - expected) + (expected - walked)
    assert all(_boundary_slack(row, rect) < 1e-9 for row in differ)
    if rect == (0.1, 0.3, 0.1, 0.3):
        assert sorted(abs(row[1]) for row in differ) == [2, 38]
    else:
        assert not differ


@pytest.mark.parametrize("bound", [150, 300, 1000])
@pytest.mark.parametrize(
    "root, rect",
    [(STANDARD, rect) for rect, _ in ROADMAP_RECTS]
    + [(STRIP, window) for window in STRIP_WINDOWS],
)
def test_region_walk_equals_filtered_orbit(root, rect, bound):
    orbit = enumerate_orbit(root, bound, embedding="auto", region=rect)
    full = _unrestricted(root, bound, rect)
    assert _multiset(orbit.acc_rows) == _multiset(full[meets(full, rect)])
    if root == STRIP:
        assert orbit.circle_count == STRIP_WINDOWS[rect][bound]


_dyadic = st.integers(min_value=-80, max_value=80).map(lambda k: k / 64)


@given(
    st.sampled_from([STANDARD, STRIP]),
    st.tuples(_dyadic, _dyadic, _dyadic, _dyadic),
)
@settings(max_examples=40, deadline=None)
def test_pruning_never_drops_a_circle(root, corners):
    x0, x1, y0, y1 = corners
    rect = (min(x0, x1), max(x0, x1) + 1 / 64, min(y0, y1), max(y0, y1) + 1 / 64)
    orbit = enumerate_orbit(root, 300, embedding="auto", region=rect)
    full = _unrestricted(root, 300, rect)
    expected = _multiset(full[meets(full, rect)])
    assert _multiset(orbit.acc_rows) == expected
    # the float walk may decide circles on the boundary the other way
    walk = geo.generate_packing_geometric(geo.seed_for_root(root), 300, region=rect)
    walked = Counter(tuple(round(v) for v in c.vector()) for c in walk)
    differ = (walked - expected) + (expected - walked)
    assert all(_boundary_slack(row, rect) < 1e-9 for row in differ)


def test_window_walk_visits_a_tenth_of_the_orbit():
    rect = (-0.2, 0.2, -0.2, 0.2)
    full = enumerate_orbit(STANDARD, 10**4, embedding="auto")
    walk = enumerate_orbit(STANDARD, 10**4, embedding="auto", region=rect)
    assert walk.quad_count < full.quad_count / 10
    assert _multiset(walk.acc_rows) == _multiset(full.acc_rows[meets(full.acc_rows, rect)])


def _disk_in_interior(c, d) -> bool:
    """Whether the closed disk of the circle row c (curvature > 0, norm 1)
    lies in the closed interior of the oriented row d of norm 4, in
    integers: radius 1/b against 2/|B|, centres w/b and W/B."""
    a, b, wx, wy = c
    A, B, WX, WY = d
    assert b > 0 and wx * wx + wy * wy - a * b == 1
    assert WX * WX + WY * WY - A * B == 4
    if B == 0:  # the centre lies 1/b or more inside the half-plane W.p >= A/2
        return 2 * (WX * wx + WY * wy) - A * b >= 4
    gap2 = (B * wx - b * WX) ** 2 + (B * wy - b * WY) ** 2  # (b|B| * distance)^2
    if B > 0:
        return 2 * b >= B and gap2 <= (2 * b - B) ** 2
    return gap2 >= (2 * b - B) ** 2


def _lemma_checks(root, bound, max_depth) -> int:
    """Walk the reduced words of ``root`` in Python ints and assert that
    every new circle lies in the closed interior of the doubled dual row
    2D = S - 2*C_old of its own swap and of every ancestor swap.  Returns the
    number of checks."""
    checks = 0
    stack = [([tuple(r) for r in embedding_for_root(root).tolist()], -1, [])]
    while stack:
        cfg, last, duals = stack.pop()
        if len(duals) == max_depth:
            continue
        s = [sum(col) for col in zip(*cfg)]
        for i in range(4):
            if i == last:
                continue
            new = tuple(2 * sk - 3 * ok for sk, ok in zip(s, cfg[i]))
            if new[1] > bound:
                continue
            chain = duals + [tuple(sk - 2 * ok for sk, ok in zip(s, cfg[i]))]
            for d in chain:
                assert _disk_in_interior(new, d), (new, d)
            checks += len(chain)
            stack.append((cfg[:i] + [new] + cfg[i + 1 :], i, chain))
    return checks


def test_descendants_lie_in_every_ancestor_dual():
    assert _lemma_checks(STANDARD, 400, None) > 5000
    assert _lemma_checks(STRIP, 10**9, 7) > 5000


def _interior_reference(row, rect) -> bool:
    """Whether the closed interior of the oriented row meets the closed
    rectangle, in fractions."""
    a, b, wx, wy = map(Fraction, row)
    x0, x1, y0, y1 = map(Fraction, rect)
    corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]
    if b == 0:
        return max(2 * (wx * x + wy * y) - a for x, y in corners) >= 0
    cx, cy, r2 = wx / b, wy / b, (wx * wx + wy * wy - a * b) / (b * b)
    if b > 0:
        px, py = min(max(cx, x0), x1), min(max(cy, y0), y1)
        return (px - cx) ** 2 + (py - cy) ** 2 <= r2
    return max((x - cx) ** 2 + (y - cy) ** 2 for x, y in corners) >= r2


def _exterior_reference(row, rect) -> bool:
    # the exterior of a row is the interior of its negation
    return _interior_reference([-v for v in row], rect)


TINY = 2.0**-40
# (oriented row, rectangle): the doubled dual (0, 8, 0, 2) is the disk of
# radius 1/4 about (0, 1/4); (-25, 1, 0, 0) is the disk of radius 5 about the
# origin; (0, 0, 0, -2) is the line y = 0 facing down, (8, 0, 2, 0) the line
# x = 2 facing right
PREDICATE_CASES = {
    "positive-inside": ((0, 8, 0, 2), (0.05, 0.1, 0.15, 0.3)),
    "positive-holds-rect": ((0, 8, 0, 2), (-0.05, 0.05, 0.2, 0.3)),
    "positive-covered": ((0, 8, 0, 2), (-1.0, 1.0, -1.0, 1.0)),
    "positive-apart": ((0, 8, 0, 2), (0.3, 0.5, 0.0, 0.1)),
    "negative-holds-rect": ((0, -8, 0, -2), (-0.05, 0.05, 0.2, 0.3)),
    "negative-apart": ((0, -8, 0, -2), (0.3, 0.5, 0.0, 0.1)),
    "negative-covered": ((0, -8, 0, -2), (-1.0, 1.0, -1.0, 1.0)),
    "line-down-below": ((0, 0, 0, -2), (0.0, 1.0, -1.0, -0.5)),
    "line-down-above": ((0, 0, 0, -2), (0.0, 1.0, 0.5, 1.0)),
    "line-down-on-edge": ((0, 0, 0, -2), (0.0, 1.0, 0.0, 1.0)),
    "line-up-above": ((0, 0, 0, 2), (0.0, 1.0, 0.5, 1.0)),
    "line-up-below": ((0, 0, 0, 2), (0.0, 1.0, -1.0, -0.5)),
    "line-right-on-edge": ((8, 0, 2, 0), (0.0, 2.0, 0.0, 2.0)),
    "line-right-short": ((8, 0, 2, 0), (0.0, 2.0 - TINY, 0.0, 2.0)),
    "line-left-apart": ((-8, 0, -2, 0), (2.5, 3.0, 0.0, 1.0)),
    "tangent-to-edge": ((0, 8, 0, 2), (-1.0, 1.0, 0.5, 1.0)),
    "tangent-past-edge": ((0, 8, 0, 2), (-1.0, 1.0, 0.5 + TINY, 1.0)),
    "negative-touching-from-inside": ((0, -8, 0, -2), (0.0, 0.0, 0.25, 0.5)),
    "negative-short-of-touching": ((0, -8, 0, -2), (0.0, 0.0, 0.25, 0.5 - TINY)),
    "through-corner": ((-25, 1, 0, 0), (3.0, 4.0, 4.0, 5.0)),
    "past-corner": ((-25, 1, 0, 0), (3.0 + TINY, 4.0, 4.0, 5.0)),
    "outside-through-corners": ((25, -1, 0, 0), (-3.0, 3.0, -4.0, 4.0)),
    "outside-inside-corners": ((25, -1, 0, 0), (-3.0 + TINY, 3.0 - TINY, -4.0 + TINY, 4.0 - TINY)),
    # a norm of 9 * 2^60, past int64: the disk of radius 3 * 2^30 about
    # (3 * 2^30, 0), through the origin
    "huge-norm-touching": ((0, 1, 3 << 30, 0), (-1.0, 0.0, -1.0, 1.0)),
    "huge-norm-apart": ((0, 1, 3 << 30, 0), (-1.0, -0.5, -1.0, 1.0)),
}


@pytest.mark.parametrize("row, rect", PREDICATE_CASES.values(), ids=PREDICATE_CASES.keys())
def test_branch_alive_matches_fraction_reference(row, rect):
    interior, exterior = _interior_reference(row, rect), _exterior_reference(row, rect)
    for rows in (np.array([row], dtype=np.int64), np.array([row], dtype=float)):
        assert branch_alive(rows, rect).tolist() == [interior]
        assert meets(rows, rect).tolist() == [interior and exterior]


def test_branch_alive_decides_a_batch_like_single_rows():
    rows = np.array([row for row, _ in PREDICATE_CASES.values()], dtype=np.int64)
    for rect in {rect for _, rect in PREDICATE_CASES.values()}:
        alive = branch_alive(rows, rect).tolist()
        assert alive == [branch_alive(row[None], rect)[0] for row in rows]
        # a float64 keep may be false (the huge-norm rows), a prune never is
        assert all(a or not _interior_reference(row, rect) for a, row in zip(alive, rows.tolist()))
    assert branch_alive(np.empty((0, 4), dtype=np.int64), (0, 1, 0, 1)).tolist() == []


def test_branch_alive_decides_float_rejections_again_exactly():
    # a disk whose boundary passes within float64 rounding of the rectangle
    row = (4129874482583392015, 281783, 21745878225, 1078543248265)
    rect = (77230.95639887496, 77231.95639887496, 3827565.7739537163, 3827567.7739537163)
    assert _interior_reference(row, rect)
    assert branch_alive(np.array([row], dtype=float), rect).tolist() == [False]
    assert branch_alive(np.array([row], dtype=np.int64), rect).tolist() == [True]


BAD_WINDOWS = {
    "inverted-x": (0.2, -0.2, -0.2, 0.2),
    "inverted-y": (-0.2, 0.2, 0.2, -0.2),
    "nan-corner": (math.nan, 0.2, -0.2, 0.2),
    "minus-inf-corner": (-math.inf, 0.2, -0.2, 0.2),
    "inf-corner": (-0.2, 0.2, -0.2, math.inf),
    "three-numbers": (-0.2, 0.2, -0.2),
    "not-numbers": ("left", 0.2, -0.2, 0.2),
}


@pytest.mark.parametrize("window", BAD_WINDOWS.values(), ids=BAD_WINDOWS.keys())
@pytest.mark.parametrize("route", ["integer", "geometric"])
def test_bad_window_raises_on_both_routes(route, window):
    with pytest.raises(ValueError, match="window"):
        if route == "integer":
            enumerate_orbit(STANDARD, 100, embedding="auto", region=window)
        else:
            geo.generate_packing_geometric(geo.standard_seed(), 100, region=window)


def test_check_rect_accepts_degenerate_windows():
    assert check_rect((0, 0, -1, 1)) == (0.0, 0.0, -1.0, 1.0)
    assert check_rect(np.array([0.5, 0.5, 0.25, 0.25])) == (0.5, 0.5, 0.25, 0.25)


def test_pruned_walk_keeps_tangency_edges_between_tangent_circles():
    # the pruned reference walk's edges, the oracle of the twin fold, join
    # tangent circles, and the walk's fold counts the prime pairs among them
    # (none to T = 300 in this window, two to T = 2000)
    window = (-0.3, 0.7, -0.1, 1.3)
    kw = dict(twins=True, embedding="auto", region=window)
    ref = _reference_walk(STRIP, 2000, **kw)
    a, b, wx, wy = ref["acc_rows"].T
    i, j = ref["edges"].T
    # Lorentz product of two tangent circles is -1, here doubled to stay integral
    product = 2 * (wx[i] * wx[j] + wy[i] * wy[j]) - (a[i] * b[j] + b[i] * a[j])
    assert len(i) > len(b) and (product == -2).all()
    orbit = enumerate_orbit(STRIP, 2000, **kw)
    assert np.array_equal(orbit.acc_rows, ref["acc_rows"])
    prime = prime_table(2000)[np.abs(b)]
    assert int(orbit.twins.sum()) == np.count_nonzero(prime[i] & prime[j]) > 0
