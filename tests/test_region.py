"""One region semantics for every path: a circle is in a rectangle when its
curve meets the closed rectangle, whose corners are the exact binary values
of the given floats."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import counting as ct
from apollonian import geometry as geo
from apollonian.geometry import Circle
from apollonian.quadruples import enumerate_orbit
from apollonian.region import branch_alive, meets, prune_margin

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
    assert _multiset(orbit.acc_rows) == _multiset(full[meets(full, rect)])


def test_branch_alive_keeps_line_only_configurations():
    lines_only = np.array([[[0, 0, 0, -1], [4, 0, 0, 1], [0, 0, 0, -1], [4, 0, 0, 1]]])
    assert branch_alive(lines_only, (10, 11, 10, 11), 0.0).tolist() == [True]
    rows = np.array([[[1, -1, 0, 0], [0, 2, -1, 0], [0, 2, 1, 0], [1, 3, 0, 2]]])
    assert prune_margin(rows[0]) == 2.0
    # the unit disk's hull is [-1, 1]^2: alive within the margin, dead past it
    assert branch_alive(rows, (2.5, 3.0, 0.0, 1.0), 2.0).tolist() == [True]
    assert branch_alive(rows, (3.5, 4.0, 0.0, 1.0), 2.0).tolist() == [False]


def test_pruned_walk_keeps_tangency_edges_between_tangent_circles():
    window = (-0.3, 0.7, -0.1, 1.3)
    orbit = enumerate_orbit(STRIP, 300, tangency=True, embedding="auto", region=window)
    a, b, wx, wy = orbit.acc_rows.T
    i, j = orbit.edges.T
    # Lorentz product of two tangent circles is -1, here doubled to stay integral
    product = 2 * (wx[i] * wx[j] + wy[i] * wy[j]) - (a[i] * b[j] + b[i] * a[j])
    assert len(i) > orbit.circle_count and (product == -2).all()
