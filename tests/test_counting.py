import math
import warnings

import numpy as np
import pytest

from apollonian import counting as ct
from apollonian import geometry as geo
from apollonian.geometry import Circle
from apollonian.quadruples import enumerate_orbit
from apollonian.region import meets


def test_count_by_curvature_small():
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    curve = ct.count_by_curvature(orb, [0.5, 3, 6])
    assert curve.counts.tolist() == [0, 5, 9]


def test_count_grid_beyond_bound_rejected():
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    with pytest.raises(ValueError):
        ct.count_by_curvature(orb, [10])


def test_fit_exact_square_law():
    ts = 2.0 ** np.arange(3, 20)
    curve = ct.CountCurve(ts, ts**2)
    fit = ct.fit_exponent(curve, (ts[0], ts[-1]))
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-9)


def test_fit_prefactor():
    ts = np.geomspace(10, 1e5, 60)
    curve = ct.CountCurve(ts, 7 * ts**1.5)
    fit = ct.fit_exponent(curve, (10, 1e5))
    assert fit.alpha_hat == pytest.approx(1.5, abs=1e-6)
    assert fit.c_hat == pytest.approx(7.0, abs=1e-6)


def test_fit_needs_enough_points():
    curve = ct.CountCurve([1, 10, 100], [1, 10, 100])
    with pytest.raises(ValueError):
        ct.fit_exponent(curve, (1, 100))


def test_fit_rejects_zero_counts():
    ts = np.geomspace(1, 100, 10)
    counts = np.concatenate([[0], np.arange(1, 10)])
    curve = ct.CountCurve(ts, counts)
    with pytest.raises(ValueError):
        ct.fit_exponent(curve, (1, 100))


def test_count_curve_monotonicity_enforced():
    with pytest.raises(ValueError):
        ct.CountCurve([1, 2, 3], [5, 4, 6])


def test_count_in_region_basics(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    full = (-1.0, 1.0, -1.0, 1.0)
    n_all = ct.count_in_region(rows, 100, full)
    orb = enumerate_orbit((-1, 2, 2, 3), 100)
    assert n_all == orb.circle_count
    # mirror halves agree by symmetry
    left = ct.count_in_region(rows, 1000, (-1.0, 0.0, -1.0, 1.0))
    right = ct.count_in_region(rows, 1000, (0.0, 1.0, -1.0, 1.0))
    assert left == right
    # region away from the disk
    assert ct.count_in_region(rows, 1000, (5.0, 6.0, 5.0, 6.0)) == 0


def test_region_additivity(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    t = 1000
    e1 = (-1.0, -0.3, -1.0, 1.0)
    e2 = (0.3, 1.0, -1.0, 1.0)
    n1 = ct.count_in_region(rows, t, e1)
    n2 = ct.count_in_region(rows, t, e2)
    in_bound = rows[np.abs(rows[:, 1]) <= t]
    both = int(np.count_nonzero(meets(in_bound, e1) & meets(in_bound, e2)))
    union = int(np.count_nonzero(meets(in_bound, e1) | meets(in_bound, e2)))
    assert union == n1 + n2 - both
    assert union <= n1 + n2


def test_scale_covariance(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    lam = 4.0
    t = 500
    rect = (-0.8, 0.4, -0.9, 0.7)
    # dilation about the origin by lam: (cocurv, curv, wx, wy) scale by
    # (lam, 1/lam, 1, 1)
    scaled = rows * np.array([lam, 1.0 / lam, 1.0, 1.0])
    rect_s = tuple(v * lam for v in rect)
    assert ct.count_in_region(rows, t, rect) == ct.count_in_region(
        scaled, t / lam, rect_s
    )


def test_ratio_uniformity(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    full = (-1.0, 1.0, -1.0, 1.0)
    left = (-1.0, 0.0, -1.0, 1.0)
    assert ct.ratio_uniformity(rows, 1000, full, full) == 1.0
    r3 = ct.ratio_uniformity(rows, 1000, left, full)
    r4 = ct.ratio_uniformity(rows, 10000, left, full)
    assert abs(r3 - 0.5) < 0.02
    assert abs(r4 - 0.5) < 0.02
    assert abs(r4 - r3) < 0.02


def test_ratio_zero_denominator(std_orbit_1e4):
    with pytest.raises(ZeroDivisionError):
        ct.ratio_uniformity(std_orbit_1e4.acc_rows, 10, (-1, 1, -1, 1), (7, 8, 7, 8))


def test_mirror_symmetric_ratio_exact(std_orbit_1e4):
    left = (-1.0, 0.0, -1.0, 1.0)
    right = (0.0, 1.0, -1.0, 1.0)
    for t in (100, 1000, 10000):
        assert ct.ratio_uniformity(std_orbit_1e4.acc_rows, t, left, right) == 1.0


def test_boxcount_single_circle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dim = ct.boxcount_dimension(
            [Circle.from_center_radius((0, 0), 1.0)],
            [2.0**-k for k in range(4, 10)],
        )
    assert dim == pytest.approx(1.0, abs=0.05)


def test_boxcount_area_filling():
    grid = [
        Circle.from_center_radius((x, y), 0.01)
        for x in np.arange(0.01, 1.0, 0.02)
        for y in np.arange(0.01, 1.0, 0.02)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dim = ct.boxcount_dimension(grid, [2.0**-k for k in range(2, 7)])
    assert dim == pytest.approx(2.0, abs=0.1)


def test_boxcount_packing_dimension(std_circles_1e4):
    eps = [2.0**-k for k in range(4, 10)]
    dim = ct.boxcount_dimension(std_circles_1e4, eps)
    assert 1.25 <= dim <= 1.36


def test_boxcount_warns_below_resolution():
    circles = [Circle.from_center_radius((0, 0), 1.0)]
    with pytest.warns(UserWarning):
        ct.box_counts(circles, [0.1])


def test_box_counts_monotone_in_eps(std_circles_1e4):
    eps = [2.0**-k for k in range(3, 9)]
    b = ct.box_counts(std_circles_1e4, eps)
    assert (np.diff(b) > 0).all()


def test_curvilinear_triangle_standard(std_circles_1e4):
    """Dual route: circles inside the gap of (2L, 2R, 3T) equal the counts
    from the swap subtree rooted at the quadruple (15, 2, 2, 3)."""
    from apollonian.quadruples import apply_swap

    seed = geo.standard_seed()
    triple = (seed.circles[1], seed.circles[2], seed.circles[3])

    def subtree_count(bound):
        # reduced words continuing from the swap that created the 15-circle
        total = 1 if bound >= 15 else 0
        stack = [((15, 2, 2, 3), 1)]
        while stack:
            quad, last = stack.pop()
            for i in (1, 2, 3, 4):
                if i == last:
                    continue
                child = apply_swap(quad, i)
                if child[i - 1] <= bound:
                    total += 1
                    stack.append((child, i))
        return total

    for bound in (15, 100, 2000):
        geom = ct.count_in_curvilinear_triangle(std_circles_1e4, bound, triple)
        assert geom == subtree_count(bound)


def test_curvilinear_triangle_growth_exponent(std_circles_1e4):
    seed = geo.standard_seed()
    triple = (seed.circles[1], seed.circles[2], seed.circles[3])
    ts = np.geomspace(100, 10**4, 17)
    ns = [ct.count_in_curvilinear_triangle(std_circles_1e4, t, triple) for t in ts]
    curve = ct.CountCurve(ts, ns)
    fit = ct.fit_exponent(curve, (100, 10**4))
    assert abs(fit.alpha_hat - 1.30568) < 0.06


def test_curvilinear_triangle_collinear_needs_side(std_circles_1e4):
    seed = geo.standard_seed()
    triple = (seed.circles[0], seed.circles[1], seed.circles[2])
    with pytest.raises(ValueError):
        ct.count_in_curvilinear_triangle(std_circles_1e4, 100, triple)
    top = ct.count_in_curvilinear_triangle(
        std_circles_1e4, 1000, triple, side_point=(0.0, 0.6)
    )
    bottom = ct.count_in_curvilinear_triangle(
        std_circles_1e4, 1000, triple, side_point=(0.0, -0.6)
    )
    assert top == bottom  # mirror symmetry
    assert top > 0
