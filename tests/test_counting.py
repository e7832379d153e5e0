import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from apollonian import counting as ct
from apollonian import geometry as geo
from apollonian.geometry import Circle
from apollonian.quadruples import MAX_BOUND, enumerate_orbit
from apollonian.region import meets
from conftest import STRIP_ROOT, STRIP_WINDOW


def test_count_by_curvature_small():
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    curve = ct.count_by_curvature(orb, [0.5, 3, 6])
    assert curve.counts.tolist() == [0, 5, 9]


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 20])
def test_count_by_curvature_chunks_match_whole_sort(monkeypatch, chunk):
    orb = enumerate_orbit((-1, 2, 2, 3), 3000)
    bfs_order = orb.curvatures.copy()
    whole = np.sort(np.abs(orb.curvatures))
    ts = np.unique(whole[whole >= 1]).astype(float)
    grids = {
        "empty": np.empty(0),
        "integers": np.concatenate(([0.0], ts)),
        "below integers": np.nextafter(ts, 0),
        "negative": np.array([-1e12, -1.5, -0.5]),
    }
    monkeypatch.setattr(ct, "COUNT_CHUNK", chunk)
    for name, grid in grids.items():
        want = np.searchsorted(whole, np.floor(grid), side="right")
        assert np.array_equal(ct.count_by_curvature(orb, grid).counts, want), name
    assert np.array_equal(orb.curvatures, bfs_order)


def test_count_grid_beyond_bound_rejected():
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    with pytest.raises(ValueError):
        ct.count_by_curvature(orb, [10])


def test_count_rejects_bound_beyond_int32_keys():
    # only a hand-built orbit can carry a bound above MAX_BOUND
    orb = enumerate_orbit((-1, 2, 2, 3), 6)
    big = dataclasses.replace(orb, bound=MAX_BOUND + 1)
    with pytest.raises(ValueError, match="exceeds"):
        ct.count_by_curvature(big, [3])


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
            geo._rows([Circle.from_center_radius((0, 0), 1.0)]),
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
        dim = ct.boxcount_dimension(geo._rows(grid), [2.0**-k for k in range(2, 7)])
    assert dim == pytest.approx(2.0, abs=0.1)


def test_boxcount_packing_dimension(std_orbit_1e4):
    eps = [2.0**-k for k in range(4, 10)]
    dim = ct.boxcount_dimension(std_orbit_1e4.acc_rows, eps)
    assert 1.25 <= dim <= 1.36


@pytest.mark.parametrize("eps", [[2.0**-5], [2.0**-5, 2.0**-5], []])
def test_boxcount_dimension_needs_two_box_sizes(eps):
    rows = geo._rows([Circle.from_center_radius((0, 0), 1.0)])
    with pytest.raises(ValueError, match="two distinct box sizes"):
        ct.boxcount_dimension(rows, eps)


def test_boxcount_warns_below_resolution():
    rows = geo._rows([Circle.from_center_radius((0, 0), 1.0)])
    with pytest.warns(UserWarning):
        ct.box_counts(rows, [0.1])


def test_box_counts_monotone_in_eps(std_orbit_1e4):
    eps = [2.0**-k for k in range(3, 9)]
    b = ct.box_counts(std_orbit_1e4.acc_rows, eps)
    assert (np.diff(b) > 0).all()


def _pack(ix, iy):
    return (ix.astype(np.int64) << 32) ^ (iy.astype(np.int64) & 0xFFFFFFFF)


def _box_counts_per_circle(circles, eps_grid, viewport=None):
    """The former box counter on Circle objects, which sampled each circle
    larger than a box in its own loop step: the reference for
    ``box_counts`` on rows."""
    out = []
    centers = np.array([c.center for c in circles if not c.is_line]).reshape(-1, 2)
    radii = np.array([c.radius for c in circles if not c.is_line])
    lines = [c for c in circles if c.is_line]
    for eps in eps_grid:
        boxes = []
        small = radii <= eps / 2.0
        if small.any():
            lo = np.floor((centers[small] - radii[small, None]) / eps).astype(np.int64)
            hi = np.floor((centers[small] + radii[small, None]) / eps).astype(np.int64)
            for dx in (0, 1):
                for dy in (0, 1):
                    ix = np.minimum(lo[:, 0] + dx, hi[:, 0])
                    iy = np.minimum(lo[:, 1] + dy, hi[:, 1])
                    boxes.append(_pack(ix, iy))
        for c, r in zip(centers[~small], radii[~small]):
            n = max(8, int(math.ceil(2 * math.pi * r / (eps / 3.0))))
            th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
            xs = c[0] + r * np.cos(th)
            ys = c[1] + r * np.sin(th)
            boxes.append(_pack(np.floor(xs / eps).astype(np.int64), np.floor(ys / eps).astype(np.int64)))
        if viewport is not None:
            x0, x1, y0, y1 = viewport
            for ln in lines:
                nx, ny = ln.wx, ln.wy
                px, py = ln.offset * nx, ln.offset * ny
                span = math.hypot(x1 - x0, y1 - y0)
                ts = np.arange(-span, span, eps / 3.0)
                xs = px - ts * ny
                ys = py + ts * nx
                m = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
                boxes.append(_pack(np.floor(xs[m] / eps).astype(np.int64), np.floor(ys[m] / eps).astype(np.int64)))
        out.append(np.unique(np.concatenate(boxes)).size if boxes else 0)
    return out


def test_box_counts_match_per_circle_reference_standard(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    eps = [2.0**-k for k in range(3, 10)]
    ref = _box_counts_per_circle(geo.circles_from_rows(rows), eps)
    assert ct.box_counts(rows, eps).tolist() == ref


def test_box_counts_match_per_circle_reference_strip():
    rows = enumerate_orbit(STRIP_ROOT, 1000, embedding="auto", region=STRIP_WINDOW).acc_rows
    assert (rows[:, 1] == 0).sum() == 2
    eps = [2.0**-k for k in range(3, 9)]
    circles = geo.circles_from_rows(rows)
    for viewport in (STRIP_WINDOW, None):
        ref = _box_counts_per_circle(circles, eps, viewport)
        assert ct.box_counts(rows, eps, viewport=viewport).tolist() == ref


def test_box_counts_match_per_circle_reference_float_rows():
    circles = [
        Circle.from_center_radius((0.0, 0.0), 1.0, bounding=True),
        Circle.from_center_radius((0.3, -0.2), 0.25),
        Circle.from_center_radius((-0.41, 0.37), 0.013),
        Circle.from_center_radius((0.05, 0.6), 0.0021),
        Circle.from_curvature_center(-7.5, (0.2, 0.1)),
        Circle.line((1.0, 2.0), 0.35),
        Circle.line((0.0, -1.0), 0.8),
    ]
    eps = [2.0**-k for k in range(2, 10)] + [0.3, 0.0071]
    rows = np.array([c.vector() for c in circles])
    viewport = (-1.0, 1.0, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ct.ResolutionWarning)
        for vp in (viewport, None):
            ref = _box_counts_per_circle(circles, eps, vp)
            assert ct.box_counts(rows, eps, viewport=vp).tolist() == ref


def test_box_counts_match_per_circle_reference_in_narrow_bands(monkeypatch, std_orbit_1e4):
    # every box size of the reference tests then spans many bands
    monkeypatch.setattr(ct, "_BOX_BAND_CELLS", 64)
    test_box_counts_match_per_circle_reference_standard(std_orbit_1e4)
    test_box_counts_match_per_circle_reference_strip()
    test_box_counts_match_per_circle_reference_float_rows()


# eight circles resolve no box below 2/6
@pytest.mark.filterwarnings("ignore::apollonian.counting.ResolutionWarning")
@pytest.mark.parametrize("chunk", [1, 500, 40_000])
def test_box_counts_in_sample_chunks_match_one_shot(monkeypatch, std_orbit_1e4, chunk):
    # the eight largest circles, at the coarsest box size at which the
    # largest one holds more than three chunks of samples
    rows = std_orbit_1e4.acc_rows
    rows = rows[np.argsort(np.abs(rows[:, 1]), kind="stable")[:8]]
    b = rows[:, 1].astype(float)
    cx, cy, r = rows[:, 2] / b, rows[:, 3] / b, 1.0 / np.abs(b)
    k = next(k for k in range(1, 15) if 2 * math.pi * r.max() / (2.0**-k / 3.0) > 3 * chunk)
    eps = [2.0 ** (2 - k), 2.0 ** (1 - k), 2.0**-k]
    monkeypatch.setattr(ct, "_SAMPLES_PER_CHUNK", 1 << 62)
    one_shot = ct.box_counts(rows, eps)
    whole = list(ct._sample_cells(cx, cy, r, eps[-1]))
    monkeypatch.setattr(ct, "_SAMPLES_PER_CHUNK", chunk)
    parts = list(ct._sample_cells(cx, cy, r, eps[-1]))
    assert len(whole) == 1 and len(parts) > 3
    assert all(ix.size == chunk for ix, _ in parts[:-1])
    assert 0 < parts[-1][0].size <= chunk
    for axis in (0, 1):
        assert np.array_equal(np.concatenate([p[axis] for p in parts]), whole[0][axis])
    assert ct.box_counts(rows, eps).tolist() == one_shot.tolist()


def test_box_counts_match_per_circle_reference_in_small_sample_chunks(monkeypatch, std_orbit_1e4):
    monkeypatch.setattr(ct, "_SAMPLES_PER_CHUNK", 100)
    test_box_counts_match_per_circle_reference_standard(std_orbit_1e4)
    test_box_counts_match_per_circle_reference_strip()
    test_box_counts_match_per_circle_reference_float_rows()


@pytest.mark.parametrize("band_cells", [1 << 22, 64])
def test_box_counts_negative_cells(monkeypatch, band_cells):
    monkeypatch.setattr(ct, "_BOX_BAND_CELLS", band_cells)
    circles = [
        Circle.from_center_radius((-3.7, -2.2), 0.9),
        Circle.from_center_radius((-2.05, -1.3), 0.004),
        Circle.from_center_radius((-1.2, -4.4), 0.03),
        Circle.line((1.0, 1.0), -3.0),
    ]
    rows = np.array([c.vector() for c in circles])
    eps = [2.0**-k for k in range(2, 8)]
    viewport = (-5.0, -1.0, -5.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ct.ResolutionWarning)
        for vp in (viewport, None):
            ref = _box_counts_per_circle(circles, eps, vp)
            assert ct.box_counts(rows, eps, viewport=vp).tolist() == ref


def test_box_counts_visit_only_occupied_bands(monkeypatch):
    # two tiny circles 1000 units apart: at eps = 2**-14 the rectangle
    # between them is 2.7e14 cells, and counting keeps only the cells that
    # the circles mark
    monkeypatch.setattr(ct, "_BOX_BAND_CELLS", 1 << 10)
    circles = [Circle.from_center_radius(c, 1e-6) for c in ((0.0, 0.0), (1000.0, 1000.0))]
    rows = np.array([c.vector() for c in circles])
    eps = [2.0**-10, 2.0**-13, 2.0**-14]
    tracemalloc.start()
    try:
        counts = ct.box_counts(rows, eps).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == _box_counts_per_circle(circles, eps)
    assert peak < 1 << 20


def test_box_counts_split_a_row_wider_than_a_band():
    # two tiny circles 1e4 units apart on one row of cells: at eps = 2**-14
    # the row is 1.6e8 cells, which a map of the whole row would hold at once
    circles = [Circle.from_center_radius(c, 1e-6) for c in ((0.0, 0.0), (1e4, 0.0))]
    rows = np.array([c.vector() for c in circles])
    eps = [2.0**-14, 2.0**-13]
    tracemalloc.start()
    try:
        counts = ct.box_counts(rows, eps).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == _box_counts_per_circle(circles, eps)
    assert peak < 2 * ct._BOX_BAND_CELLS


def test_box_counts_memory_follows_one_chunk_and_the_occupied_boxes(monkeypatch, std_orbit_1e4):
    # from eps = 2**-9 (the finest default box) to 2**-11 the samples of
    # the T = 1e4 packing grow from 139,907 to 854,028, and the peak stays
    # within one fixed bound: the centres and radii, one chunk, and the
    # distinct keys of the occupied boxes at 2**-11 with their union
    monkeypatch.setattr(ct, "_SAMPLES_PER_CHUNK", 1 << 12)
    rows = std_orbit_1e4.acc_rows
    radii = 1.0 / np.abs(rows[:, 1].astype(float))

    def samples(eps):
        big = radii[radii > eps / 2.0]
        return int(np.maximum(8, np.ceil(2 * math.pi * big / (eps / 3.0))).sum())

    finest = ct.box_counts(rows, [2.0**-11])[0]
    bound = 48 * len(rows) + 128 * ct._SAMPLES_PER_CHUNK + 48 * int(finest)
    # below the 16 bytes of cell indices a sample that a list of every
    # sample's cell takes at 2**-11
    assert bound < 16 * samples(2.0**-11)
    assert samples(2.0**-11) > 4 * samples(2.0**-9)
    for eps in (2.0**-9, 2.0**-11):
        tracemalloc.start()
        try:
            ct.box_counts(rows, [eps])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, eps


@pytest.mark.parametrize("band_cells", [1 << 22, 250, 99, 1])
def test_count_cells_matches_a_set(monkeypatch, band_cells):
    # a rectangle of 100 x 12 cells, or a larger one around it: a boolean
    # map at 1 << 22 cells, distinct keys per chunk below 1200
    monkeypatch.setattr(ct, "_BOX_BAND_CELLS", band_cells)
    rng = np.random.default_rng(7)
    parts = [
        (rng.integers(-60, 40, size), rng.integers(-9, 3, size))
        for size in (500, 1, 0, 80)
    ]
    # the extreme cells of the rectangle, and a repeat of the first part
    parts.append((np.array([-60, 39, -60, 39]), np.array([-9, -9, 2, 2])))
    parts.append((parts[0][0][::-1].copy(), parts[0][1][::-1].copy()))
    cells = {(int(x), int(y)) for ix, iy in parts for x, y in zip(ix, iy)}
    for x0, y0, width, height in ((-60, -9, 100, 12), (-70, -12, 130, 19)):
        assert ct._count_cells(iter(parts), x0, y0, width, height) == len(cells)
        assert ct._count_cells(((ix[:0], iy[:0]) for ix, iy in parts), x0, y0, width, height) == 0
        assert ct._count_cells(iter([]), x0, y0, width, height) == 0


def test_curvilinear_triangle_standard(std_orbit_1e4):
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
        geom = ct.count_in_curvilinear_triangle(std_orbit_1e4.acc_rows, bound, triple)
        assert geom == subtree_count(bound)


def test_curvilinear_triangle_growth_exponent(std_orbit_1e4):
    seed = geo.standard_seed()
    triple = (seed.circles[1], seed.circles[2], seed.circles[3])
    ts = np.geomspace(100, 10**4, 17)
    ns = [ct.count_in_curvilinear_triangle(std_orbit_1e4.acc_rows, t, triple) for t in ts]
    curve = ct.CountCurve(ts, ns)
    fit = ct.fit_exponent(curve, (100, 10**4))
    assert abs(fit.alpha_hat - 1.30568) < 0.06


def test_curvilinear_triangle_collinear_needs_side(std_orbit_1e4):
    seed = geo.standard_seed()
    triple = (seed.circles[0], seed.circles[1], seed.circles[2])
    with pytest.raises(ValueError):
        ct.count_in_curvilinear_triangle(std_orbit_1e4.acc_rows, 100, triple)
    top = ct.count_in_curvilinear_triangle(
        std_orbit_1e4.acc_rows, 1000, triple, side_point=(0.0, 0.6)
    )
    bottom = ct.count_in_curvilinear_triangle(
        std_orbit_1e4.acc_rows, 1000, triple, side_point=(0.0, -0.6)
    )
    assert top == bottom  # mirror symmetry
    assert top > 0


def test_curvilinear_triangle_strip_halves():
    """The two lines of the strip and its unit circle at (2, 1) bound two
    mirror half-strips; over the window (1, 3, 0, 2), symmetric about x = 2,
    they hold equal counts, and every other proper circle lies in one."""
    seed = geo.strip_seed()
    triple = (seed.circles[0], seed.circles[1], seed.circles[3])
    rows = enumerate_orbit(STRIP_ROOT, 1000, embedding="auto", region=(1.0, 3.0, 0.0, 2.0)).acc_rows
    for bound in (1, 10, 100, 1000):
        left = ct.count_in_curvilinear_triangle(rows, bound, triple, side_point=(1.5, 1.0))
        right = ct.count_in_curvilinear_triangle(rows, bound, triple, side_point=(2.5, 1.0))
        proper = int(np.count_nonzero((rows[:, 1] != 0) & (np.abs(rows[:, 1]) <= bound)))
        assert left == right
        assert left + right == proper - 1
    # a disk on the right that crosses the line y = 0 is not inside
    crossing = Circle.from_center_radius((2.8, -0.2), 0.3).vector()
    assert ct.count_in_curvilinear_triangle(
        np.vstack([rows, crossing]), 1000, triple, side_point=(2.5, 1.0)
    ) == right
