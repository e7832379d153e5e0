import math

import numpy as np
import pytest

from apollonian import geometry as geo
from apollonian.geometry import Circle
from apollonian.quadruples import enumerate_orbit


def test_invert_point_examples():
    unit = Circle.from_center_radius((0, 0), 1.0)
    assert geo.invert_point(unit, (2, 0)) == pytest.approx((0.5, 0))
    assert geo.invert_point(unit, (1, 0)) == pytest.approx((1, 0))
    two = Circle.from_center_radius((0, 0), 2.0)
    assert geo.invert_point(two, (1, 0)) == pytest.approx((4, 0))


def test_invert_point_pole():
    unit = Circle.from_center_radius((0, 0), 1.0)
    with pytest.raises(geo.PoleAtCenterError):
        geo.invert_point(unit, (0, 0))
    assert geo.invert_point(unit, (0, 0), on_pole="infinity") == (math.inf, math.inf)


def test_invert_point_line_mirror():
    mirror = Circle.line((0, 1), 1.0)  # the line y = 1
    assert geo.invert_point(mirror, (3, 0)) == pytest.approx((3, 2))


def test_invert_circle_examples():
    unit = Circle.from_center_radius((0, 0), 1.0)
    img = geo.invert_circle(unit, Circle.from_center_radius((3, 0), 1.0))
    assert img.radius == pytest.approx(1 / 8)
    assert img.center == pytest.approx((3 / 8, 0))
    # the mirror is fixed as a set (orientation flips)
    self_img = geo.invert_circle(unit, unit)
    assert self_img.radius == pytest.approx(1.0)
    assert self_img.center == pytest.approx((0, 0))
    # circle through the mirror center becomes a line
    line = geo.invert_circle(unit, Circle.from_center_radius((1, 0), 1.0))
    assert line.is_line
    assert line.normal == pytest.approx((1, 0))
    assert line.offset == pytest.approx(0.5)


def test_invert_circle_three_point_oracle():
    """The closed form must agree with inverting three sample points and
    taking the circle through the images."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        mx, my, mr = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2)
        cx, cy, cr = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 1.5)
        d2 = (cx - mx) ** 2 + (cy - my) ** 2
        if abs(d2 - cr * cr) < 1e-3:  # image close to a line; skip here
            continue
        mirror = Circle.from_center_radius((mx, my), mr)
        circ = Circle.from_center_radius((cx, cy), cr)
        img = geo.invert_circle(mirror, circ)
        pts = []
        for th in (0.3, 2.2, 4.4):
            p = (cx + cr * math.cos(th), cy + cr * math.sin(th))
            pts.append(geo.invert_point(mirror, p))
        oracle = geo._circumcircle(*pts)
        assert img.radius == pytest.approx(oracle.radius, rel=1e-7)
        assert img.center == pytest.approx(oracle.center, abs=1e-7 * max(1, img.radius))


def test_inversion_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        mirror = Circle.from_center_radius(
            (rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.2, 3)
        )
        c = Circle.from_center_radius(
            (rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.05, 4)
        )
        back = geo.invert_circle(mirror, geo.invert_circle(mirror, c))
        for a, b in zip(back.vector(), c.vector()):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_inversion_preserves_tangency():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        r1, r2 = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
        th = rng.uniform(0, 2 * math.pi)
        c1 = Circle.from_center_radius((x, y), r1)
        c2 = Circle.from_center_radius(
            (x + (r1 + r2) * math.cos(th), y + (r1 + r2) * math.sin(th)), r2
        )
        assert geo.tangency_residual(c1, c2) < 1e-9
        mirror = Circle.from_center_radius((rng.uniform(-2, 2), rng.uniform(-2, 2)), 1.3)
        i1, i2 = geo.invert_circle(mirror, c1), geo.invert_circle(mirror, c2)
        assert geo.tangency_residual(i1, i2) < 1e-8


def test_tangency_point_examples():
    c1 = Circle.from_center_radius((-0.5, 0), 0.5)
    c2 = Circle.from_center_radius((0.5, 0), 0.5)
    assert geo.tangency_point(c1, c2) == pytest.approx((0, 0))
    bounding = Circle.from_center_radius((0, 0), 1.0, bounding=True)
    assert geo.tangency_point(bounding, c2) == pytest.approx((1, 0))
    c3 = Circle.from_center_radius((0, 2 / 3), 1 / 3)
    t = geo.tangency_point(c2, c3)
    # the common point lies on both circles
    assert math.dist(t, (0.5, 0)) == pytest.approx(0.5, abs=1e-12)
    assert math.dist(t, (0, 2 / 3)) == pytest.approx(1 / 3, abs=1e-12)


def test_tangency_point_rejects_disjoint():
    c1 = Circle.from_center_radius((0, 0), 1.0)
    c2 = Circle.from_center_radius((5, 0), 1.0)
    with pytest.raises(geo.NotTangentError):
        geo.tangency_point(c1, c2)


def test_dual_circles_standard_seed():
    seed = geo.standard_seed()
    # the dual for the top circle is the real axis
    dual_top = seed.duals[3]
    assert dual_top.is_line
    assert abs(dual_top.offset) < 1e-12
    assert abs(abs(dual_top.normal[1]) - 1) < 1e-12
    # each dual is orthogonal to its three seed circles
    for i in range(4):
        for j in range(4):
            if j == i:
                continue
            assert abs(geo.inversive_product(seed.duals[i], seed.circles[j])) < 1e-9


def test_duals_respect_mirror_symmetry():
    seed = geo.standard_seed()
    mirror = Circle.line((1, 0), 0.0)  # x = 0
    # seed circles 2L <-> 2R swap, bounding and top fixed; the duals permute
    # the same way
    d_left = geo.invert_circle(mirror, seed.duals[1])
    assert d_left.center == pytest.approx(seed.duals[2].center, abs=1e-12)
    assert d_left.radius == pytest.approx(seed.duals[2].radius, abs=1e-12)


def test_seed_validation_rejects_bad_circles():
    with pytest.raises(geo.NotTangentError):
        geo.SeedConfiguration.from_circles(
            [
                Circle.from_center_radius((0, 0), 1.0, bounding=True),
                Circle.from_center_radius((-0.4, 0), 0.5),
                Circle.from_center_radius((0.5, 0), 0.5),
                Circle.from_center_radius((0, 2 / 3), 1 / 3),
            ]
        )


def test_descartes_consistency_of_generated_quadruples():
    """Any four mutually tangent circles produced geometrically satisfy the
    Descartes relation on signed curvatures."""
    seed = geo.standard_seed()
    assert seed.descartes_residual() < 1e-12
    # walk a few configurations by hand
    cfg = list(seed.circles)
    for i in (3, 1, 2, 0, 3):
        kept = [cfg[j] for j in range(4) if j != i]
        dual = geo._dual_through_tangencies(kept, tol=1e-8)
        cfg[i] = geo.invert_circle(dual, cfg[i])
        bs = [c.curv for c in cfg]
        q = 2 * sum(b * b for b in bs) - sum(bs) ** 2
        assert abs(q) < 1e-6 * max(abs(b) for b in bs) ** 2


def test_geometric_vs_quadruple_oracle_standard(std_geo_1e3):
    orb = enumerate_orbit((-1, 2, 2, 3), 1000)
    gm = sorted(round(c.unsigned_curvature) for c in std_geo_1e3)
    qm = sorted(abs(int(x)) for x in orb.curvatures)
    assert gm == qm
    assert max(
        abs(c.unsigned_curvature - round(c.unsigned_curvature)) for c in std_geo_1e3
    ) < 1e-6


def test_geometric_vs_quadruple_oracle_strip():
    window = (0.0, 2.0, 0.0, 2.0)
    go = geo.generate_packing_geometric(geo.strip_seed(), 1000, region=window)
    qo = enumerate_orbit((0, 0, 1, 1), 1000, rows=True, region=window)
    gm = sorted(round(c.unsigned_curvature) for c in go)
    qm = sorted(abs(int(x)) for x in qo.curvatures)
    assert gm == qm
    assert max(
        abs(c.unsigned_curvature - round(c.unsigned_curvature)) for c in go
    ) < 1e-6


def test_strip_one_period_small_bound():
    window = (0.0, 2.0, 0.0, 2.0)
    go = geo.generate_packing_geometric(geo.strip_seed(), 1, region=window)
    vals = sorted(round(c.unsigned_curvature) for c in go)
    assert vals == [0, 0, 1, 1]


def test_unbounded_requires_region():
    with pytest.raises(ValueError):
        geo.generate_packing_geometric(geo.strip_seed(), 10)


def test_scaling_covariance():
    c = Circle.from_center_radius((1.5, -2.0), 0.25)
    s = c.scaled(4.0)
    assert s.center == pytest.approx((6.0, -8.0))
    assert s.radius == pytest.approx(1.0)
    assert s.norm_defect() < 1e-12


def test_invert_point_involution_random():
    rng = np.random.default_rng(17)
    for _ in range(500):
        mirror = Circle.from_center_radius(
            (rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.2, 3)
        )
        p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        back = geo.invert_point(mirror, geo.invert_point(mirror, p))
        assert back == pytest.approx(p, rel=1e-9, abs=1e-9)


def test_geometric_restriction_consistency(std_geo_1e3):
    """The packing generated to a smaller bound equals the restriction of a
    larger run: pruning loses nothing."""
    for sub in (10, 100):
        small = geo.generate_packing_geometric(geo.standard_seed(), sub)
        restricted = [
            c for c in std_geo_1e3 if c.unsigned_curvature <= sub + 1e-9
        ]
        assert sorted(round(c.unsigned_curvature) for c in small) == sorted(
            round(c.unsigned_curvature) for c in restricted
        )


def test_collision_check_names_the_shared_key():
    a = Circle.from_center_radius((0.25, 0.5), 0.125)
    b = Circle.from_center_radius((0.25, 0.5 + 1e-9), 0.125)
    geo._check_collisions([a, Circle.from_center_radius((0.5, 0.5), 0.125)])
    with pytest.raises(geo.DedupCollisionError, match=r"\[2375000\.0, 8000000\.0, 2000000\.0, 4000000\.0\]"):
        geo._check_collisions([a, Circle.from_center_radius((0.5, 0.5), 0.125), b])
