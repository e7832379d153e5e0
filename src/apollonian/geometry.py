"""Plane inversive geometry: oriented circles and lines, inversions, dual
circles, and packing generation by walking tangent configurations.

Circles are stored in inversive coordinates (cocurv, curv, wx, wy) where
``curv`` is the signed curvature (interiors of packing circles are pairwise
disjoint, so a bounding circle is negative), ``(wx, wy) = curv * center`` for
proper circles, and ``cocurv`` is the curvature of the image under inversion
in the unit circle.  A line has ``curv = 0``, ``(wx, wy)`` the unit normal
pointing into its interior (away from the packing), and ``cocurv`` twice its
signed offset.  Every circle satisfies wx^2 + wy^2 - cocurv*curv = 1, the
Lorentz product of two properly tangent circles is -1, and of two orthogonal
circles is 0.  Inversion in a mirror circle is the Lorentz reflection in its
coordinate vector, which handles every kind degeneration (circle through the
mirror center maps to a line, and so on) with one formula.

This module is the geometric counterpart of the integer quadruple engine and
is used as its independent cross-check: the two construct the same packings
by unrelated mechanisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadruples import embedding_for_root
from .region import LINE_EPS, Rect, branch_alive, check_rect, meets

TANGENCY_TOL = 1e-8
SEED_TANGENCY_TOL = 1e-9
# the walk's tolerance for tangency points of configuration circles, and the
# decimals of the rounded coordinates that guard against duplicate circles
WALK_TANGENCY_TOL = 1e-6
DEDUP_DECIMALS = 6


class NotTangentError(ValueError):
    pass


class PoleAtCenterError(ValueError):
    pass


class DedupCollisionError(RuntimeError):
    """Two distinct circles fell within the deduplication tolerance."""


Point = tuple[float, float]


@dataclass(frozen=True)
class Circle:
    cocurv: float
    curv: float
    wx: float
    wy: float

    @staticmethod
    def from_center_radius(center: Point, radius: float, bounding: bool = False) -> "Circle":
        """Proper circle; ``bounding=True`` gives the negative orientation."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        b = -1.0 / radius if bounding else 1.0 / radius
        x, y = center
        return Circle(b * (x * x + y * y) - 1.0 / b, b, b * x, b * y)

    @staticmethod
    def from_curvature_center(curv: float, center: Point) -> "Circle":
        if curv == 0:
            raise ValueError("use Circle.line for curvature zero")
        x, y = center
        return Circle(curv * (x * x + y * y) - 1.0 / curv, curv, curv * x, curv * y)

    @staticmethod
    def line(normal: Point, offset: float) -> "Circle":
        """Line {p : normal . p = offset}; the normal points into the closed
        half-plane regarded as the line's interior."""
        nx, ny = normal
        n = math.hypot(nx, ny)
        if n == 0:
            raise ValueError("line normal must be nonzero")
        return Circle(2.0 * offset / n, 0.0, nx / n, ny / n)

    @property
    def is_line(self) -> bool:
        return abs(self.curv) < LINE_EPS

    @property
    def center(self) -> Point:
        if self.is_line:
            raise ValueError("a line has no center")
        return (self.wx / self.curv, self.wy / self.curv)

    @property
    def radius(self) -> float:
        if self.is_line:
            return math.inf
        return 1.0 / abs(self.curv)

    @property
    def unsigned_curvature(self) -> float:
        return abs(self.curv)

    @property
    def normal(self) -> Point:
        if not self.is_line:
            raise ValueError("only lines carry a normal")
        return (self.wx, self.wy)

    @property
    def offset(self) -> float:
        if not self.is_line:
            raise ValueError("only lines carry an offset")
        return self.cocurv / 2.0

    def vector(self) -> np.ndarray:
        return np.array([self.cocurv, self.curv, self.wx, self.wy], dtype=float)

    def norm_defect(self) -> float:
        """|<C,C> - 1|; zero for an exactly represented circle."""
        return abs(self.wx * self.wx + self.wy * self.wy - self.cocurv * self.curv - 1.0)

    def scaled(self, factor: float) -> "Circle":
        """The circle dilated about the origin by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Circle(self.cocurv * factor, self.curv / factor, self.wx, self.wy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_line:
            return f"Line(n=({self.wx:.6g},{self.wy:.6g}), c={self.offset:.6g})"
        x, y = self.center
        return f"Circle(b={self.curv:.6g}, center=({x:.6g},{y:.6g}))"


def inversive_product(c1: Circle, c2: Circle) -> float:
    """Lorentz product; -1 for properly tangent, 0 for orthogonal circles."""
    return (
        c1.wx * c2.wx
        + c1.wy * c2.wy
        - 0.5 * (c1.cocurv * c2.curv + c1.curv * c2.cocurv)
    )


def invert_point(mirror: Circle, p: Point, on_pole: str = "raise") -> Point:
    """Inversion (reflection) of a point in a mirror circle or line.  The
    mirror's centre maps to infinity with ``on_pole="infinity"`` and raises
    PoleAtCenterError otherwise."""
    if mirror.is_line:
        nx, ny = mirror.wx, mirror.wy
        s = nx * p[0] + ny * p[1] - mirror.offset
        return (p[0] - 2 * s * nx, p[1] - 2 * s * ny)
    ax, ay = mirror.center
    r2 = mirror.radius ** 2
    dx, dy = p[0] - ax, p[1] - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        if on_pole == "infinity":
            return (math.inf, math.inf)
        raise PoleAtCenterError("point coincides with the mirror center")
    s = r2 / d2
    return (ax + s * dx, ay + s * dy)


def invert_circle(mirror: Circle, c: Circle) -> Circle:
    """Inversion (reflection) of a circle in a mirror circle or line."""
    t = inversive_product(c, mirror)
    return Circle(
        c.cocurv - 2 * t * mirror.cocurv,
        c.curv - 2 * t * mirror.curv,
        c.wx - 2 * t * mirror.wx,
        c.wy - 2 * t * mirror.wy,
    )


def tangency_residual(c1: Circle, c2: Circle) -> float:
    """Curvature-scaled distance from exact tangency.

    For two proper circles this is |d - (r1 +- r2)| * max(b1, b2) minimized
    over the internal/external cases; circle-line and line-line degenerations
    are handled by kind.
    """
    if c1.is_line and c2.is_line:
        # tangent at infinity iff parallel
        return abs(c1.wx * c2.wy - c1.wy * c2.wx)
    if c1.is_line or c2.is_line:
        line, circ = (c1, c2) if c1.is_line else (c2, c1)
        x, y = circ.center
        s = line.wx * x + line.wy * y - line.offset
        return abs(abs(s) - circ.radius) * circ.unsigned_curvature
    d = math.dist(c1.center, c2.center)
    r1, r2 = c1.radius, c2.radius
    res = min(abs(d - (r1 + r2)), abs(d - abs(r1 - r2)))
    return res * max(c1.unsigned_curvature, c2.unsigned_curvature)


def tangency_point(c1: Circle, c2: Circle, tol: float = TANGENCY_TOL) -> Point:
    """The unique common point of two tangent circles."""
    res = tangency_residual(c1, c2)
    if res >= tol:
        raise NotTangentError(f"tangency residual {res:.3g} exceeds {tol:.3g}")
    if c1.is_line and c2.is_line:
        raise NotTangentError("parallel lines touch only at infinity")
    if c1.is_line or c2.is_line:
        line, circ = (c1, c2) if c1.is_line else (c2, c1)
        x, y = circ.center
        s = line.wx * x + line.wy * y - line.offset
        return (x - s * line.wx, y - s * line.wy)
    b1, b2 = c1.curv, c2.curv
    if b1 + b2 == 0:
        raise NotTangentError("opposite curvatures cannot be tangent")
    x1, y1 = c1.center
    x2, y2 = c2.center
    return ((b1 * x1 + b2 * x2) / (b1 + b2), (b1 * y1 + b2 * y2) / (b1 + b2))


def _line_through(p: Point, q: Point) -> Circle:
    """The line through two distinct points, its unit normal oriented so that
    nx > 0, or ny > 0 when nx = 0."""
    (ax, ay), (bx, by) = p, q
    nx, ny = ay - by, bx - ax  # normal to the direction p -> q
    n = math.hypot(nx, ny)
    if n == 0:
        raise ValueError("coincident points define no line")
    nx, ny = nx / n, ny / n
    if nx < 0 or (nx == 0 and ny < 0):
        nx, ny = -nx, -ny
    return Circle.line((nx, ny), nx * ax + ny * ay)


def _circumcircle(p1: Point, p2: Point, p3: Point) -> Circle:
    """Circle (or line, when collinear) through three points."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(bx - ax), abs(by - ay), abs(cx - ax), abs(cy - ay), 1e-300)
    if abs(d) < 1e-9 * scale * scale:
        return _line_through(p1, p2)
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return Circle.from_center_radius((ux, uy), math.hypot(ax - ux, ay - uy))


def dual_circles(seed: list[Circle], tol: float = TANGENCY_TOL) -> list[Circle]:
    """For four mutually tangent circles, the circle through the three
    tangency points not involving circle i, for each i.

    Each dual meets its three corresponding seed circles orthogonally and
    inverting in it swaps circle i with the second solution of the tangency
    problem, which is how a packing is generated geometrically.  Collinear
    tangency points give a line.
    """
    if len(seed) != 4:
        raise ValueError("a seed is four mutually tangent circles")
    return [
        _dual_through_tangencies([seed[j] for j in range(4) if j != i], tol=tol)
        for i in range(4)
    ]


def _dual_through_tangencies(kept: list[Circle], tol: float) -> Circle:
    """Circle through the three pairwise tangency points of three mutually
    tangent circles; a pair of parallel lines contributes the point at
    infinity, making the dual a line."""
    pts: list[Point | None] = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if kept[a].is_line and kept[b].is_line:
            pts.append(None)  # parallel lines touch at infinity
        else:
            pts.append(tangency_point(kept[a], kept[b], tol=tol))
    finite = [p for p in pts if p is not None]
    if len(finite) == 3:
        return _circumcircle(*finite)
    if len(finite) == 2:
        # circle through the point at infinity: the line through the two
        # finite tangency points
        return _line_through(*finite)
    raise ValueError("more than one tangency at infinity")


@dataclass(frozen=True)
class SeedConfiguration:
    circles: tuple[Circle, Circle, Circle, Circle]
    duals: tuple[Circle, Circle, Circle, Circle]

    @staticmethod
    def from_circles(circles, tol: float = SEED_TANGENCY_TOL) -> "SeedConfiguration":
        circles = tuple(circles)
        if len(circles) != 4:
            raise ValueError("a seed is four mutually tangent circles")
        for i in range(4):
            for j in range(i + 1, 4):
                res = tangency_residual(circles[i], circles[j])
                if res >= tol:
                    raise NotTangentError(
                        f"seed circles {i},{j} have tangency residual {res:.3g}"
                    )
        duals = tuple(dual_circles(list(circles), tol=max(tol, TANGENCY_TOL)))
        return SeedConfiguration(circles, duals)

    def descartes_residual(self) -> float:
        """|Q(signed curvatures)| of the seed, scaled by max curvature^2."""
        bs = [c.curv for c in self.circles]
        s = sum(bs)
        q = 2.0 * sum(b * b for b in bs) - s * s
        scale = max(abs(b) for b in bs) ** 2
        return abs(q) / max(scale, 1.0)


def standard_seed() -> SeedConfiguration:
    """The bounded packing with curvatures (-1, 2, 2, 3): bounding unit
    circle, half-radius circles at (+-1/2, 0), third-radius circle at (0, 2/3)."""
    return seed_for_root((-1, 2, 2, 3))


def strip_seed() -> SeedConfiguration:
    """The strip packing with curvatures (0, 0, 1, 1): lines y=0 and y=2,
    unit circles at (0, 1) and (2, 1); one period is 0 <= x <= 2."""
    return seed_for_root((0, 0, 1, 1))


def seed_for_root(root) -> SeedConfiguration | None:
    """The seed placed by the root's exact embedding
    (``quadruples.KNOWN_EMBEDDINGS``) as floats, or None without one."""
    rows = embedding_for_root(root)
    if rows is None:
        return None
    return SeedConfiguration.from_circles(Circle(*map(float, row)) for row in rows)


def generate_packing_geometric(
    seed: SeedConfiguration,
    bound: float,
    region: Rect | None = None,
) -> list[Circle]:
    """All circles of the packing with |curvature| <= bound, generated by
    walking configurations of four mutually tangent circles.

    Each step replaces one circle of the current configuration by its image
    under inversion in the configuration's dual circle (the circle through
    the three tangency points of the other three), i.e. by the second
    solution of the tangency problem, a generation at a time.  Words never
    repeat the index just swapped, and a branch dies once its new circle
    exceeds the curvature bound, since curvatures never decrease along a
    branch, or once its dual circle, oriented toward the new circle, misses
    the ``region`` rectangle (``region.branch_alive``).  Only circles that
    ``region.meets`` are returned; unbounded (strip) packings need a region.

    Every reduced word contributes one circle and distinct words give
    distinct circles; rounded inversive coordinates are used as a safety net,
    raising DedupCollisionError if two emitted circles collide.
    """
    proper_seed = [c for c in seed.circles if not c.is_line]
    if proper_seed and bound < min(c.unsigned_curvature for c in proper_seed):
        raise ValueError("bound is below every seed curvature")
    if region is not None:
        region = check_rect(region)
    elif any(c.is_line for c in seed.circles):
        raise ValueError("unbounded packing: a region rectangle is required")

    out = [c for c in seed.circles if c.unsigned_curvature <= bound + 1e-9]
    frontier: list[tuple[tuple[Circle, ...], int]] = [(tuple(seed.circles), -1)]
    # inversive arithmetic drifts by ~1e-10 relative per generation; admit
    # boundary circles with a curvature-scaled tolerance
    bound_cut = bound * (1 + 1e-9) + 1e-9
    while frontier:
        children = []  # (configuration, swapped index, new circle, dual)
        for cfg, last in frontier:
            for i in range(4):
                if i == last:
                    continue
                kept = [cfg[j] for j in range(4) if j != i]
                dual = _dual_through_tangencies(kept, tol=WALK_TANGENCY_TOL)
                newc = invert_circle(dual, cfg[i])
                if newc.unsigned_curvature > bound_cut:
                    continue
                if region is not None and inversive_product(newc, dual) < 0:
                    # the branch stays in the dual's interior on newc's side
                    dual = Circle(-dual.cocurv, -dual.curv, -dual.wx, -dual.wy)
                children.append((cfg, i, newc, dual))
        if region is not None:
            alive = branch_alive(_rows([dual for *_, dual in children]), region)
            children = [child for child, ok in zip(children, alive) if ok]
        out.extend(newc for _, _, newc, _ in children)
        frontier = [(cfg[:i] + (newc,) + cfg[i + 1 :], i) for cfg, i, newc, _ in children]

    if region is not None:
        inside = meets(_rows(out), region)
        out = [c for c, ok in zip(out, inside) if ok]
    out.sort(key=lambda c: (c.unsigned_curvature, _sort_center(c)))
    _check_collisions(out)
    return out


def _check_collisions(circles: list[Circle]) -> None:
    """Raise DedupCollisionError if two circles agree in every inversive
    coordinate rounded to DEDUP_DECIMALS decimals."""
    keys = np.round(_rows(circles) * 10.0**DEDUP_DECIMALS)
    keys, counts = np.unique(keys, axis=0, return_counts=True)
    if (counts > 1).any():
        raise DedupCollisionError(
            f"two circles share the dedup key {keys[counts > 1][0].tolist()}; the "
            f"reduced-word walk emitted a duplicate or the tolerance is too coarse"
        )


def _rows(circles) -> np.ndarray:
    """The (n, 4) float inversive rows of the circles."""
    return np.array(
        [(c.cocurv, c.curv, c.wx, c.wy) for c in circles], dtype=float
    ).reshape(-1, 4)


def _sort_center(c: Circle) -> tuple[float, float]:
    if c.is_line:
        return (c.wx, c.wy)
    return c.center


def circles_from_rows(rows: np.ndarray) -> list[Circle]:
    """Circles from an array of exact inversive rows (as produced by the
    quadruple engine's embedding mode)."""
    return [Circle(float(a), float(b), float(c), float(d)) for a, b, c, d in rows]
