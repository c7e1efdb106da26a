"""Shared fixtures: deterministic random quadrilateral generators."""
import math

import numpy as np
import pytest

from inconic import AffineMap, Conic, ConvexQuad, NormalForm, Point, QuadKind, validate_quad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _pair_crosses(points):
    dirs = []
    for i in range(4):
        p, q = points[i], points[(i + 1) % 4]
        dx, dy = q[0] - p[0], q[1] - p[1]
        n = math.hypot(dx, dy)
        dirs.append((dx / n, dy / n))
    return [abs(dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0])
            for i, j in ((0, 2), (1, 3))]


def random_convex_quad(rng) -> ConvexQuad:
    """Rejection-sample a strictly convex quadrilateral in [0, 10]^2."""
    while True:
        pts = rng.uniform(0.0, 10.0, size=(4, 2))
        center = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
        pts = [tuple(pts[i]) for i in order]
        try:
            return validate_quad(pts)
        except Exception:
            continue


def random_trapezium(rng, min_parallel=1e-3) -> ConvexQuad:
    """Convex quadrilateral with both opposite-side direction crosses above
    the margin (no nearly parallel sides)."""
    while True:
        q = random_convex_quad(rng)
        if q.kind is not QuadKind.TRAPEZIUM:
            continue
        if min(_pair_crosses([v.as_tuple() for v in q.vertices])) > min_parallel:
            return q


def normal_form(s, t, M=(1.0, 0.0, 0.0, 1.0), translation=(0.0, 0.0),
                inverse=(1.0, 0.0, 0.0, 1.0, 0.0, 0.0), labeling=(0, 1, 2, 3)) -> NormalForm:
    """A NormalForm built through its checked constructor, by default over
    the identity frame: the quad (0,0), (1,0), (s,t), (0,1) itself."""
    return NormalForm(s, t, M, translation, inverse, labeling)


def random_affine(rng, allow_reflection=True) -> AffineMap:
    """Random well-conditioned invertible affine map."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=4)
        det = m[0] * m[3] - m[1] * m[2]
        if abs(det) < 0.2:
            continue
        if not allow_reflection and det < 0:
            continue
        t = rng.uniform(-5.0, 5.0, size=2)
        return AffineMap(m[0], m[1], m[2], m[3], t[0], t[1])


def random_trapezoid(rng) -> ConvexQuad:
    """Exactly one parallel side pair: affine image of (0,0),(1,0),(s,1),(0,1)."""
    while True:
        s = rng.uniform(0.3, 3.0)
        if abs(s - 1) < 0.05:
            continue
        t_map = random_affine(rng)
        base = [(0.0, 0.0), (1.0, 0.0), (s, 1.0), (0.0, 1.0)]
        pts = [t_map.apply_xy(x, y) for x, y in base]
        q = validate_quad(pts)
        if q.kind is QuadKind.TRAPEZOID:
            return q


def transform_quad(q: ConvexQuad, t_map: AffineMap) -> ConvexQuad:
    return validate_quad([t_map.apply(v) for v in q.vertices])


def quad_s3t2() -> ConvexQuad:
    return validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])


def quad_s4t2() -> ConvexQuad:
    return validate_quad([(0, 0), (1, 0), (4, 2), (0, 1)])


def conic_matrix(c) -> np.ndarray:
    """Symmetric 3x3 matrix of a conic, for numpy formulas used as oracles."""
    return np.array([[c.a, c.b / 2, c.d / 2],
                     [c.b / 2, c.c, c.e / 2],
                     [c.d / 2, c.e / 2, c.f]])


def conic_from_matrix(m) -> Conic:
    m = (m + m.T) / 2
    return Conic(m[0, 0], 2 * m[0, 1], m[1, 1], 2 * m[0, 2], 2 * m[1, 2], m[2, 2])


def affine_matrix3(t: AffineMap) -> np.ndarray:
    return np.array([[t.m11, t.m12, t.tx],
                     [t.m21, t.m22, t.ty],
                     [0.0, 0.0, 1.0]])


def point_on_side_lines(q: ConvexQuad, p: Point, tol: float) -> bool:
    return any(abs(line.eval(p)) <= tol for line in q.side_lines())


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """outer after inner (function composition)."""
    return AffineMap(
        outer.m11 * inner.m11 + outer.m12 * inner.m21,
        outer.m11 * inner.m12 + outer.m12 * inner.m22,
        outer.m21 * inner.m11 + outer.m22 * inner.m21,
        outer.m21 * inner.m12 + outer.m22 * inner.m22,
        outer.m11 * inner.tx + outer.m12 * inner.ty + outer.tx,
        outer.m21 * inner.tx + outer.m22 * inner.ty + outer.ty,
    )


def contains_point(q: ConvexQuad, p: Point, slack: float = 0.0) -> bool:
    """Closed-quad test; positive slack admits near-boundary points."""
    v = q.vertices
    for i in range(4):
        a, b = v[i], v[(i + 1) % 4]
        if (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) < -slack:
            return False
    return True
