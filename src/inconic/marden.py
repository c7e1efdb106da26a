"""Conics tangent to a triangle's side lines: the per-triangle oracle.

The zeros of t1/(z - z1) + t2/(z - z2) + t3/(z - z3) with t1 + t2 + t3 = 1
are the foci of a conic tangent to the three lines through the triangle's
sides; a positive weight product t1*t2*t3 makes it an ellipse, contacting
side zj-zk at the weighted average (tj*zk + tk*zj)/(tj + tk).  Points in the
plane are identified with complex numbers throughout.

For a triangle ABC and a center P off the side lines, the conic tangent to
the three side lines centered at P has area
4*pi/area(ABC) * sqrt(sigma (sigma-alpha)(sigma-beta)(sigma-gamma)) with
alpha, beta, gamma the unsigned sub-triangle areas and sigma their
half-sum — a Heron-like product that is labeling-invariant and covers
exterior centers without a branch.
"""
from __future__ import annotations

import cmath
import math

from .errors import (
    AsymptoteContact,
    DegenerateFoci,
    DegenerateTriangle,
    NoRealEllipse,
    NotAnEllipse,
    NumericalFailure,
)
from .geometry import EllipseGeo, Line, Point, _Value
from .oracle import (
    WeightTriple,
    _focal_coefficients,
    conic_from_ellipse,
    ellipse_from_foci_point,
    tangency_residual,
)


def stable_quadratic_roots(root_sum: complex, root_product: complex) -> tuple[complex, complex]:
    """Roots of z^2 - root_sum*z + root_product without subtractive cancellation.

    The discriminant square root is sign-matched against the linear
    coefficient, and the second root is recovered from the product.
    """
    disc = root_sum * root_sum - 4 * root_product
    sq = cmath.sqrt(disc)
    if (root_sum.real * sq.real + root_sum.imag * sq.imag) < 0:
        sq = -sq
    r1 = (root_sum + sq) / 2
    if r1 == 0:
        return (0j, root_sum)
    return (r1, root_product / r1)


class TriangleZ(_Value):
    """Triangle given by three complex vertices; must not be collinear."""
    __slots__ = ("z1", "z2", "z3")

    def __init__(self, z1: complex, z2: complex, z3: complex):
        for z in (z1, z2, z3):
            if not cmath.isfinite(complex(z)):
                raise ValueError("triangle vertices must be finite")
        self._fill((z1, z2, z3))
        if abs(self.signed_area()) <= 1e-14 * max(1.0, self._scale() ** 2):
            raise ValueError("triangle vertices are collinear")

    def _scale(self) -> float:
        return max(abs(self.z1), abs(self.z2), abs(self.z3))

    def signed_area(self) -> float:
        u = self.z2 - self.z1
        v = self.z3 - self.z1
        return (u.real * v.imag - u.imag * v.real) / 2

    def side_lines(self) -> tuple[Line, Line, Line]:
        """Lines through sides (z2z3, z1z3, z1z2) — indexed opposite each vertex."""
        def line(p: complex, q: complex) -> Line:
            return Line.from_points(Point(p.real, p.imag), Point(q.real, q.imag))
        return (line(self.z2, self.z3), line(self.z1, self.z3), line(self.z1, self.z2))


def foci_from_weights(tri: TriangleZ, w: WeightTriple) -> tuple[complex, complex]:
    """Both zeros of t1(z-z2)(z-z3) + t2(z-z1)(z-z3) + t3(z-z1)(z-z2).

    The weights sum to 1 by construction, so the numerator is monic of
    degree exactly 2; the zeros are returned as an unordered pair (sorted
    lexicographically for reproducibility).
    """
    lead = float(w.t1 + w.t2 + w.t3)
    if abs(lead - 1.0) > 1e-9:
        raise DegenerateFoci("weights do not sum to 1")
    r1, r2 = stable_quadratic_roots(*_focal_coefficients(
        complex(tri.z1), complex(tri.z2), complex(tri.z3),
        complex(w.t1), complex(w.t2), complex(w.t3)))
    if (r1.real, r1.imag) > (r2.real, r2.imag):
        r1, r2 = r2, r1
    return r1, r2


def marden_validity(w: WeightTriple) -> bool:
    """True iff t1*t2*t3 > 0 strictly, i.e. the tangent conic is an ellipse."""
    return w.product > 0


def tangent_points(tri: TriangleZ, w: WeightTriple) -> tuple[complex, complex, complex]:
    """Contact points on the side lines, in order (side z2z3, z1z3, z1z2).

    Raises AsymptoteContact when some pairwise weight sum vanishes,
    |ti + tj| <= 1e-12 (|ti| + |tj|): the contact point escapes to infinity
    and the conic is tangent to that side line along an asymptote.
    """
    z1, z2, z3 = complex(tri.z1), complex(tri.z2), complex(tri.z3)
    t1, t2, t3 = (float(v) for v in w.as_tuple())
    pairs = ((t2, z3, t3, z2), (t1, z3, t3, z1), (t1, z2, t2, z1))
    out = []
    for ti, zj, tj, zi in pairs:
        denom = ti + tj
        if abs(denom) <= 1e-12 * (abs(ti) + abs(tj)) or denom == 0:
            raise AsymptoteContact("pairwise weight sum vanishes; contact at infinity")
        out.append((ti * zj + tj * zi) / denom)
    return tuple(out)


def marden_ellipse(tri: TriangleZ, w: WeightTriple) -> EllipseGeo:
    """Ellipse with the partial-fraction zeros as foci, tangent to all three
    side lines of the triangle, each to a residual below 1e-8."""
    if not marden_validity(w):
        raise NotAnEllipse("weight product is not positive")
    f1, f2 = foci_from_weights(tri, w)
    contacts = tangent_points(tri, w)
    ellipse = ellipse_from_foci_point(
        Point(f1.real, f1.imag), Point(f2.real, f2.imag),
        Point(contacts[0].real, contacts[0].imag))
    conic = conic_from_ellipse(ellipse)
    for line in tri.side_lines():
        if tangency_residual(conic, line) >= 1e-8:
            raise NumericalFailure("constructed ellipse misses a side-line tangency")
    return ellipse


class AreaTriple(_Value):
    """Unsigned sub-triangle areas around a center, with their half-sum."""
    __slots__ = ("alpha", "beta", "gamma", "sigma")

    def __init__(self, alpha: float, beta: float, gamma: float):
        if min(alpha, beta, gamma) < 0:
            raise ValueError("sub-triangle areas are unsigned")
        self._fill((alpha, beta, gamma, (alpha + beta + gamma) / 2))

    @property
    def product(self) -> float:
        s = self.sigma
        return s * (s - self.alpha) * (s - self.beta) * (s - self.gamma)

    @property
    def is_real(self) -> bool:
        return self.product >= 0


def _tri_area(a: Point, b: Point, c: Point) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2


def triangle_tangent_ellipse_area(a: Point, b: Point, c: Point, p: Point) -> float:
    """Area of the conic tangent to the three side lines centered at p.

    p may be inside or outside the triangle but not on a side line; a
    negative Heron-like product means no real tangent ellipse has that
    center and raises NoRealEllipse.
    """
    scale = max(1.0, *(abs(v) for q in (a, b, c, p) for v in (q.x, q.y)))
    area_abc = _tri_area(a, b, c)
    if area_abc <= 1e-14 * scale * scale:
        raise DegenerateTriangle("triangle vertices are collinear")
    for u, v in ((a, b), (b, c), (c, a)):
        if abs(Line.from_points(u, v).eval(p)) <= 1e-12 * scale:
            raise DegenerateTriangle("center lies on a side line")
    triple = AreaTriple(_tri_area(b, p, c), _tri_area(c, p, a), _tri_area(a, p, b))
    if triple.product < 0:
        raise NoRealEllipse("no real tangent ellipse is centered there")
    return 4 * math.pi / area_abc * math.sqrt(triple.product)
