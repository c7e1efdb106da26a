"""Conic tools and the paper's focal route, for the oracles, ``verify`` and
the tests; no construction calls them (it reads everything off D(h), see
``inscribed``).

The conic tools classify conics, convert between implicit and metric
ellipses, measure tangency and map conics and lines.  The focal route is
the weights of a center in the two side-line triangles, the center line,
and ``foci_quadratic`` with its check of both triangles' focal numerators,
written once in ``_focal_coefficients``, which ``marden`` solves too.  The
package loads this module on first use, so a command-line process compiles
it only for ``verify``; its table ``_LEFT_FOR_ORACLE`` still resolves the
names that moved here at the module paths the benchmark's tracer wraps.
"""
from __future__ import annotations

import math

from .errors import DegeneratePoint, NotAnEllipse, NotTangent, NumericalFailure
from .geometry import (
    DEFAULT_TOL,
    AffineMap,
    Conic,
    ConicClass,
    EllipseGeo,
    HomPoint,
    Line,
    Point,
    Tolerances,
    _central_conic,
    _metric_ellipse,
    _norm_angle,
    _ordered_foci,
    _pull_back_form,
    _Value,
    midpoint,
)
from .inscribed import _VERTICAL, NormalForm, _dual_entries, _param_in_interval


# --------------------------------------------------------------------------
# Conic tools
# --------------------------------------------------------------------------

def conic_distance(c1: Conic, c2: Conic) -> float:
    """Distance between canonical forms, invariant to the leading-sign flip."""
    a1, b1, cc1, d1, e1, f1 = c1.a, c1.b, c1.c, c1.d, c1.e, c1.f
    a2, b2, cc2, d2, e2, f2 = c2.a, c2.b, c2.c, c2.d, c2.e, c2.f
    # the Frobenius norm of the matrix difference: b, d and e are twice its entries
    da, db, dc, dd, de, df = a1 - a2, b1 - b2, cc1 - cc2, d1 - d2, e1 - e2, f1 - f2
    minus = da * da + 0.5 * (db * db) + dc * dc + 0.5 * (dd * dd) + 0.5 * (de * de) + df * df
    da, db, dc, dd, de, df = a1 + a2, b1 + b2, cc1 + cc2, d1 + d2, e1 + e2, f1 + f2
    plus = da * da + 0.5 * (db * db) + dc * dc + 0.5 * (dd * dd) + 0.5 * (de * de) + df * df
    return math.sqrt(min(minus, plus))


def adjugate3(m) -> tuple[tuple[float, float, float], ...]:
    """Transposed cofactor matrix of a 3x3 matrix given as three rows."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return ((m11 * m22 - m12 * m21, m02 * m21 - m01 * m22, m01 * m12 - m02 * m11),
            (m12 * m20 - m10 * m22, m00 * m22 - m02 * m20, m02 * m10 - m00 * m12),
            (m10 * m21 - m11 * m20, m01 * m20 - m00 * m21, m00 * m11 - m01 * m10))


def _adjugate6(c: Conic) -> tuple[float, float, float, float, float, float]:
    """Entries (A00, A11, A22, A01, A02, A12) of the symmetric adjugate of
    the conic's matrix [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, f]], from
    the six coefficients in closed form."""
    p, q, r = c.a, c.b / 2, c.c
    u, v, w = c.d / 2, c.e / 2, c.f
    return (r * w - v * v, p * w - u * u, p * r - q * q,
            u * v - q * w, q * v - u * r, q * u - p * v)


def classify_conic(c: Conic) -> ConicClass:
    """Classify by the sign of b^2 - 4ac and rank tests (canonical scale).

    Central conics are ranked through det(M) = det33 * F(center), which
    stays accurate for eccentric conics far from the origin where the raw
    3x3 determinant cancels.  Each quantity is judged against 1e-10 times
    the size of its own terms: ac - b^2/4 against |ac| + b^2/4, as
    ``Conic.center`` does, and F(center) against the sum of its terms'
    magnitudes.  Far from the origin F(center) is the small difference of
    terms some (offset/axis)^2 times its size, axis the smaller semi-axis,
    so the verdict holds while offset/axis stays below about 1e5, the
    inverse square root of 1e-10; beyond that a real conic reads as
    degenerate.
    """
    det33 = c.a * c.c - c.b * c.b / 4
    if abs(det33) <= 1e-10 * (abs(c.a * c.c) + c.b * c.b / 4):
        a00, _, _, a01, a02, _ = _adjugate6(c)
        terms = (c.a * a00, c.b / 2 * a01, c.d / 2 * a02)
        if abs(sum(terms)) <= 1e-10 * sum(map(abs, terms)):
            return ConicClass.DEGENERATE_LINES
        return ConicClass.PARABOLA
    ctr = c.center()
    x, y = ctr.x, ctr.y
    terms = (c.a * x * x, c.b * x * y, c.c * y * y, c.d * x, c.e * y, c.f)
    value = sum(terms)
    if abs(value) <= 1e-10 * sum(map(abs, terms)):
        return ConicClass.DEGENERATE_LINES
    if det33 > 0:
        if value * (c.a + c.c) < 0:
            return ConicClass.REAL_ELLIPSE
        return ConicClass.IMAGINARY_ELLIPSE
    return ConicClass.HYPERBOLA


def _axis_form(ux: float, uy: float, p: float, q: float) -> tuple[float, float, float]:
    """(q11, q12, q22) of Q = p u u^T + q v v^T, u = (ux, uy) a unit axis and
    v = (-uy, ux), so that (x-c)^T Q (x-c) = 1 is an ellipse (p, q > 0) or a
    hyperbola (p > 0 > q)."""
    return (ux * ux * p + uy * uy * q, ux * uy * (p - q), uy * uy * p + ux * ux * q)


def conic_from_ellipse(e: EllipseGeo) -> Conic:
    """Implicit form of the ellipse, canonically scaled."""
    return _central_conic(*_axis_form(math.cos(e.angle), math.sin(e.angle),
                                      1 / e.semi_major**2, 1 / e.semi_minor**2),
                          e.center.x, e.center.y)


def ellipse_from_conic(c: Conic) -> EllipseGeo:
    """Metric data of a real nondegenerate ellipse; inverse of
    conic_from_ellipse up to the canonical scale.

    Reads the center and the center value back from the six coefficients;
    the axes, angle and foci then come from ``_metric_ellipse``.
    """
    if classify_conic(c) is not ConicClass.REAL_ELLIPSE:
        raise NotAnEllipse("conic does not classify as a real ellipse")
    center = c.center()
    # the canonical sign rule makes the block positive definite and the
    # center value negative for real ellipses
    p, q, r = c.a, c.b / 2, c.c
    return _metric_ellipse(p, q, r, p * r - q * q, -c.evaluate(center.x, center.y), center)


def transform_conic(c: Conic, t: AffineMap) -> Conic:
    """Conic whose zero set is the image of c's zero set under t.

    With G = t^-1 = (L, g), the image matrix G3^T M G3 is written out:
    quadratic part L^T Q L, linear part L^T (Q g + l) and constant
    g.(Q g + l) + l.g + f, where M = [[Q, l], [l^T, f]].
    """
    g = t.inverse()
    p, q, r, lx, ly = c.a, c.b / 2, c.c, c.d / 2, c.e / 2
    wx = p * g.tx + q * g.ty + lx
    wy = q * g.tx + r * g.ty + ly
    q11, q12, q22 = _pull_back_form(p, q, r, g.m11, g.m12, g.m21, g.m22)
    return Conic(q11, 2 * q12, q22,
                 2 * (g.m11 * wx + g.m21 * wy), 2 * (g.m12 * wx + g.m22 * wy),
                 g.tx * wx + g.ty * wy + lx * g.tx + ly * g.ty + c.f)


def transform_line(l: Line, t: AffineMap) -> Line:
    """Line through the image of l's points under t.

    With G = t^-1 = (L, g), the image line is l read through G, written out
    as G3^T l: coefficients L^T (a, b) and constant (a, b).g + c.
    """
    g = t.inverse()
    return Line(l.a * g.m11 + l.b * g.m21, l.a * g.m12 + l.b * g.m22,
                l.a * g.tx + l.b * g.ty + l.c)


def _residual_and_pole(c: Conic, l: Line) -> tuple[float, tuple[float, float, float]]:
    """Tangency residual of l and its pole adj(M) l, from one adjugate."""
    a00, a11, a22, a01, a02, a12 = _adjugate6(c)
    la, lb, lc = l.a, l.b, l.c
    px = a00 * la + a01 * lb + a02 * lc
    py = a01 * la + a11 * lb + a12 * lc
    pw = a02 * la + a12 * lb + a22 * lc
    norm = math.sqrt(a00 * a00 + a11 * a11 + a22 * a22
                     + 2 * (a01 * a01 + a02 * a02 + a12 * a12))
    if not 0 < norm < math.inf:  # the squares left the float range
        norm = math.hypot(a00, a11, a22, *(math.sqrt(2) * a for a in (a01, a02, a12)))
    return abs(la * px + lb * py + lc * pw) / norm, (px, py, pw)


def tangency_residual(c: Conic, l: Line) -> float:
    """|l^T adj(M) l| / ||adj(M)||_F; zero iff l is tangent to the conic
    (asymptotes of hyperbolas count as tangent at infinity).  The symmetric
    adjugate comes in closed form from the six coefficients."""
    return _residual_and_pole(c, l)[0]


def tangency_point(c: Conic, l: Line) -> HomPoint:
    """Contact point of a tangent line, as the pole of l; w = 0 at infinity.
    Raises NotTangent when the tangency residual reaches 1e-8."""
    residual, p = _residual_and_pole(c, l)
    if residual >= 1e-8:
        raise NotTangent("line is not tangent to the conic")
    return HomPoint(*p).dehomogenized()


def ellipse_from_foci_point(f1: Point, f2: Point, p: Point) -> EllipseGeo:
    """Ellipse with the given foci passing through p.

    The point determines the distance sum 2a; p on the closed focal segment
    leaves no ellipse and raises DegeneratePoint.  Coincident foci give a
    circle with angle 0 by convention.  Both thresholds are relative to a,
    so the verdicts do not depend on the unit of the coordinates.
    """
    d1 = math.hypot(p.x - f1.x, p.y - f1.y)
    d2 = math.hypot(p.x - f2.x, p.y - f2.y)
    a = (d1 + d2) / 2
    cdist = math.hypot(f2.x - f1.x, f2.y - f1.y) / 2
    if a - cdist <= 1e-12 * a:
        raise DegeneratePoint("point lies on the closed focal segment")
    b = math.sqrt(a * a - cdist * cdist)
    if cdist < 1e-12 * a:
        angle = 0.0
    else:
        angle = _norm_angle(math.atan2(f2.y - f1.y, f2.x - f1.x))
    f1o, f2o = _ordered_foci(f1, f2)
    return EllipseGeo(midpoint(f1, f2), a, b, angle, f1o, f2o)


# --------------------------------------------------------------------------
# The focal route of the paper
# --------------------------------------------------------------------------

class WeightTriple(_Value):
    """Weights (t1, t2, t3) summing to 1; t3 is always stored as 1 - t1 - t2.

    No coercion is applied, so exact number types (fractions.Fraction)
    flow through product and validity checks unchanged.
    """
    __slots__ = ("t1", "t2", "t3")

    def __init__(self, t1: float, t2: float):
        self._fill((t1, t2, 1 - t1 - t2))

    def as_tuple(self):
        return (self.t1, self.t2, self.t3)

    @property
    def product(self):
        return self.t1 * self.t2 * self.t3


class LocusLine(_Value):
    """Center line y = slope*x + intercept over the open interval of h."""
    __slots__ = ("slope", "intercept", "interval")

    def __init__(self, slope: float, intercept: float, interval: tuple[float, float]):
        self._fill((slope, intercept, interval))

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept


def locus_line(nf: NormalForm, tol: Tolerances = DEFAULT_TOL) -> LocusLine:
    """Normalized-frame center line y = (s - t + 2x(t-1)) / (2(s-1)).

    Passes through both diagonal midpoints (1/2, 1/2) and (s/2, t/2).
    Requires s != 1: otherwise the line is vertical and this slope form
    does not exist.  ``normalize`` keeps |s-1| away from zero, so only a
    quadrilateral that is numerically a parallelogram in both labelings
    reaches the guard, which raises NumericalFailure.
    """
    s, t = nf.s, nf.t
    if abs(s - 1) <= tol.tol_par:
        raise NumericalFailure(_VERTICAL)
    return LocusLine((t - 1) / (s - 1), (s - t) / (2 * (s - 1)), nf.interval)


def weights_from_center(nf: NormalForm, h,
                        tol: Tolerances = DEFAULT_TOL) -> tuple[WeightTriple, WeightTriple]:
    """Weight triples of the two side-line triangles for the center (h, L(h)).

    Closed forms t1 = (2h-s)/t, t2 = 1-2h and s1 = (t-1)(2h-s)/(s(s-1)),
    s2 = (t-1)(1-2h)/(s-1); both products are strictly positive on the open
    interval.  Exact number types pass through unchanged.
    """
    _param_in_interval(*nf.interval, h, tol)
    return _weights(nf, h)


def _weights(nf: NormalForm, h) -> tuple[WeightTriple, WeightTriple]:
    s, t = nf.s, nf.t
    wt = WeightTriple((2 * h - s) / t, 1 - 2 * h)
    ws = WeightTriple((t - 1) * (2 * h - s) / (s * (s - 1)),
                      (t - 1) * (1 - 2 * h) / (s - 1))
    return wt, ws


def foci_quadratic(nf: NormalForm, h, tol: Tolerances = DEFAULT_TOL) -> tuple[complex, complex]:
    """(root sum, root product) of the shared monic focal quadratic
    z^2 - 2(h + i L(h)) z + i (s - 2h)/(s - 1).

    Holds along the whole center line: the roots are the foci of the
    inscribed ellipse between the diagonal midpoints, of the tangent
    hyperbola beyond them.  Both coefficients are read off D(h)
    (``_dual_entries``): the root sum is 2(h + ik) and the root product
    2ic.  After ``locus_line``'s s = 1 guard, the weights of the center
    are checked to reduce the side-line triangles' focal numerators to
    that form (``_check_focal_form``); the construction runs neither.
    """
    s, t = nf.s, nf.t
    if abs(s - 1) <= tol.tol_par:
        raise NumericalFailure(_VERTICAL)
    c, k, _ = _dual_entries(s, t, h)
    _check_focal_form(s, t, h, k, *_weights(nf, h), tol)
    return complex(2 * h, 2 * k), 2j * c


def _focal_coefficients(z1, z2, z3, w1, w2, w3):
    """(root sum, root product) of the focal numerator of the triangle
    (z1, z2, z3) under weights summing to 1, w1(z-z2)(z-z3) +
    w2(z-z1)(z-z3) + w3(z-z1)(z-z2); exact and symbolic types pass through."""
    return (w1 * (z2 + z3) + w2 * (z1 + z3) + w3 * (z1 + z2),
            w1 * z2 * z3 + w2 * z1 * z3 + w3 * z1 * z2)


def _check_focal_form(s, t, h, k, wt: WeightTriple, ws: WeightTriple,
                      tol: Tolerances) -> None:
    """Check within 1e-10 that the focal numerators of the side-line
    triangles (0, 1, -it/(s-1)) under wt and (0, i, -s/(t-1)) under ws
    have root sum 2(h + ik) and root product i(s - 2h)/(s - 1): always for
    the first triangle, and for the second only when |t - 1| > tol_par
    (with one parallel side pair it does not exist).  k is L(h) and s != 1.
    """
    root_sum, root_product = complex(2 * h, 2 * k), complex(0, (s - 2 * h) / (s - 1))
    sum_bound = 1e-10 * max(1.0, abs(root_sum))
    product_bound = 1e-10 * max(1.0, abs(root_product))
    triangles = [((0, 1, complex(0, -t / (s - 1))), wt)]
    if abs(t - 1) > tol.tol_par:
        triangles.append(((0, 1j, -s / (t - 1)), ws))
    for vertices, w in triangles:
        got_sum, got_product = _focal_coefficients(*vertices, *w.as_tuple())
        if abs(got_sum - root_sum) > sum_bound or abs(got_product - root_product) > product_bound:
            raise NumericalFailure("focal numerators disagree with the monic form")
