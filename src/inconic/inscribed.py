"""Inscribed conics of a convex quadrilateral.

The centers of ellipses inscribed in a convex quadrilateral p0 p1 p2 p3
fill the open segment between the midpoints M02 of p0p2 and M13 of p1p3,
and for every such center the inscribed ellipse is unique.  In
homogeneous coordinates the conics tangent to the four side lines are the
dual conics of the pencil spanned by the two diagonals,
D(lam) = lam A + (1 - lam) B with A = p0 p2^T + p2 p0^T and
B = p1 p3^T + p3 p1^T, and D(lam) is centered at
m = lam M02 + (1 - lam) M13: lam is the center's abscissa on the line
through the midpoints, the locus is 0 < lam < 1, and the members beyond
it, on the chord the quadrilateral cuts from that line, are the tangent
hyperbolas.  Every construction reads its conic off one D(lam) and four
doubled triangle areas Aijk of pi pj pk, with no root solved and no
division by a frame's s - 1.  The contact on side p0p1, the pole of the
side, is (lam A012 p0 + (1 - lam) A013 p1) / (lam A012 + (1 - lam) A013),
and each other side's is the same combination of its own ends (a positive
one for an ellipse).  The shape P = m m^T - D2/2, D2 the 2x2 block of D
(whose corner entry is 2), puts the conic at (x - m)^T P^-1 (x - m) = 1,
and det P = lam (1 - lam) (lam A012 A023 + (1 - lam) A013 A123) / 4
keeps the minor axis to full relative precision up to the ends of the
locus.  On the worked quad (0,0), (1,0), (3,2), (0,1) the areas are
A012 = 2, A013 = 1, A023 = 3 and A123 = 4, and at u = 1/2 (lam = 1/2)
the contacts on its first two sides are (1/3, 0) and (5/3, 2/3).

A quad derives these quantities once, with its vertices translated to p0
and scaled by a power of two to unit size, and stores them as one record
(``_pencil``), so every construction works at unit scale and its outputs
scale exactly with the quad.  The paper's affine normal form, vertices at
(0,0), (1,0), (s,t), (0,1), is ``normalize``: ``inspect`` prints it, the
oracles build the paper's focal quadratic in it and ``max_area`` reports
its abscissa; the construction does not use it.  tests/test_certificate.py
proves the identities the construction reads.
"""
from __future__ import annotations

import math

from .errors import (
    CenterOffLocus,
    DegenerateAtMidpoint,
    DegeneratePoint,
    NotAnEllipse,
    NotTangent,
    NumericalFailure,
    ParallelogramUnsupported,
)
from .geometry import (
    DEFAULT_TOL,
    _SINGULAR,
    AffineMap,
    Conic,
    ConicClass,
    ConvexQuad,
    EllipseGeo,
    HomPoint,
    Point,
    QuadKind,
    Tolerances,
    _Value,
    _affine_det,
    _hom_w,
    _hom_x,
    _hom_y,
    _metric_ellipse,
    _set_conic,
    _slot_setters,
    _unit_direction,
    _unit_quad,
)

_ULP = 2.0 ** -52  # spacing of the floats in [1, 2)
_VERTICAL = "s = 1: center line is vertical in this labeling"
_NO_LINE = "the diagonal midpoints coincide: there is no center line"
_store_pencil = ConvexQuad._pencil.__set__


class NormalForm(_Value):
    """Affine change of frame onto vertices (0,0), (1,0), (s,t), (0,1),
    built on demand by ``normalize``.

    T(x) = M x + translation (``T`` as an AffineMap) maps the original
    frame to the normalized one; ``det`` = det M.  ``inverse`` holds T^-1
    as plain floats (b11, b12, b21, b22, x0, y0), T^-1(y) = B y + p0: B's
    columns are the edge vectors p1 - p0 and p3 - p0 and p0 is the vertex
    sent to (0,0).  ``labeling`` lists which canonical-quad vertex indices
    land on (0,0), (1,0), (s,t), (0,1); ``interval`` is the open interval
    of normalized abscissas swept by the center locus, (1/2, s/2) ordered.
    Convexity forces s > 0, t > 0, s + t > 1."""
    __slots__ = ("s", "t", "M", "translation", "inverse", "labeling", "interval", "det")

    def __init__(self, s: float, t: float, M: tuple[float, float, float, float],
                 translation: tuple[float, float],
                 inverse: tuple[float, float, float, float, float, float],
                 labeling: tuple[int, int, int, int]):
        if not (s > 0 and t > 0 and s + t > 1):
            raise ValueError("normal form requires s > 0, t > 0, s + t > 1")
        det = _affine_det(*M, *translation)
        interval = (0.5, s / 2) if 0.5 <= s / 2 else (s / 2, 0.5)
        self._fill((s, t, M, translation, inverse, labeling, interval, det))

    @property
    def T(self) -> AffineMap:
        return AffineMap(*self.M, *self.translation)


class LocusSegment(_Value):
    """Open segment of admissible ellipse centers (diagonal midpoints
    excluded); degenerate (a single point) exactly for parallelograms."""
    __slots__ = ("m1", "m2", "degenerate")

    def __init__(self, m1: Point, m2: Point, degenerate: bool = False):
        self._fill((m1, m2, degenerate))

    def point_at(self, u: float) -> Point:
        return Point(self.m1.x + u * (self.m2.x - self.m1.x),
                     self.m1.y + u * (self.m2.y - self.m1.y))

    def length(self) -> float:
        return math.hypot(self.m2.x - self.m1.x, self.m2.y - self.m1.y)


class ChordX(_Value):
    """Open chord cut from the center line by the quadrilateral's interior."""
    __slots__ = ("p_start", "p_end")

    def __init__(self, p_start: Point, p_end: Point):
        self._fill((p_start, p_end))

    def point_at(self, u: float) -> Point:
        return Point(self.p_start.x + u * (self.p_end.x - self.p_start.x),
                     self.p_start.y + u * (self.p_end.y - self.p_start.y))


class InscribedResult(_Value):
    """Inscribed ellipse with its conic and contact points."""
    __slots__ = ("ellipse", "conic", "tangencies")

    def __init__(self, ellipse: EllipseGeo, conic: Conic,
                 tangencies: tuple[HomPoint, HomPoint, HomPoint, HomPoint]):
        _result_ellipse(self, ellipse)
        _result_conic(self, conic)
        _result_tangencies(self, tangencies)


_result_ellipse, _result_conic, _result_tangencies = _slot_setters(InscribedResult)


def locus(q: ConvexQuad) -> LocusSegment:
    """Diagonal midpoints bounding the locus of inscribed-ellipse centers,
    ordered lexicographically."""
    ma, mb = _midpoint_pairs(q)
    m1, m2 = (mb, ma) if mb < ma else (ma, mb)
    return LocusSegment(Point(*m1), Point(*m2), degenerate=q.kind is QuadKind.PARALLELOGRAM)


def _midpoint_pairs(q: ConvexQuad) -> tuple[tuple[float, float], tuple[float, float]]:
    """The midpoints of the diagonals v0v2 and v1v3 of q, as float pairs."""
    v0, v1, v2, v3 = q.v0, q.v1, q.v2, q.v3
    return (((v0.x + v2.x) / 2, (v0.y + v2.y) / 2),
            ((v1.x + v3.x) / 2, (v1.y + v3.y) / 2))


def _pencil(q: ConvexQuad) -> tuple:
    """q's pencil record, derived on first use and stored in q's private
    ``_pencil`` slot for every later call (a derivation that raises is not
    stored); a parallelogram raises ParallelogramUnsupported, as its
    inscribed ellipses are not unique.  The unit-scale vertices, p0 = 0,
    areas Aijk and side-pair cross products d1, d2 are ``_unit_quad``'s.
    The record is (shape, sides, line, flip, turned, h02, h13):
    - ``shape``: v0, 2^e, e, v0/2^e, the powers of two the conic's
      quadratic, linear and constant coefficients take, p2, p1 + p3,
      ||B2||_F^2/4, the entries of p2 p2^T, (p1 - p3)(p1 - p3)^T and C over
      4 (see ``_construct``), the degenerate bound 1e-12 (alpha + beta),
      alpha = A012 A023 and beta = A013 A123;
    - ``sides``: per side, in ``side_lines``' order, its end on p0p2 with
      the area lam weights and its end on p1p3 with the area 1 - lam
      weights, and l^T D l = (1 - lam) g + gx mx + gy my + c2 for its unit
      line l = (a, b, c): g = l^T B2 l, (gx, gy) = 4c (a, b), c2 = 2c^2;
    - ``line``: v0, 2^-e, M13, M02, d = M02 - M13, |d|^2, the labeling's
      |d1| or |d2| (``_center_bound``), the chord's ends
      lo < 0 < 1 < hi and the locus length; None where the midpoints meet;
    - ``flip``: ``locus``' m1 is M02, so lam = 1 - u; else lam = u;
    - ``turned``: ``normalize``'s labeling starts at v1, of the two cyclic
      ones the one whose sides (1,0)-(s,t) and (0,1)-(0,0) are further from
      parallel (v0 on a tie); h02, h13 are the midpoints' abscissas there.
    """
    try:
        return q._pencil
    except AttributeError:
        pass
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("no unique inscribed ellipse and no center line")
    x0, y0 = q.v0.x, q.v0.y
    e, x1, y1, x2, y2, x3, y3, a012, a013, a023, a123, d1, d2 = _unit_quad(*q.vertices)
    if not -1021 <= e <= 1023:  # 2^e and 2^-e normal floats
        raise NumericalFailure("quadrilateral is out of float range")
    k, sc = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    alpha, beta = a012 * a023, a013 * a123
    if not (min(a012, a013, a023, a123) > 0 and alpha > 0 and beta > 0):
        raise NumericalFailure("triangle areas are not positive in floats")
    bxx, bxy, byy = x1 * x3, (x1 * y3 + x3 * y1) / 2, y1 * y3
    sides = []
    for ax, ay, wa, bx, by, wb in ((0.0, 0.0, a012, x1, y1, a013), (x2, y2, a012, x1, y1, a123),
                                   (x2, y2, a023, x3, y3, a123), (0.0, 0.0, a023, x3, y3, a013)):
        n = math.hypot(by - ay, ax - bx)
        a, b = (by - ay) / n, (ax - bx) / n
        c = -(a * ax + b * ay)
        sides.append((ax, ay, wa, bx, by, wb, 2 * (a * a * bxx + 2 * a * b * bxy + b * b * byy),
                      4 * c * a, 4 * c * b, 2 * c * c))
    turned = abs(d2) * math.hypot(d1, a012) > abs(d1) * math.hypot(d2, a123)
    m02x, m02y, m13x, m13y = x2 / 2, y2 / 2, (x1 + x3) / 2, (y1 + y3) / 2
    dx, dy = m02x - m13x, m02y - m13y
    dd, delta, line = dx * dx + dy * dy, abs(d2 if turned else d1), None
    if dd > 0 and delta > 0:
        # the line m13 + lam d crosses p1p2 and p3p0 (d1), p0p1 and p2p3
        # (d2): of each pair one below 0 and one above 1
        lo, hi = -math.inf, math.inf
        for d, ahead, behind in ((d1, a123, a013), (d2, a013, a123)):
            if d:
                cuts = ahead / d, -behind / d
                lo, hi = max(lo, min(cuts)), min(hi, max(cuts))
        line = (x0, y0, k, m13x, m13y, m02x, m02y, dx, dy, dd, delta, lo, hi, sc * math.sqrt(dd))
    # 4P = lam^2 p2 p2^T + mu^2 (p1 - p3)(p1 - p3)^T + lam mu C: no term
    # cancels as the ellipse flattens onto a diagonal, lam or mu -> 0
    ex, ey, sx, sy = x1 - x3, y1 - y3, x1 + x3, y1 + y3
    scales = (math.ldexp(1.0, -2 * e), k, 1.0) if e >= 0 else (1.0, sc, math.ldexp(1.0, 2 * e))
    shape = (x0, y0, sc, e, x0 * k, y0 * k, *scales, x2, y2, sx, sy,
             bxx * bxx + 2 * bxy * bxy + byy * byy,
             x2 * x2 / 4, x2 * y2 / 4, y2 * y2 / 4, ex * ex / 4, ex * ey / 4, ey * ey / 4,
             (x2 * sx - 2 * bxx) / 2, (x2 * sy + sx * y2) / 4 - bxy, (y2 * sy - 2 * byy) / 2,
             1e-12 * (alpha + beta), alpha, beta)
    h02, h13 = (0.5, a013 / a012 / 2) if turned else (a023 / a013 / 2, 0.5)
    ma, mb = _midpoint_pairs(q)
    record = (shape, tuple(sides), line, not mb < ma, turned, h02, h13)
    _store_pencil(q, record)
    return record


def normalize(q: ConvexQuad) -> NormalForm:
    """Affine normal form of a non-parallelogram quadrilateral, built on
    each call.

    Solves (s, t) for cyclic rotations 0 and 1 of the vertices and keeps
    the one the quad's pencil record chose (``_pencil``): the larger
    normalized-frame sine |s-1| / hypot(s-1, t), rotation 0 on a tie,
    judged on the record's triangle areas.  That keeps s - 1, which the
    frame's closed forms divide by, away from zero; a parallel side pair
    gets t = 1, since its other rotation has s = 1 and sine 0.  A
    parallelogram raises ParallelogramUnsupported: its inscribed ellipses
    are not unique.
    """
    turned = _pencil(q)[4]
    v0, v1 = q.v0, q.v1
    # both rotations are solved, so a singular basis in either raises; only
    # the kept one's T is built, after NormalForm's convexity check
    kept = _frame(v0, v1, q.v2, q.v3)
    other = _frame(v1, q.v2, q.v3, v0)
    if turned:
        kept, p0, labeling = other, v1, (1, 2, 3, 0)
    else:
        p0, labeling = v0, (0, 1, 2, 3)
    s, t, m, (b11, b12, b21, b22) = kept
    m11, m12, m21, m22 = m
    x0, y0 = p0.x, p0.y
    translation = (-(m11 * x0 + m12 * y0), -(m21 * x0 + m22 * y0))
    return NormalForm(s, t, m, translation, (b11, b12, b21, b22, x0, y0), labeling)


def _frame(p0: Point, p1: Point, p2: Point, p3: Point):
    """(s, t, M, B) of the frame sending p0, p1, p2, p3 to (0,0), (1,0),
    (s,t), (0,1): B = (b11, b12, b21, b22) holds the edge vectors p1 - p0
    and p3 - p0 as columns, M = B^-1.  (s, t) is solved from vertex
    differences, so it does not depend on where the quad sits.  A basis
    is singular as an AffineMap is; one whose products overflow, or all
    underflow to 0, is out of float range, not singular: a validated
    quad's edge vectors are never 0."""
    b11, b12 = p1.x - p0.x, p3.x - p0.x
    b21, b22 = p1.y - p0.y, p3.y - p0.y
    det = b11 * b22 - b12 * b21
    size = abs(b11 * b22) + abs(b12 * b21)
    if not 0 < size < math.inf:
        raise NumericalFailure("normalization basis is out of float range")
    if abs(det) <= _SINGULAR * size:
        raise NumericalFailure("normalization basis is singular")
    m11, m12 = b22 / det, -b12 / det
    m21, m22 = -b21 / det, b11 / det
    dx, dy = p2.x - p0.x, p2.y - p0.y
    s, t = m11 * dx + m12 * dy, m21 * dx + m22 * dy
    if not (s > 0 and t > 0 and s + t > 1):
        raise NumericalFailure("normal form violates convexity bounds")
    return s, t, (m11, m12, m21, m22), (b11, b12, b21, b22)


def _param_in_interval(lo: float, hi: float, h, tol: Tolerances) -> None:
    """Raise CenterOffLocus unless h is strictly inside the interval
    (lo, hi), tol_interval in from either end; an interval of zero width
    (s = 1) raises NumericalFailure(_VERTICAL)."""
    if lo == hi:
        raise NumericalFailure(_VERTICAL)
    u = (h - lo) / (hi - lo)
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"abscissa {h} outside the open interval ({lo}, {hi})")


def _construct(rec: tuple, lam: float, mu: float, tol: Tolerances, metric: bool = True):
    """The member D(lam) = lam A + mu B of the pencil record rec, mu = 1 - lam,
    in one plain-float pass at unit scale.

    With ``metric``, for the inscribed callers, which have put lam inside
    (0, 1), the pass goes on in the same frame to the ellipse's axes, angle
    and foci, read off adj(P) by ``_metric_ellipse`` and scaled by 2^e, and
    returns the InscribedResult.  Without it, for
    ``tangent_conic_at_center``, it returns before the metric form:
    (conic, classification, contacts, shape, center, det), with ``shape``
    = (p11, p12, p22) of P = m m^T - D2/2, ``det`` = det P at unit scale and
    ``center`` = m in the original frame.

    det P is taken as the product lam mu (lam alpha + mu beta)/4, and the
    contacts are indexed as ``ConvexQuad.side_lines``.  The class is read off
    lam: an ellipse for lam and mu both positive, a hyperbola otherwise.
    |det P| at most 1e-12 (alpha + beta), both sides scaling by det(M)^2
    under a map M, raises DegeneratePoint: the conic has collapsed onto its
    focal line.  P must be positive definite for an ellipse (else
    NotAnEllipse) and indefinite for a hyperbola (else NumericalFailure).
    The conic (x - m)^T adj(P) (x - m) = det P is formed at unit scale, and
    its coefficients then take powers of two that only shrink them.

    Each unit side line l must have |l^T D l| / ||D||_F, on D's entries,
    below tol_tan (else NotTangent).  Its contact, the pole D l, is
    (ra p + rb p') / (ra + rb) for its ends p on p0p2 and p' on p1p3, ra and
    rb lam and mu times the side's areas; it is at infinity, as the side's
    unit direction, when |ra + rb| is at most tol_infinity of the pole's
    norm, and a finite one is filled after HomPoint's finiteness test.
    """
    (x0, y0, sc, _, ox, oy, s2, s1, s0, x2, y2, bx, by, nb, a11, a12, a22, b11, b12, b22,
     c11, c12, c22, flat, alpha, beta) = rec[0]
    mx, my = (lam * x2 + mu * bx) / 2, (lam * y2 + mu * by) / 2
    ll, mm, lm = lam * lam, mu * mu, lam * mu
    p11, p12, p22 = (ll * a11 + mm * b11 + lm * c11, ll * a12 + mm * b12 + lm * c12,
                     ll * a22 + mm * b22 + lm * c22)
    det = lam * mu * (lam * alpha + mu * beta) / 4
    if abs(det) <= flat:
        raise DegeneratePoint("contact point lies on the focal line")
    is_ellipse = lam > 0 and mu > 0
    if is_ellipse and not (p11 > 0 and p11 * p22 - p12 * p12 > 0):
        raise NotAnEllipse("shape form is not positive definite")
    if not is_ellipse and not p11 * p22 - p12 * p12 < 0:
        raise NumericalFailure("hyperbola form is not indefinite")
    cx, cy = ox + mx, oy + my
    new = object.__new__
    conic = _set_conic(new(Conic), p22 * s2, -2 * p12 * s2, p11 * s2,
                       2 * (p12 * cy - p22 * cx) * s1, 2 * (p12 * cx - p11 * cy) * s1,
                       (p22 * cx * cx - 2 * p12 * cx * cy + p11 * cy * cy - det) * s0)

    tan_bound = 2 * tol.tol_tan * math.sqrt(mu * mu * nb + 2 * (mx * mx + my * my) + 1)
    infinity2 = tol.tol_infinity * tol.tol_infinity
    contacts = []
    append = contacts.append
    for ax, ay, wa, bx, by, wb, g, gx, gy, c2 in rec[1]:
        if abs(mu * g + gx * mx + gy * my + c2) >= tan_bound:
            raise NotTangent("side line is not tangent to the conic")
        ra, rb = lam * wa, mu * wb
        px, py, pw = ra * ax + rb * bx, ra * ay + rb * by, ra + rb
        if pw * pw <= infinity2 * (px * px + py * py + pw * pw):
            append(HomPoint(*_unit_direction(px, py), 0.0))
            continue
        x, y = x0 + sc * (px / pw), y0 + sc * (py / pw)
        if not x - x + y - y == 0.0:  # inf or nan in either gives nan
            raise ValueError("homogeneous components must be finite")
        contact = new(HomPoint)
        _hom_x(contact, x)
        _hom_y(contact, y)
        _hom_w(contact, 1.0)
        append(contact)
    if not metric:
        kind = ConicClass.REAL_ELLIPSE if is_ellipse else ConicClass.HYPERBOLA
        return conic, kind, tuple(contacts), (p11, p12, p22), (x0 + sc * mx, y0 + sc * my), det
    result = new(InscribedResult)
    _result_ellipse(result, _metric_ellipse(p22, -p12, p11, det, det,
                                            x0 + sc * mx, y0 + sc * my, sc))
    _result_conic(result, conic)
    _result_tangencies(result, tuple(contacts))
    return result


def _center_weights(rec: tuple, center: Point, tol: Tolerances) -> tuple[float, float]:
    """(lam, 1 - lam) of a caller's center: its projection onto the center
    line, each weight measured from its own midpoint so that neither
    cancels.  Raises CenterOffLocus unless the center is on the line to
    within ``_center_bound`` (checked against tol_on's part first, the
    cheaper one), and NumericalFailure where the midpoints coincide."""
    line = rec[2]
    if line is None:
        raise NumericalFailure(_NO_LINE)
    x0, y0, k, m13x, m13y, m02x, m02y, dx, dy, dd, delta, _, _, _ = line
    cx, cy = (center.x - x0) * k, (center.y - y0) * k
    rx, ry = cx - m13x, cy - m13y
    miss = abs(2 * (dx * ry - dy * rx))
    if miss > tol.tol_on * delta and miss > _center_bound(rec, center, tol):
        raise CenterOffLocus("center is not on the center line")
    return (rx * dx + ry * dy) / dd, ((m02x - cx) * dx + (m02y - cy) * dy) / dd


def _center_bound(rec: tuple, center: Point, tol: Tolerances) -> float:
    """Largest |2 d x (c - M13)| (record units) at which the center c
    counts as on the center line: tol_on |delta|, with delta the side-pair
    cross product d1 = A023 - A013 (d2 = A013 - A012 in the labeling that
    starts at v1), a vertical miss of tol_on in the unit-size normal frame,
    or 4 ulps of the terms that form that cross product from the center's
    coordinates, where that is more.  Both are ratios of areas or scale
    with the quad, so an affine copy of the quad and its center gets the
    same verdict at any scale and offset."""
    x0, y0, k, m13x, m13y, m02x, m02y, dx, dy, _, delta, _, _, _ = rec[2]
    rx, ry = (center.x - x0) * k - m13x, (center.y - y0) * k - m13y
    rounding = 4 * _ULP * (abs(dx) * ((abs(center.y) + abs(y0)) * k + abs(m13y))
                           + abs(dy) * ((abs(center.x) + abs(x0)) * k + abs(m13x))
                           + (abs(dx) + abs(m02x) + abs(m13x)) * abs(ry)
                           + (abs(dy) + abs(m02y) + abs(m13y)) * abs(rx))
    return max(tol.tol_on * delta, rounding)


def inscribe_at_center(q: ConvexQuad, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """The unique inscribed ellipse with the given center.

    The center is projected onto the line through the diagonal midpoints
    (``_center_weights``): it must lie on it to within tol_on, measured as
    in the normal frame, or the rounding of its own coordinates where that
    is more, and its abscissa lam must lie strictly inside (0, 1),
    tol_interval in from either end.  Both are ratios an affine map keeps,
    so the verdict does not depend on scale or place.  The carried center
    must land within 1e-6 of the locus length of the request, plus the
    rounding the guard allows.  A parallelogram raises ParallelogramUnsupported:
    four common tangent lines of two distinct concentric ellipses would
    form a parallelogram, so uniqueness fails there; a quad whose diagonal
    midpoints coincide to rounding, which a small tol_par lets through,
    raises NumericalFailure.  A side the conic misses raises NotTangent.
    """
    rec = _pencil(q)
    lam, mu = _center_weights(rec, center, tol)
    _param_in_interval(0.0, 1.0, lam, tol)
    result = _construct(rec, lam, mu, tol)
    got = result.ellipse.center
    # the carried center, the request's projection onto the line, may sit
    # 1e-6 of the locus length from it, plus the miss the guard lets
    # through (over |2d|, times 2^e) and 4 ulps of the terms that form it:
    # each scales with the quad, so a drift of a share of it always raises
    x0, y0, _, _, _, _, _, _, _, dd, _, _, _, length = rec[2]
    excess = math.hypot(got.x - center.x, got.y - center.y) - 1e-6 * length
    if excess > 0 and excess > (rec[0][2] * _center_bound(rec, center, tol) / (2 * math.sqrt(dd))
                                + 4 * _ULP * (abs(x0) + abs(y0) + abs(got.x - x0) + abs(got.y - y0))):
        raise NumericalFailure("inscribed conic center drifted from the request")
    return result


def inscribe_at_param(q: ConvexQuad, u: float,
                      tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """Inscribed ellipse at the locus point m1 + u*(m2 - m1), 0 < u < 1.

    u is the abscissa lam itself, or 1 - lam by the locus' orientation,
    so no point is built and rounded on the way; only u is checked.  The
    quad's stored pencil record is read here, and derived by ``_pencil``
    only on a quad's first construction.
    """
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"parameter {u} outside the open unit interval")
    try:
        rec = q._pencil
    except AttributeError:
        rec = _pencil(q)
    return _construct(rec, 1 - u, u, tol) if rec[3] else _construct(rec, u, 1 - u, tol)


def chord_x(q: ConvexQuad) -> ChordX:
    """Open chord cut by the quadrilateral's interior from the center line.

    Contains the locus segment strictly; its endpoints lie on the boundary.
    The ends are the record's abscissas lo and hi (``_pencil``), ratios of
    triangle areas, mapped out along the line, ``p_start`` on m1's side.
    No tolerance is read: a side line parallel to the center line has no
    crossing.  A quad whose midpoints coincide has no center line and
    raises NumericalFailure; a parallelogram's record raises.
    """
    rec = _pencil(q)
    if rec[2] is None:
        raise NumericalFailure(_NO_LINE)
    x0, y0, _, m13x, m13y, _, _, dx, dy, _, _, lo, hi, _ = rec[2]
    sc = rec[0][2]
    ends = [Point(x0 + sc * (m13x + lam * dx), y0 + sc * (m13y + lam * dy)) for lam in (lo, hi)]
    return ChordX(*reversed(ends)) if rec[3] else ChordX(*ends)


def tangent_conic_at_center(q: ConvexQuad, center: Point,
                            tol: Tolerances = DEFAULT_TOL):
    """Tangent conic for any admissible center on the interior chord.

    Returns (conic, classification, contact points).  Centers strictly
    between the diagonal midpoints give the inscribed ellipse; centers on
    the chord beyond them give a hyperbola tangent to all four side lines,
    where a tangency "at infinity" (contact point with w = 0) means the
    side line is an asymptote.  Both come from the pass over D(lam) of
    ``inscribe_at_center`` (``_construct``), which returns here before the
    metric form, and whose class is read off lam, not off the
    coefficients.  The midpoints themselves are degenerate members and
    are rejected with DegenerateAtMidpoint; a missed side raises
    NotTangent.  The guard reads the record: the center must be on
    the center line (``_center_weights``), its chord parameter
    (lam - lo)/(hi - lo) tol_interval in from either chord end, and lam
    more than tol_interval (hi - lo) from 0 and 1, the ratios along the
    chord an affine map keeps.
    """
    rec = _pencil(q)
    lam, mu = _center_weights(rec, center, tol)
    lo, hi = rec[2][11], rec[2][12]
    if not (tol.tol_interval < (lam - lo) / (hi - lo) < 1 - tol.tol_interval):
        raise CenterOffLocus("center is not strictly inside the chord")
    margin = tol.tol_interval * (hi - lo)
    if abs(lam) <= margin or abs(mu) <= margin:
        raise DegenerateAtMidpoint("center coincides with a diagonal midpoint")
    return _construct(rec, lam, mu, tol, False)[:3]
