"""Inscribed conics of a convex quadrilateral.

The centers of ellipses inscribed in a convex quadrilateral fill the open
segment between the midpoints of its diagonals.  For every such center the
inscribed ellipse is unique and is built here in closed form: after an
affine change of frame putting the vertices p0..p3 at (0,0), (1,0), (s,t),
(0,1), the conics tangent to the four side lines are the dual conics
D(h) = (2h-1)(p0 p2^T + p2 p0^T) + (s-2h)(p1 p3^T + p3 p1^T), one for each
center (h, L(h)) on the center line.  That frame is one ``NormalForm``,
derived once per quad and stored on it; every construction reads its
fields by name.  Divided by 2(s-1) its entries are
short polynomials in (s, t, h), so one pass reads off the conic, its
center and its four contacts (the poles of the sides), with no root
solved.  The paper reaches the same conic through the focal quadratic
z^2 - 2(h + i*L(h)) z + i(s-2h)/(s-1) that the two triangles cut off by
the side lines share.  ``oracle.foci_quadratic`` reads its coefficients
off the same D(h) and checks that the weights of the center reduce the
triangles' focal numerators (``oracle._focal_coefficients``, which
``marden`` solves too) to that form; the construction needs neither, and
tests/test_certificate.py proves the identities between the two.  The
construction divides by s - 1 but never by t - 1, so it also serves
quadrilaterals with one parallel side pair (t = 1).  Centers on the chord
beyond the diagonal midpoints yield the tangent hyperbolas from the same
D(h): the determinant of its inverse form changes sign at the midpoints.
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
    _central_conic,
    _hom_w,
    _hom_x,
    _hom_y,
    _metric_ellipse,
    _pull_back_form,
    _slot_setters,
    _unit_direction,
)

_ULP = 2.0 ** -52  # spacing of the floats in [1, 2)
_VERTICAL = "s = 1: center line is vertical in this labeling"
_store_normal = ConvexQuad._normal.__set__


class NormalForm(_Value):
    """Affine change of frame onto vertices (0,0), (1,0), (s,t), (0,1): the
    normal frame every construction on a quad reads, derived once per quad
    by ``_normal_frame``.

    T(x) = M x + translation (``T`` as an AffineMap) maps the original
    frame to the normalized one; ``det`` = det M.  ``inverse`` holds T^-1
    as plain floats (b11, b12, b21, b22, x0, y0), T^-1(y) = B y + p0: B's
    columns are the edge vectors p1 - p0 and p3 - p0 and p0 is the vertex
    sent to (0,0).  ``labeling`` lists which canonical-quad vertex indices
    land on (0,0), (1,0), (s,t), (0,1); ``interval`` is the open interval
    of normalized abscissas swept by the center locus, (1/2, s/2) ordered.
    ``sides`` holds the four unit side lines (a, b, c) of a x + b y + c = 0
    through (0,0)-(1,0), (1,0)-(s,t), (s,t)-(0,1) and (0,1)-(0,0), in that
    order, each as (side, a, b, c) with ``side`` the original side index
    ``labeling`` maps it to; s, t > 0 keeps both norms nonzero.  ``chord``
    holds the chord ends' abscissas (h_a, h_b) (``_chord_abscissas``), or
    None at s = 1.  Convexity forces s > 0, t > 0, s + t > 1.  The closed
    forms divide by s - 1 but never by t - 1, so ``normalize`` picks, of
    the two cyclic labelings, the one whose sides (1,0)-(s,t) and
    (0,1)-(0,0) are furthest from parallel; with one parallel side pair
    that gives t = 1."""
    __slots__ = ("s", "t", "M", "translation", "inverse", "labeling", "interval", "det",
                 "sides", "chord")

    def __init__(self, s: float, t: float, M: tuple[float, float, float, float],
                 translation: tuple[float, float],
                 inverse: tuple[float, float, float, float, float, float],
                 labeling: tuple[int, int, int, int]):
        if not (s > 0 and t > 0 and s + t > 1):
            raise ValueError("normal form requires s > 0, t > 0, s + t > 1")
        det = _affine_det(*M, *translation)
        interval = (0.5, s / 2) if 0.5 <= s / 2 else (s / 2, 0.5)
        n1, n2 = math.hypot(s - 1, t), math.hypot(t - 1, s)
        i0, i1, i2, i3 = labeling
        sides = ((i0, 0.0, 1.0, 0.0), (i1, t / n1, (1 - s) / n1, -t / n1),
                 (i2, (1 - t) / n2, s / n2, -s / n2), (i3, 1.0, 0.0, 0.0))
        chord = None if s == 1 else _chord_abscissas(s, t, *interval)
        self._fill((s, t, M, translation, inverse, labeling, interval, det, sides, chord))

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
    return LocusSegment(*_midpoints(q), degenerate=q.kind is QuadKind.PARALLELOGRAM)


def _midpoints(q: ConvexQuad) -> tuple[Point, Point]:
    """The diagonal midpoints (m1, m2) of q, ordered lexicographically."""
    ma, mb = _midpoint_pairs(q)
    return (Point(*mb), Point(*ma)) if mb < ma else (Point(*ma), Point(*mb))


def _midpoint_pairs(q: ConvexQuad) -> tuple[tuple[float, float], tuple[float, float]]:
    """The midpoints of the diagonals v0v2 and v1v3 of q, as float pairs."""
    v0, v1, v2, v3 = q.v0, q.v1, q.v2, q.v3
    return (((v0.x + v2.x) / 2, (v0.y + v2.y) / 2),
            ((v1.x + v3.x) / 2, (v1.y + v3.y) / 2))


def normalize(q: ConvexQuad) -> NormalForm:
    """Affine normal form of a non-parallelogram quadrilateral: the
    NormalForm q stores (``_locus_abscissas``), not a copy.

    Computes (s, t) for cyclic rotations 0 and 1 of the vertices and keeps
    the rotation with the larger normalized-frame sine |s-1| / hypot(s-1, t),
    rotation 0 on a tie.  That keeps s - 1, which the closed forms divide
    by, safely away from zero; a parallel side pair gets t = 1, since its
    other rotation has s = 1 and sine 0.  A parallelogram raises
    ParallelogramUnsupported: its inscribed ellipses are not unique.
    """
    return _locus_abscissas(q)[0]


def _normal_frame(q: ConvexQuad) -> NormalForm:
    """The normal frame of q, as ``normalize`` describes it.  Only the kept
    rotation's T is built, and ``_frame`` makes NormalForm's convexity
    check first, so its exception is the one raised."""
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("no unique inscribed ellipse and no center line")
    v0, v1 = q.v0, q.v1
    s, t, _, _ = kept = _frame(v0, v1, q.v2, q.v3)
    s1, t1, _, _ = turned = _frame(v1, q.v2, q.v3, v0)
    if abs(s1 - 1) / math.hypot(s1 - 1, t1) > abs(s - 1) / math.hypot(s - 1, t):
        kept, p0, labeling = turned, v1, (1, 2, 3, 0)
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
    is singular as an AffineMap is; one whose products overflow is out of
    float range, not singular."""
    b11, b12 = p1.x - p0.x, p3.x - p0.x
    b21, b22 = p1.y - p0.y, p3.y - p0.y
    det = b11 * b22 - b12 * b21
    size = abs(b11 * b22) + abs(b12 * b21)
    if not size < math.inf:
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


def _dual_entries(s, t, h):
    """(c, k, det) of the tangent dual conic at abscissa h, plain arithmetic.

    D(h) / (2(s - 1)) = [[0, c, h], [c, 0, k], [h, k, 1]] with
    c = (s - 2h)/(2(s - 1)) and k = L(h), and det is the determinant of
    P_n = [[h^2, hk - c], [hk - c, k^2]], taken as the product
    (2h - 1)(s - 2h)(2h(t - 1) + s)/(4(s - 1)^2).  Exact and symbolic
    number types pass through unchanged.
    """
    e3 = 2 * (s - 1)
    return ((s - 2 * h) / e3, (2 * h * (t - 1) + s - t) / e3,
            (2 * h - 1) * (s - 2 * h) * (2 * h * (t - 1) + s) / (e3 * e3))


def _tangent_conic(nf: NormalForm, h: float, tol: Tolerances):
    """Tangent conic at normalized abscissa h, in one plain-float pass over
    the dual conic D(h) of the normal frame nf.

    Returns (conic, classification, contacts, form, center, det):
    ``form`` is the original-frame Q of (x - center)^T Q (x - center) = 1,
    ``center`` = T^-1(h, L(h)), ``det`` = det P_n and ``contacts`` are
    indexed as ``ConvexQuad.side_lines``.

    ``_dual_entries`` gives D(h) = [[m m^T - P_n, m], [m^T, 1]] up to scale,
    m = (h, k), so P_n = Q_n^-1 = [[h^2, hk - c], [hk - c, k^2]] and
    Q_n = adj(P_n) / det goes out through T's 2x2 linear part M only, as
    Q = M^T Q_n M; pushing out the full 3x3 matrix instead rounds the
    center worse.  det P_n is positive between the diagonal midpoints (an
    ellipse, lo < h < hi) and negative beyond them (a hyperbola); the class
    is read off h, not off the coefficients.  |det P_n| at most
    1e-12 max(1, h^2 + k^2)^2 raises DegeneratePoint: the conic has
    collapsed onto its focal line.  Q must be positive definite for an
    ellipse (else NotAnEllipse) and indefinite for a hyperbola (else
    NumericalFailure).  s = 1 raises NumericalFailure(_VERTICAL)
    first; no focal root is solved and no weight is formed.

    Each unit side line l of ``nf.sides`` must have
    |l^T D l| / ||D||_F below tol_tan (else NotTangent); its contact is
    the pole D l, at infinity when its w is, relative to its norm, at most
    tol_infinity.  A contact goes out through T^-1 = (B, p0) and is stored
    at the original side ``labeling`` maps that side to; a finite one is
    filled after HomPoint's finiteness test (w = 1 is never the zero triple).
    """
    s, t = nf.s, nf.t
    b11, b12, b21, b22, x0, y0 = nf.inverse
    lo, hi = nf.interval
    if abs(s - 1) <= tol.tol_par:
        raise NumericalFailure(_VERTICAL)
    c, k, det = _dual_entries(s, t, h)
    p11, p12, p22 = h * h, h * k - c, k * k
    if abs(det) <= 1e-12 * max(1.0, p11 + p22) ** 2:
        raise DegeneratePoint("contact point lies on the focal line")
    q11, q12, q22 = form = _pull_back_form(p22 / det, -p12 / det, p11 / det, *nf.M)
    qdet = q11 * q22 - q12 * q12
    is_ellipse = lo < h < hi
    # a failed sign test is taken again at unit scale (``_unit_scale_det``)
    if is_ellipse and not (q11 > 0 and (qdet > 0 or _unit_scale_det(form) > 0)):
        raise NotAnEllipse("pushed-out form is not positive definite")
    if not is_ellipse and not (qdet < 0 or _unit_scale_det(form) < 0):
        raise NumericalFailure("pushed-out hyperbola form is not indefinite")
    cx, cy = b11 * h + b12 * k + x0, b21 * h + b22 * k + y0
    conic = _central_conic(q11, q12, q22, cx, cy)

    norm = math.sqrt(2 * (c * c + h * h + k * k) + 1)
    contacts = [None] * 4
    tan_bound, tol_infinity = tol.tol_tan * norm, tol.tol_infinity
    isfinite, new = math.isfinite, object.__new__
    for side, la, lb, lc in nf.sides:
        px = c * lb + h * lc
        py = c * la + k * lc
        pw = h * la + k * lb + lc
        if abs(la * px + lb * py + lc * pw) >= tan_bound:
            raise NotTangent("side line is not tangent to the conic")
        if abs(pw) <= tol_infinity * math.sqrt(px * px + py * py + pw * pw):
            contacts[side] = HomPoint(*_unit_direction(b11 * px + b12 * py,
                                                       b21 * px + b22 * py), 0.0)
        else:
            x, y = px / pw, py / pw
            x, y = b11 * x + b12 * y + x0, b21 * x + b22 * y + y0
            if not (isfinite(x) and isfinite(y)):
                raise ValueError("homogeneous components must be finite")
            contacts[side] = contact = new(HomPoint)
            _hom_x(contact, x)
            _hom_y(contact, y)
            _hom_w(contact, 1.0)
    kind = ConicClass.REAL_ELLIPSE if is_ellipse else ConicClass.HYPERBOLA
    return conic, kind, tuple(contacts), form, (cx, cy), det


def _unit_scale_det(form: tuple[float, float, float]) -> float:
    """q11 q22 - q12^2 of form = (q11, q12, q22) with a power of two split
    off, so that far from unit scale its products stay in the float range."""
    e = -math.frexp(max(map(abs, form)))[1]
    q11, q12, q22 = (math.ldexp(q, e) for q in form)
    return q11 * q22 - q12 * q12


def _construct(nf: NormalForm, h: float, tol: Tolerances) -> InscribedResult:
    """The inscribed ellipse at normalized abscissa h of the normal frame
    nf: the ellipse, its conic and contacts all come from one pass over
    D(h), centered where that pass maps the normal-frame center.  Its
    callers have already put h inside the locus interval."""
    conic, _, contacts, form, (cx, cy), det = _tangent_conic(nf, h, tol)
    # det Q = det(M)^2 det Q_n = det(M)^2 / det P_n, as a quotient, with
    # det(M)'s power of two split off so that its square stays in range
    mant, exp = math.frexp(nf.det)
    result = object.__new__(InscribedResult)
    _result_ellipse(result, _metric_ellipse(*form, mant * mant / det, 1.0, cx, cy, 2 * exp))
    _result_conic(result, conic)
    _result_tangencies(result, contacts)
    return result


def _locus_abscissas(q: ConvexQuad) -> tuple[NormalForm, float, float, float]:
    """The normal frame of q (``_normal_frame``), the abscissas h1, h2 of
    locus(q)'s m1 and m2 (s/2 for the diagonal the labeling sends to (0,0)
    and (s,t), 1/2 for the other), ordered as ``locus`` orders them, and
    the locus length.  A locus parameter u goes straight to
    h1 + u (h2 - h1).  Parallelograms are rejected.

    Every construction on q reads its frame here, and it is derived once
    per quad: q stores (nf, h1, h2, length) in its private ``_normal``
    slot and later calls read it back.  A frame that raises is not stored,
    so every call on such a quad raises the same again."""
    stored = getattr(q, "_normal", None)
    if stored is None:
        nf = _normal_frame(q)
        ma, mb = _midpoint_pairs(q)
        h_a, h_b = (nf.s / 2, 0.5) if nf.labeling[0] % 2 == 0 else (0.5, nf.s / 2)
        h1, h2 = (h_b, h_a) if mb < ma else (h_a, h_b)
        stored = (nf, h1, h2, math.hypot(mb[0] - ma[0], mb[1] - ma[1]))
        _store_normal(q, stored)
    return stored


def _center_bound(nf: NormalForm, cx: float, cy: float, tol: Tolerances) -> float:
    """Largest |2(s - 1) y - (2h(t - 1) + s - t)| at which the center
    (cx, cy), mapped to (h, y) = T(cx, cy), counts as on the center line
    y = L(h): 2|s - 1| tol_on, a vertical miss of tol_on in the unit-size
    normal frame, or the rounding of that residual's two terms as
    T(cx, cy) forms them, 4 ulps of each, where that is more.  Both are read off the
    normal frame alone, so an affine copy of the quad and its center gets
    the same verdict at any scale and offset."""
    s, t = nf.s, nf.t
    m11, m12, m21, m22 = nf.M
    tx, ty = nf.translation
    rounding = 4 * _ULP * (2 * abs(s - 1) * (abs(m21 * cx) + abs(m22 * cy) + abs(ty))
                           + 2 * abs(t - 1) * (abs(m11 * cx) + abs(m12 * cy) + abs(tx)))
    return max(2 * abs(s - 1) * tol.tol_on, rounding)


def _center_abscissa(nf: NormalForm, center: Point, tol: Tolerances) -> float:
    """The normalized abscissa h of a caller's center: the first coordinate
    of T(center).  Raises CenterOffLocus unless the center is on the center
    line to within ``_center_bound``.  The test multiplies L(h) out instead
    of dividing by s - 1, so at s = 1 it lets the center through to the
    construction's own s = 1 verdict."""
    s, t = nf.s, nf.t
    m11, m12, m21, m22 = nf.M
    tx, ty = nf.translation
    cx, cy = center.x, center.y
    h, y = m11 * cx + m12 * cy + tx, m21 * cx + m22 * cy + ty
    if abs(2 * (s - 1) * y - (2 * h * (t - 1) + s - t)) > _center_bound(nf, cx, cy, tol):
        raise CenterOffLocus("center is not on the center line")
    return h


def inscribe_at_center(q: ConvexQuad, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """The unique inscribed ellipse with the given center.

    The center is judged in the normal frame (``_center_abscissa``): it
    must map onto the center line y = L(h) to within tol_on, or the
    rounding of its own mapped coordinates where that is more, and its
    abscissa h must lie strictly inside the locus interval, tol_interval
    of its width in from either end, tested here.  Both are ratios an
    affine map keeps, so the verdict does not depend on scale or place.
    The conic is built from D(h) in the normalized frame and mapped back;
    the carried center must land within 1e-6 of the locus length of the
    request, plus ``_drift_slack``.  The normal frame rejects
    parallelograms: four common tangent lines of two distinct concentric
    ellipses would form a parallelogram, so uniqueness fails there; a
    parallelogram to rounding that a small tol_par lets through (s = 1)
    raises NumericalFailure(_VERTICAL).  A side the conic misses raises
    NotTangent.
    """
    nf, _, _, length = _locus_abscissas(q)
    h = _center_abscissa(nf, center, tol)
    _param_in_interval(*nf.interval, h, tol)
    result = _construct(nf, h, tol)
    got = result.ellipse.center
    # the drift may reach 1e-6 of the locus length, and _drift_slack more
    excess = math.hypot(got.x - center.x, got.y - center.y) - 1e-6 * length
    if excess > 0 and excess > _drift_slack(nf, h, center, tol):
        raise NumericalFailure("inscribed conic center drifted from the request")
    return result


def _drift_slack(nf: NormalForm, h: float, center: Point, tol: Tolerances) -> float:
    """How far a caller's center may sit from the center T^-1(h, L(h))
    that the construction at its abscissa h carries, beyond 1e-6 of the
    locus length: the miss of the center line ``_center_bound`` lets
    through, a vertical step of up to that bound / (2|s - 1|) in the
    normal frame that T^-1 stretches by its column (b12, b22), plus 4 ulps
    of the terms that form the carried center.  Both scale with the quad,
    as the locus length does, so a drift of a fixed share of the quad
    raises at every scale."""
    s, t = nf.s, nf.t
    b11, b12, b21, b22, x0, y0 = nf.inverse
    _, k, _ = _dual_entries(s, t, h)
    miss = math.hypot(b12, b22) * _center_bound(nf, center.x, center.y, tol) / (2 * abs(s - 1))
    return miss + 4 * _ULP * (abs(b11 * h) + abs(b12 * k) + abs(x0)
                              + abs(b21 * h) + abs(b22 * k) + abs(y0))


def inscribe_at_param(q: ConvexQuad, u: float,
                      tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """Inscribed ellipse at the locus point m1 + u*(m2 - m1), 0 < u < 1.

    u goes straight to the normalized abscissa, so no original-frame point
    is built and rounded on the way; only u is checked.
    """
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"parameter {u} outside the open unit interval")
    nf, h1, h2, _ = _locus_abscissas(q)
    return _construct(nf, h1 + u * (h2 - h1), tol)


def chord_x(q: ConvexQuad) -> ChordX:
    """Open chord cut by the quadrilateral's interior from the center line.

    Contains the locus segment strictly; its endpoints lie on the boundary.
    The ends are the normal-frame crossings ``NormalForm.chord`` stores,
    mapped out through T^-1 = (B, p0), ``p_start`` on m1's side.  No
    tolerance is read: a side line parallel to the center line has no
    crossing in closed form.  s = 1, where the center line is
    vertical in the normal frame, raises NumericalFailure(_VERTICAL); a
    parallelogram has no center line, and its normal frame raises.
    """
    nf, h1, h2, _ = _locus_abscissas(q)
    if nf.chord is None:
        raise NumericalFailure(_VERTICAL)
    s, t = nf.s, nf.t
    b11, b12, b21, b22, x0, y0 = nf.inverse
    ends = []
    for h in nf.chord:
        _, k, _ = _dual_entries(s, t, h)
        ends.append(Point(b11 * h + b12 * k + x0, b21 * h + b22 * k + y0))
    return ChordX(*ends) if h1 < h2 else ChordX(*reversed(ends))


def _chord_abscissas(s: float, t: float, lo: float, hi: float) -> tuple[float, float]:
    """(h_a, h_b): the abscissas at which the center line y = L(h) leaves
    the normal-frame quad (0,0), (1,0), (s,t), (0,1), below lo and above
    hi.  It crosses x = 0 at h = 0, (1,0)-(s,t) at (s + t)/2 and, unless
    t = 1 makes them parallel to it, y = 0 at (t - s)/(2(t - 1)) and
    (s,t)-(0,1) at s(s + t - 2)/(2(t - 1)); the chord runs from the
    nearest crossing at or below lo to the nearest at or above hi, and
    0 and (s + t)/2 are always among them.  At s = 1 every crossing is at
    h = 1/2, and ``NormalForm``, which stores the pair, stores None."""
    crossings = [0.0, (s + t) / 2]
    if t != 1:
        crossings += [(t - s) / (2 * (t - 1)), s * (s + t - 2) / (2 * (t - 1))]
    return max(h for h in crossings if h <= lo), min(h for h in crossings if h >= hi)


def tangent_conic_at_center(q: ConvexQuad, center: Point,
                            tol: Tolerances = DEFAULT_TOL):
    """Tangent conic for any admissible center on the interior chord.

    Returns (conic, classification, contact points).  Centers strictly
    between the diagonal midpoints give the inscribed ellipse; centers on
    the chord beyond them give a hyperbola tangent to all four side lines,
    where a tangency "at infinity" (contact point with w = 0) means the
    side line is an asymptote.  Both come from the pass over D(h) of
    ``inscribe_at_center`` (``_tangent_conic``), at the center's abscissa in
    the normal form, and so does the classification: the construction
    knows which side of the diagonal midpoints the center lies on, so the
    coefficients are not classified again.  The midpoints themselves are
    degenerate members and are rejected with DegenerateAtMidpoint; a missed
    side raises NotTangent.

    The guard runs in the normal frame: the center must be on the center
    line (``_center_abscissa``), its chord parameter (h - h_a)/(h_b - h_a)
    tol_interval in from either chord end (``NormalForm.chord``), and h
    more than tol_interval (h_b - h_a) from either midpoint abscissa.
    These are the ratios along the chord an affine map keeps; at s = 1,
    with no chord, a center on the line raises NumericalFailure(_VERTICAL).
    A parallelogram's normal frame raises ParallelogramUnsupported.
    """
    nf = _locus_abscissas(q)[0]
    lo, hi = nf.interval
    h = _center_abscissa(nf, center, tol)
    if nf.chord is None:
        raise NumericalFailure(_VERTICAL)
    h_a, h_b = nf.chord
    if not (tol.tol_interval < (h - h_a) / (h_b - h_a) < 1 - tol.tol_interval):
        raise CenterOffLocus("center is not strictly inside the chord")
    margin = tol.tol_interval * (h_b - h_a)
    if abs(h - lo) <= margin or abs(h - hi) <= margin:
        raise DegenerateAtMidpoint("center coincides with a diagonal midpoint")
    return _tangent_conic(nf, h, tol)[:3]
