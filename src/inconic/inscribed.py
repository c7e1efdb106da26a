"""Inscribed conics of a convex quadrilateral.

The centers of ellipses inscribed in a convex quadrilateral fill the open
segment between the midpoints of its diagonals.  For every such center the
inscribed ellipse is unique and is built here in closed form: after an
affine change of frame putting the vertices p0..p3 at (0,0), (1,0), (s,t),
(0,1), the conics tangent to the four side lines are the dual conics
D(h) = (2h-1)(p0 p2^T + p2 p0^T) + (s-2h)(p1 p3^T + p3 p1^T), one for each
center (h, L(h)) on the center line.  Divided by 2(s-1) its entries are
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
from collections.abc import Iterator

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
    _metric_ellipse,
    _pull_back_form,
    _rebuild,
    _slot_setters,
    _unit_direction,
)

_ULP = 2.0 ** -52  # spacing of the floats in [1, 2)
_VERTICAL = "s = 1: center line is vertical in this labeling"


class NormalForm(_Value):
    """Affine change of frame onto vertices (0,0), (1,0), (s,t), (0,1).

    The slots are ``_normal_frame``'s tuple, in its order.  T(x) = M x +
    translation (``T`` as an AffineMap) maps the original frame to the
    normalized one; ``det`` = det M.  ``inverse`` holds T^-1 as plain floats
    (b11, b12, b21, b22, x0, y0), T^-1(y) = B y + p0: B's columns are the
    edge vectors p1 - p0 and p3 - p0 and p0 is the vertex sent to (0,0).
    ``labeling`` lists which canonical-quad vertex indices land on (0,0),
    (1,0), (s,t), (0,1); ``interval`` is the open interval of normalized
    abscissas swept by the center locus.  ``__init__`` fills in the last
    two.  Convexity forces s > 0, t > 0, s + t > 1.  The closed forms divide by
    s - 1 but never by t - 1, so ``normalize`` picks, of the two cyclic
    labelings, the one whose sides (1,0)-(s,t) and (0,1)-(0,0) are furthest
    from parallel; with one parallel side pair that gives t = 1."""
    __slots__ = ("s", "t", "M", "translation", "inverse", "labeling", "interval", "det")

    def __init__(self, s: float, t: float, M: tuple[float, float, float, float],
                 translation: tuple[float, float],
                 inverse: tuple[float, float, float, float, float, float],
                 labeling: tuple[int, int, int, int]):
        if not (s > 0 and t > 0 and s + t > 1):
            raise ValueError("normal form requires s > 0, t > 0, s + t > 1")
        det = _affine_det(*M, *translation)
        self._fill((s, t, M, translation, inverse, labeling, _interval(s), det))

    @property
    def T(self) -> AffineMap:
        return AffineMap(*self.M, *self.translation)


def _interval(s) -> tuple[float, float]:
    """The ends 1/2 and s/2 of the center locus's abscissas, ordered."""
    half, shalf = 1 / 2, s / 2
    return (half, shalf) if half <= shalf else (shalf, half)


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


def normalize(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> NormalForm:
    """Affine normal form of a non-parallelogram quadrilateral.

    Computes (s, t) for cyclic rotations 0 and 1 of the vertices and keeps
    the rotation with the larger normalized-frame sine |s-1| / hypot(s-1, t),
    rotation 0 on a tie.  That keeps s - 1, which the closed forms divide
    by, safely away from zero; a parallel side pair gets t = 1, since its
    other rotation has s = 1 and sine 0.  Only the kept rotation's map is
    built.  A parallelogram raises ParallelogramUnsupported: its inscribed
    ellipses are not unique.  It is ``_normal_frame``'s tuple held as a
    NormalForm, each check made once, there.
    """
    return _rebuild(NormalForm, _normal_frame(q, tol))


def _normal_frame(q: ConvexQuad, tol: Tolerances) -> tuple:
    """The normal frame of q as the plain tuple the constructions read,
    in NormalForm's slot order: (s, t, M, (tx, ty), inverse, labeling,
    (lo, hi), det), with T(x) = M x + (tx, ty), M = (m11, m12, m21, m22)
    and det = det M.  Each is computed once.  NormalForm's checks run
    here: ``AffineMap``'s on T (``_affine_det``), and the convexity bound,
    which is ``_frame``'s, on the same s and t."""
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("inscribed ellipses of a parallelogram are not unique")
    v0, v1 = q.v0, q.v1
    s, t, _, _ = frame = _frame(v0, v1, q.v2, q.v3, tol)
    s1, t1, _, _ = turned = _frame(v1, q.v2, q.v3, v0, tol)
    if abs(s1 - 1) / math.hypot(s1 - 1, t1) > abs(s - 1) / math.hypot(s - 1, t):
        frame, p0, labeling = turned, v1, (1, 2, 3, 0)
    else:
        p0, labeling = v0, (0, 1, 2, 3)
    s, t, m, (b11, b12, b21, b22) = frame
    m11, m12, m21, m22 = m
    x0, y0 = p0.x, p0.y
    tx, ty = -(m11 * x0 + m12 * y0), -(m21 * x0 + m22 * y0)
    det = _affine_det(m11, m12, m21, m22, tx, ty)
    return s, t, m, (tx, ty), (b11, b12, b21, b22, x0, y0), labeling, _interval(s), det


def _frame(p0: Point, p1: Point, p2: Point, p3: Point, tol: Tolerances):
    """(s, t, M, B) of the frame sending p0, p1, p2, p3 to (0,0), (1,0),
    (s,t), (0,1): B = (b11, b12, b21, b22) holds the edge vectors p1 - p0
    and p3 - p0 as columns, M = B^-1.  (s, t) is solved from vertex
    differences, so it does not depend on where the quad sits.  A basis
    whose products overflow is out of float range, not singular."""
    b11, b12 = p1.x - p0.x, p3.x - p0.x
    b21, b22 = p1.y - p0.y, p3.y - p0.y
    det = b11 * b22 - b12 * b21
    size = abs(b11 * b22) + abs(b12 * b21)
    if not size < math.inf:
        raise NumericalFailure("normalization basis is out of float range")
    if abs(det) <= tol.tol_det * size:
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


def _project_to_segment(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """(parameter along ab, distance to the infinite line)."""
    dx, dy = b.x - a.x, b.y - a.y
    den = dx * dx + dy * dy
    u = ((p.x - a.x) * dx + (p.y - a.y) * dy) / den
    dist = abs((p.x - a.x) * dy - (p.y - a.y) * dx) / math.sqrt(den)
    return u, dist


def _on_line_bound(p: Point, a: Point, b: Point, tol: Tolerances) -> float:
    """Largest distance at which p counts as on the line through a and b:
    tol_on (1 + |ab|), but at least 4 ulps of the largest coordinate of the
    three points, the rounding their coordinates carry far from the origin."""
    magnitude = max(abs(p.x), abs(p.y), abs(a.x), abs(a.y), abs(b.x), abs(b.y))
    return max(tol.tol_on * (1 + math.hypot(b.x - a.x, b.y - a.y)),
               4 * _ULP * magnitude)


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


def _tangent_conic(frame: tuple, h: float, tol: Tolerances):
    """Tangent conic at normalized abscissa h, in one plain-float pass over
    the dual conic D(h) of the normal frame ``frame`` (``_normal_frame``'s
    tuple).

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

    Each unit-normalized side l of y = 0, (1,0)-(s,t), (s,t)-(0,1), x = 0
    must have |l^T D l| / ||D||_F below tol_tan (else NotTangent); its
    contact is the pole D l, at infinity when its w is, relative to its
    norm, at most tol_infinity.  A contact goes out through T^-1 = (B, p0)
    and is stored at the original side ``labeling`` maps that side to.
    """
    s, t, m, _, (b11, b12, b21, b22, x0, y0), labeling, (lo, hi), _ = frame
    if abs(s - 1) <= tol.tol_par:
        raise NumericalFailure(_VERTICAL)
    c, k, det = _dual_entries(s, t, h)
    p11, p12, p22 = h * h, h * k - c, k * k
    if abs(det) <= 1e-12 * max(1.0, p11 + p22) ** 2:
        raise DegeneratePoint("contact point lies on the focal line")
    q11, q12, q22 = form = _pull_back_form(p22 / det, -p12 / det, p11 / det, *m)
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
    n1, n2 = math.hypot(s - 1, t), math.hypot(t - 1, s)
    sides = ((0.0, 1.0, 0.0), (t / n1, (1 - s) / n1, -t / n1),
             ((1 - t) / n2, s / n2, -s / n2), (1.0, 0.0, 0.0))
    contacts = [None] * 4
    tan_bound, tol_infinity = tol.tol_tan * norm, tol.tol_infinity
    for side, (la, lb, lc) in zip(labeling, sides):
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
            contacts[side] = HomPoint(b11 * x + b12 * y + x0, b21 * x + b22 * y + y0, 1.0)
    kind = ConicClass.REAL_ELLIPSE if is_ellipse else ConicClass.HYPERBOLA
    return conic, kind, tuple(contacts), form, (cx, cy), det


def _unit_scale_det(form: tuple[float, float, float]) -> float:
    """q11 q22 - q12^2 of form = (q11, q12, q22) with a power of two split
    off, so that far from unit scale its products stay in the float range."""
    e = -math.frexp(max(map(abs, form)))[1]
    q11, q12, q22 = (math.ldexp(q, e) for q in form)
    return q11 * q22 - q12 * q12


def _construct(frame: tuple, h: float, tol: Tolerances) -> InscribedResult:
    """The inscribed ellipse at normalized abscissa h of the normal frame
    ``frame``: the ellipse, its conic and contacts all come from one pass
    over D(h), centered where that pass maps the normal-frame center."""
    _, _, _, _, _, _, (lo, hi), det_m = frame
    _param_in_interval(lo, hi, h, tol)
    conic, _, contacts, form, center, det = _tangent_conic(frame, h, tol)
    # det Q = det(M)^2 det Q_n = det(M)^2 / det P_n, as a quotient, with
    # det(M)'s power of two split off so that its square stays in range
    mant, exp = math.frexp(det_m)
    ellipse = _metric_ellipse(*form, mant * mant / det, 1.0, Point(*center), 2 * exp)
    return InscribedResult(ellipse, conic, contacts)


def _abscissa(frame: tuple, p: Point) -> float:
    """The normalized abscissa of p: the first coordinate of T(p)."""
    _, _, (m11, m12, _, _), (tx, _), _, _, _, _ = frame
    return m11 * p.x + m12 * p.y + tx


def _locus_abscissas(q: ConvexQuad, tol: Tolerances) -> tuple[tuple, float, float]:
    """The normal frame of q (``_normal_frame``) and the abscissas h1, h2
    of locus(q)'s m1 and m2 (s/2 for the diagonal the labeling sends to
    (0,0) and (s,t), 1/2 for the other), ordered as ``locus`` orders them.
    A locus parameter u goes straight to h1 + u (h2 - h1).  Parallelograms
    are rejected."""
    frame = _normal_frame(q, tol)
    s, _, _, _, _, labeling, _, _ = frame
    ma, mb = _midpoint_pairs(q)
    h_a, h_b = (s / 2, 0.5) if labeling[0] % 2 == 0 else (0.5, s / 2)
    h1, h2 = (h_b, h_a) if mb < ma else (h_a, h_b)
    return frame, h1, h2


def _inscribe_params(q: ConvexQuad, params, tol: Tolerances) -> Iterator[InscribedResult]:
    """Inscribed ellipses at the locus parameters ``params``, from one
    normal frame.  The quad is checked and normalized at the call; each
    ellipse is built as the iterator reaches it."""
    frame, h1, h2 = _locus_abscissas(q, tol)
    return (_construct(frame, h1 + u * (h2 - h1), tol) for u in params)


def inscribe_at_center(q: ConvexQuad, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """The unique inscribed ellipse with the given center.

    The center must lie strictly inside the open locus segment: within
    tol_on (1 + length) of its line, or 4 ulps of the largest coordinate
    of it and the midpoints where that is more, and strictly between the
    diagonal midpoints, tested on its normalized abscissa.  The conic is
    built from D(h) in the normalized frame and mapped back; the
    carried center must land within 1e-6 (1 + length) of the request.
    Parallelograms are rejected: four common tangent lines of two distinct
    concentric ellipses would form a parallelogram, so uniqueness fails
    there, and midpoints that coincide in floats (a parallelogram to
    rounding that a small tol_par lets through, s = 1) raise
    NumericalFailure(_VERTICAL).  A side the conic misses raises
    NotTangent.
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("inscribed ellipses of a parallelogram are not unique")
    m1, m2 = _midpoints(q)
    if m1.x == m2.x and m1.y == m2.y:
        raise NumericalFailure(_VERTICAL)
    _, dist = _project_to_segment(center, m1, m2)
    if dist > _on_line_bound(center, m1, m2, tol):
        raise CenterOffLocus("center is not on the line of the locus segment")
    frame = _normal_frame(q, tol)
    result = _construct(frame, _abscissa(frame, center), tol)
    got = result.ellipse.center
    if math.hypot(got.x - center.x, got.y - center.y) > \
            1e-6 * (1 + math.hypot(m2.x - m1.x, m2.y - m1.y)):
        raise NumericalFailure("inscribed conic center drifted from the request")
    return result


def inscribe_at_param(q: ConvexQuad, u: float,
                      tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """Inscribed ellipse at the locus point m1 + u*(m2 - m1), 0 < u < 1.

    u goes straight to the normalized abscissa, so no original-frame point
    is built and rounded on the way; only u is checked.
    """
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"parameter {u} outside the open unit interval")
    frame, h1, h2 = _locus_abscissas(q, tol)
    return _construct(frame, h1 + u * (h2 - h1), tol)


def chord_x(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> ChordX:
    """Open chord cut by the quadrilateral's interior from the center line.

    Contains the locus segment strictly; its endpoints lie on the boundary.
    A side counts as parallel to the center line when the sine of their
    angle is at most tol_par, whatever the scale of the quadrilateral.
    """
    return ChordX(*_chord_ends(q, tol)[2:])


def _chord_ends(q: ConvexQuad, tol: Tolerances) -> tuple[Point, Point, Point, Point]:
    """(m1, m2, p_start, p_end): the diagonal midpoints in ``locus`` order
    and the ends of ``chord_x``, at m1 + tau (m2 - m1) for the largest
    negative and the smallest above-1 tau at which the center line crosses
    a side line not parallel to it."""
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("center line degenerates for parallelograms")
    m1, m2 = _midpoints(q)
    x1, y1 = m1.x, m1.y
    dx, dy = m2.x - x1, m2.y - y1
    length = math.hypot(dx, dy)
    before = after = None
    v0, v1, v2, v3 = q.v0, q.v1, q.v2, q.v3
    for p, r in ((v0, v1), (v1, v2), (v2, v3), (v3, v0)):
        nx, ny = r.y - p.y, p.x - r.x
        den = nx * dx + ny * dy
        if abs(den) <= tol.tol_par * math.hypot(nx, ny) * length:
            continue
        tau = -(nx * (x1 - p.x) + ny * (y1 - p.y)) / den
        if tau < 0:
            if before is None or tau > before:
                before = tau
        elif tau > 1 and (after is None or tau < after):
            after = tau
    if before is None or after is None:
        raise NumericalFailure("center line failed to exit the quadrilateral")
    return (m1, m2, Point(x1 + before * dx, y1 + before * dy),
            Point(x1 + after * dx, y1 + after * dy))


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

    The guard reads the diagonal midpoints and the quad's four side
    crossings once, in one pass that also gives ``chord_x``'s ends, and
    tests each midpoint on its chord parameter alone.
    """
    m1, m2, a, b = _chord_ends(q, tol)
    u, dist = _project_to_segment(center, a, b)
    if dist > _on_line_bound(center, a, b, tol):
        raise CenterOffLocus("center is not on the center line")
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus("center is not strictly inside the chord")
    dx, dy = b.x - a.x, b.y - a.y
    den = dx * dx + dy * dy
    for m in (m1, m2):
        if abs(u - ((m.x - a.x) * dx + (m.y - a.y) * dy) / den) <= tol.tol_interval:
            raise DegenerateAtMidpoint("center coincides with a diagonal midpoint")
    frame = _normal_frame(q, tol)
    return _tangent_conic(frame, _abscissa(frame, center), tol)[:3]

