"""Inscribed conics of a convex quadrilateral.

The centers of ellipses inscribed in a convex quadrilateral fill the open
segment between the midpoints of its diagonals.  For every such center the
inscribed ellipse is unique and is built here in closed form: after an
affine change of frame putting the vertices at (0,0), (1,0), (s,t), (0,1),
the two triangles cut off by the side lines carry tangent ellipses whose
focal quadratics coincide, z^2 - 2(h + i*L(h)) z + i(s-2h)/(s-1), and both
touch the line x = 0 at the same point — so they are one ellipse, tangent
to all four sides.  The construction divides by s - 1 and h but never by
t - 1, so it also serves quadrilaterals with one parallel side pair (t = 1,
where only the first triangle exists).  Centers on the chord beyond the
diagonal midpoints yield tangent hyperbolas from the same quadratic: its
roots are then the hyperbola's foci, and the contact point on x = 0 fixes
the difference of the focal distances instead of their sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CenterOffLocus,
    DegenerateAtMidpoint,
    DegeneratePoint,
    NumericalFailure,
    ParallelogramUnsupported,
)
from .geometry import (
    DEFAULT_TOL,
    AffineMap,
    Conic,
    ConvexQuad,
    EllipseGeo,
    HomPoint,
    Point,
    QuadKind,
    Tolerances,
    _axis_form,
    _central_conic,
    _pull_back_form,
    classify_conic,
    ellipse_from_conic,
    midpoint,
    tangency_point,
)
from .marden import WeightTriple, stable_quadratic_roots


@dataclass(frozen=True)
class NormalForm:
    """Affine change of frame onto vertices (0,0), (1,0), (s,t), (0,1).

    ``T`` maps the original frame to the normalized one; ``labeling`` lists
    which canonical-quad vertex indices land on (0,0), (1,0), (s,t), (0,1).
    Convexity forces s > 0, t > 0, s + t > 1.  The closed forms divide by
    s - 1 but never by t - 1, so ``normalize`` picks, of the two cyclic
    labelings, the one whose sides (1,0)-(s,t) and (0,1)-(0,0) are furthest
    from parallel; with one parallel side pair that gives t = 1.
    """

    T: AffineMap
    s: float
    t: float
    labeling: tuple[int, int, int, int]

    def __post_init__(self):
        if not (self.s > 0 and self.t > 0 and self.s + self.t > 1):
            raise ValueError("normal form requires s > 0, t > 0, s + t > 1")

    def interval(self) -> tuple[float, float]:
        """Open interval of normalized abscissas swept by the center locus."""
        half, shalf = 1 / 2, self.s / 2
        return (half, shalf) if half <= shalf else (shalf, half)


@dataclass(frozen=True)
class LocusSegment:
    """Open segment of admissible ellipse centers (diagonal midpoints
    excluded); degenerate (a single point) exactly for parallelograms."""

    m1: Point
    m2: Point
    open: bool = True
    degenerate: bool = False

    def point_at(self, u: float) -> Point:
        return Point(self.m1.x + u * (self.m2.x - self.m1.x),
                     self.m1.y + u * (self.m2.y - self.m1.y))

    def length(self) -> float:
        return math.hypot(self.m2.x - self.m1.x, self.m2.y - self.m1.y)


@dataclass(frozen=True)
class ChordX:
    """Open chord cut from the center line by the quadrilateral's interior."""

    p_start: Point
    p_end: Point

    def point_at(self, u: float) -> Point:
        return Point(self.p_start.x + u * (self.p_end.x - self.p_start.x),
                     self.p_start.y + u * (self.p_end.y - self.p_start.y))

    def length(self) -> float:
        return math.hypot(self.p_end.x - self.p_start.x,
                          self.p_end.y - self.p_start.y)


@dataclass(frozen=True)
class LocusLine:
    """Center line y = slope*x + intercept over the open interval of h."""

    slope: float
    intercept: float
    interval: tuple[float, float]

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class InscribedResult:
    """Inscribed ellipse with its conic, contact points and weights."""

    ellipse: EllipseGeo
    conic: Conic
    tangencies: tuple[HomPoint, HomPoint, HomPoint, HomPoint]
    weights_t: WeightTriple
    weights_s: WeightTriple


def locus(q: ConvexQuad) -> LocusSegment:
    """Diagonal midpoints bounding the locus of inscribed-ellipse centers,
    ordered lexicographically."""
    ma = midpoint(q.v0, q.v2)
    mb = midpoint(q.v1, q.v3)
    if (mb.x, mb.y) < (ma.x, ma.y):
        ma, mb = mb, ma
    return LocusSegment(ma, mb, open=True,
                        degenerate=q.kind is QuadKind.PARALLELOGRAM)


def normalize(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> NormalForm:
    """Affine normal form of a non-parallelogram quadrilateral.

    Computes (s, t) for cyclic rotations 0 and 1 of the vertices and keeps
    the rotation with the larger normalized-frame sine |s-1| / hypot(s-1, t),
    rotation 0 on a tie.  That keeps s - 1, which the closed forms divide
    by, safely away from zero; a parallel side pair gets t = 1, since its
    other rotation has s = 1 and sine 0.  Only the kept rotation's map is
    built.
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("parallelograms have no unique normal form here")
    frames = [_frame(q, rot, tol) for rot in (0, 1)]
    sines = [abs(s - 1) / math.hypot(s - 1, t) for s, t, _ in frames]
    rot = 1 if sines[1] > sines[0] else 0
    s, t, (m11, m12, m21, m22) = frames[rot]
    p0 = q.vertices[rot]
    t_map = AffineMap(m11, m12, m21, m22,
                      -(m11 * p0.x + m12 * p0.y),
                      -(m21 * p0.x + m22 * p0.y))
    return NormalForm(t_map, s, t, tuple((rot + i) % 4 for i in range(4)))


def _frame(q: ConvexQuad, rot: int,
           tol: Tolerances) -> tuple[float, float, tuple[float, float, float, float]]:
    """(s, t, inverse basis) of the frame sending vertices rot, rot+1,
    rot+2, rot+3 (mod 4) to (0,0), (1,0), (s,t), (0,1); (s, t) is solved
    from vertex differences, so it does not depend on where the quad sits."""
    v = q.vertices
    p0, p1, p2, p3 = (v[(rot + i) % 4] for i in range(4))
    b11, b12 = p1.x - p0.x, p3.x - p0.x
    b21, b22 = p1.y - p0.y, p3.y - p0.y
    det = b11 * b22 - b12 * b21
    if abs(det) <= tol.tol_det * (abs(b11 * b22) + abs(b12 * b21)):
        raise NumericalFailure("normalization basis is singular")
    m11, m12 = b22 / det, -b12 / det
    m21, m22 = -b21 / det, b11 / det
    dx, dy = p2.x - p0.x, p2.y - p0.y
    s, t = m11 * dx + m12 * dy, m21 * dx + m22 * dy
    if not (s > 0 and t > 0 and s + t > 1):
        raise NumericalFailure("normal form violates convexity bounds")
    return s, t, (m11, m12, m21, m22)


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
        raise NumericalFailure("s = 1: center line is vertical in this labeling")
    return LocusLine((t - 1) / (s - 1), (s - t) / (2 * (s - 1)), nf.interval())


def _param_in_interval(nf: NormalForm, h, tol: Tolerances) -> None:
    lo, hi = nf.interval()
    u = (h - lo) / (hi - lo)
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"abscissa {h} outside the open interval ({lo}, {hi})")


def weights_from_center(nf: NormalForm, h,
                        tol: Tolerances = DEFAULT_TOL) -> tuple[WeightTriple, WeightTriple]:
    """Weight triples of the two side-line triangles for the center (h, L(h)).

    Closed forms t1 = (2h-s)/t, t2 = 1-2h and s1 = (t-1)(2h-s)/(s(s-1)),
    s2 = (t-1)(1-2h)/(s-1); both products are strictly positive on the open
    interval.  Exact number types pass through unchanged.
    """
    _param_in_interval(nf, h, tol)
    return _weights(nf, h)


def _weights(nf: NormalForm, h) -> tuple[WeightTriple, WeightTriple]:
    s, t = nf.s, nf.t
    wt = WeightTriple((2 * h - s) / t, 1 - 2 * h)
    ws = WeightTriple((t - 1) * (2 * h - s) / (s * (s - 1)),
                      (t - 1) * (1 - 2 * h) / (s - 1))
    return wt, ws


def foci_quadratic(nf: NormalForm, h,
                   tol: Tolerances = DEFAULT_TOL) -> tuple[complex, complex]:
    """(root sum, root product) of the shared monic focal quadratic
    z^2 - 2(h + i L(h)) z + i (s - 2h)/(s - 1).

    Holds along the whole center line: the roots are the foci of the
    inscribed ellipse between the diagonal midpoints, of the tangent
    hyperbola beyond them.
    Verifies within 1e-10 that the focal numerators of the side-line
    triangles reduce to this monic form: always for the first triangle,
    and for the second only when t != 1 (with one parallel side pair it
    does not exist).  Requires s != 1, which ``locus_line`` enforces.
    """
    s, t = float(nf.s), float(nf.t)
    line = locus_line(nf, tol)
    h = float(h)
    k = float(line(h))
    root_sum = complex(2 * h, 2 * k)
    root_product = 1j * (s - 2 * h) / (s - 1)

    wt, ws = _weights(nf, h)
    triangles = [((0j, 1 + 0j, complex(0, -t / (s - 1))), wt)]
    if abs(t - 1) > tol.tol_par:
        triangles.append(((0j, 1j, complex(-s / (t - 1), 0)), ws))
    for tri, weights in triangles:
        a1, a2, a3 = weights.as_tuple()
        esum = a1 * (tri[1] + tri[2]) + a2 * (tri[0] + tri[2]) + a3 * (tri[0] + tri[1])
        eprod = a1 * tri[1] * tri[2] + a2 * tri[0] * tri[2] + a3 * tri[0] * tri[1]
        if abs(esum - root_sum) > 1e-10 * max(1.0, abs(root_sum)) or \
           abs(eprod - root_product) > 1e-10 * max(1.0, abs(root_product)):
            raise NumericalFailure("focal numerators disagree with the monic form")
    return root_sum, root_product


def _project_to_segment(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """(parameter along ab, distance to the infinite line)."""
    dx, dy = b.x - a.x, b.y - a.y
    den = dx * dx + dy * dy
    u = ((p.x - a.x) * dx + (p.y - a.y) * dy) / den
    dist = abs((p.x - a.x) * dy - (p.y - a.y) * dx) / math.sqrt(den)
    return u, dist


def _marden_conic(nf: NormalForm, h: float, tol: Tolerances) -> Conic:
    """Original-frame tangent conic at normalized abscissa h, from the focal
    construction: foci f1, f2 from ``foci_quadratic``, through the contact
    point (0, (s-2h)/(2h(s-1))), whose focal distances sum to 2a between
    the diagonal midpoints (ellipse) and differ by 2a beyond them
    (hyperbola).  With c = |f2-f1|/2 and u, v the unit focal direction and
    its normal, Q_n = u u^T / a^2 + v v^T / ((a-c)(a+c)); a = c raises
    DegeneratePoint.  Q_n goes out through T's 2x2 linear part L only, as
    Q = L^T Q_n L about the center T^-1((f1+f2)/2); pushing out the full
    3x3 matrix instead rounds the center worse.
    """
    s = float(nf.s)
    f1, f2 = stable_quadratic_roots(*foci_quadratic(nf, h, tol))
    contact = complex(0.0, (s - 2 * h) / (2 * h * (s - 1)))
    d1, d2 = abs(contact - f1), abs(contact - f2)
    lo, hi = nf.interval()
    a = (d1 + d2) / 2 if lo < h < hi else abs(d1 - d2) / 2
    half = (f2 - f1) / 2
    c = abs(half)
    if abs(a - c) <= 1e-12 * max(1.0, a):
        raise DegeneratePoint("contact point lies on the focal line")
    ux, uy = (half.real / c, half.imag / c) if c else (1.0, 0.0)
    m = (f1 + f2) / 2
    cx, cy = nf.T.inverse().apply_xy(m.real, m.imag)
    form = _axis_form(ux, uy, 1 / (a * a), 1 / ((a - c) * (a + c)))
    return _central_conic(*_pull_back_form(*form, nf.T), cx, cy)


def _construct(q: ConvexQuad, seg: LocusSegment, nf: NormalForm, h: float,
               center: Point, tol: Tolerances) -> InscribedResult:
    """The inscribed ellipse at normalized abscissa h, whose original-frame
    center ``center`` was requested; runs the classification, tangency and
    center-drift checks."""
    conic = _marden_conic(nf, h, tol)
    ellipse = ellipse_from_conic(conic, tol)
    tangencies = tuple(tangency_point(conic, line, tol) for line in q.side_lines())
    if math.hypot(ellipse.center.x - center.x, ellipse.center.y - center.y) > \
            1e-6 * (1 + seg.length()):
        raise NumericalFailure("inscribed conic center drifted from the request")
    wt, ws = weights_from_center(nf, h, tol)
    return InscribedResult(ellipse, conic, tangencies, wt, ws)


def _inscribe_centers(q: ConvexQuad, seg: LocusSegment, centers,
                      tol: Tolerances) -> list[InscribedResult]:
    """Inscribed ellipses at each of ``centers`` on ``seg`` = locus(q),
    from one normal form; every center is checked before it is built."""
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("inscribed ellipses of a parallelogram are not unique")
    for center in centers:
        u, dist = _project_to_segment(center, seg.m1, seg.m2)
        if dist > tol.tol_on * (1 + seg.length()):
            raise CenterOffLocus("center is not on the line of the locus segment")
        if not (tol.tol_interval < u < 1 - tol.tol_interval):
            raise CenterOffLocus("center is not strictly between the diagonal midpoints")
    nf = normalize(q, tol)
    return [_construct(q, seg, nf, nf.T.apply_xy(c.x, c.y)[0], c, tol) for c in centers]


def inscribe_at_center(q: ConvexQuad, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """The unique inscribed ellipse with the given center.

    The center must lie strictly inside the open locus segment.  The focal
    construction runs in the normalized frame and is mapped back, with or
    without a parallel side pair.  Parallelograms are rejected: four common
    tangent lines of two distinct concentric ellipses would have to form a
    parallelogram, so uniqueness fails there.  A side the conic misses
    raises NotTangent from ``tangency_point``.
    """
    return _inscribe_centers(q, locus(q), (center,), tol)[0]


def inscribe_at_param(q: ConvexQuad, u: float,
                      tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """Inscribed ellipse at the locus point m1 + u*(m2 - m1), 0 < u < 1."""
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"parameter {u} outside the open unit interval")
    seg = locus(q)
    return _inscribe_centers(q, seg, (seg.point_at(u),), tol)[0]


def chord_x(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> ChordX:
    """Open chord cut by the quadrilateral's interior from the center line.

    Contains the locus segment strictly; its endpoints lie on the boundary.
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("center line degenerates for parallelograms")
    seg = locus(q)
    dx, dy = seg.m2.x - seg.m1.x, seg.m2.y - seg.m1.y
    taus = []
    for line in q.side_lines():
        den = line.a * dx + line.b * dy
        if abs(den) <= tol.tol_par:
            continue
        tau = -line.eval(seg.m1) / den
        taus.append(tau)
    before = [t for t in taus if t < 0]
    after = [t for t in taus if t > 1]
    if not before or not after:
        raise NumericalFailure("center line failed to exit the quadrilateral")
    return ChordX(seg.point_at(max(before)), seg.point_at(min(after)))


def tangent_conic_at_center(q: ConvexQuad, center: Point,
                            tol: Tolerances = DEFAULT_TOL):
    """Tangent conic for any admissible center on the interior chord.

    Returns (conic, classification, contact points).  Centers strictly
    between the diagonal midpoints give the inscribed ellipse; centers on
    the chord beyond them give a hyperbola tangent to all four side lines,
    where a tangency "at infinity" (contact point with w = 0) means the
    side line is an asymptote.  Both come from the focal construction of
    ``inscribe_at_center`` (``_marden_conic``), at the center's abscissa in
    the normal form.  The midpoints themselves are degenerate members and
    are rejected with DegenerateAtMidpoint; a missed side raises NotTangent.
    """
    ch = chord_x(q, tol)
    u, dist = _project_to_segment(center, ch.p_start, ch.p_end)
    if dist > tol.tol_on * (1 + ch.length()):
        raise CenterOffLocus("center is not on the center line")
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus("center is not strictly inside the chord")
    seg = locus(q)
    for m in (seg.m1, seg.m2):
        um, _ = _project_to_segment(m, ch.p_start, ch.p_end)
        if abs(u - um) <= tol.tol_interval:
            raise DegenerateAtMidpoint("center coincides with a diagonal midpoint")
    nf = normalize(q, tol)
    conic = _marden_conic(nf, nf.T.apply_xy(center.x, center.y)[0], tol)
    classification = classify_conic(conic, tol)
    tangencies = tuple(tangency_point(conic, line, tol) for line in q.side_lines())
    return conic, classification, tangencies
