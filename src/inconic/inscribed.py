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
diagonal midpoints yield tangent hyperbolas, built from the dual-conic
pencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CenterOffChord,
    CenterOffLocus,
    DegenerateAtMidpoint,
    NumericalFailure,
    ParallelogramUnsupported,
    TrapezoidForm,
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
    classify_conic,
    conic_from_ellipse,
    ellipse_from_conic,
    ellipse_from_foci_point,
    midpoint,
    tangency_point,
    tangency_residual,
    transform_conic,
)
from .marden import WeightTriple, stable_quadratic_roots
from .pencil import member_with_center, pencil_from_lines


@dataclass(frozen=True)
class NormalForm:
    """Affine change of frame onto vertices (0,0), (1,0), (s,t), (0,1).

    ``T`` maps the original frame to the normalized one; ``labeling`` lists
    which canonical-quad vertex indices land on (0,0), (1,0), (s,t), (0,1).
    Convexity forces s > 0, t > 0, s + t > 1; with no parallel sides also
    s != 1 and t != 1, and with one parallel pair the labeling is chosen so
    that the pair maps to y = 0 and y = 1, i.e. t = 1.
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

    Picks the cyclic labeling deterministically: identity for no parallel
    sides; for one parallel pair, the rotation that maps the pair onto
    y = 0 and y = 1 (hence t = 1).
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("parallelograms have no unique normal form here")
    rot = 0
    if q.kind is QuadKind.TRAPEZOID:
        v = q.vertices
        d02 = _unit_dir(v[0], v[1]), _unit_dir(v[2], v[3])
        cross02 = d02[0][0] * d02[1][1] - d02[0][1] * d02[1][0]
        rot = 0 if abs(cross02) <= tol.tol_par else 1
    v = q.vertices
    p0, p1, p2, p3 = (v[(rot + i) % 4] for i in range(4))
    b11, b12 = p1.x - p0.x, p3.x - p0.x
    b21, b22 = p1.y - p0.y, p3.y - p0.y
    det = b11 * b22 - b12 * b21
    if abs(det) <= tol.tol_det:
        raise NumericalFailure("normalization basis is singular")
    m11, m12 = b22 / det, -b12 / det
    m21, m22 = -b21 / det, b11 / det
    t_map = AffineMap(m11, m12, m21, m22,
                      -(m11 * p0.x + m12 * p0.y),
                      -(m21 * p0.x + m22 * p0.y))
    s, t = t_map.apply_xy(p2.x, p2.y)
    if not (s > 0 and t > 0 and s + t > 1):
        raise NumericalFailure("normal form violates convexity bounds")
    labeling = tuple((rot + i) % 4 for i in range(4))
    return NormalForm(t_map, s, t, labeling)


def _unit_dir(p: Point, q: Point) -> tuple[float, float]:
    n = math.hypot(q.x - p.x, q.y - p.y)
    return ((q.x - p.x) / n, (q.y - p.y) / n)


def locus_line(nf: NormalForm, tol: Tolerances = DEFAULT_TOL) -> LocusLine:
    """Normalized-frame center line y = (s - t + 2x(t-1)) / (2(s-1)).

    Passes through both diagonal midpoints (1/2, 1/2) and (s/2, t/2).
    Requires s != 1 (otherwise the line is vertical and this slope form
    does not exist; ``normalize`` gives s = 1 only to parallelograms).
    """
    s, t = nf.s, nf.t
    if abs(s - 1) <= tol.tol_par:
        raise TrapezoidForm("s = 1: center line is vertical in this labeling")
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
    s, t = nf.s, nf.t
    wt = WeightTriple((2 * h - s) / t, 1 - 2 * h)
    ws = WeightTriple((t - 1) * (2 * h - s) / (s * (s - 1)),
                      (t - 1) * (1 - 2 * h) / (s - 1))
    return wt, ws


def foci_quadratic(nf: NormalForm, h,
                   tol: Tolerances = DEFAULT_TOL) -> tuple[complex, complex]:
    """(root sum, root product) of the shared monic focal quadratic
    z^2 - 2(h + i L(h)) z + i (s - 2h)/(s - 1).

    Verifies within 1e-10 that the focal numerators of the side-line
    triangles reduce to this monic form: always for the first triangle,
    and for the second only when t != 1 (with one parallel side pair it
    does not exist).  Requires s != 1, which ``locus_line`` enforces.
    """
    s, t = float(nf.s), float(nf.t)
    line = locus_line(nf, tol)
    _param_in_interval(nf, h, tol)
    h = float(h)
    k = float(line(h))
    root_sum = complex(2 * h, 2 * k)
    root_product = 1j * (s - 2 * h) / (s - 1)

    wt, ws = weights_from_center(nf, h, tol)
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
    """Original-frame inscribed conic from the focal construction."""
    s = float(nf.s)
    root_sum, root_product = foci_quadratic(nf, h, tol)
    f1, f2 = stable_quadratic_roots(root_sum, root_product)
    contact_y = (s - 2 * h) / (2 * h * (s - 1))
    ellipse_n = ellipse_from_foci_point(
        Point(f1.real, f1.imag), Point(f2.real, f2.imag),
        Point(0.0, contact_y), tol)
    conic_n = conic_from_ellipse(ellipse_n)
    return transform_conic(conic_n, nf.T.inverse(), tol)


def inscribe_at_center(q: ConvexQuad, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """The unique inscribed ellipse with the given center.

    The center must lie strictly inside the open locus segment.  The focal
    construction runs in the normalized frame and is mapped back, with or
    without a parallel side pair.  Parallelograms are rejected: four common
    tangent lines of two distinct concentric ellipses would have to form a
    parallelogram, so uniqueness fails there.
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("inscribed ellipses of a parallelogram are not unique")
    seg = locus(q)
    u, dist = _project_to_segment(center, seg.m1, seg.m2)
    if dist > tol.tol_on * (1 + seg.length()):
        raise CenterOffLocus("center is not on the line of the locus segment")
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus("center is not strictly between the diagonal midpoints")
    nf = normalize(q, tol)
    h = nf.T.apply_xy(center.x, center.y)[0]
    conic = _marden_conic(nf, h, tol)
    ellipse = ellipse_from_conic(conic, tol)
    lines = q.side_lines()
    for line in lines:
        if tangency_residual(conic, line) >= tol.tol_tan:
            raise NumericalFailure("inscribed conic misses a side tangency")
    if math.hypot(ellipse.center.x - center.x, ellipse.center.y - center.y) > \
            1e-6 * (1 + seg.length()):
        raise NumericalFailure("inscribed conic center drifted from the request")
    tangencies = tuple(tangency_point(conic, line, tol) for line in lines)
    wt, ws = weights_from_center(nf, h, tol)
    return InscribedResult(ellipse, conic, tangencies, wt, ws)


def inscribe_at_param(q: ConvexQuad, u: float,
                      tol: Tolerances = DEFAULT_TOL) -> InscribedResult:
    """Inscribed ellipse at the locus point m1 + u*(m2 - m1), 0 < u < 1."""
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffLocus(f"parameter {u} outside the open unit interval")
    return inscribe_at_center(q, locus(q).point_at(u), tol)


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
    side line is an asymptote.  The midpoints themselves are degenerate
    members and are rejected.
    """
    ch = chord_x(q, tol)
    u, dist = _project_to_segment(center, ch.p_start, ch.p_end)
    if dist > tol.tol_on * (1 + ch.length()):
        raise CenterOffChord("center is not on the center line")
    if not (tol.tol_interval < u < 1 - tol.tol_interval):
        raise CenterOffChord("center is not strictly inside the chord")
    seg = locus(q)
    for m in (seg.m1, seg.m2):
        um, _ = _project_to_segment(m, ch.p_start, ch.p_end)
        if abs(u - um) <= tol.tol_interval:
            raise DegenerateAtMidpoint("center coincides with a diagonal midpoint")
    pen = pencil_from_lines(*q.side_lines(), tol=tol)
    conic = member_with_center(pen, center, tol)
    classification = classify_conic(conic, tol)
    lines = q.side_lines()
    for line in lines:
        if tangency_residual(conic, line) >= tol.tol_tan:
            raise NumericalFailure("tangent conic misses a side tangency")
    tangencies = tuple(tangency_point(conic, line, tol) for line in lines)
    return conic, classification, tangencies
