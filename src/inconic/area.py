"""Areas of tangent ellipses and the unique maximal-area inscribed ellipse.

For a triangle ABC and a center P off the side lines, the conic tangent to
the three side lines centered at P has area
4*pi/area(ABC) * sqrt(sigma (sigma-alpha)(sigma-beta)(sigma-gamma)) with
alpha, beta, gamma the unsigned sub-triangle areas and sigma their
half-sum — a Heron-like product that is labeling-invariant and covers
exterior centers without a branch.  Along the center locus this reduces to
pi/(2|s-1|) sqrt((2h-1)(s + 2h(t-1))(s-2h)) in the normalized frame, so
maximizing the area means maximizing the cubic
A(h) = (s-2h)(2h-1)(s+2h(t-1)), which vanishes at both interval ends and
has a single interior critical point: the maximum exists and is unique,
while the infimum 0 is never attained.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateTriangle,
    NoRealEllipse,
    NumericalFailure,
    ParallelogramUnsupported,
)
from .geometry import (
    DEFAULT_TOL,
    ConvexQuad,
    EllipseGeo,
    Line,
    Point,
    QuadKind,
    Tolerances,
)
from .inscribed import (
    InscribedResult,
    NormalForm,
    inscribe_at_center,
    locus_line,
    normalize,
    _param_in_interval,
)


@dataclass(frozen=True)
class AreaTriple:
    """Unsigned sub-triangle areas around a center, with their half-sum."""

    alpha: float
    beta: float
    gamma: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("sub-triangle areas are unsigned")
        object.__setattr__(self, "sigma", (self.alpha + self.beta + self.gamma) / 2)

    @property
    def product(self) -> float:
        s = self.sigma
        return s * (s - self.alpha) * (s - self.beta) * (s - self.gamma)

    @property
    def is_real(self) -> bool:
        return self.product >= 0


@dataclass(frozen=True)
class MaxAreaResult:
    """Unique maximal-area inscribed ellipse and where it sits."""

    ellipse: EllipseGeo
    center: Point
    area: float
    h0: float  # normalized-frame abscissa of the center
    inscribed: InscribedResult


def _tri_area(a: Point, b: Point, c: Point) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2


def triangle_tangent_ellipse_area(a: Point, b: Point, c: Point, p: Point,
                                  tol: Tolerances = DEFAULT_TOL) -> float:
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


def area_cubic(nf: NormalForm, h):
    """A(h) = (s - 2h)(2h - 1)(s + 2h(t - 1)).

    Vanishes at h = 1/2 and h = s/2 and is positive strictly between them.
    Exact number types pass through unchanged; for t = 1 this degenerates
    to a quadratic (times s).
    """
    s, t = nf.s, nf.t
    return (s - 2 * h) * (2 * h - 1) * (s + 2 * h * (t - 1))


def inscribed_area(nf: NormalForm, h, tol: Tolerances = DEFAULT_TOL) -> float:
    """Normalized-frame area pi/(2|s-1|) sqrt(A(h)) of the inscribed ellipse
    centered at abscissa h.  Divide by |det(nf.T linear part)| for the
    original-frame area."""
    _param_in_interval(nf, h, tol)
    value = float(area_cubic(nf, h))
    if value < 0:
        raise NumericalFailure("area cubic negative inside the open interval")
    return math.pi / (2 * abs(float(nf.s) - 1)) * math.sqrt(value)


def _real_quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a x^2 + b x + c, stable against cancellation; the one
    root -c/b when a == 0."""
    disc = b * b - 4 * a * c
    if disc < 0:
        raise NumericalFailure("expected a real quadratic discriminant")
    q = -(b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0)) / 2
    if a == 0:
        return (c / q,)
    if q == 0:
        return (0.0, 0.0) if c == 0 else (-b / a, 0.0)
    return q / a, c / q


def max_area(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> MaxAreaResult:
    """The unique maximal-area inscribed ellipse.

    The critical abscissa is the closed-form root of A'(h) inside the open
    interval (exactly one exists).  With one parallel side pair (t = 1)
    A'(h) is linear and its root is h = (s + 1)/4, the interval midpoint.
    """
    if q.kind is QuadKind.PARALLELOGRAM:
        raise ParallelogramUnsupported("no unique inscribed ellipse for a parallelogram")
    nf = normalize(q, tol)
    s, t = float(nf.s), float(nf.t)
    # A'(h) = -24(t-1) h^2 + 8((s+1)(t-1) - s) h + 2s(s + 2 - t)
    roots = _real_quadratic_roots(-24 * (t - 1),
                                  8 * ((s + 1) * (t - 1) - s),
                                  2 * s * (s + 2 - t))
    lo, hi = nf.interval()
    inside = [r for r in roots if lo < r < hi]
    if len(inside) != 1:
        raise NumericalFailure(
            f"expected exactly one critical abscissa inside ({lo}, {hi})")
    h0 = inside[0]
    k0 = locus_line(nf, tol)(h0)
    center = nf.T.inverse().apply(Point(h0, k0))
    result = inscribe_at_center(q, center, tol)
    ellipse = result.ellipse
    return MaxAreaResult(ellipse, ellipse.center, ellipse.area, h0, result)
