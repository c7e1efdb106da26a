"""The unique maximal-area inscribed ellipse.

Along the center locus the inscribed ellipse at normalized abscissa h has
area pi/(2|s-1|) sqrt((2h-1)(s + 2h(t-1))(s-2h)) in the normalized frame
(the Heron-like triangle formula of ``marden`` reduced to the locus), so
maximizing the area means maximizing the cubic
A(h) = (s-2h)(2h-1)(s+2h(t-1)), which vanishes at both interval ends and
has a single interior critical point: the maximum exists and is unique,
while the infimum 0 is never attained.
"""
from __future__ import annotations

import math

from .errors import NumericalFailure
from .geometry import (
    DEFAULT_TOL,
    ConvexQuad,
    EllipseGeo,
    Point,
    Tolerances,
    _Value,
    _slot_setters,
)
from .inscribed import (
    _VERTICAL,
    InscribedResult,
    NormalForm,
    _construct,
    _locus_abscissas,
    _param_in_interval,
)


class MaxAreaResult(_Value):
    """Unique maximal-area inscribed ellipse and where it sits; h0 is the
    normalized-frame abscissa of the center."""
    __slots__ = ("ellipse", "center", "area", "h0", "inscribed")

    def __init__(self, ellipse: EllipseGeo, center: Point, area: float, h0: float,
                 inscribed: InscribedResult):
        _best_ellipse(self, ellipse)
        _best_center(self, center)
        _best_area(self, area)
        _best_h0(self, h0)
        _best_inscribed(self, inscribed)


_best_ellipse, _best_center, _best_area, _best_h0, _best_inscribed = _slot_setters(MaxAreaResult)


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
    centered at abscissa h.  Divide by |nf.det| for the original-frame
    area."""
    _param_in_interval(*nf.interval, h, tol)
    value = float(area_cubic(nf, h))
    if value < 0:
        raise NumericalFailure("area cubic negative inside the open interval")
    return math.pi / (2 * abs(float(nf.s) - 1)) * math.sqrt(value)


def _real_quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a x^2 + b x + c, stable against cancellation; the one
    root -c/b when a == 0.  q = 0 needs b = c = 0: for A'(h), t = s + 2
    and s^2 + s + 1 = 0, which has no real root."""
    disc = b * b - 4 * a * c
    if disc < 0:
        raise NumericalFailure("expected a real quadratic discriminant")
    q = -(b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0)) / 2
    if a == 0:
        return (c / q,)
    return q / a, c / q


def max_area(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> MaxAreaResult:
    """The unique maximal-area inscribed ellipse.

    The critical abscissa is the closed-form root of A'(h) inside the open
    interval (exactly one exists).  With one parallel side pair (t = 1)
    A'(h) is linear and its root is h = (s + 1)/4, the interval midpoint.
    The ellipse is built at h0 from the same normal frame, with no
    tol_interval margin.  A parallelogram's normal frame raises
    ParallelogramUnsupported; s = 1, where the interval is one point,
    raises NumericalFailure(_VERTICAL).
    """
    nf = _locus_abscissas(q)[0]
    if nf.chord is None:
        raise NumericalFailure(_VERTICAL)
    s, t = nf.s, nf.t
    lo, hi = nf.interval
    # A'(h) = -24(t-1) h^2 + 8((s+1)(t-1) - s) h + 2s(s + 2 - t)
    roots = _real_quadratic_roots(-24 * (t - 1),
                                  8 * ((s + 1) * (t - 1) - s),
                                  2 * s * (s + 2 - t))
    inside = [r for r in roots if lo < r < hi]
    if len(inside) != 1:
        raise NumericalFailure(
            f"expected exactly one critical abscissa inside ({lo}, {hi})")
    h0 = inside[0]
    result = _construct(nf, h0, tol)
    ellipse = result.ellipse
    return MaxAreaResult(ellipse, ellipse.center, ellipse.area, h0, result)
