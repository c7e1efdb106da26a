"""The unique maximal-area inscribed ellipse.

On the diagonal pencil the inscribed ellipse at abscissa lam has area
pi sqrt(det P), det P = lam (1 - lam) (lam alpha + (1 - lam) beta) / 4
with alpha = A012 A023 and beta = A013 A123 (``inscribed``).  The cubic
f(lam) = 4 det P vanishes at both midpoints, and its derivative
-3 (alpha - beta) lam^2 + 2 (alpha - 2 beta) lam + beta, alpha/3 > 0 at
lam = 1/3 and -beta/3 < 0 at 2/3, has one root in (0, 1): the maximum
exists and is unique, while the infimum 0 is never attained.  In the
normal form the same area is pi/(2|s-1|) sqrt(A(h)), with the cubic
A(h) = (s-2h)(2h-1)(s+2h(t-1)) that ``area_cubic`` evaluates.
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
from .inscribed import InscribedResult, NormalForm, _construct, _param_in_interval, _pencil


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
    root -c/b when a == 0.  q = 0 needs b = c = 0: for f'(lam), beta = 0,
    which a convex quad's areas rule out."""
    disc = b * b - 4 * a * c
    if disc < 0:
        raise NumericalFailure("expected a real quadratic discriminant")
    q = -(b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0)) / 2
    if a == 0:
        return (c / q,)
    return q / a, c / q


def max_area(q: ConvexQuad, tol: Tolerances = DEFAULT_TOL) -> MaxAreaResult:
    """The unique maximal-area inscribed ellipse.

    The critical abscissa is the closed-form root of f'(lam) inside (0, 1)
    (exactly one exists).  Where alpha = beta, as for one parallel side
    pair, f'(lam) is linear and its root is lam = 1/2, the middle of the
    locus.  The ellipse is built at that lam from the quad's pencil record,
    with no tol_interval margin, and ``h0`` is its abscissa in the normal
    frame ``normalize`` builds.  Nothing here divides by s - 1, so a quad
    one ulp from a parallelogram builds too; a parallelogram raises
    ParallelogramUnsupported.  The result is filled through its slot
    setters, as its ``__init__`` would fill it.
    """
    rec = _pencil(q)
    alpha, beta = rec[0][-2:]
    roots = _real_quadratic_roots(3 * (beta - alpha), 2 * (alpha - 2 * beta), beta)
    lam, other = roots[0], roots[-1]  # one root twice where f' is linear
    if not 0 < lam < 1:
        lam, other = other, lam
    if not 0 < lam < 1 or (len(roots) == 2 and 0 < other < 1):
        raise NumericalFailure("expected exactly one critical abscissa inside (0, 1)")
    result = _construct(rec, lam, 1 - lam, tol)
    ellipse = result.ellipse
    best = object.__new__(MaxAreaResult)
    _best_ellipse(best, ellipse)
    _best_center(best, ellipse.center)
    _best_area(best, ellipse.area)
    _best_h0(best, lam * rec[5] + (1 - lam) * rec[6])
    _best_inscribed(best, result)
    return best
