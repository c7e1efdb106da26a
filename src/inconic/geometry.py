"""Planar primitives: points, homogeneous points, lines, affine maps, conics.

All operations are pure functions on immutable values, so everything here
is safe to share between concurrent tasks.  One value also keeps a private
memo: a ``ConvexQuad`` stores its own pencil record, the tuple every
construction on it reads, the first time one runs (``inscribed``'s
``_pencil``).  Sharing a quad stays safe: the store is one reference
assignment of an immutable tuple, so a reader sees no record or a whole
one and never half of it, and two tasks that race only both compute the
same record.  The package's value types derive
from ``_Value``: the fields are ``__slots__``, set once by an ``__init__``
that makes the type's checks; assigning or deleting one raises
AttributeError; equality, hashing, repr, copy and pickle go by the slots.
Conics are kept in a canonical homogeneous scale (unit Frobenius norm of the
symmetric matrix, first nonzero coefficient positive) so that equality and
distance between conics are well defined.
"""
from __future__ import annotations

import math
from enum import Enum

from .errors import DegenerateQuad, NotAnEllipse, NotConvex, NumericalFailure, SingularMap


def _rebuild(cls, values):
    """cls holding values, not checked or normalized again by ``__init__``."""
    obj = object.__new__(cls)
    obj._fill(values)
    return obj


class _Value:
    """Immutable value over ``__slots__``, compared, hashed, printed, copied
    and pickled by its slots; ``__init__`` sets each slot once, in one of
    two ways.  A type built on every construction or cross-check (points,
    lines, conics, ellipses, the pencil and its duals, and the result
    records) sets its slots one by one through its slot descriptors'
    ``__set__`` (``_slot_setters``), which skips ``_fill``'s loop; every
    other type, ``AffineMap`` too, hands ``_fill`` its values in slot
    order.  The construction calls no ``__init__``: it fills its outputs
    through the setters after the same checks, held once in ``_set_line``
    and ``_set_conic`` or made inline on the floats, as ``_metric_ellipse``
    makes them for the ellipse and its three points in the same pass."""
    __slots__ = ()

    def _fill(self, values) -> None:
        set_slot = object.__setattr__
        for name, value in zip(self.__slots__, values):
            set_slot(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values())


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot descriptor of cls, in slot order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Tolerances(_Value):
    """Numeric tolerances of the construction, each finite and > 0.

    A single record so the construction can be tightened or loosened at
    once (see the CLI's ``--tol`` flag); the oracles and the conic tools
    they use keep fixed thresholds.
    """
    __slots__ = ("tol_tan", "tol_par", "tol_interval", "tol_on", "tol_infinity")

    def __init__(self,
                 tol_tan: float = 1e-8,        # tangency residual acceptance
                 tol_par: float = 1e-9,        # corner and side-pair cross products over the area
                 tol_interval: float = 1e-9,   # open-interval margin on locus parameters
                 tol_on: float = 1e-9,         # normal-frame miss of the center line
                 tol_infinity: float = 1e-10):  # relative |w| below which a point is at infinity
        values = (tol_tan, tol_par, tol_interval, tol_on, tol_infinity)
        for name, value in zip(self.__slots__, values):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value!r}")
        self._fill(values)

    def replace(self, **kwargs) -> "Tolerances":
        return Tolerances(**dict(zip(self.__slots__, self._values()), **kwargs))

    @classmethod
    def from_string(cls, text: str) -> "Tolerances":
        """Parse ``"name=value,name=value"`` overrides onto the defaults."""
        text = text.strip()
        if not text:
            return cls()
        overrides = {}
        for item in text.split(","):
            name, _, value = item.partition("=")
            name = name.strip()
            if name not in cls.__slots__:
                raise ValueError(f"unknown tolerance setting {item!r}")
            if not value.strip():
                raise ValueError(f"missing value for tolerance {name}")
            if name in overrides:
                raise ValueError(f"tolerance {name} is set twice")
            overrides[name] = float(value)
        return cls(**overrides)


DEFAULT_TOL = Tolerances()
_SINGULAR = 1e-12  # relative |det| of a singular map: AffineMap and inscribed._frame


class Point(_Value):
    """Affine plane point."""
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("point components must be finite")
        _point_x(self, x)
        _point_y(self, y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def _unit_direction(x: float, y: float) -> tuple[float, float]:
    """(x, y) scaled to unit length, signed so x > 0, or x = 0 and y > 0."""
    n = math.hypot(x, y)
    x, y = x / n, y / n
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return x, y


class HomPoint(_Value):
    """Homogeneous point (x : y : w); w = 0 encodes a point at infinity.

    The contact points the package returns are dehomogenized, with w
    exactly 1 or 0, so ``is_infinite`` and ``to_point`` read w = 0 exactly:
    a relative test on |w| would put a finite point beyond about 1e10 at
    infinity.  ``dehomogenized`` is where a raw pole meets the relative
    test, |w| <= 1e-10 |(x, y, w)|.
    """
    __slots__ = ("x", "y", "w")

    def __init__(self, x: float, y: float, w: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w)):
            raise ValueError("homogeneous components must be finite")
        if x == 0 and y == 0 and w == 0:
            raise ValueError("homogeneous point cannot be the zero triple")
        _hom_x(self, x)
        _hom_y(self, y)
        _hom_w(self, w)

    def is_infinite(self) -> bool:
        return self.w == 0

    def dehomogenized(self) -> "HomPoint":
        """Scale to w = 1, or to a unit direction with w = 0 when |w| is at
        most 1e-10 relative to the norm."""
        x, y, w = self.x, self.y, self.w
        if abs(w) <= 1e-10 * math.sqrt(x * x + y * y + w * w):
            return HomPoint(*_unit_direction(x, y), 0.0)
        return HomPoint(x / w, y / w, 1.0)

    def to_point(self) -> Point:
        if self.is_infinite():
            raise ValueError("cannot dehomogenize a point at infinity")
        return Point(self.x / self.w, self.y / self.w)


class Line(_Value):
    """Oriented line a*x + b*y + c = 0, stored with a^2 + b^2 = 1.

    The sign is fixed so the first nonzero of (a, b) is positive, which makes
    the representation canonical; ``eval`` is then a signed distance.
    """
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        _set_line(self, a, b, c)

    @classmethod
    def from_points(cls, p: Point, q: Point) -> "Line":
        """The line through p and q, built by ``_line_through``, the
        builder ``ConvexQuad.side_lines`` uses for each side."""
        return _line_through(p.x, p.y, q.x, q.y)

    def eval(self, p: Point) -> float:
        """Signed distance of p from the line."""
        return self.a * p.x + self.b * p.y + self.c


def _set_line(line: Line, a: float, b: float, c: float) -> Line:
    """Fill line's slots with (a, b, c) scaled to a^2 + b^2 = 1, signed so
    that the first nonzero of (a, b) is positive."""
    n = math.hypot(a, b)
    if n == 0 or not math.isfinite(n) or not math.isfinite(float(c)):
        raise ValueError("line requires finite (a, b) != (0, 0)")
    a, b, c = a / n, b / n, c / n
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    _line_a(line, a)
    _line_b(line, b)
    _line_c(line, c)
    return line


def _line_through(px: float, py: float, qx: float, qy: float) -> Line:
    """The line through (px, py) and (qx, qy), from its normal (qy - py,
    px - qx)."""
    a = qy - py
    b = px - qx
    if a == 0 and b == 0:
        raise ValueError("cannot build a line through coincident points")
    # (a, b) scaled by a power of two to [1/2, 1) before c is formed,
    # so c overflows only where the line itself is out of range
    e = -math.frexp(max(abs(a), abs(b)))[1]
    a, b = math.ldexp(a, e), math.ldexp(b, e)
    return _set_line(object.__new__(Line), a, b, -(a * px + b * py))


class AffineMap(_Value):
    """Invertible planar affine map x -> M x + t; singular, whatever its
    scale, when |det| <= _SINGULAR (|m11 m22| + |m12 m21|)."""
    __slots__ = ("m11", "m12", "m21", "m22", "tx", "ty")

    def __init__(self, m11: float, m12: float, m21: float, m22: float,
                 tx: float = 0.0, ty: float = 0.0):
        _affine_det(m11, m12, m21, m22, tx, ty)
        self._fill((m11, m12, m21, m22, tx, ty))

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_xy(self, x: float, y: float) -> tuple[float, float]:
        return (self.m11 * x + self.m12 * y + self.tx,
                self.m21 * x + self.m22 * y + self.ty)

    def apply(self, p: Point) -> Point:
        return Point(*self.apply_xy(p.x, p.y))

    def inverse(self) -> "AffineMap":
        d = self.det
        i11, i12 = self.m22 / d, -self.m12 / d
        i21, i22 = -self.m21 / d, self.m11 / d
        return AffineMap(i11, i12, i21, i22,
                         -(i11 * self.tx + i12 * self.ty),
                         -(i21 * self.tx + i22 * self.ty))


def _affine_det(m11: float, m12: float, m21: float, m22: float,
                tx: float, ty: float) -> float:
    """det of the linear part of x -> M x + t, after ``AffineMap``'s checks:
    every entry finite (else ValueError), M's products finite (else
    NumericalFailure: out of float range, not singular) and M not singular
    (else SingularMap)."""
    isfinite = math.isfinite
    if not (isfinite(m11) and isfinite(m12) and isfinite(m21) and isfinite(m22)
            and isfinite(tx) and isfinite(ty)):
        raise ValueError("affine map entries must be finite")
    det = m11 * m22 - m12 * m21
    size = abs(m11 * m22) + abs(m12 * m21)
    if not size < math.inf:
        raise NumericalFailure("linear part is out of float range")
    if abs(det) <= _SINGULAR * size:
        raise SingularMap(f"linear part is singular (det={det:g})")
    return det


class QuadKind(Enum):
    TRAPEZIUM = "trapezium"          # no parallel side pair
    TRAPEZOID = "trapezoid"          # exactly one parallel side pair
    PARALLELOGRAM = "parallelogram"  # both side pairs parallel


class _MemoValue(_Value):
    """A value with one private slot, ``_pencil``, that is not a field: it
    takes no part in equality, hashing, repr, copy or pickle, which read
    the subclass's ``__slots__`` only.  ``ConvexQuad`` keeps its pencil
    record there (see ``inscribed._pencil``); a copy or an unpickled quad
    starts without it."""
    __slots__ = ("_pencil",)


class ConvexQuad(_MemoValue):
    """Strictly convex quadrilateral, counterclockwise from the lexicographic
    smallest vertex (see :func:`validate_quad`)."""
    __slots__ = ("v0", "v1", "v2", "v3", "kind")

    def __init__(self, v0: Point, v1: Point, v2: Point, v3: Point, kind: QuadKind):
        self._fill((v0, v1, v2, v3, kind))

    @property
    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return (self.v0, self.v1, self.v2, self.v3)

    def side_lines(self) -> tuple[Line, Line, Line, Line]:
        """Lines through the sides, in order (v0v1, v1v2, v2v3, v3v0), each
        built as ``Line.from_points`` builds it, by ``_line_through``."""
        v0, v1, v2, v3 = self.v0, self.v1, self.v2, self.v3
        x0, y0, x1, y1, x2, y2, x3, y3 = v0.x, v0.y, v1.x, v1.y, v2.x, v2.y, v3.x, v3.y
        return (_line_through(x0, y0, x1, y1), _line_through(x1, y1, x2, y2),
                _line_through(x2, y2, x3, y3), _line_through(x3, y3, x0, y0))


def _unit_quad(v0: Point, v1: Point, v2: Point, v3: Point) -> tuple:
    """(e, x1, y1, x2, y2, x3, y3, A012, A013, A023, A123, d1, d2), the one
    derivation ``validate_quad`` and ``inscribed._pencil`` read: the
    vertices relative to v0, scaled by 2^-e to unit size (the largest
    coordinate in [1/2, 1), or below for e = -1023, where 2^-e would
    overflow), the doubled areas Aijk of the triangles pi pj pk, and the
    side pairs' cross products d1 = (p2 - p1) x (p3 - p0) and
    d2 = (p1 - p0) x (p3 - p2) formed from edge vectors, not as the
    differences of areas they equal, which cancel.  Where an area's terms
    exceed 8 times its value, all six are the floats nearest their exact
    values, the coordinates being integers over one power of two.
    """
    x0, y0 = v0.x, v0.y
    x1, y1, x2, y2, x3, y3 = v1.x - x0, v1.y - y0, v2.x - x0, v2.y - y0, v3.x - x0, v3.y - y0
    extent = max(abs(x1), abs(y1), abs(x2), abs(y2), abs(x3), abs(y3))
    if not extent < math.inf:
        raise NumericalFailure("quadrilateral is out of float range")
    e = max(math.frexp(extent)[1], -1023)
    k = math.ldexp(1.0, -e)
    x1, y1, x2, y2, x3, y3 = x1 * k, y1 * k, x2 * k, y2 * k, x3 * k, y3 * k
    t1, t2, t3, t4 = x1 * y2, y1 * x2, x1 * y3, y1 * x3
    t5, t6, t7, t8 = x2 * y3, y2 * x3, (x2 - x1) * (y3 - y1), (y2 - y1) * (x3 - x1)
    a012, a013, a023, a123 = t1 - t2, t3 - t4, t5 - t6, t7 - t8
    if (abs(t1) + abs(t2) <= 8 * abs(a012) and abs(t3) + abs(t4) <= 8 * abs(a013)
            and abs(t5) + abs(t6) <= 8 * abs(a023) and abs(t7) + abs(t8) <= 8 * abs(a123)):
        return (e, x1, y1, x2, y2, x3, y3, a012, a013, a023, a123,
                (x2 - x1) * y3 - (y2 - y1) * x3, x1 * (y3 - y2) - y1 * (x3 - x2))
    ratios = [c.as_integer_ratio() for v in (v0, v1, v2, v3) for c in (v.x, v.y)]
    shift = max(d for _, d in ratios).bit_length()  # denominators are powers of two
    n0, m0, n1, m1, n2, m2, n3, m3 = [n << (shift - d.bit_length()) for n, d in ratios]
    n1, m1, n2, m2, n3, m3 = n1 - n0, m1 - m0, n2 - n0, m2 - m0, n3 - n0, m3 - m0
    a012, a013, a023 = n1 * m2 - m1 * n2, n1 * m3 - m1 * n3, n2 * m3 - m2 * n3
    p = 2 * (shift - 1 + e)
    num, den = (1, 1 << p) if p >= 0 else (1 << -p, 1)
    return (e, x1, y1, x2, y2, x3, y3) + tuple(
        a * num / den for a in (a012, a013, a023, a012 + a023 - a013, a023 - a013, a013 - a012))


def validate_quad(vertices, tol: Tolerances = DEFAULT_TOL) -> ConvexQuad:
    """Validate and canonicalize four vertices given in any cyclic order.

    Returns the quad reordered counterclockwise starting from the
    lexicographically smallest vertex, with its parallel-pair classification.
    Raises DegenerateQuad for repeated vertices or an (almost) zero-area
    input, judged at unit scale, and NumericalFailure when the vertices'
    differences overflow.  Every other verdict is a ratio to the doubled
    area A = A012 + A023 of ``_unit_quad`` in the canonical order, which no
    affine map changes: vertex i = 0..3 raises NotConvex unless its corner
    triangle's area A013, A012, A123 or A023 exceeds tol_par A, and a side
    pair is parallel when its cross product d2 or d1 is at most tol_par A.
    A vertex is a Point or exactly two coordinates, else ValueError.
    """
    pts = []
    for v in vertices:
        if not isinstance(v, Point):
            if len(v) != 2:
                raise ValueError(f"a vertex needs exactly two coordinates, got {len(v)}")
            v = Point(v[0], v[1])
        pts.append(v)
    if len(pts) != 4:
        raise ValueError("exactly four vertices required")
    # degeneracy is judged against the quad's own extent, so neither where
    # the quad sits nor the unit of its coordinates changes the verdict
    xs, ys = [p.x for p in pts], [p.y for p in pts]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    if not extent < math.inf:  # before the tests below, which inf would pass
        raise NumericalFailure("quadrilateral is out of float range")
    for i in range(4):
        for j in range(i + 1, 4):
            if math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y) <= 1e-12 * extent:
                raise DegenerateQuad(f"vertices {i} and {j} coincide")
    start = min(range(4), key=lambda i: (pts[i].x, pts[i].y))
    p0, p1, p2, p3 = pts[start:] + pts[:start]
    e, _, _, _, _, _, _, a012, a013, a023, a123, d1, d2 = _unit_quad(p0, p1, p2, p3)
    area = a012 + a023
    unit = math.ldexp(extent, -e)
    if abs(area) <= 1e-12 * unit * unit:
        raise DegenerateQuad("vertex set has (near) zero area")
    if area < 0:  # clockwise: reversed, v0 stays the smallest vertex
        p1, p3 = p3, p1
        _, _, _, _, _, _, _, a012, a013, a023, a123, d1, d2 = _unit_quad(p0, p1, p2, p3)
        area = a012 + a023
    bound = tol.tol_par * area
    for i, corner in enumerate((a013, a012, a123, a023)):
        if corner <= bound:
            raise NotConvex(f"cross product at vertex {i} is not strictly positive")
    parallel_pairs = sum(1 for d in (d2, d1) if abs(d) <= bound)
    kind = (QuadKind.TRAPEZIUM, QuadKind.TRAPEZOID, QuadKind.PARALLELOGRAM)[parallel_pairs]
    return ConvexQuad(p0, p1, p2, p3, kind)


# --------------------------------------------------------------------------
# Conics
# --------------------------------------------------------------------------

class ConicClass(Enum):
    REAL_ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARABOLA = "parabola"
    DEGENERATE_LINES = "degenerate"
    IMAGINARY_ELLIPSE = "imaginary_ellipse"


def _canonical_six(x0, x1, x2, x3, x4, x5, off):
    """Entries (00, 01, 11, 02, 12, 22) of a symmetric 3x3 matrix, scaled to
    unit Frobenius norm with the first of them above 1e-12 in magnitude
    positive; None when one is not finite or all vanish.

    The off-diagonal entries count ``off`` times in the squared norm: 2 for
    the matrix's own entries, 1/2 for a conic's b, d and e, which are twice
    theirs.  Where the squares overflow or underflow, the entries are first
    divided by the largest magnitude; every other matrix keeps the bits of
    one division by its plain norm.
    """
    norm = math.sqrt(x0 * x0 + x2 * x2 + x5 * x5 + off * (x1 * x1 + x3 * x3 + x4 * x4))
    if not 1e-150 < norm < math.inf:
        xs = (x0, x1, x2, x3, x4, x5)
        if not all(map(math.isfinite, xs)) or not any(xs):
            return None
        big = max(map(abs, xs))
        return _canonical_six(*(x / big for x in xs), off)
    x0, x1, x2, x3, x4, x5 = x0 / norm, x1 / norm, x2 / norm, x3 / norm, x4 / norm, x5 / norm
    for v in (x0, x1, x2, x3, x4, x5):
        if abs(v) > 1e-12:
            if v < 0:
                return (-x0, -x1, -x2, -x3, -x4, -x5)
            break
    return (x0, x1, x2, x3, x4, x5)


class Conic(_Value):
    """Conic a x^2 + b xy + c y^2 + d x + e y + f = 0, canonically scaled."""
    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a: float, b: float, c: float, d: float, e: float, f: float):
        _set_conic(self, float(a), float(b), float(c), float(d), float(e), float(f))

    def evaluate(self, x: float, y: float) -> float:
        return (self.a * x * x + self.b * x * y + self.c * y * y
                + self.d * x + self.e * y + self.f)

    def coefficients(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def center(self) -> Point:
        """Solve grad = 0; raises SingularMap for central-less conics.

        Singularity is judged relative to the quadratic block's own size,
        |ac - b^2/4| <= 1e-12 (|ac| + b^2/4), as for AffineMap: the
        canonical scale shrinks that block for conics far from the origin,
        where the constant term dominates, without making them centerless.
        """
        det = self.a * self.c - self.b * self.b / 4
        if abs(det) <= 1e-12 * (abs(self.a * self.c) + self.b * self.b / 4):
            raise SingularMap("conic has no unique center")
        x = (-self.d / 2 * self.c + self.e / 2 * self.b / 2) / det
        y = (-self.e / 2 * self.a + self.d / 2 * self.b / 2) / det
        return Point(x, y)


class EllipseGeo(_Value):
    """Ellipse in metric form: center, semi-axes, major-axis angle, foci.

    angle lies in (-pi/2, pi/2]; foci are ordered lexicographically and are
    symmetric about the center with |f1 - f2| = 2 sqrt(a^2 - b^2).
    """
    __slots__ = ("center", "semi_major", "semi_minor", "angle", "focus1", "focus2")

    def __init__(self, center: Point, semi_major: float, semi_minor: float,
                 angle: float, focus1: Point, focus2: Point):
        if not (semi_major > 0 and semi_minor > 0):
            raise ValueError("semi-axes must be positive")
        if semi_major < semi_minor:
            raise ValueError("semi_major must be the larger axis")
        if not (-math.pi / 2 < angle <= math.pi / 2):
            raise ValueError("angle must lie in (-pi/2, pi/2]")
        _ellipse_center(self, center)
        _ellipse_major(self, semi_major)
        _ellipse_minor(self, semi_minor)
        _ellipse_angle(self, angle)
        _ellipse_focus1(self, focus1)
        _ellipse_focus2(self, focus2)

    @property
    def area(self) -> float:
        return math.pi * self.semi_major * self.semi_minor


# the slot setters of the types built per construction or cross-check (``_Value``)
_point_x, _point_y = _slot_setters(Point)
_hom_x, _hom_y, _hom_w = _slot_setters(HomPoint)
_line_a, _line_b, _line_c = _slot_setters(Line)
_conic_a, _conic_b, _conic_c, _conic_d, _conic_e, _conic_f = _slot_setters(Conic)
(_ellipse_center, _ellipse_major, _ellipse_minor, _ellipse_angle, _ellipse_focus1,
 _ellipse_focus2) = _slot_setters(EllipseGeo)


def _set_conic(conic: Conic, a: float, b: float, c: float, d: float, e: float,
               f: float) -> Conic:
    """Fill conic's slots with (a, ..., f) canonically scaled, after
    ``Conic``'s checks."""
    coeffs = _canonical_six(a, b, c, d, e, f, 0.5)
    if coeffs is None:
        if all(map(math.isfinite, (a, b, c, d, e, f))):
            raise ValueError("conic coefficients cannot all vanish")
        raise ValueError("conic coefficients must be finite")
    a, b, c, d, e, f = coeffs
    _conic_a(conic, a)
    _conic_b(conic, b)
    _conic_c(conic, c)
    _conic_d(conic, d)
    _conic_e(conic, e)
    _conic_f(conic, f)
    return conic


def _central_conic(q11: float, q12: float, q22: float, cx: float, cy: float) -> Conic:
    """The conic (x-c)^T Q (x-c) = 1, Q = [[q11, q12], [q12, q22]], canonically scaled."""
    lin_x = -2 * (q11 * cx + q12 * cy)
    lin_y = -2 * (q12 * cx + q22 * cy)
    const = q11 * cx * cx + 2 * q12 * cx * cy + q22 * cy * cy - 1
    return _set_conic(object.__new__(Conic), q11, 2 * q12, q22, lin_x, lin_y, const)


def _metric_ellipse(p: float, q: float, r: float, det: float, value: float,
                    cx: float, cy: float, unit: float = 1.0) -> EllipseGeo:
    """The ellipse ((x-c)/unit)^T [[p, q], [q, r]] ((x-c)/unit) = value,
    c = (cx, cy), block positive definite with determinant det = pr - q^2
    and value > 0, in metric form: the block is read in units of ``unit``,
    a power of two.

    The block has the closed-form eigenvalues
    lam_hi = (p+r)/2 + hypot((p-r)/2, q) and lam_lo = det/lam_hi (a
    quotient, so the small one does not cancel); semi-axis^2 =
    value/eigenvalue, and the semi-axes and the focal distance are scaled
    by ``unit`` last, exactly.  A caller that knows det as a product passes
    it in, since pr - q^2 cancels for thin ellipses.  lam_hi's eigenvector
    lies at 1/2 atan2(2q, p-r), so the major axis lies a quarter turn on.
    An under- or overflowed eigenvalue raises NotAnEllipse, and so does a
    minor axis over the major by more than 1e-14 of it; axes within 1e-14
    of each other make a circle, with both axes the major one, angle 0 and
    both foci at the center (a circle's axes cross by a few ulps at any
    scale).  The points and the ellipse are filled through their slot
    setters, after ``Point``'s finiteness test on the foci, which a
    non-finite center fails too, and ``EllipseGeo``'s checks.
    """
    lam_hi = (p + r) / 2 + math.hypot((p - r) / 2, q)
    lam_lo = det / lam_hi
    if not 0 < lam_lo < math.inf:  # an infinite or NaN lam_hi gives 0 or NaN here
        raise NotAnEllipse("ellipse axes out of float range")
    semi_major, semi_minor = math.sqrt(value / lam_lo), math.sqrt(value / lam_hi)
    if semi_minor - semi_major > 1e-14 * semi_major:
        raise NotAnEllipse("inconsistent axis extraction")
    angle = 0.0
    if semi_major - semi_minor <= 1e-14 * semi_major:  # a circle, to rounding
        semi_minor = semi_major
    else:
        angle = math.atan2(2 * q, p - r) / 2 + math.pi / 2  # in [0, pi]
        if angle > math.pi / 2:
            angle -= math.pi
    cdist = unit * math.sqrt(max(semi_major**2 - semi_minor**2, 0.0))
    semi_major, semi_minor = unit * semi_major, unit * semi_minor
    ux, uy = math.cos(angle), math.sin(angle)
    x1, y1 = cx - cdist * ux, cy - cdist * uy
    x2, y2 = cx + cdist * ux, cy + cdist * uy
    isfinite = math.isfinite
    if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
        raise ValueError("point components must be finite")
    # EllipseGeo's other checks hold by construction: semi_minor is at most
    # semi_major, and the angle lies in (-pi/2, pi/2]
    if not (semi_major > 0 and semi_minor > 0):
        raise ValueError("semi-axes must be positive")
    if x2 < x1 or (x2 == x1 and y2 < y1):  # the foci in lexicographic order
        x1, y1, x2, y2 = x2, y2, x1, y1
    new = object.__new__
    center, focus1, focus2, ellipse = new(Point), new(Point), new(Point), new(EllipseGeo)
    _point_x(center, cx)
    _point_y(center, cy)
    _point_x(focus1, x1)
    _point_y(focus1, y1)
    _point_x(focus2, x2)
    _point_y(focus2, y2)
    _ellipse_center(ellipse, center)
    _ellipse_major(ellipse, semi_major)
    _ellipse_minor(ellipse, semi_minor)
    _ellipse_angle(ellipse, angle)
    _ellipse_focus1(ellipse, focus1)
    _ellipse_focus2(ellipse, focus2)
    return ellipse


def _pull_back_form(q11: float, q12: float, q22: float, m11: float, m12: float,
                    m21: float, m22: float) -> tuple[float, float, float]:
    """(p11, p12, p22) of L^T Q L, L = [[m11, m12], [m21, m22]]: the
    quadratic form Q read through the map, x -> Q(L x)."""
    r11, r12 = q11 * m11 + q12 * m21, q11 * m12 + q12 * m22
    r21, r22 = q12 * m11 + q22 * m21, q12 * m12 + q22 * m22
    return (m11 * r11 + m21 * r21, m11 * r12 + m21 * r22, m12 * r12 + m22 * r22)

