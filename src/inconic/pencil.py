"""All conics tangent to four lines, via the pencil of dual conics.

A line l is tangent to a point conic with matrix M iff l^T adj(M) l = 0, so
conics tangent to four fixed lines correspond to dual conics through four
fixed "points" in line space.  That family is the pencil spanned by two
degenerate duals, each the symmetrized outer product of a pair of
intersection points of the four lines (the complete quadrilateral's point
pairs).  Sweeping the pencil parameter sweeps every tangent conic; the
homogeneous center of a member is the third column of its dual matrix,
linear in the parameter: prescribing a center is a linear condition on it,
and the line of centers is one cross product.

It runs on the side lines in the original frame, apart from the
normal-frame construction, and doubles as its brute-force oracle.  Matrices are 3x3 tuples of row tuples of floats.  The
arithmetic is written out in scalars: ``pencil_from_lines`` forms each of
the six cross products l_i x l_j of the line vectors, and its length, once
and reads the coincidence tests, the four concurrency determinants
l_i . (l_j x l_k) and the four meets off them; a symmetric matrix is built
from its six distinct entries, and ``member_with_center`` reuses the
member's Frobenius norm for its own checks and for the point conic.
"""
from __future__ import annotations

import math

from .errors import (
    CenterOffLocus,
    DegenerateConfiguration,
    DegenerateMember,
)
from .geometry import (
    Conic,
    Line,
    Point,
    _canonical_six,
    _rebuild,
    _Value,
)

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]


def _cross3(u, v) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sym3(m00, m01, m11, m02, m12, m22) -> Mat3:
    """The symmetric matrix with these entries, canonically scaled: unit
    Frobenius norm, and the first entry of magnitude above 1e-12, in the
    order 00, 01, 11, 02, 12, 22, positive."""
    entries = _canonical_six(m00, m01, m11, m02, m12, m22, 2.0)
    if entries is None:
        raise ValueError("matrix cannot be zero or non-finite")
    m00, m01, m11, m02, m12, m22 = entries
    return ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))


def _canonical_sym3(m) -> Mat3:
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return _sym3(m00, (m01 + m10) / 2, m11, (m02 + m20) / 2, (m12 + m21) / 2, m22)


class DualConic(_Value):
    """Symmetric 3x3 form on line coordinates, canonically scaled.

    A line l is tangent to the underlying point conic iff l^T D l = 0.
    """
    __slots__ = ("m",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m: Mat3):
        self._fill((_canonical_sym3(m),))

    def apply_line(self, l: Line) -> float:
        a, b, c = l.a, l.b, l.c
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.m
        return (a * (m00 * a + m01 * b + m02 * c) + b * (m10 * a + m11 * b + m12 * c)
                + c * (m20 * a + m21 * b + m22 * c))


class TangentPencil(_Value):
    """Pencil of dual conics through four tangent lines.

    Members are den*d_a + num*d_b over the projective parameter
    (num : den); (1 : 0) is d_b itself.
    """
    __slots__ = ("d_a", "d_b", "lines")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, d_a: DualConic, d_b: DualConic, lines: tuple[Line, Line, Line, Line]):
        self._fill((d_a, d_b, lines))

    def member_matrix(self, num: float, den: float = 1.0) -> Mat3:
        scale = math.hypot(num, den)
        if scale == 0:
            raise ValueError("projective parameter cannot be (0, 0)")
        wa, wb = den / scale, num / scale
        return tuple(tuple(wa * x + wb * y for x, y in zip(ra, rb)) for ra, rb in zip(self.d_a.m, self.d_b.m))

    def member(self, num: float, den: float = 1.0) -> DualConic:
        return DualConic(self.member_matrix(num, den))


def _rank2_dual(p: Vec3, p_norm: float, q: Vec3, q_norm: float) -> DualConic:
    """The dual P Q^T + Q P^T of the meets P = p/|p| and Q = q/|q|."""
    p0, p1, p2 = p[0] / p_norm, p[1] / p_norm, p[2] / p_norm
    q0, q1, q2 = q[0] / q_norm, q[1] / q_norm, q[2] / q_norm
    return _rebuild(DualConic, (_sym3(2 * p0 * q0, p0 * q1 + q0 * p1, 2 * p1 * q1,
                                      p0 * q2 + q0 * p2, p1 * q2 + q1 * p2, 2 * p2 * q2),))


def pencil_from_lines(l1: Line, l2: Line, l3: Line, l4: Line) -> TangentPencil:
    """Span the pencil from the complete quadrilateral's point pairs.

    Degenerate members are built deterministically from the pairs
    ((l1^l2), (l3^l4)) and ((l1^l3), (l2^l4)).  Requires four distinct
    lines with no three concurrent; parallel pairs are fine (their meet is
    a point at infinity).  Lines i and j coincide when |l_i x l_j| is at
    most 1e-12 (1 + |c_i|) (1 + |c_j|); lines i, j, k are concurrent when
    |l_i . (l_j x l_k)| is at most 1e-12 max(1, |c_i|, |c_j|, |c_k|).
    """
    v0, v1, v2, v3 = (l1.a, l1.b, l1.c), (l2.a, l2.b, l2.c), (l3.a, l3.b, l3.c), (l4.a, l4.b, l4.c)
    x01, x02, x03 = _cross3(v0, v1), _cross3(v0, v2), _cross3(v0, v3)
    x12, x13, x23 = _cross3(v1, v2), _cross3(v1, v3), _cross3(v2, v3)
    n01, n02, n03 = math.hypot(*x01), math.hypot(*x02), math.hypot(*x03)
    n12, n13, n23 = math.hypot(*x12), math.hypot(*x13), math.hypot(*x23)
    c0, c1, c2, c3 = abs(l1.c), abs(l2.c), abs(l3.c), abs(l4.c)
    s0, s1, s2, s3 = 1 + c0, 1 + c1, 1 + c2, 1 + c3
    if n01 <= 1e-12 * s0 * s1:
        raise DegenerateConfiguration("lines 0 and 1 coincide")
    if n02 <= 1e-12 * s0 * s2:
        raise DegenerateConfiguration("lines 0 and 2 coincide")
    if n03 <= 1e-12 * s0 * s3:
        raise DegenerateConfiguration("lines 0 and 3 coincide")
    if n12 <= 1e-12 * s1 * s2:
        raise DegenerateConfiguration("lines 1 and 2 coincide")
    if n13 <= 1e-12 * s1 * s3:
        raise DegenerateConfiguration("lines 1 and 3 coincide")
    if n23 <= 1e-12 * s2 * s3:
        raise DegenerateConfiguration("lines 2 and 3 coincide")
    if abs(_dot3(v0, x12)) <= 1e-12 * max(1.0, c0, c1, c2):
        raise DegenerateConfiguration("lines 0, 1, 2 are concurrent")
    if abs(_dot3(v0, x13)) <= 1e-12 * max(1.0, c0, c1, c3):
        raise DegenerateConfiguration("lines 0, 1, 3 are concurrent")
    if abs(_dot3(v0, x23)) <= 1e-12 * max(1.0, c0, c2, c3):
        raise DegenerateConfiguration("lines 0, 2, 3 are concurrent")
    if abs(_dot3(v1, x23)) <= 1e-12 * max(1.0, c1, c2, c3):
        raise DegenerateConfiguration("lines 1, 2, 3 are concurrent")
    return TangentPencil(_rank2_dual(x01, n01, x23, n23), _rank2_dual(x02, n02, x13, n13),
                         (l1, l2, l3, l4))


def _point_conic(d00, d01, d11, d02, d12, d22, norm: float) -> Conic:
    """The point conic of the symmetric dual with these entries and
    Frobenius norm ``norm``: the adjugate of the unit-norm dual."""
    d00, d01, d11 = d00 / norm, d01 / norm, d11 / norm
    d02, d12, d22 = d02 / norm, d12 / norm, d22 / norm
    a00 = d11 * d22 - d12 * d12
    a01 = d02 * d12 - d01 * d22
    a02 = d01 * d12 - d02 * d11
    return Conic(a00, 2 * a01, d00 * d22 - d02 * d02,
                 2 * a02, 2 * (d02 * d01 - d00 * d12), d00 * d11 - d01 * d01)


def member_with_center(p: TangentPencil, center: Point) -> Conic:
    """The tangent conic with the prescribed center.

    The center of the member at parameter lam solves two linear equations
    D13(lam) = h*D33(lam) and D23(lam) = k*D33(lam); the better-conditioned
    one is solved projectively and the other must be consistent, which
    happens exactly when the center lies on the pencil's line of centers:
    its residual must stay below 1e-8 times the member's Frobenius norm.
    Center equations or a member of norm at most 1e-12 are degenerate, and
    so is a member whose own center, its dual's third column, lands more
    than 1e-6 max(1, |h|, |k|) from the request, or a request within
    1e-9 max(1, |h|, |k|) of a degenerate member's center, the midpoint of
    one of the complete quadrilateral's three diagonals.
    """
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = p.d_a.m
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = p.d_b.m
    h, k = center.x, center.y
    # the two center equations read den*c0 + num*c1 = 0 for the member
    # den*d_a + num*d_b; the one with the larger coefficients is solved and
    # the other, (o0, o1), checked
    c0, c1 = a02 - h * a22, b02 - h * b22
    o0, o1 = a12 - k * a22, b12 - k * b22
    if math.hypot(c0, c1) < math.hypot(o0, o1):
        c0, c1, o0, o1 = o0, o1, c0, c1
    num, den = -c0, c1
    scale = math.hypot(num, den)
    if scale <= 1e-12:
        raise DegenerateMember("center equations are degenerate for this pencil")
    num, den = num / scale, den / scale
    d00, d01, d11 = den * a00 + num * b00, den * a01 + num * b01, den * a11 + num * b11
    d02, d12, d22 = den * a02 + num * b02, den * a12 + num * b12, den * a22 + num * b22
    dn = math.sqrt(d00 * d00 + d11 * d11 + d22 * d22 + 2 * (d01 * d01 + d02 * d02 + d12 * d12))
    if dn <= 1e-12:
        raise DegenerateMember("selected pencil member vanishes")
    residual = abs(o0 * den + o1 * num)
    if residual >= 1e-8 * dn:
        raise CenterOffLocus(
            "center is not on the pencil's line of centers "
            f"(residual {residual:.3e})")
    # the degenerate members: d_a, d_b and the pair (l1^l4 = m, l2^l3 = n)
    l1, l2, l3, l4 = p.lines
    m = _cross3((l1.a, l1.b, l1.c), (l4.a, l4.b, l4.c))
    n = _cross3((l2.a, l2.b, l2.c), (l3.a, l3.b, l3.c))
    near = 1e-9 * max(1.0, abs(h), abs(k))
    for x, y, w in ((a02, a12, a22), (b02, b12, b22),
                    (m[0] * n[2] + n[0] * m[2], m[1] * n[2] + n[1] * m[2], 2 * m[2] * n[2])):
        if math.hypot(x - h * w, y - k * w) <= near * abs(w):
            raise DegenerateMember("pencil member is a degenerate dual")
    conic = _point_conic(d00, d01, d11, d02, d12, d22, dn)
    if d22 == 0 or math.hypot(d02 / d22 - h, d12 / d22 - k) > 1e-6 * max(1.0, abs(h), abs(k)):
        raise DegenerateMember("member center drifted from the request")
    return conic


def centers_line(p: TangentPencil) -> Line:
    """Line carrying the centers of every member of the pencil.

    The member den*d_a + num*d_b has the homogeneous center den*a + num*b,
    a and b the third columns of d_a and d_b, so that line is a x b.  It
    needs |a|, |b| > 1e-12, |a x b| > 1e-9 |a||b| (a parallelogram's members
    are concentric) and an (x, y) part above 1e-12 |a||b| (not at infinity).
    """
    a, b = [row[2] for row in p.d_a.m], [row[2] for row in p.d_b.m]
    na, nb = math.hypot(*a), math.hypot(*b)
    x, y, w = _cross3(a, b)
    if (na > 1e-12 and nb > 1e-12 and math.hypot(x, y, w) > 1e-9 * na * nb
            and math.hypot(x, y) > 1e-12 * na * nb):
        return Line(x, y, w)
    raise DegenerateConfiguration(
        "all member centers coincide; no line of centers (parallelogram)")
