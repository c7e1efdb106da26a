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
normal-frame construction, and doubles as its brute-force oracle: it reads
only the lines and calls none of ``inscribed``'s code.  Matrices are
3x3 tuples of row tuples of floats.

The cross-check builds one pencil and one member per center, so both are
written out in straight-line scalar code.  ``pencil_from_lines`` forms each
of the six cross products l_i x l_j of the line vectors and its length
once, reads the six coincidence tests and the four concurrency
determinants l_i . (l_j x l_k) off them, and builds d_a and d_b from the
meets in one loop, through ``_canonical_six``.  ``member_with_center``
solves and checks the center equations, tests the three degenerate
members' centers in turn and reuses the member's Frobenius norm for its
own checks and for the point conic.
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
    _slot_setters,
    _Value,
)

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]


def _cross3(u, v) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class DualConic(_Value):
    """Symmetric 3x3 form on line coordinates, canonically scaled: unit
    Frobenius norm, and the first entry of magnitude above 1e-12, in the
    order 00, 01, 11, 02, 12, 22, positive.

    A line l is tangent to the underlying point conic iff l^T D l = 0.
    """
    __slots__ = ("m",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m: Mat3):
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
        _set_dual(self, _canonical_six(m00, (m01 + m10) / 2, m11, (m02 + m20) / 2,
                                       (m12 + m21) / 2, m22, 2.0))

    def apply_line(self, l: Line) -> float:
        a, b, c = l.a, l.b, l.c
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.m
        return (a * (m00 * a + m01 * b + m02 * c) + b * (m10 * a + m11 * b + m12 * c)
                + c * (m20 * a + m21 * b + m22 * c))


def _set_dual(dual: DualConic, entries) -> DualConic:
    """Fill dual's matrix from ``_canonical_six``'s entries (00, 01, 11,
    02, 12, 22); None, a zero or non-finite matrix, raises ValueError."""
    if entries is None:
        raise ValueError("matrix cannot be zero or non-finite")
    m00, m01, m11, m02, m12, m22 = entries
    _dual_m(dual, ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22)))
    return dual


class TangentPencil(_Value):
    """Pencil of dual conics through four tangent lines.

    Members are den*d_a + num*d_b over the projective parameter
    (num : den); (1 : 0) is d_b itself.
    """
    __slots__ = ("d_a", "d_b", "lines")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, d_a: DualConic, d_b: DualConic, lines: tuple[Line, Line, Line, Line]):
        _pencil_d_a(self, d_a)
        _pencil_d_b(self, d_b)
        _pencil_lines(self, lines)

    def member_matrix(self, num: float, den: float = 1.0) -> Mat3:
        scale = math.hypot(num, den)
        if scale == 0:
            raise ValueError("projective parameter cannot be (0, 0)")
        wa, wb = den / scale, num / scale
        return tuple(tuple(wa * x + wb * y for x, y in zip(ra, rb)) for ra, rb in zip(self.d_a.m, self.d_b.m))

    def member(self, num: float, den: float = 1.0) -> DualConic:
        return DualConic(self.member_matrix(num, den))


(_dual_m,) = _slot_setters(DualConic)
_pencil_d_a, _pencil_d_b, _pencil_lines = _slot_setters(TangentPencil)


def pencil_from_lines(l1: Line, l2: Line, l3: Line, l4: Line) -> TangentPencil:
    """Span the pencil from the complete quadrilateral's point pairs.

    Degenerate members are built deterministically from the pairs
    ((l1^l2), (l3^l4)) and ((l1^l3), (l2^l4)).  Requires four distinct
    lines with no three concurrent; parallel pairs are fine (their meet is
    a point at infinity).  Lines i and j coincide when |l_i x l_j| is at
    most 1e-12 (1 + |c_i|) (1 + |c_j|); lines i, j, k are concurrent when
    |l_i . (l_j x l_k)| is at most 1e-12 max(1, |c_i|, |c_j|, |c_k|).
    """
    a0, b0, c0 = l1.a, l1.b, l1.c
    a1, b1, c1 = l2.a, l2.b, l2.c
    a2, b2, c2 = l3.a, l3.b, l3.c
    a3, b3, c3 = l4.a, l4.b, l4.c
    # the meets (x_ij, y_ij, w_ij) = l_i x l_j and their lengths n_ij
    x01, y01, w01 = b0 * c1 - c0 * b1, c0 * a1 - a0 * c1, a0 * b1 - b0 * a1
    x02, y02, w02 = b0 * c2 - c0 * b2, c0 * a2 - a0 * c2, a0 * b2 - b0 * a2
    x03, y03, w03 = b0 * c3 - c0 * b3, c0 * a3 - a0 * c3, a0 * b3 - b0 * a3
    x12, y12, w12 = b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2
    x13, y13, w13 = b1 * c3 - c1 * b3, c1 * a3 - a1 * c3, a1 * b3 - b1 * a3
    x23, y23, w23 = b2 * c3 - c2 * b3, c2 * a3 - a2 * c3, a2 * b3 - b2 * a3
    hypot = math.hypot
    n01, n02, n03 = hypot(x01, y01, w01), hypot(x02, y02, w02), hypot(x03, y03, w03)
    n12, n13, n23 = hypot(x12, y12, w12), hypot(x13, y13, w13), hypot(x23, y23, w23)
    e0, e1, e2, e3 = abs(c0), abs(c1), abs(c2), abs(c3)
    s0, s1, s2, s3 = 1 + e0, 1 + e1, 1 + e2, 1 + e3
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
    if abs(a0 * x12 + b0 * y12 + c0 * w12) <= 1e-12 * max(1.0, e0, e1, e2):
        raise DegenerateConfiguration("lines 0, 1, 2 are concurrent")
    if abs(a0 * x13 + b0 * y13 + c0 * w13) <= 1e-12 * max(1.0, e0, e1, e3):
        raise DegenerateConfiguration("lines 0, 1, 3 are concurrent")
    if abs(a0 * x23 + b0 * y23 + c0 * w23) <= 1e-12 * max(1.0, e0, e2, e3):
        raise DegenerateConfiguration("lines 0, 2, 3 are concurrent")
    if abs(a1 * x23 + b1 * y23 + c1 * w23) <= 1e-12 * max(1.0, e1, e2, e3):
        raise DegenerateConfiguration("lines 1, 2, 3 are concurrent")
    # d_a and d_b, each the dual P Q^T + Q P^T of its meets P = p/|p|, Q = q/|q|
    duals = []
    for px, py, pw, pn, qx, qy, qw, qn in ((x01, y01, w01, n01, x23, y23, w23, n23),
                                            (x02, y02, w02, n02, x13, y13, w13, n13)):
        p0, p1, p2 = px / pn, py / pn, pw / pn
        q0, q1, q2 = qx / qn, qy / qn, qw / qn
        duals.append(_set_dual(object.__new__(DualConic), _canonical_six(
            2 * p0 * q0, p0 * q1 + q0 * p1, 2 * p1 * q1,
            p0 * q2 + q0 * p2, p1 * q2 + q1 * p2, 2 * p2 * q2, 2.0)))
    return TangentPencil(*duals, (l1, l2, l3, l4))


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
    # the degenerate members: d_a, d_b and the pair (l1^l4 = m, l2^l3 = n),
    # whose homogeneous center is (x, y, w)
    l1, l2, l3, l4 = p.lines
    mx, my, mw = l1.b * l4.c - l1.c * l4.b, l1.c * l4.a - l1.a * l4.c, l1.a * l4.b - l1.b * l4.a
    nx, ny, nw = l2.b * l3.c - l2.c * l3.b, l2.c * l3.a - l2.a * l3.c, l2.a * l3.b - l2.b * l3.a
    x, y, w = mx * nw + nx * mw, my * nw + ny * mw, 2 * mw * nw
    near = 1e-9 * max(1.0, abs(h), abs(k))
    if (math.hypot(a02 - h * a22, a12 - k * a22) <= near * abs(a22)
            or math.hypot(b02 - h * b22, b12 - k * b22) <= near * abs(b22)
            or math.hypot(x - h * w, y - k * w) <= near * abs(w)):
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
