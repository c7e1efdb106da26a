"""All conics tangent to four lines, via the pencil of dual conics.

A line l is tangent to a point conic with matrix M iff l^T adj(M) l = 0, so
conics tangent to four fixed lines correspond to dual conics through four
fixed "points" in line space.  That family is the pencil spanned by two
degenerate duals, each the symmetrized outer product of a pair of
intersection points of the four lines (the complete quadrilateral's point
pairs).  Sweeping the pencil parameter sweeps every tangent conic; the
homogeneous center of a member is the third column of its dual matrix, so
prescribing a center is a linear condition on the parameter.

This is a construction independent of the focal approach and doubles as its
brute-force oracle.  Matrices are 3x3 tuples of row tuples of floats.
"""
from __future__ import annotations

import math

from .errors import (
    CenterOffLocus,
    DegenerateConfiguration,
    DegenerateMember,
)
from .geometry import (
    DEFAULT_TOL,
    Conic,
    Line,
    Point,
    Tolerances,
    _Value,
    adjugate3,
)

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]


def _cross3(u, v) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _frobenius(m) -> float:
    return math.sqrt(sum(v * v for row in m for v in row))


def _combine(a, wa: float, b, wb: float) -> Mat3:
    return tuple(tuple(wa * x + wb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _line_vec(l: Line) -> Vec3:
    return (l.a, l.b, l.c)


def _canonical_sym3(m) -> Mat3:
    m = [[(m[i][j] + m[j][i]) / 2 for j in range(3)] for i in range(3)]
    norm = _frobenius(m)
    if norm == 0 or not math.isfinite(norm):
        raise ValueError("matrix cannot be zero or non-finite")
    m = [[v / norm for v in row] for row in m]
    for v in (m[0][0], m[0][1], m[1][1], m[0][2], m[1][2], m[2][2]):
        if abs(v) > 1e-12:
            if v < 0:
                m = [[-u for u in row] for row in m]
            break
    return tuple(tuple(row) for row in m)


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
        v = _line_vec(l)
        return _dot3(v, tuple(_dot3(row, v) for row in self.m))


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
        return _combine(self.d_a.m, den / scale, self.d_b.m, num / scale)

    def member(self, num: float, den: float = 1.0) -> DualConic:
        return DualConic(self.member_matrix(num, den))


def _meet(l1: Line, l2: Line) -> Vec3:
    p = _cross3(_line_vec(l1), _line_vec(l2))
    n = math.hypot(*p)
    return (p[0] / n, p[1] / n, p[2] / n)


def _rank2_dual(p: Vec3, q: Vec3) -> DualConic:
    return DualConic(tuple(tuple(p[i] * q[j] + q[i] * p[j] for j in range(3))
                           for i in range(3)))


def pencil_from_lines(l1: Line, l2: Line, l3: Line, l4: Line) -> TangentPencil:
    """Span the pencil from the complete quadrilateral's point pairs.

    Degenerate members are built deterministically from the pairs
    ((l1^l2), (l3^l4)) and ((l1^l3), (l2^l4)).  Requires four distinct
    lines with no three concurrent; parallel pairs are fine (their meet is
    a point at infinity).
    """
    lines = (l1, l2, l3, l4)
    vecs = [_line_vec(l) for l in lines]
    for i in range(4):
        for j in range(i + 1, 4):
            if math.hypot(*_cross3(vecs[i], vecs[j])) <= 1e-12 * (
                    1 + abs(lines[i].c)) * (1 + abs(lines[j].c)):
                raise DegenerateConfiguration(f"lines {i} and {j} coincide")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                det = _dot3(vecs[i], _cross3(vecs[j], vecs[k]))
                scale = max(1.0, abs(lines[i].c), abs(lines[j].c), abs(lines[k].c))
                if abs(det) <= 1e-12 * scale:
                    raise DegenerateConfiguration(f"lines {i}, {j}, {k} are concurrent")
    d_a = _rank2_dual(_meet(l1, l2), _meet(l3, l4))
    d_b = _rank2_dual(_meet(l1, l3), _meet(l2, l4))
    return TangentPencil(d_a, d_b, lines)


def _point_conic(dual_m) -> Conic:
    norm = _frobenius(dual_m)
    dual_m = tuple(tuple(v / norm for v in row) for row in dual_m)
    adj = adjugate3(dual_m)
    # rank-2 members (the degenerate duals themselves) still have a nonzero
    # adjugate, so the determinant test is the one that matters; it also
    # bounds the adjugate away from zero, as |det| <= ||row 0|| ||adj||
    if abs(_dot3(dual_m[0], (adj[0][0], adj[1][0], adj[2][0]))) < 1e-14:
        raise DegenerateMember("pencil member is a degenerate dual")
    return Conic(adj[0][0], 2 * adj[0][1], adj[1][1],
                 2 * adj[0][2], 2 * adj[1][2], adj[2][2])


def member_with_center(p: TangentPencil, center: Point,
                       tol: Tolerances = DEFAULT_TOL) -> Conic:
    """The tangent conic with the prescribed center.

    The center of the member at parameter lam solves two linear equations
    D13(lam) = h*D33(lam) and D23(lam) = k*D33(lam); the better-conditioned
    one is solved projectively and the other must be consistent, which
    happens exactly when the center lies on the pencil's line of centers.
    """
    a, b = p.d_a.m, p.d_b.m
    h, k = center.x, center.y
    # coefficients of the two affine-in-lambda center equations
    eqs = []
    for row, coord in ((0, h), (1, k)):
        c0 = a[row][2] - coord * a[2][2]
        c1 = b[row][2] - coord * b[2][2]
        eqs.append((c0, c1))
    idx = 0 if math.hypot(*eqs[0]) >= math.hypot(*eqs[1]) else 1
    c0, c1 = eqs[idx]
    num, den = -c0, c1
    scale = math.hypot(num, den)
    if scale <= tol.tol_det:
        raise DegenerateMember("center equations are degenerate for this pencil")
    num, den = num / scale, den / scale
    d = _combine(a, den, b, num)
    dn = _frobenius(d)
    if dn <= tol.tol_det:
        raise DegenerateMember("selected pencil member vanishes")
    o0, o1 = eqs[1 - idx]
    residual = abs(o0 * den + o1 * num)
    if residual >= tol.tol_center * dn:
        raise CenterOffLocus(
            "center is not on the pencil's line of centers "
            f"(residual {residual:.3e})")
    conic = _point_conic(d)
    got = conic.center(tol)
    if math.hypot(got.x - h, got.y - k) > 1e-6 * max(1.0, abs(h), abs(k)):
        raise DegenerateMember("member center drifted from the request")
    return conic


def centers_line(p: TangentPencil, tol: Tolerances = DEFAULT_TOL) -> Line:
    """Line carrying the centers of every member of the pencil.

    Built from the homogeneous centers of two distinct nondegenerate
    members; for a parallelogram every member is concentric and no line is
    determined.
    """
    samples = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0),
               (2.0, 1.0), (1.0, 2.0), (-1.0, 2.0), (3.0, 1.0)]
    centers = []
    for num, den in samples:
        m = p.member_matrix(num, den)
        col = (m[0][2], m[1][2], m[2][2])
        n = math.hypot(*col)
        if n <= tol.tol_det:
            continue
        centers.append((col[0] / n, col[1] / n, col[2] / n))
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            cross = _cross3(centers[i], centers[j])
            if math.hypot(*cross) > 1e-9:
                if math.hypot(cross[0], cross[1]) <= tol.tol_det:
                    continue  # the "line at infinity" is not an affine line
                return Line(cross[0], cross[1], cross[2])
    raise DegenerateConfiguration(
        "all member centers coincide; no line of centers (parallelogram)")
