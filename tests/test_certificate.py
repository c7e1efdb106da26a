"""The paper's results as sympy identities in the affine normal form.

With the vertices at p0 = (0,0), p1 = (1,0), p2 = (s,t), p3 = (0,1)
(homogeneous), the dual conic

    D(h) = (2h - 1)(p0 p2^T + p2 p0^T) + (s - 2h)(p1 p3^T + p3 p1^T)

is a member of the tangential pencil spanned by the two diagonals, linear
in h.  Each test below proves one result for all (s, t, h) at once:
the center, the tangency to the four sides, the paper's focal quadratic,
the ellipse/hyperbola split along the center line, and the unique maximal
area.  Two more evaluate the package's own formulas on the same symbols:
the construction's polynomial entries, and the weights of the center that
``foci_quadratic``'s focal check reads.
"""
from types import SimpleNamespace

import sympy as sp

from inconic.area import area_cubic
from inconic.inscribed import _dual_entries, _weights

s, t, h, u, z = sp.symbols("s t h u z")
P0, P1, P2, P3 = (sp.Matrix(p) for p in ((0, 0, 1), (1, 0, 1), (s, t, 1), (0, 1, 1)))
DIAGONAL_02 = P0 * P2.T + P2 * P0.T
DIAGONAL_13 = P1 * P3.T + P3 * P1.T
D = (2 * h - 1) * DIAGONAL_02 + (s - 2 * h) * DIAGONAL_13
CENTER_LINE = (2 * h * (t - 1) + s - t) / (2 * (s - 1))      # L(h)
G = 2 * h * (t - 1) + s
SIDES = ((0, 1, 0), (t, 1 - s, -t), (1 - t, s, -s), (1, 0, 0))  # y = 0, p1p2, p2p3, x = 0


def _is_zero(expr):
    """Whether a symbolic expression or matrix simplifies to zero."""
    if isinstance(expr, sp.MatrixBase):
        return all(_is_zero(entry) for entry in expr)
    return sp.simplify(expr) == 0


def test_center_is_on_the_center_line_and_unique():
    # the center of a dual conic is its pole of the line at infinity
    x, y, w = D * sp.Matrix([0, 0, 1])
    assert _is_zero(x / w - h)
    assert _is_zero(y / w - CENTER_LINE)
    # among the members a DIAGONAL_02 + b DIAGONAL_13, only a : b = (2h - 1) : (s - 2h)
    # puts the center's abscissa at h
    a, b = sp.symbols("a b")
    member = a * DIAGONAL_02 + b * DIAGONAL_13
    assert sp.solve(member[0, 2] - h * member[2, 2], b) == [a * (s - 2 * h) / (2 * h - 1)]


def test_all_four_side_lines_are_tangent():
    for side in SIDES:
        line = sp.Matrix(side)
        assert sp.expand((line.T * D * line)[0]) == 0


def test_isotropic_tangents_give_the_focal_quadratic():
    # the tangents through a focus z are the isotropic lines (-i, 1, i z);
    # made monic, their condition is the paper's focal quadratic
    line = sp.Matrix([-sp.I, 1, sp.I * z])
    condition = (line.T * D * line)[0]
    monic = sp.expand(condition / sp.Poly(condition, z).LC())
    paper = z ** 2 - 2 * (h + sp.I * CENTER_LINE) * z + sp.I * (s - 2 * h) / (s - 1)
    assert _is_zero(monic - paper)


def test_block_determinant_splits_ellipses_from_hyperbolas():
    # the point conic adj D(h) has a 2x2 block of determinant
    # 4 (s - 2h)(2h - 1)(s - 1)^2 G, G = 2h(t - 1) + s
    block = D.adjugate()[:2, :2]
    assert sp.expand(block.det() - 4 * (s - 2 * h) * (2 * h - 1) * (s - 1) ** 2 * G) == 0
    # h = 1/2 + u (s - 1)/2 runs from one diagonal midpoint (u = 0) to the
    # other (u = 1): (s - 2h)(2h - 1) = (s - 1)^2 u (1 - u), positive strictly
    # between them and negative beyond
    along = sp.expand(((s - 2 * h) * (2 * h - 1)).subs(h, sp.Rational(1, 2) + u * (s - 1) / 2))
    assert sp.expand(along - (s - 1) ** 2 * u * (1 - u)) == 0
    # G is linear in h, with G = s + t - 1 at h = 1/2 and G = s t at h = s/2:
    # both positive for a convex quad (s, t > 0, s + t > 1), so G > 0 on the
    # closed segment and the block is definite (an ellipse) exactly strictly
    # between the midpoints, indefinite (a hyperbola) beyond them while G > 0
    assert sp.expand(G.subs(h, sp.Rational(1, 2)) - (s + t - 1)) == 0
    assert sp.expand(G.subs(h, s / 2) - s * t) == 0
    assert sp.degree(G, h) == 1


def test_center_value_is_the_area_cubic_with_one_interior_maximum():
    # with the sign that makes the block positive definite, Q = -adj D(h),
    # the value at the center (h, L(h)) is -area_cubic
    point_conic = -D.adjugate()
    center = sp.Matrix([h, CENTER_LINE, 1])
    cubic = area_cubic(SimpleNamespace(s=s, t=t), h)
    value = (center.T * point_conic * center)[0]
    assert _is_zero(value + cubic)
    # (x - m)^T B (x - m) = -value has area pi (-value)/sqrt(det B), so the
    # normalized-frame area is pi sqrt(cubic)/(2|s - 1|)
    assert _is_zero(value ** 2 / point_conic[:2, :2].det() - cubic / (4 * (s - 1) ** 2))
    # A' is a quadratic with opposite signs at the two midpoints, neither a
    # root: exactly one of its roots lies strictly between them
    slope = sp.diff(cubic, h)
    assert sp.degree(slope, h) == 2
    at_ends = sp.factor(slope.subs(h, sp.Rational(1, 2)) * slope.subs(h, s / 2))
    assert _is_zero(at_ends + 4 * (s - 1) ** 2 * (s + t - 1) * s * t)
    # and it is max_area's closed form
    assert sp.expand(slope - (-24 * (t - 1) * h ** 2 + 8 * ((s + 1) * (t - 1) - s) * h
                              + 2 * s * (s + 2 - t))) == 0


def test_kernel_entries_are_the_dual_conic():
    # the construction's own formulas, run on symbols
    c, k, det = _dual_entries(s, t, h)
    scaled = sp.Matrix([[0, c, h], [c, 0, k], [h, k, 1]])
    assert _is_zero(scaled * D[2, 2] - D)
    # D / D33 = [[m m^T - P_n, m], [m^T, 1]], m = (h, k): P_n is the inverse
    # of the normal-frame form of (x - m)^T Q_n (x - m) = 1
    m = sp.Matrix([h, k])
    p_n = sp.Matrix([[h * h, h * k - c], [h * k - c, k * k]])
    assert _is_zero(m * m.T - p_n - scaled[:2, :2])
    assert _is_zero(p_n.det() - det)
    assert _is_zero(det * 4 * (s - 1) ** 2 - area_cubic(SimpleNamespace(s=s, t=t), h))


def test_weights_reduce_both_triangles_to_the_focal_quadratic():
    # the weights of the center, run on symbols (a NormalForm would test
    # s + t > 1): a triangle (z1, z2, z3) under weights (w1, w2, w3) has the
    # focal numerator w1(z-z2)(z-z3) + w2(z-z1)(z-z3) + w3(z-z1)(z-z2), of
    # root sum w1(z2+z3) + w2(z1+z3) + w3(z1+z2) and root product
    # w1 z2 z3 + w2 z1 z3 + w3 z1 z2; for both side-line triangles these are
    # the paper's 2(h + i L(h)) and i(s - 2h)/(s - 1).  The second triangle
    # (0, i, x) exists only where t != 1; the first has no pole at t = 1.
    wt, ws = _weights(SimpleNamespace(s=s, t=t), h)
    root_sum, root_product = 2 * (h + sp.I * CENTER_LINE), sp.I * (s - 2 * h) / (s - 1)
    for w, (z1, z2, z3) in ((wt, (0, 1, -sp.I * t / (s - 1))),
                            (ws, (0, sp.I, -s / (t - 1)))):
        w1, w2, w3 = w.as_tuple()
        assert _is_zero(w1 * (z2 + z3) + w2 * (z1 + z3) + w3 * (z1 + z2) - root_sum)
        assert _is_zero(w1 * z2 * z3 + w2 * z1 * z3 + w3 * z1 * z2 - root_product)
