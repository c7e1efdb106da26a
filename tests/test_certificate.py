"""The paper's results as sympy identities, in the affine normal form and
on the diagonal pencil the construction reads.

With the vertices at p0 = (0,0), p1 = (1,0), p2 = (s,t), p3 = (0,1)
(homogeneous), the dual conic

    D(h) = (2h - 1)(p0 p2^T + p2 p0^T) + (s - 2h)(p1 p3^T + p3 p1^T)

is a member of the tangential pencil spanned by the two diagonals, linear
in h.  Each test on it proves one result for all (s, t, h) at once:
the center, the tangency to the four sides, the paper's focal quadratic,
the ellipse/hyperbola split along the center line, and the unique maximal
area.  Three more evaluate the package's own formulas on symbols: the
normal frame's polynomial entries, the weights of the center with the
focal numerator's coefficients that ``foci_quadratic``'s focal check
reads, and those coefficients against the numerator itself.

The construction reads the same pencil over any four vertices,
D(lam) = lam A + (1 - lam) B with A = p0 p2^T + p2 p0^T and
B = p1 p3^T + p3 p1^T.  The tests after those prove, for general
vertices and lam, the closed forms it evaluates: the center
lam M02 + (1 - lam) M13, each side's contact as a combination of its ends
weighted by lam and 1 - lam times triangle areas, the shape P and the
factorization of det P, the point conic, the chord's ends and the
derivative that ``max_area`` solves.
"""
from types import SimpleNamespace

import sympy as sp

from inconic.area import area_cubic
from inconic.oracle import _dual_entries, _focal_coefficients, _weights

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
    # the weights of the center and the focal numerator's root sum and
    # product, the package's own formulas run on symbols (a NormalForm would
    # test s + t > 1): for both side-line triangles they are the paper's
    # 2(h + i L(h)) and i(s - 2h)/(s - 1).  The second triangle (0, i, x)
    # exists only where t != 1; the first has no pole at t = 1.
    wt, ws = _weights(SimpleNamespace(s=s, t=t), h)
    root_sum, root_product = 2 * (h + sp.I * CENTER_LINE), sp.I * (s - 2 * h) / (s - 1)
    for w, vertices in ((wt, (0, 1, -sp.I * t / (s - 1))), (ws, (0, sp.I, -s / (t - 1)))):
        got_sum, got_product = _focal_coefficients(*vertices, *w.as_tuple())
        assert _is_zero(got_sum - root_sum)
        assert _is_zero(got_product - root_product)


def test_focal_coefficients_are_the_numerators_roots():
    # the root sum and product are those of the monic focal numerator
    # w1(z-z2)(z-z3) + w2(z-z1)(z-z3) + w3(z-z1)(z-z2), w1 + w2 + w3 = 1
    z1, z2, z3, w1, w2 = sp.symbols("z1 z2 z3 w1 w2")
    w3 = 1 - w1 - w2
    numerator = w1 * (z - z2) * (z - z3) + w2 * (z - z1) * (z - z3) + w3 * (z - z1) * (z - z2)
    root_sum, root_product = _focal_coefficients(z1, z2, z3, w1, w2, w3)
    assert sp.expand(numerator - (z ** 2 - root_sum * z + root_product)) == 0


# the diagonal pencil over general vertices pi = (xi, yi)
lam = sp.Symbol("lam")
mu = 1 - lam
XS, YS = sp.symbols("x0:4"), sp.symbols("y0:4")
V = [sp.Matrix([x, y, 1]) for x, y in zip(XS, YS)]
PENCIL = lam * (V[0] * V[2].T + V[2] * V[0].T) + mu * (V[1] * V[3].T + V[3] * V[1].T)
MID02 = sp.Matrix([(XS[0] + XS[2]) / 2, (YS[0] + YS[2]) / 2])
MID13 = sp.Matrix([(XS[1] + XS[3]) / 2, (YS[1] + YS[3]) / 2])


def _area(i, j, k):
    """Doubled signed area Aijk of the triangle pi pj pk."""
    return (XS[j] - XS[i]) * (YS[k] - YS[i]) - (YS[j] - YS[i]) * (XS[k] - XS[i])


def _pencil_center():
    x, y, w = PENCIL * sp.Matrix([0, 0, 1])
    return sp.Matrix([x / w, y / w])


def test_pencil_center_is_the_weighted_midpoint():
    # D(lam) is centered at lam M02 + (1 - lam) M13, with corner entry 2
    assert PENCIL[2, 2] == 2
    assert _is_zero(_pencil_center() - (lam * MID02 + mu * MID13))


def test_pencil_contacts_are_weighted_side_ends():
    # the pole D l of side pi pi+1, l = pi x pi+1, is lam a pA + (1 - lam) b pB
    # for its end pA on p0p2 and pB on p1p3, with the areas the kernel reads
    weights = {0: (0, 1, _area(0, 1, 2), _area(0, 1, 3)),
               1: (2, 1, _area(0, 1, 2), _area(1, 2, 3)),
               2: (2, 3, _area(0, 2, 3), _area(1, 2, 3)),
               3: (0, 3, _area(0, 2, 3), _area(0, 1, 3))}
    for i, (a, b, wa, wb) in weights.items():
        line = V[i].cross(V[(i + 1) % 4])
        pole = PENCIL * line
        assert sp.expand(pole - (lam * wa * V[a] + mu * wb * V[b])) == sp.zeros(3, 1)
        assert sp.expand((line.T * pole)[0]) == 0


def test_shape_determinant_factors():
    # P = m m^T - D2/2; with p0 at the origin, as the kernel translates it,
    # 4P = lam^2 p2 p2^T + mu^2 (p1 - p3)(p1 - p3)^T + lam mu C, and
    # det P = lam mu (lam A012 A023 + mu A013 A123)/4
    m = _pencil_center()
    shape = m * m.T - PENCIL[:2, :2] / 2
    det = lam * mu * (lam * _area(0, 1, 2) * _area(0, 2, 3)
                      + mu * _area(0, 1, 3) * _area(1, 2, 3)) / 4
    assert sp.expand(shape.det() - det) == 0
    at_origin = {XS[0]: 0, YS[0]: 0}
    p1, p2, p3 = (sp.Matrix([XS[i], YS[i]]) for i in (1, 2, 3))
    total = p1 + p3
    split = (lam ** 2 * p2 * p2.T + mu ** 2 * (p1 - p3) * (p1 - p3).T
             + lam * mu * (p2 * total.T + total * p2.T - 2 * (p1 * p3.T + p3 * p1.T)))
    assert sp.expand(4 * shape.subs(at_origin) - split) == sp.zeros(2, 2)


def test_point_conic_is_the_shape_about_the_center():
    # adj D = -4 [[adj P, -adj P m], [-m^T adj P, m^T adj P m - det P]]: the
    # conic (x - m)^T adj(P) (x - m) = det P that the kernel writes out
    m = _pencil_center()
    shape = m * m.T - PENCIL[:2, :2] / 2
    adj = shape.adjugate()
    conic = sp.Matrix(sp.BlockMatrix([[adj, -adj * m],
                                      [-m.T * adj, m.T * adj * m - sp.Matrix([[shape.det()]])]]))
    assert sp.expand(PENCIL.adjugate() + 4 * conic) == sp.zeros(3, 3)


def test_chord_ends_are_area_ratios():
    # the center line M13 + lam (M02 - M13) meets the side lines p0p1 and
    # p2p3 at lam = A013/(A013 - A012) and -A123/(A013 - A012), and p1p2
    # and p3p0 at A123/(A023 - A013) and -A013/(A023 - A013)
    d1, d2 = _area(0, 2, 3) - _area(0, 1, 3), _area(0, 1, 3) - _area(0, 1, 2)
    crossings = {(0, 1): _area(0, 1, 3) / d2, (2, 3): -_area(1, 2, 3) / d2,
                 (1, 2): _area(1, 2, 3) / d1, (3, 0): -_area(0, 1, 3) / d1}
    for (i, j), at in crossings.items():
        x, y = MID13 + at * (MID02 - MID13)
        assert _is_zero(sp.Matrix([[XS[i], YS[i], 1], [XS[j], YS[j], 1], [x, y, 1]]).det())
    # the two differences are also A123 - A012 and A023 - A123
    assert sp.expand(d1 - (_area(1, 2, 3) - _area(0, 1, 2))) == 0
    assert sp.expand(d2 - (_area(0, 2, 3) - _area(1, 2, 3))) == 0


def test_max_area_solves_the_derivative_of_det_p():
    # area^2 / pi^2 = det P: maximize f = lam mu (lam alpha + mu beta); its
    # derivative is the quadratic max_area solves, alpha/3 at 1/3 and
    # -beta/3 at 2/3, so its one root in (0, 1) lies in (1/3, 2/3)
    alpha, beta = sp.symbols("alpha beta", positive=True)
    f = lam * mu * (lam * alpha + mu * beta)
    slope = sp.diff(f, lam)
    assert sp.expand(slope - (-3 * (alpha - beta) * lam ** 2 + 2 * (alpha - 2 * beta) * lam
                              + beta)) == 0
    assert sp.expand(slope.subs(lam, sp.Rational(1, 3)) - alpha / 3) == 0
    assert sp.expand(slope.subs(lam, sp.Rational(2, 3)) + beta / 3) == 0
    # on the normal form, lam is (2h - 1)/(s - 1), and 4 (s - 1)^2 det P is
    # the area cubic of the normal-frame abscissa h
    normal = {XS[0]: 0, YS[0]: 0, XS[1]: 1, YS[1]: 0, XS[2]: s, YS[2]: t, XS[3]: 0, YS[3]: 1}
    m = _pencil_center()
    det = (m * m.T - PENCIL[:2, :2] / 2).det().subs(normal).subs(lam, (2 * h - 1) / (s - 1))
    assert _is_zero(4 * (s - 1) ** 2 * det - area_cubic(SimpleNamespace(s=s, t=t), h))
