"""Dual-conic pencil: tangency closure, prescribed centers, line of centers."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import inconic as ic
from inconic import errors
from inconic.geometry import adjugate3
from inconic.pencil import _point_conic

from conftest import (
    conic_from_matrix,
    quad_s3t2,
    random_convex_quad,
    random_trapezium,
    random_trapezoid,
)


_quads = st.builds(
    lambda seed, trapezoid: (random_trapezoid if trapezoid else random_trapezium)(
        np.random.default_rng(seed)),
    st.integers(0, 2**32 - 1), st.booleans())


def _sweep_params(n):
    # n finite parameters plus the member at infinity
    return [(math.tan(x), 1.0) for x in np.linspace(-1.5, 1.5, n)] + [(1.0, 0.0)]


class TestDualConicScale:
    # the squared norm of these overflows to inf or underflows to 0
    def test_huge_entry_keeps_the_small_ones(self):
        got = ic.DualConic(((1e200, 0, 0), (0, 1, 0), (0, 0, -1))).m
        assert np.array(got) == pytest.approx(np.diag([1.0, 1e-200, -1e-200]), rel=1e-15)

    def test_tiny_matrix_is_the_unit_one(self):
        got = ic.DualConic(((1e-200, 0, 0), (0, 1e-200, 0), (0, 0, -1e-200))).m
        k = 1 / math.sqrt(3)
        assert np.array(got) == pytest.approx(np.diag([k, k, -k]), rel=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_each_entry_must_be_finite(self, bad):
        for i, j in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)):
            m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
            m[i][j] = m[j][i] = bad
            with pytest.raises(ValueError, match="matrix cannot be zero or non-finite"):
                ic.DualConic(m)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_scale_invariance_at_the_float_limits(self, scale):
        m = ((0.3, -0.6, 0.35), (-0.6, 2.0, -0.05), (0.35, -0.05, -4.0))
        want = np.array(ic.DualConic(m).m)
        got = np.array(ic.DualConic(tuple(tuple(scale * v for v in row) for row in m)).m)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-16)


class TestPencilFromLines:
    def test_all_members_tangent_to_all_four_lines(self):
        pen = ic.pencil_from_lines(*quad_s3t2().side_lines())
        for num, den in _sweep_params(20):
            member = pen.member(num, den)
            for line in pen.lines:
                assert abs(member.apply_line(line)) < 1e-10

    def test_unit_square_pencil_is_valid(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        pen = ic.pencil_from_lines(*q.side_lines())
        for num, den in _sweep_params(10):
            member = pen.member(num, den)
            for line in pen.lines:
                assert abs(member.apply_line(line)) < 1e-10

    def test_three_concurrent_lines_rejected(self):
        l1 = ic.Line(1, 0, 0)
        l2 = ic.Line(0, 1, 0)
        l3 = ic.Line(1, -1, 0)  # through the same origin
        l4 = ic.Line(1, 1, -3)
        with pytest.raises(errors.DegenerateConfiguration):
            ic.pencil_from_lines(l1, l2, l3, l4)

    def test_duplicate_line_rejected(self):
        l1 = ic.Line(1, 0, -1)
        with pytest.raises(errors.DegenerateConfiguration):
            ic.pencil_from_lines(l1, ic.Line(-2, 0, 2), ic.Line(0, 1, 0),
                                 ic.Line(1, 1, -4))

    def test_tangency_closure_41_point_sweep(self, rng):
        for _ in range(5):
            q = random_convex_quad(rng)
            pen = ic.pencil_from_lines(*q.side_lines())
            for num, den in _sweep_params(40):
                member = pen.member(num, den)
                for line in pen.lines:
                    assert abs(member.apply_line(line)) < 1e-10


class TestMemberWithCenter:
    def test_matches_focal_construction(self):
        q = quad_s3t2()
        pen = ic.pencil_from_lines(*q.side_lines())
        conic = ic.member_with_center(pen, ic.Point(1.0, 0.75))
        ref = ic.inscribe_at_center(q, ic.Point(1.0, 0.75)).conic
        assert ic.conic_distance(conic, ref) < 1e-8

    def test_interior_point_off_line_rejected(self):
        q = quad_s3t2()
        # oracle: collinearity determinant with the diagonal midpoints
        m1, m2, p = (0.5, 0.5), (1.5, 1.0), (0.7, 0.7)
        det = (m2[0] - m1[0]) * (p[1] - m1[1]) - (m2[1] - m1[1]) * (p[0] - m1[0])
        assert abs(det) == pytest.approx(0.1, abs=1e-12)  # clearly nonzero
        pen = ic.pencil_from_lines(*q.side_lines())
        with pytest.raises(errors.CenterOffLocus, match="line of centers"):
            ic.member_with_center(pen, ic.Point(0.7, 0.7))

    def test_diagonal_midpoint_is_degenerate(self):
        q = quad_s3t2()
        pen = ic.pencil_from_lines(*q.side_lines())
        with pytest.raises(errors.DegenerateMember):
            ic.member_with_center(pen, ic.Point(0.5, 0.5))

    def test_oracle_equivalence_on_random_trapezia(self, rng):
        for _ in range(20):
            q = random_trapezium(rng)
            pen = ic.pencil_from_lines(*q.side_lines())
            seg = ic.locus(q)
            for u in np.linspace(0.1, 0.9, 5):
                center = seg.point_at(float(u))
                got = ic.member_with_center(pen, center)
                ref = ic.inscribe_at_center(q, center).conic
                assert ic.conic_distance(got, ref) < 1e-8

    @given(q=_quads, u=st.floats(0.02, 0.98), v=st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_oracle_matches_the_focal_route_along_the_chord(self, q, u, v):
        # verify's bound, on the centers chord_verify crosscheck uses: the
        # locus, and the chord beyond each diagonal midpoint (hyperbolas)
        pen = ic.pencil_from_lines(*q.side_lines())
        seg, chord = ic.locus(q), ic.chord_x(q)
        center = seg.point_at(u)
        focal = ic.inscribe_at_center(q, center).conic
        assert ic.conic_distance(ic.member_with_center(pen, center), focal) < 1e-8
        lo, hi = sorted(_chord_param(chord, m)[0] for m in (seg.m1, seg.m2))
        for w in (v * lo, hi + v * (1 - hi)):
            center = chord.point_at(w)
            focal, kind, _ = ic.tangent_conic_at_center(q, center)
            assert kind is ic.ConicClass.HYPERBOLA
            assert ic.conic_distance(ic.member_with_center(pen, center), focal) < 1e-8

    def test_thin_member_is_judged_by_its_own_center(self):
        # a nearly triangular quad (s = 0.0379, t = 0.9622): halfway from the
        # far diagonal midpoint to the chord's end the hyperbola is so thin
        # that Conic.center() of its rounded coefficients lands 1.6e-5 from
        # the request, past the 8.5e-6 bound, while the member's own center,
        # its dual's third column, is 1.8e-15 from it
        q = random_trapezium(np.random.default_rng(220724888))
        pen = ic.pencil_from_lines(*q.side_lines())
        seg, chord = ic.locus(q), ic.chord_x(q)
        hi = max(_chord_param(chord, m)[0] for m in (seg.m1, seg.m2))
        center = chord.point_at(hi + 0.5 * (1 - hi))
        focal, kind, _ = ic.tangent_conic_at_center(q, center)
        assert kind is ic.ConicClass.HYPERBOLA
        assert ic.conic_distance(ic.member_with_center(pen, center), focal) < 1e-14

    def test_thin_members_beside_a_midpoint_are_built(self):
        # the same quad: between the far diagonal midpoint and the chord's
        # end the members' unit-norm duals have determinants of order 1e-15
        # (-5.7e-15 at v = 0.25), yet they match the focal route; only the
        # midpoints themselves are degenerate
        q = random_trapezium(np.random.default_rng(220724888))
        pen = ic.pencil_from_lines(*q.side_lines())
        seg, chord = ic.locus(q), ic.chord_x(q)
        hi = max(_chord_param(chord, m)[0] for m in (seg.m1, seg.m2))
        for v in (0.05, 0.25, 0.95):
            center = chord.point_at(hi + v * (1 - hi))
            focal, _, _ = ic.tangent_conic_at_center(q, center)
            assert ic.conic_distance(ic.member_with_center(pen, center), focal) < 1e-14
        for m in (seg.m1, seg.m2):
            with pytest.raises(errors.DegenerateMember):
                ic.member_with_center(pen, m)

    def test_every_diagonal_midpoint_is_refused(self, rng):
        # the pencil's degenerate members are centered at the midpoints of
        # the complete quadrilateral's three diagonals: the quad's two and,
        # for a trapezium, the one joining the meets of opposite sides
        for _ in range(100):
            q = random_trapezium(rng)
            v0, v1, v2, v3 = ((v.x, v.y, 1.0) for v in q.vertices)
            p = _cross(_cross(v0, v1), _cross(v2, v3))
            r = _cross(_cross(v1, v2), _cross(v3, v0))
            outer = ic.Point((p[0] / p[2] + r[0] / r[2]) / 2, (p[1] / p[2] + r[1] / r[2]) / 2)
            pen = ic.pencil_from_lines(*q.side_lines())
            for m in (ic.midpoint(q.v0, q.v2), ic.midpoint(q.v1, q.v3), outer):
                with pytest.raises(errors.DegenerateMember):
                    ic.member_with_center(pen, m)

    @pytest.mark.parametrize("offset", [150.0, 1e3])
    def test_member_far_from_the_origin_is_built(self, offset):
        # in place, the unit-norm dual's determinant falls like offset^-6;
        # the member is still the focal route's conic
        q = ic.validate_quad([(v.x + offset, v.y + offset) for v in quad_s3t2().vertices])
        center = ic.locus(q).point_at(0.37)
        conic = ic.member_with_center(ic.pencil_from_lines(*q.side_lines()), center)
        assert ic.conic_distance(conic, ic.inscribe_at_center(q, center).conic) < 1e-11

    def test_vertical_centers_line_is_handled(self):
        # diagonal midpoints share the abscissa, so the x-coordinate
        # equation cannot determine the member; the y-equation must be used
        q = ic.validate_quad([(0, 0), (2, 0), (1, 3), (-1, 2)])
        seg = ic.locus(q)
        assert seg.m1.x == pytest.approx(seg.m2.x, abs=1e-12)
        pen = ic.pencil_from_lines(*q.side_lines())
        center = seg.point_at(0.4)
        conic = ic.member_with_center(pen, center)
        got = conic.center()
        assert got.x == pytest.approx(center.x, abs=1e-9)
        assert got.y == pytest.approx(center.y, abs=1e-9)


class TestCentersLine:
    def test_newton_line_of_worked_quad(self):
        pen = ic.pencil_from_lines(*quad_s3t2().side_lines())
        line = ic.centers_line(pen)
        assert abs(line.eval(ic.Point(0.5, 0.5))) < 1e-9
        assert abs(line.eval(ic.Point(1.5, 1.0))) < 1e-9

    def test_passes_through_diagonal_midpoints_random(self, rng):
        # includes trapezoids: sides are fed in cyclic order either way
        for i in range(100):
            q = random_trapezoid(rng) if i % 3 == 0 else random_convex_quad(rng)
            if q.kind is ic.QuadKind.PARALLELOGRAM:
                continue
            pen = ic.pencil_from_lines(*q.side_lines())
            line = ic.centers_line(pen)
            m1 = ic.midpoint(q.v0, q.v2)
            m2 = ic.midpoint(q.v1, q.v3)
            assert abs(line.eval(m1)) < 1e-9
            assert abs(line.eval(m2)) < 1e-9

    def test_member_centers_lie_on_the_closed_form_line(self, rng):
        # eight members across the pencil, d_a, d_b and mixtures of both signs
        params = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0),
                  (2.0, 1.0), (1.0, 2.0), (-1.0, 2.0), (3.0, 1.0)]
        for i in range(200):
            q = random_trapezoid(rng) if i % 2 else random_trapezium(rng)
            pen = ic.pencil_from_lines(*q.side_lines())
            line = ic.centers_line(pen)
            for num, den in params:
                m = pen.member_matrix(num, den)
                x, y, w = m[0][2], m[1][2], m[2][2]
                residual = abs(line.a * x + line.b * y + line.c * w) / math.hypot(x, y, w)
                assert residual <= 1e-12 * (1 + abs(line.c))

    def test_square_members_are_concentric_and_line_undefined(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        pen = ic.pencil_from_lines(*q.side_lines())
        for num, den in _sweep_params(10):
            m = np.array(pen.member_matrix(num, den))
            if abs(m[2, 2]) < 1e-12:
                continue
            assert m[0, 2] / m[2, 2] == pytest.approx(0.5, abs=1e-12)
            assert m[1, 2] / m[2, 2] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(errors.DegenerateConfiguration):
            ic.centers_line(pen)


class TestClassificationTransition:
    def test_ellipse_inside_hyperbola_outside(self, rng):
        for _ in range(4):
            q = random_trapezium(rng)
            pen = ic.pencil_from_lines(*q.side_lines())
            ch = ic.chord_x(q)
            seg = ic.locus(q)
            u1, _ = _chord_param(ch, seg.m1)
            u2, _ = _chord_param(ch, seg.m2)
            lo, hi = min(u1, u2), max(u1, u2)
            for u in np.linspace(0.02, 0.98, 50):
                u = float(u)
                if min(abs(u - u1), abs(u - u2)) < 1e-3:
                    continue
                conic = ic.member_with_center(pen, ch.point_at(u))
                cls = ic.classify_conic(conic)
                if lo < u < hi:
                    assert cls is ic.ConicClass.REAL_ELLIPSE
                else:
                    assert cls is ic.ConicClass.HYPERBOLA


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _chord_param(ch, p):
    dx, dy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
    den = dx * dx + dy * dy
    u = ((p.x - ch.p_start.x) * dx + (p.y - ch.p_start.y) * dy) / den
    dist = abs((p.x - ch.p_start.x) * dy - (p.y - ch.p_start.y) * dx) / math.sqrt(den)
    return u, dist


# --------------------------------------------------------------------------
# The numpy formulas the plain-float pencil replaced, kept as its oracle.
# --------------------------------------------------------------------------

def _vec(line):
    return np.array([line.a, line.b, line.c])


def _np_canonical_sym3(m):
    m = (m + m.T) / 2
    m = m / np.linalg.norm(m)
    for v in (m[0, 0], m[0, 1], m[1, 1], m[0, 2], m[1, 2], m[2, 2]):
        if abs(v) > 1e-12:
            return -m if v < 0 else m
    return m


def _np_meet(l1, l2):
    p = np.cross(_vec(l1), _vec(l2))
    return p / np.linalg.norm(p)


def _np_rank2_dual(p, q):
    return _np_canonical_sym3(np.outer(p, q) + np.outer(q, p))


def _np_degeneracy_tests(lines):
    """(name, value, threshold) of every coincidence and concurrency test."""
    arrays = [_vec(l) for l in lines]
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            out.append((f"lines {i} and {j} coincide",
                        float(np.linalg.norm(np.cross(arrays[i], arrays[j]))),
                        1e-12 * (1 + abs(lines[i].c)) * (1 + abs(lines[j].c))))
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                with np.errstate(divide="ignore"):   # exactly concurrent lines
                    det = float(np.linalg.det(np.array([arrays[i], arrays[j], arrays[k]])))
                scale = max(1.0, abs(lines[i].c), abs(lines[j].c), abs(lines[k].c))
                out.append((f"lines {i}, {j}, {k} are concurrent", abs(det), 1e-12 * scale))
    return out


def _np_pencil(lines):
    """(d_a, d_b) as arrays, or the first failed test's message."""
    for name, value, threshold in _np_degeneracy_tests(lines):
        if value <= threshold:
            return name
    l1, l2, l3, l4 = lines
    return (_np_rank2_dual(_np_meet(l1, l2), _np_meet(l3, l4)),
            _np_rank2_dual(_np_meet(l1, l3), _np_meet(l2, l4)))


def _np_adjugate(m):
    out = np.empty((3, 3))
    out[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    out[0, 1] = m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]
    out[0, 2] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    out[1, 0] = m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]
    out[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    out[1, 2] = m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]
    out[2, 0] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    out[2, 1] = m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]
    out[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return out


def _np_point_conic(dual_m):
    dual_m = dual_m / np.linalg.norm(dual_m)
    if abs(np.linalg.det(dual_m)) < 1e-14:
        raise errors.DegenerateMember("pencil member is a degenerate dual")
    return conic_from_matrix(_np_adjugate(dual_m))


def _np_member_with_center(a, b, h, k):
    eqs = [(a[row, 2] - coord * a[2, 2], b[row, 2] - coord * b[2, 2])
           for row, coord in ((0, h), (1, k))]
    idx = 0 if math.hypot(*eqs[0]) >= math.hypot(*eqs[1]) else 1
    num, den = -eqs[idx][0], eqs[idx][1]
    scale = math.hypot(num, den)
    num, den = num / scale, den / scale
    d = den * a + num * b
    o0, o1 = eqs[1 - idx]
    if abs(o0 * den + o1 * num) >= 1e-8 * np.linalg.norm(d):
        raise errors.CenterOffLocus("center is not on the pencil's line of centers")
    return _np_point_conic(d)


def _mp_member_with_center(d_a, d_b, h, k):
    """(member, kappa): the member of the pencil (d_a, d_b) centered at
    (h, k), from the same center equation as ``member_with_center``, at 50
    digits and rounded once to a Conic, and the condition number of its
    float formulas.  The member's parameter theta, (den, num) =
    (cos theta, sin theta), carries the rounding eps * kc of that equation,
    kc its sum of absolute terms over its size, and the unit point conic
    moves by |dC/dtheta| per unit of theta; the adjugate of the unit dual D
    rounds at eps relative to its own norm |adj D|.  So
    kappa = kc |dC/dtheta| + 1 / |adj D|."""
    with mp.workdps(50):
        a, b = ([[mpf(x) for x in row] for row in m] for m in (d_a, d_b))
        h, k = mpf(h), mpf(k)
        eqs = [(a[i][2] - x * a[2][2], b[i][2] - x * b[2][2],
                abs(a[i][2]) + abs(x * a[2][2]) + abs(b[i][2]) + abs(x * b[2][2]))
               for i, x in ((0, h), (1, k))]
        c0, c1, terms = max(eqs, key=lambda eq: mp.hypot(eq[0], eq[1]))

        def unit_point_conic(theta):
            den, num = mp.cos(theta), mp.sin(theta)
            d = [[den * x + num * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            norm = mp.sqrt(sum(x * x for row in d for x in row))
            adj = [x / norm ** 2 for row in adjugate3(d) for x in row]
            adj_norm = mp.sqrt(sum(x * x for x in adj))
            return [x / adj_norm for x in adj], adj_norm

        theta, step = mp.atan2(-c0, c1), mpf(10) ** -20
        c, adj_norm = unit_point_conic(theta)
        ahead, _ = unit_point_conic(theta + step)
        rate = min(mp.sqrt(sum((x - sign * y) ** 2 for x, y in zip(ahead, c)))
                   for sign in (1, -1)) / step
        kappa = terms / mp.hypot(c0, c1) * rate + 1 / adj_norm
        m00, m01, m02, _, m11, m12, _, _, m22 = (float(x) for x in c)
        return ic.Conic(m00, 2 * m01, m11, 2 * m02, 2 * m12, m22), float(kappa)


def _np_centers_line(a, b, tol=ic.DEFAULT_TOL):
    centers = []
    for num, den in [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0),
                     (2.0, 1.0), (1.0, 2.0), (-1.0, 2.0), (3.0, 1.0)]:
        scale = math.hypot(num, den)
        col = ((den / scale) * a + (num / scale) * b)[:, 2]
        if np.linalg.norm(col) > tol.tol_det:
            centers.append(col / np.linalg.norm(col))
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            cross = np.cross(centers[i], centers[j])
            if np.linalg.norm(cross) > 1e-9 and math.hypot(cross[0], cross[1]) > tol.tol_det:
                return ic.Line(*cross)
    return None


@st.composite
def _near_degenerate_lines(draw):
    """Four lines with three almost through one point, or two almost equal;
    the defect is eps, from exact to clearly separated."""
    angle = st.floats(0, math.pi)
    coord = st.floats(-3, 3)
    eps = draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 3e-12, 1e-11,
                                1e-9, 1e-6]))
    px, py = draw(coord), draw(coord)

    def through(theta, shift=0.0):
        a, b = math.cos(theta), math.sin(theta)
        return ic.Line(a, b, -(a * px + b * py) + shift)

    if draw(st.booleans()):
        lines = [through(draw(angle)), through(draw(angle)),
                 through(draw(angle), eps * draw(st.sampled_from([1, -1]))),
                 through(draw(angle), draw(coord))]
    else:
        theta = draw(angle)
        lines = [through(theta), through(theta + eps, eps),
                 through(draw(angle), draw(coord)), through(draw(angle), draw(coord))]
    order = draw(st.permutations(range(4)))
    return [lines[i] for i in order]


class TestFloatPencilAgainstNumpy:
    """The plain-float pencil against the numpy formulas it replaced."""

    @given(_quads)
    @settings(max_examples=100, deadline=None)
    def test_members_match(self, q):
        pen = ic.pencil_from_lines(*q.side_lines())
        d_a, d_b = _np_pencil(q.side_lines())
        assert np.abs(np.array(pen.d_a.m) - d_a).max() <= 1e-14
        assert np.abs(np.array(pen.d_b.m) - d_b).max() <= 1e-14
        for num, den in _sweep_params(8):
            scale = math.hypot(num, den)
            want = (den / scale) * d_a + (num / scale) * d_b
            got = np.array(pen.member_matrix(num, den))
            assert np.abs(got - want).max() <= 1e-14
            line = pen.lines[0]
            assert pen.member(num, den).apply_line(line) == pytest.approx(
                _vec(line) @ _np_canonical_sym3(want) @ _vec(line), abs=1e-14)

    @given(_quads)
    @example(random_trapezoid(np.random.default_rng(2633)))
    @example(random_trapezoid(np.random.default_rng(5090)))
    @settings(max_examples=100, deadline=None)
    def test_point_conic_and_member_with_center_match(self, q):
        # both sides read the same pencil: near the diagonal midpoints and
        # the chord ends the member degenerates and amplifies the last-bit
        # differences of the two norms, so the centers keep clear of them.
        # Each side's member is held to the 50-digit one within 8 eps kappa,
        # which is at most 1e-13 wherever kappa <= 56; the two pinned draws
        # have kappa up to about 6e3, where numpy itself is 2.2e-13 off
        pen = ic.pencil_from_lines(*q.side_lines())
        d_a, d_b = np.array(pen.d_a.m), np.array(pen.d_b.m)
        for num, den in _sweep_params(8):
            m = pen.member_matrix(num, den)
            try:
                want = _np_point_conic(np.array(m))
            except errors.DegenerateMember:
                continue
            (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
            got = _point_conic(m00, m01, m11, m02, m12, m22, float(np.linalg.norm(m)))
            assert ic.conic_distance(got, want) < 1e-13
        seg, chord = ic.locus(q), ic.chord_x(q)
        lo, hi = sorted(_chord_param(chord, m)[0] for m in (seg.m1, seg.m2))
        for center in ([seg.point_at(u) for u in (0.2, 0.37, 0.5, 0.8)]
                       + [chord.point_at(lo / 2), chord.point_at((hi + 1) / 2)]):
            exact, kappa = _mp_member_with_center(pen.d_a.m, pen.d_b.m, center.x, center.y)
            bound = 8 * 2.0 ** -52 * kappa
            assert ic.conic_distance(ic.member_with_center(pen, center), exact) < bound
            assert ic.conic_distance(_np_member_with_center(d_a, d_b, center.x, center.y),
                                     exact) < bound

    def test_member_with_center_bound_is_tight_on_the_worked_quad(self):
        # a well-conditioned draw keeps a bound of 1e-13 or tighter
        q = quad_s3t2()
        pen = ic.pencil_from_lines(*q.side_lines())
        for u in (0.2, 0.37, 0.5, 0.8):
            center = ic.locus(q).point_at(u)
            exact, kappa = _mp_member_with_center(pen.d_a.m, pen.d_b.m, center.x, center.y)
            bound = 8 * 2.0 ** -52 * kappa
            assert bound <= 1e-13
            assert ic.conic_distance(ic.member_with_center(pen, center), exact) < bound

    @given(_quads)
    @settings(max_examples=100, deadline=None)
    def test_centers_line_matches(self, q):
        got = ic.centers_line(ic.pencil_from_lines(*q.side_lines()))
        want = _np_centers_line(*_np_pencil(q.side_lines()))
        # up to the sign rule, which rounding can flip when a is near 0
        error = min(max(abs(g - sign * w) for g, w in zip((got.a, got.b, got.c),
                                                          (want.a, want.b, want.c)))
                    for sign in (1, -1))
        assert error <= 1e-12 * (1 + abs(want.c))

    def test_parallelogram_has_no_centers_line_either_way(self):
        sides = ic.validate_quad([(0, 0), (2, 0), (3, 1), (1, 1)]).side_lines()
        assert _np_centers_line(*_np_pencil(sides)) is None
        with pytest.raises(errors.DegenerateConfiguration):
            ic.centers_line(ic.pencil_from_lines(*sides))

    @given(_near_degenerate_lines())
    @settings(max_examples=400, deadline=None)
    def test_same_degeneracy_decisions(self, lines):
        # a value within 1% of its threshold may round either way
        assume(all(abs(value - threshold) > 1e-2 * threshold
                   for _, value, threshold in _np_degeneracy_tests(lines)))
        want = _np_pencil(lines)
        if isinstance(want, str):
            with pytest.raises(errors.DegenerateConfiguration) as exc:
                ic.pencil_from_lines(*lines)
            assert str(exc.value) == want
        else:
            pen = ic.pencil_from_lines(*lines)
            assert np.abs(np.array(pen.d_a.m) - want[0]).max() <= 1e-9
            assert np.abs(np.array(pen.d_b.m) - want[1]).max() <= 1e-9
