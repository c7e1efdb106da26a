"""Primitives: quadrilateral validation, conic conversions, tangency."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inconic as ic
from inconic import errors
from inconic.geometry import _central_conic, _metric_ellipse, _set_conic

from conftest import (
    affine_matrix3,
    compose,
    conic_from_matrix,
    conic_matrix,
    quad_s3t2,
    random_convex_quad,
)

# Inscribed ellipse of the worked quadrilateral (0,0),(1,0),(3,2),(0,1) at
# center (1, 0.75); frozen from a 50-digit evaluation of the focal
# quadratic z^2 - (2 + 1.5i) z + 0.5i and the contact point (0, 1/4).
S3T2_F1 = ic.Point(0.12563864026770622, 0.17815405274418037)
S3T2_F2 = ic.Point(1.8743613597322938, 1.3218459472558196)
S3T2_A = 1.1519582402990595
S3T2_B = 0.485275398724368
S3T2_ANGLE = 0.5791929425987547


class TestValidateQuad:
    def test_worked_quad_is_trapezium(self):
        q = ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])
        assert q.kind is ic.QuadKind.TRAPEZIUM
        assert q.v0 == ic.Point(0, 0)

    def test_unit_square_is_parallelogram(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert q.kind is ic.QuadKind.PARALLELOGRAM

    def test_nonconvex_rejected(self):
        # oracle: sign of the cross product at each vertex
        pts = [(0, 0), (1, 0), (0.5, 0.5), (0, 1)]
        crosses = []
        for i in range(4):
            ax, ay = pts[i - 1]
            bx, by = pts[i]
            cx, cy = pts[(i + 1) % 4]
            crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        assert min(crosses) <= 0
        with pytest.raises(errors.NotConvex):
            ic.validate_quad(pts)

    def test_truly_reflex_rejected(self):
        with pytest.raises(errors.NotConvex):
            ic.validate_quad([(0, 0), (1, 0), (0.4, 0.4), (0, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(errors.DegenerateQuad):
            ic.validate_quad([(0, 0), (1, 0), (1, 0), (0, 1)])

    @pytest.mark.parametrize("bad, count", [((0, 0, 7), 3), ((0,), 1), ((), 0)])
    def test_a_vertex_needs_exactly_two_coordinates(self, bad, count):
        # a third component was dropped silently and a single one raised
        # IndexError; both are now refused as values
        with pytest.raises(ValueError) as info:
            ic.validate_quad([bad, (1, 0), (3, 2), (0, 1)])
        assert type(info.value) is ValueError
        assert str(info.value) == f"a vertex needs exactly two coordinates, got {count}"
        q = ic.validate_quad([ic.Point(0, 0), (1.0, 0.0), np.array([3.0, 2.0]), [0, 1]])
        assert q == ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])

    @pytest.mark.parametrize("offset,scale", [(1e8, 1.0), (0.0, 1e-9), (-1e8, 1e6)])
    def test_degeneracy_is_relative_to_the_quads_extent(self, offset, scale):
        def place(points):
            return [(offset + scale * x, offset + scale * y) for x, y in points]
        q = ic.validate_quad(place([(0, 0), (1, 0), (3, 2), (0, 1)]))
        assert q.kind is ic.QuadKind.TRAPEZIUM
        with pytest.raises(errors.DegenerateQuad):
            ic.validate_quad(place([(0, 0), (1, 1), (2, 2), (3, 3)]))

    @pytest.mark.parametrize("scale", [1e160, 1e161, 1e300])
    def test_quad_past_the_float_range_is_a_numerical_failure(self, scale):
        # the zero-area bound 1e-12 extent^2 overflows, where it read inf <= inf
        # and called the quad degenerate
        with pytest.raises(errors.NumericalFailure, match="^quadrilateral is out of float range$"):
            ic.validate_quad([(0, 0), (scale, 0), (3 * scale, 2 * scale), (0, scale)])
        assert ic.validate_quad([(0, 0), (1e159, 0), (3e159, 2e159), (0, 1e159)]).kind \
            is ic.QuadKind.TRAPEZIUM

    @pytest.mark.parametrize("scale", [1e-157, 1e-163, 1e-200, 1e-300, 1e-323])
    def test_quad_below_the_float_range_is_a_numerical_failure(self, scale):
        # the zero-area bound underflows to 0, where it read 0 <= 0 and
        # called the quad degenerate
        with pytest.raises(errors.NumericalFailure, match="^quadrilateral is out of float range$"):
            ic.validate_quad([(0, 0), (scale, 0), (3 * scale, 2 * scale), (0, scale)])
        assert ic.validate_quad([(0, 0), (1e-156, 0), (3e-156, 2e-156), (0, 1e-156)]).kind \
            is ic.QuadKind.TRAPEZIUM

    def test_canonical_order_stable_under_rotation_and_reversal(self):
        base = [(0, 0), (1, 0), (3, 2), (0, 1)]
        expect = ic.validate_quad(base).vertices
        for k in range(4):
            rotated = base[k:] + base[:k]
            assert ic.validate_quad(rotated).vertices == expect
            assert ic.validate_quad(rotated[::-1]).vertices == expect

    def test_trapezoid_classification(self):
        q = ic.validate_quad([(0, 0), (2, 0), (2, 2), (0, 1)])
        assert q.kind is ic.QuadKind.TRAPEZOID


class TestNormalize:
    def test_worked_quad_identity_frame(self):
        nf = ic.normalize(quad_s3t2())
        assert nf.s == pytest.approx(3.0, abs=1e-14)
        assert nf.t == pytest.approx(2.0, abs=1e-14)
        ident = nf.T
        assert (ident.m11, ident.m12, ident.m21, ident.m22) == (1, 0, 0, 1)

    def test_trapezoid_relabels_to_t_equal_one(self):
        q = ic.validate_quad([(0, 0), (2, 0), (2, 2), (0, 1)])
        nf = ic.normalize(q)
        assert nf.t == pytest.approx(1.0, abs=1e-12)
        assert nf.s == pytest.approx(0.5, abs=1e-12)
        # oracle: solve the six linear equations fixing three vertex images,
        # then check the fourth lands on (s, t)
        v = [q.vertices[i] for i in nf.labeling]
        rows, rhs = [], []
        for p, (tx, ty) in zip(v[:2] + v[3:], [(0, 0), (1, 0), (0, 1)]):
            rows.append([p.x, p.y, 1, 0, 0, 0])
            rows.append([0, 0, 0, p.x, p.y, 1])
            rhs.extend([tx, ty])
        sol = np.linalg.solve(np.array(rows, float), np.array(rhs, float))
        fx = sol[0] * v[2].x + sol[1] * v[2].y + sol[2]
        fy = sol[3] * v[2].x + sol[4] * v[2].y + sol[5]
        assert fx == pytest.approx(nf.s, abs=1e-9)
        assert fy == pytest.approx(nf.t, abs=1e-9)

    def test_normalize_maps_vertices_exactly(self, rng):
        for _ in range(25):
            q = random_convex_quad(rng)
            if q.kind is ic.QuadKind.PARALLELOGRAM:
                continue
            nf = ic.normalize(q)
            v = [q.vertices[i] for i in nf.labeling]
            images = [nf.T.apply(p) for p in v]
            expected = [(0, 0), (1, 0), (nf.s, nf.t), (0, 1)]
            for got, (ex, ey) in zip(images, expected):
                assert got.x == pytest.approx(ex, abs=1e-9)
                assert got.y == pytest.approx(ey, abs=1e-9)
            assert nf.s > 0 and nf.t > 0 and nf.s + nf.t > 1

    def test_parallelogram_unsupported(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(errors.ParallelogramUnsupported):
            ic.normalize(q)

    def test_micro_scale_quad_keeps_its_normal_form(self):
        # s and t are affine invariants: scaling by 1e-6 leaves (3, 2)
        q = ic.validate_quad([(0, 0), (1e-6, 0), (3e-6, 2e-6), (0, 1e-6)])
        nf = ic.normalize(q)
        assert nf.s == pytest.approx(3.0, rel=1e-12)
        assert nf.t == pytest.approx(2.0, rel=1e-12)


class TestAffineMap:
    def test_singularity_is_relative_to_scale(self):
        tiny = ic.AffineMap(1e-7, 0, 0, 1e-7)
        inv = tiny.inverse()
        assert (inv.m11, inv.m22) == (pytest.approx(1e7, rel=1e-15),
                                      pytest.approx(1e7, rel=1e-15))
        assert compose(inv, tiny).apply_xy(3.0, -2.0) == \
            (pytest.approx(3.0, rel=1e-15), pytest.approx(-2.0, rel=1e-15))
        for scale in (1e-7, 1.0, 1e7):
            with pytest.raises(errors.SingularMap):
                ic.AffineMap(scale, 2 * scale, 2 * scale, 4 * scale)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_products_past_the_float_range_are_not_called_singular(self, scale):
        # det = inf - 0 used to read as singular, inf <= inf
        with pytest.raises(errors.NumericalFailure, match="^linear part is out of float range$"):
            ic.AffineMap(scale, 0.0, 0.0, scale)
        with pytest.raises(errors.NumericalFailure, match="^linear part is out of float range$"):
            ic.AffineMap(scale, scale, -scale, scale)


class TestSideLines:
    @staticmethod
    def _line_as_before(p, q):
        """Line.from_points as it was written with a generic slot fill."""
        a, b = q.y - p.y, p.x - q.x
        c = -(a * p.x + b * p.y)
        n = math.hypot(a, b)
        a, b, c = a / n, b / n, c / n
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        return a, b, c

    def test_bit_identical_to_the_generic_construction(self):
        rng = random.Random(28)
        checked = 0
        while checked < 500:
            scale, offset = 10 ** rng.uniform(-6, 6), rng.uniform(-1e8, 1e8)
            pts = [(offset + scale * rng.uniform(0, 10), offset + scale * rng.uniform(0, 10))
                   for _ in range(4)]
            cx, cy = sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4
            pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
            try:
                q = ic.validate_quad(pts)
            except errors.InconicError:
                continue
            v = q.vertices
            want = [self._line_as_before(v[i], v[(i + 1) % 4]) for i in range(4)]
            got = [(line.a, line.b, line.c) for line in q.side_lines()]
            assert repr(got) == repr(want)
            checked += 1

    def test_lines_keep_their_bits_at_every_scale_and_stay_finite_beyond(self):
        # (a, b) are scaled by a power of two before c is formed: bit for bit
        # the plain formula at every power of ten from 1e-150 to 1e150, and a
        # finite line at 1e155, where the plain formula's c overflows
        rng = random.Random(49)
        for k in range(-150, 151):
            scale = 10.0 ** k
            for _ in range(20):
                p, q = (ic.Point(scale * rng.uniform(-10, 10), scale * rng.uniform(-10, 10))
                        for _ in range(2))
                line = ic.Line.from_points(p, q)
                assert repr((line.a, line.b, line.c)) == repr(self._line_as_before(p, q))
        p, q = ic.Point(1e155, 0.0), ic.Point(3e155, 2e155)
        assert self._line_as_before(p, q)[2] == -math.inf
        line = ic.Line.from_points(p, q)
        unit = ic.Line.from_points(ic.Point(1.0, 0.0), ic.Point(3.0, 2.0))
        for got, want in ((line.a, unit.a), (line.b, unit.b), (line.c, 1e155 * unit.c)):
            assert math.isclose(got, want, rel_tol=1e-15)


class TestConicConversions:
    def test_unit_circle(self):
        e = ic.EllipseGeo(ic.Point(0, 0), 1.0, 1.0, 0.0,
                          ic.Point(0, 0), ic.Point(0, 0))
        c = ic.conic_from_ellipse(e)
        ref = ic.Conic(1, 0, 1, 0, 0, -1)
        assert ic.conic_distance(c, ref) < 1e-12

    def test_worked_ellipse_tangent_to_all_four_sides(self):
        e = ic.ellipse_from_foci_point(S3T2_F1, S3T2_F2, ic.Point(0, 0.25))
        c = ic.conic_from_ellipse(e)
        for line in quad_s3t2().side_lines():
            assert ic.tangency_residual(c, line) < 1e-9

    def test_center_round_trip(self, rng):
        for _ in range(50):
            cx, cy = rng.uniform(-5, 5, 2)
            a = rng.uniform(0.2, 4.0)
            b = rng.uniform(0.1, 1.0) * a
            ang = rng.uniform(-math.pi / 2, math.pi / 2)
            e = _ellipse(cx, cy, a, b, ang)
            got = ic.conic_from_ellipse(e).center()
            assert got.x == pytest.approx(cx, abs=1e-9)
            assert got.y == pytest.approx(cy, abs=1e-9)

    def test_ellipse_from_conic_unit_circle(self):
        e = ic.ellipse_from_conic(ic.Conic(1, 0, 1, 0, 0, -1))
        assert e.center == ic.Point(0, 0)
        assert e.semi_major == pytest.approx(1.0, abs=1e-12)
        assert e.semi_minor == pytest.approx(1.0, abs=1e-12)

    def test_worked_conic_center_matches_adjugate_oracle(self):
        e = ic.ellipse_from_foci_point(S3T2_F1, S3T2_F2, ic.Point(0, 0.25))
        c = ic.conic_from_ellipse(e)
        # oracle: homogeneous center = third column of the adjugate
        adj = np.array(ic.geometry.adjugate3(conic_matrix(c)))
        hx, hy, hw = adj[:, 2]
        got = ic.ellipse_from_conic(c).center
        assert got.x == pytest.approx(hx / hw, abs=1e-9)
        assert got.y == pytest.approx(hy / hw, abs=1e-9)
        assert got.x == pytest.approx(1.0, abs=1e-9)
        assert got.y == pytest.approx(0.75, abs=1e-9)

    def test_hyperbola_is_not_an_ellipse(self):
        with pytest.raises(errors.NotAnEllipse):
            ic.ellipse_from_conic(ic.Conic(1, 0, -1, 0, 0, -1))

    def test_round_trip_thousand_random_ellipses(self, rng):
        for _ in range(1000):
            cx, cy = rng.uniform(-10, 10, 2)
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(0.05, 1.0) * a
            ang = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
            e = _ellipse(cx, cy, a, b, ang)
            back = ic.ellipse_from_conic(ic.conic_from_ellipse(e))
            assert back.center.x == pytest.approx(e.center.x, abs=1e-9)
            assert back.center.y == pytest.approx(e.center.y, abs=1e-9)
            assert back.semi_major == pytest.approx(e.semi_major, rel=1e-9)
            assert back.semi_minor == pytest.approx(e.semi_minor, rel=1e-9)
            if e.semi_major - e.semi_minor > 1e-6 * e.semi_major:
                assert back.angle == pytest.approx(e.angle, abs=1e-9)
            for got, exp in ((back.focus1, e.focus1), (back.focus2, e.focus2)):
                assert got.x == pytest.approx(exp.x, abs=1e-8)
                assert got.y == pytest.approx(exp.y, abs=1e-8)


class TestSlotFilledValues:
    """``_central_conic`` and ``_metric_ellipse`` call no ``__init__``: they
    fill their outputs through the slot setters, after the checks the
    constructors make, with the same exception classes and messages."""

    def test_central_conic_refuses_what_conic_refuses(self):
        for args in ((math.nan, 0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, math.inf, 0.0),
                     (1.0, 0.0, 1.0, 1e200, 0.0), (1.0, 0.0, 1.0, 0.0, -1e160)):
            with pytest.raises(ValueError, match="^conic coefficients must be finite$"):
                _central_conic(*args)
        # Q = 0 leaves the constant -1, so the six never all vanish here;
        # the check they share with Conic is _set_conic's
        assert _central_conic(0.0, 0.0, 0.0, 2.0, 3.0) == ic.Conic(0, 0, 0, 0, 0, -1)
        with pytest.raises(ValueError, match="^conic coefficients cannot all vanish$"):
            _set_conic(object.__new__(ic.Conic), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("cx, cy", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                        (0.0, -math.inf)])
    def test_metric_ellipse_refuses_a_non_finite_center(self, cx, cy):
        with pytest.raises(ValueError, match="^point components must be finite$"):
            _metric_ellipse(1.0, 0.0, 4.0, 4.0, 1.0, cx, cy)

    def test_metric_ellipse_refuses_non_finite_foci(self):
        # value / lam overflows: both axes are infinite and so are the foci
        with pytest.raises(ValueError, match="^point components must be finite$"):
            _metric_ellipse(1e-10, 0.0, 4e-10, 4e-20, 1e300, 0.0, 0.0)

    def test_metric_ellipse_makes_the_ellipse_checks(self):
        # a zero value gives zero axes, which EllipseGeo refuses
        with pytest.raises(ValueError, match="^semi-axes must be positive$"):
            _metric_ellipse(1.0, 0.0, 4.0, 4.0, 0.0, 0.0, 0.0)

    def test_filled_values_equal_what_the_constructors_build(self, rng):
        for _ in range(200):
            q11, q22 = rng.uniform(0.1, 10.0, 2)
            q12 = rng.uniform(-0.9, 0.9) * math.sqrt(q11 * q22)
            cx, cy = rng.uniform(-1e3, 1e3, 2)
            conic = _central_conic(q11, q12, q22, cx, cy)
            assert type(conic) is ic.Conic
            assert conic == ic.Conic(q11, 2 * q12, q22, -2 * (q11 * cx + q12 * cy),
                                     -2 * (q12 * cx + q22 * cy),
                                     q11 * cx * cx + 2 * q12 * cx * cy + q22 * cy * cy - 1)
            e = _metric_ellipse(q11, q12, q22, q11 * q22 - q12 * q12, 1.0, cx, cy)
            points = (e.center, e.focus1, e.focus2)
            assert [type(p) for p in points] == [ic.Point] * 3
            assert (e.center.x, e.center.y) == (cx, cy)
            assert (e.focus1.x, e.focus1.y) <= (e.focus2.x, e.focus2.y)
            assert e == ic.EllipseGeo(*(ic.Point(p.x, p.y) if isinstance(p, ic.Point) else p
                                        for p in e._values()))

    @pytest.mark.parametrize("turn", [-1e-12, 1e-12, -1e-9, 1e-9])
    def test_foci_with_one_abscissa_are_ordered_by_ordinate(self, turn):
        # a major axis a hair off vertical, far out: the foci's abscissas
        # round to the center's, and the ordinates order them
        angle = math.pi / 2 + turn
        ux, uy = math.cos(angle), math.sin(angle)
        p, q, r = ux * ux + 4 * uy * uy, ux * uy * (1 - 4), uy * uy + 4 * ux * ux
        e = _metric_ellipse(p, q, r, 4.0, 1.0, 1e8, 0.0)
        assert e.focus1.x == e.focus2.x == 1e8
        assert e.focus1.y < 0 < e.focus2.y


def _adjugate_oracle(c, line):
    adj = np.array(ic.geometry.adjugate3(conic_matrix(c)))
    v = np.array([line.a, line.b, line.c])
    return abs(v @ adj @ v) / np.linalg.norm(adj), adj @ v, np.linalg.norm(adj)


_coeff = st.floats(-2, 2)
_line = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 3)).filter(
    lambda v: math.hypot(v[0], v[1]) > 1e-3)


def _conic_of_kind(kind, k1, k2, ang, cx, cy, eps):
    """A conic from its axis form: an ellipse (k1, k2 > 0), a hyperbola
    (k2 < 0) or two lines plus eps times a circle (near-degenerate)."""
    ca, sa = math.cos(ang), math.sin(ang)
    rot = np.array([[ca, -sa], [sa, ca]])
    sign = {"ellipse": 1.0, "hyperbola": -1.0, "near_degenerate": -1.0}[kind]
    q = rot @ np.diag([k1, sign * k2]) @ rot.T
    m = np.zeros((3, 3))
    m[:2, :2] = q
    ctr = np.array([cx, cy])
    m[:2, 2] = m[2, :2] = -q @ ctr
    m[2, 2] = ctr @ q @ ctr - (eps if kind == "near_degenerate" else 1.0)
    return conic_from_matrix(m)


_conics = st.builds(_conic_of_kind, st.sampled_from(["ellipse", "hyperbola", "near_degenerate"]),
                    st.floats(0.05, 5), st.floats(0.05, 5), st.floats(-3.2, 3.2),
                    st.floats(-5, 5), st.floats(-5, 5), st.floats(1e-12, 1e-6))


class TestClosedFormsAgainstNumpy:
    """The scalar closed forms against the numpy formulas they replace."""

    @given(_conics, _line)
    @settings(max_examples=300, deadline=None)
    def test_residual_and_pole_match_the_adjugate(self, c, abc):
        line = ic.Line(*abc)
        want_residual, want_pole, adj_norm = _adjugate_oracle(c, line)
        residual, pole = ic.oracle._residual_and_pole(c, line)
        scale = 1 + line.c * line.c
        assert residual == pytest.approx(want_residual, abs=1e-13 * scale)
        assert np.abs(np.array(pole) - want_pole).max() <= 1e-13 * adj_norm * scale
        assert ic.tangency_residual(c, line) == residual

    @given(_coeff, _coeff, _coeff, _coeff, _coeff, _coeff,
           st.tuples(*[st.floats(-2, 2)] * 4), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_transform_conic_matches_the_inverse_congruence(self, a, b, c, d, e, f,
                                                           lin, tx, ty):
        if max(abs(v) for v in (a, b, c, d, e, f)) < 1e-3:
            return
        if abs(lin[0] * lin[3] - lin[1] * lin[2]) < 0.2:
            return
        conic = ic.Conic(a, b, c, d, e, f)
        t = ic.AffineMap(*lin, tx, ty)
        hi = np.linalg.inv(affine_matrix3(t))
        want = conic_from_matrix(hi.T @ conic_matrix(conic) @ hi)
        assert ic.conic_distance(ic.transform_conic(conic, t), want) < 1e-12

    @given(_line, st.tuples(*[st.floats(-2, 2)] * 4), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_transform_line_matches_the_inverse_transpose(self, abc, lin, tx, ty):
        if abs(lin[0] * lin[3] - lin[1] * lin[2]) < 0.2:
            return
        line = ic.Line(*abc)
        t = ic.AffineMap(*lin, tx, ty)
        want = ic.Line(*(np.linalg.inv(affine_matrix3(t)).T @ np.array([line.a, line.b, line.c])))
        got = ic.transform_line(line, t)
        # the sign rule (first nonzero of a, b positive) flips either side
        # when rounding leaves a tiny a where the other has a = 0
        error = min(max(abs(g - sign * w) for g, w in zip((got.a, got.b, got.c),
                                                          (want.a, want.b, want.c)))
                    for sign in (1, -1))
        assert error <= 1e-12 * (1 + abs(want.c))

    def test_ellipse_from_conic_matches_eigh(self, rng):
        cases = []
        for _ in range(700):
            a = rng.uniform(0.1, 10.0)
            cases.append((a, rng.uniform(0.02, 1.0) * a, rng.uniform(-math.pi / 2, math.pi / 2)))
        for _ in range(100):   # near-circles
            a = rng.uniform(0.1, 10.0)
            cases.append((a, a * (1 - 10.0 ** rng.uniform(-15, -4)),
                          rng.uniform(-math.pi / 2, math.pi / 2)))
        for _ in range(50):    # axis-aligned
            a = rng.uniform(0.1, 10.0)
            cases.append((a, rng.uniform(0.02, 0.99) * a, float(rng.choice([0.0, math.pi / 2]))))
        for _ in range(150):   # either side of the +-pi/2 boundary
            a = rng.uniform(0.1, 10.0)
            gap = 10.0 ** rng.uniform(-15, -3)
            cases.append((a, rng.uniform(0.02, 0.99) * a,
                          float(rng.choice([math.pi / 2 - gap, -math.pi / 2 + gap]))))
        for a, b, ang in cases:
            c = ic.conic_from_ellipse(_ellipse(*rng.uniform(-10, 10, 2), a, b, ang))
            got = ic.ellipse_from_conic(c)
            evals, evecs = np.linalg.eigh(conic_matrix(c)[:2, :2])
            axes = np.sqrt(-c.evaluate(got.center.x, got.center.y) / evals)
            assert got.semi_major == pytest.approx(axes[0], rel=1e-12)
            assert got.semi_minor == pytest.approx(min(axes[1], axes[0]), rel=1e-12)
            assert -math.pi / 2 < got.angle <= math.pi / 2
            if axes[0] - axes[1] > 1e-6 * axes[0]:
                want = math.atan2(evecs[1, 0], evecs[0, 0])
                turn = (got.angle - want) / math.pi
                assert abs(turn - round(turn)) < 1e-9 / math.pi

    def test_axis_aligned_angles_are_exact(self):
        # x^2/4 + y^2 = 1 has its major axis on x, x^2 + y^2/4 = 1 on y,
        # which EllipseGeo reports as +pi/2 (the interval is (-pi/2, pi/2])
        assert ic.ellipse_from_conic(ic.Conic(0.25, 0, 1, 0, 0, -1)).angle == 0.0
        assert ic.ellipse_from_conic(ic.Conic(1, 0, 0.25, 0, 0, -1)).angle == math.pi / 2
        assert ic.ellipse_from_conic(ic.Conic(1, -0.0, 0.25, 0, 0, -1)).angle == math.pi / 2


class TestClassify:
    @pytest.mark.parametrize("coeffs,expected", [
        ((1, 0, 1, 0, 0, -1), ic.ConicClass.REAL_ELLIPSE),
        ((0, 1, 0, 0, 0, -1), ic.ConicClass.HYPERBOLA),
        ((0, 0, 1, -1, 0, 0), ic.ConicClass.PARABOLA),
        ((1, 0, 1, 0, 0, 1), ic.ConicClass.IMAGINARY_ELLIPSE),
        ((1, 0, -1, 0, 0, 0), ic.ConicClass.DEGENERATE_LINES),
    ])
    def test_examples(self, coeffs, expected):
        assert ic.classify_conic(ic.Conic(*coeffs)) is expected

    def test_every_ellipse_classifies_real(self, rng):
        for _ in range(200):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.1, 1.0) * a
            e = _ellipse(*rng.uniform(-5, 5, 2), a, b, rng.uniform(-1.5, 1.5))
            assert ic.classify_conic(ic.conic_from_ellipse(e)) is \
                ic.ConicClass.REAL_ELLIPSE

    @pytest.mark.parametrize("off", [1e3, 1e4])
    def test_far_conics_keep_their_class(self, off):
        # F(center) and ac - b^2/4 are judged against their own terms, so the
        # canonical scale's large constant term does not make them degenerate
        q = ic.validate_quad([(x + off, y + off) for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]])
        result = ic.inscribe_at_param(q, 0.37)
        assert ic.classify_conic(result.conic) is ic.ConicClass.REAL_ELLIPSE
        got, want = ic.ellipse_from_conic(result.conic), result.ellipse
        assert math.hypot(got.center.x - want.center.x,
                          got.center.y - want.center.y) < 1e-12 * off
        assert got.semi_major == pytest.approx(want.semi_major, rel=1e-7)
        assert got.semi_minor == pytest.approx(want.semi_minor, rel=1e-7)
        assert got.angle == pytest.approx(want.angle, abs=1e-7)
        hyperbola = ic.tangent_conic_at_center(q, ic.chord_x(q).point_at(0.9))[0]
        assert ic.classify_conic(hyperbola) is ic.ConicClass.HYPERBOLA


class TestHomPoint:
    def test_far_contacts_stay_finite(self):
        # dehomogenized contacts carry w = 1 exactly, however far out
        off = 1e10
        q = ic.validate_quad([(x + off, y + off) for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]])
        for contact in ic.inscribe_at_param(q, 0.37).tangencies:
            assert not contact.is_infinite()
            p = contact.to_point()
            assert min(abs(line.eval(p)) for line in q.side_lines()) < 1e-5

    def test_asymptote_contact_stays_at_infinity(self):
        # the center line of the worked quad meets the side y = 0 at
        # (-0.5, 0), so the tangent hyperbola centered there has that side
        # as an asymptote: its raw pole is judged relative to its norm
        q = quad_s3t2()
        lines = q.side_lines()
        conic = ic.member_with_center(ic.pencil_from_lines(*lines), ic.Point(-0.5, 0.0))
        contact = ic.tangency_point(conic, lines[0])
        assert contact.is_infinite() and contact.w == 0.0
        assert not ic.tangency_point(conic, lines[1]).is_infinite()
        assert ic.HomPoint(1.0, 2.0, 1e-12).dehomogenized().is_infinite()
        with pytest.raises(ValueError):
            contact.to_point()


class TestTransformConic:
    def test_scaled_circle(self):
        circle = ic.Conic(1, 0, 1, 0, 0, -1)
        t = ic.AffineMap(2, 0, 0, 1)
        got = ic.transform_conic(circle, t)
        ref = ic.Conic(0.25, 0, 1, 0, 0, -1)
        assert ic.conic_distance(got, ref) < 1e-12

    def test_identity_fixes_canonical_coefficients(self):
        c = ic.Conic(1, 0.3, 2, -0.5, 0.1, -1)
        got = ic.transform_conic(c, ic.AffineMap.identity())
        assert ic.conic_distance(got, c) < 1e-14

    def test_points_and_tangency_transport(self, rng):
        # oracle: direct substitution of 100 transported conic points
        e = _ellipse(1.0, -2.0, 3.0, 1.5, 0.7)
        c = ic.conic_from_ellipse(e)
        t = ic.AffineMap(1.3, 0.4, -0.2, 0.9, 2.0, -1.0)
        tc = ic.transform_conic(c, t)
        for phi in np.linspace(0, 2 * math.pi, 100, endpoint=False):
            x = e.center.x + e.semi_major * math.cos(phi) * math.cos(e.angle) \
                - e.semi_minor * math.sin(phi) * math.sin(e.angle)
            y = e.center.y + e.semi_major * math.cos(phi) * math.sin(e.angle) \
                + e.semi_minor * math.sin(phi) * math.cos(e.angle)
            assert abs(tc.evaluate(*t.apply_xy(x, y))) < 1e-10
        line = ic.Line(1, 0, -(e.center.x + e.semi_major * math.cos(e.angle)))
        # a tangent of the original maps to a tangent of the image
        tline = ic.transform_line(line, t)
        if ic.tangency_residual(c, line) < 1e-9:
            assert ic.tangency_residual(tc, tline) < 1e-10

    def test_composition(self, rng):
        for _ in range(30):
            a = rng.uniform(0.5, 3)
            c = ic.conic_from_ellipse(_ellipse(*rng.uniform(-3, 3, 2),
                                               a, a * rng.uniform(0.2, 0.9),
                                               rng.uniform(-1, 1)))
            m1 = _random_map(rng)
            m2 = _random_map(rng)
            once = ic.transform_conic(ic.transform_conic(c, m1), m2)
            combined = ic.transform_conic(c, compose(m2, m1))
            assert ic.conic_distance(once, combined) < 1e-9


class TestTangency:
    def test_circle_tangent_and_secant(self):
        circle = ic.Conic(1, 0, 1, 0, 0, -1)
        assert ic.tangency_residual(circle, ic.Line(1, 0, -1)) < 1e-15
        assert ic.tangency_residual(circle, ic.Line(1, 0, -2)) > 0.1

    def test_asymptote_as_limit_of_tangents(self):
        hyper = ic.Conic(0, 1, 0, 0, 0, -1)  # xy = 1
        # oracle: tangent lines at (t, 1/t) approach x = 0 as t grows and
        # every one of them has zero residual
        for t in (10.0, 100.0, 1000.0):
            # gradient of xy - 1 at (t, 1/t) is (1/t, t)
            line = ic.Line(1 / t, t, -2)
            assert ic.tangency_residual(hyper, line) < 1e-12
        assert ic.tangency_residual(hyper, ic.Line(1, 0, 0)) < 1e-15

    def test_pole_of_circle_tangent(self):
        circle = ic.Conic(1, 0, 1, 0, 0, -1)
        p = ic.tangency_point(circle, ic.Line(1, 0, -1))
        assert (p.x, p.y, p.w) == pytest.approx((1, 0, 1), abs=1e-12)

    def test_pole_matches_exact_contact_formula(self):
        # contact of the worked inscribed ellipse with y = 0, computed
        # exactly from the weighted-average form t1*z2/(t1 + t2)
        t1, t2 = Fraction(-1, 2), Fraction(-1, 1)
        zeta = t1 * 1 / (t1 + t2)
        assert zeta == Fraction(1, 3)
        e = ic.ellipse_from_foci_point(S3T2_F1, S3T2_F2, ic.Point(0, 0.25))
        c = ic.conic_from_ellipse(e)
        p = ic.tangency_point(c, ic.Line(0, 1, 0))
        assert p.x == pytest.approx(float(zeta), abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)
        assert p.w == 1.0

    def test_asymptote_pole_at_infinity(self):
        hyper = ic.Conic(0, 1, 0, 0, 0, -1)
        p = ic.tangency_point(hyper, ic.Line(1, 0, 0))
        assert p.w == 0.0

    def test_not_tangent_raises(self):
        circle = ic.Conic(1, 0, 1, 0, 0, -1)
        with pytest.raises(errors.NotTangent):
            ic.tangency_point(circle, ic.Line(1, 0, -2))

    def test_residual_zero_set_is_affine_equivariant(self, rng):
        e = _ellipse(0.5, 0.25, 2.0, 0.8, 0.4)
        c = ic.conic_from_ellipse(e)
        for _ in range(20):
            m = _random_map(rng)
            tc = ic.transform_conic(c, m)
            # tangent at a sampled boundary point, via the gradient
            phi = rng.uniform(0, 2 * math.pi)
            x = e.center.x + e.semi_major * math.cos(phi) * math.cos(e.angle) \
                - e.semi_minor * math.sin(phi) * math.sin(e.angle)
            y = e.center.y + e.semi_major * math.cos(phi) * math.sin(e.angle) \
                + e.semi_minor * math.sin(phi) * math.cos(e.angle)
            gx = 2 * c.a * x + c.b * y + c.d
            gy = c.b * x + 2 * c.c * y + c.e
            tangent = ic.Line(gx, gy, -(gx * x + gy * y))
            assert ic.tangency_residual(c, tangent) < 1e-10
            assert ic.tangency_residual(tc, ic.transform_line(tangent, m)) < 1e-10
            # non-tangent stays non-tangent
            secant = ic.Line(1, 0, -e.center.x)
            assert ic.tangency_residual(c, secant) > 1e-3
            assert ic.tangency_residual(tc, ic.transform_line(secant, m)) > 1e-6


class TestCanonicalScale:
    # the squared norm of these overflows to inf or underflows to 0, which
    # gave the zero conic and "cannot all vanish"
    def test_huge_coefficient_keeps_the_small_ones(self):
        got = ic.Conic(1e200, 0, 1, 0, 0, -1).coefficients()
        assert got == pytest.approx((1.0, 0.0, 1e-200, 0.0, 0.0, -1e-200), rel=1e-15)

    def test_tiny_conic_is_the_unit_one(self):
        got = ic.Conic(1e-200, 0, 1e-200, 0, 0, -1e-200).coefficients()
        k = 1 / math.sqrt(3)
        assert got == pytest.approx((k, 0.0, k, 0.0, 0.0, -k), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_scale_invariance_at_the_float_limits(self, scale):
        coeffs = (0.3, -1.2, 2.0, 0.7, -0.1, -4.0)
        want = ic.Conic(*coeffs).coefficients()
        got = ic.Conic(*(scale * c for c in coeffs)).coefficients()
        assert got == pytest.approx(want, rel=1e-15, abs=1e-16)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_each_coefficient_must_be_finite(self, bad):
        for i in range(6):
            coeffs = [1.0, 0.0, 1.0, 0.0, 0.0, -1.0]
            coeffs[i] = bad
            with pytest.raises(ValueError, match="conic coefficients must be finite"):
                ic.Conic(*coeffs)

    def test_ordinary_conic_keeps_one_plain_division(self):
        a, b, c, d, e, f = (0.3, -1.2, 2.0, 0.7, -0.1, -4.0)
        norm = math.sqrt(a * a + c * c + f * f + (b * b + d * d + e * e) / 2)
        assert ic.Conic(a, b, c, d, e, f).coefficients() == tuple(
            v / norm for v in (a, b, c, d, e, f))


class TestConicCenter:
    def test_worked_ellipse_far_from_origin_has_a_center(self):
        # at offset 1e4 the canonical scale leaves ac - b^2/4 near 1e-17,
        # below an absolute 1e-12 but not below the block's own size
        off = 1e4
        q = ic.validate_quad([(x + off, y + off) for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]])
        seg = ic.locus(q)
        got, want = ic.inscribe_at_param(q, 0.37).conic.center(), seg.point_at(0.37)
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-9 * (1 + seg.length())

    @pytest.mark.parametrize("coeffs", [(0, 0, 1, -1, 0, 0), (1, 2, 1, 0, -1, 0),
                                        (1, -2, 1, 3, 5, 7)])
    def test_parabola_still_has_none(self, coeffs):
        with pytest.raises(errors.SingularMap):
            ic.Conic(*coeffs).center()


class TestEllipseFromFociPoint:
    def test_symmetric_case(self):
        e = ic.ellipse_from_foci_point(ic.Point(-1, 0), ic.Point(1, 0),
                                       ic.Point(0, 1))
        assert e.semi_major == pytest.approx(math.sqrt(2), abs=1e-12)
        assert e.semi_minor == pytest.approx(1.0, abs=1e-12)
        assert e.angle == 0.0

    def test_worked_foci_and_point(self):
        # oracle: distance sums recomputed here at full precision
        f1, f2, p = S3T2_F1, S3T2_F2, ic.Point(0, 0.25)
        d1 = math.hypot(p.x - f1.x, p.y - f1.y)
        d2 = math.hypot(p.x - f2.x, p.y - f2.y)
        a_ref = (d1 + d2) / 2
        c_ref = math.hypot(f2.x - f1.x, f2.y - f1.y) / 2
        e = ic.ellipse_from_foci_point(f1, f2, p)
        assert e.semi_major == pytest.approx(a_ref, rel=1e-14)
        assert e.semi_minor == pytest.approx(math.sqrt(a_ref**2 - c_ref**2),
                                             rel=1e-13)
        assert e.semi_major == pytest.approx(S3T2_A, abs=1e-12)
        assert e.semi_minor == pytest.approx(S3T2_B, abs=1e-12)
        assert e.angle == pytest.approx(S3T2_ANGLE, abs=1e-12)
        assert e.center.x == pytest.approx(1.0, abs=1e-12)
        assert e.center.y == pytest.approx(0.75, abs=1e-12)

    def test_coincident_foci_give_circle(self):
        e = ic.ellipse_from_foci_point(ic.Point(0, 0), ic.Point(0, 0),
                                       ic.Point(2, 0))
        assert e.semi_major == pytest.approx(2.0)
        assert e.semi_minor == pytest.approx(2.0)
        assert e.angle == 0.0

    def test_thresholds_follow_the_scale(self):
        # foci and point of a proper ellipse at the 1e-13 scale: the focal
        # segment is not reached and the axis angle is still read
        e = ic.ellipse_from_foci_point(ic.Point(0, 0), ic.Point(1e-13, 1e-13),
                                       ic.Point(0, 3e-13))
        assert e.angle == pytest.approx(math.pi / 4, rel=1e-12)
        ref = ic.ellipse_from_foci_point(ic.Point(0, 0), ic.Point(1, 1), ic.Point(0, 3))
        assert e.semi_major == pytest.approx(1e-13 * ref.semi_major, rel=1e-12)
        assert e.semi_minor == pytest.approx(1e-13 * ref.semi_minor, rel=1e-12)

    def test_point_on_segment_rejected(self):
        with pytest.raises(errors.DegeneratePoint):
            ic.ellipse_from_foci_point(ic.Point(-1, 0), ic.Point(1, 0),
                                       ic.Point(0.5, 0))

    def test_focal_distance_identity(self, rng):
        for _ in range(300):
            f1 = ic.Point(*rng.uniform(-5, 5, 2))
            f2 = ic.Point(*rng.uniform(-5, 5, 2))
            p = ic.Point(*rng.uniform(-5, 5, 2))
            try:
                e = ic.ellipse_from_foci_point(f1, f2, p)
            except errors.DegeneratePoint:
                continue
            gap = math.hypot(e.focus1.x - e.focus2.x, e.focus1.y - e.focus2.y)
            assert gap == pytest.approx(
                2 * math.sqrt(e.semi_major**2 - e.semi_minor**2), abs=1e-10)


@given(st.floats(-3, 3), st.floats(-3, 3),
       st.floats(0.1, 4), st.floats(0.05, 0.95),
       st.floats(-1.5, 1.5))
@settings(max_examples=150, deadline=None)
def test_conic_ellipse_round_trip_property(cx, cy, a, ratio, ang):
    e = _ellipse(cx, cy, a, max(a * ratio, 1e-3), ang)
    back = ic.ellipse_from_conic(ic.conic_from_ellipse(e))
    assert math.hypot(back.center.x - cx, back.center.y - cy) < 1e-8
    assert abs(back.semi_major - e.semi_major) < 1e-8 * max(1, a)
    assert abs(back.semi_minor - e.semi_minor) < 1e-8 * max(1, a)


def _ellipse(cx, cy, a, b, angle):
    angle = ((angle + math.pi / 2) % math.pi) - math.pi / 2
    if angle <= -math.pi / 2:
        angle += math.pi
    c = math.sqrt(max(a * a - b * b, 0.0))
    ux, uy = math.cos(angle), math.sin(angle)
    f1 = ic.Point(cx - c * ux, cy - c * uy)
    f2 = ic.Point(cx + c * ux, cy + c * uy)
    if (f1.x, f1.y) > (f2.x, f2.y):
        f1, f2 = f2, f1
    return ic.EllipseGeo(ic.Point(cx, cy), a, b, angle, f1, f2)


def _random_map(rng):
    while True:
        m = rng.uniform(-2, 2, 4)
        if abs(m[0] * m[3] - m[1] * m[2]) > 0.2:
            return ic.AffineMap(m[0], m[1], m[2], m[3], *rng.uniform(-3, 3, 2))
