"""Dual-conic pencil: tangency closure, prescribed centers, line of centers."""
import math

import numpy as np
import pytest

import inconic as ic
from inconic import errors

from conftest import (
    quad_s3t2,
    random_convex_quad,
    random_trapezium,
    random_trapezoid,
)


def _sweep_params(n):
    # n finite parameters plus the member at infinity
    return [(math.tan(x), 1.0) for x in np.linspace(-1.5, 1.5, n)] + [(1.0, 0.0)]


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

    def test_square_members_are_concentric_and_line_undefined(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        pen = ic.pencil_from_lines(*q.side_lines())
        for num, den in _sweep_params(10):
            m = pen.member_matrix(num, den)
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


def _chord_param(ch, p):
    dx, dy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
    den = dx * dx + dy * dy
    u = ((p.x - ch.p_start.x) * dx + (p.y - ch.p_start.y) * dy) / den
    dist = abs((p.x - ch.p_start.x) * dy - (p.y - ch.p_start.y) * dx) / math.sqrt(den)
    return u, dist
