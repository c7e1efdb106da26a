"""Center locus, weights, focal quadratic, per-center construction, chord."""
import math
from fractions import Fraction

import numpy as np
import pytest

import inconic as ic
from inconic import errors
from inconic.inscribed import _marden_conic

from conftest import (
    quad_s3t2,
    quad_s4t2,
    random_affine,
    random_convex_quad,
    random_trapezium,
    random_trapezoid,
    transform_quad,
)


def _exact_weights(s, t, h):
    """Independent oracle: the raw center equations with k on the line.

    t1 = 2h - 1 - 2k(s-1)/t, t2 = 1 - 2h (and the mirrored pair), with
    k = (s - t + 2h(t-1)) / (2(s-1)); everything in exact rationals.
    """
    k = (s - t + 2 * h * (t - 1)) / (2 * (s - 1))
    t1 = 2 * h - 1 - 2 * k * (s - 1) / t
    t2 = 1 - 2 * h
    s1 = 2 * k - 1 - 2 * h * (t - 1) / s
    s2 = 1 - 2 * k
    return (t1, t2, 1 - t1 - t2), (s1, s2, 1 - s1 - s2)


def _fraction_nf(s, t):
    return ic.NormalForm(ic.AffineMap.identity(), s, t, (0, 1, 2, 3))


class TestLocus:
    def test_worked_quad_midpoints(self):
        seg = ic.locus(quad_s3t2())
        assert seg.m1 == ic.Point(0.5, 0.5)
        assert seg.m2 == ic.Point(1.5, 1.0)
        assert seg.open and not seg.degenerate

    def test_square_degenerate_point(self):
        seg = ic.locus(ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert seg.m1 == seg.m2 == ic.Point(0.5, 0.5)
        assert seg.degenerate

    def test_midpoints_strictly_inside(self, rng):
        # oracle: point-in-convex-polygon via the four half-planes
        for _ in range(50):
            q = random_convex_quad(rng)
            seg = ic.locus(q)
            for p in (seg.m1, seg.m2):
                for line in q.side_lines():
                    assert abs(line.eval(p)) > 1e-9
                assert q.contains_point(p)


class TestLocusLine:
    def test_worked_line_and_interval(self):
        nf = ic.normalize(quad_s3t2())
        ll = ic.locus_line(nf)
        # oracle: direct substitution into (s - t + 2x(t-1)) / (2(s-1))
        for x in np.linspace(0.5, 1.5, 7):
            assert ll(float(x)) == pytest.approx((1 + 2 * x) / 4, abs=1e-12)
        assert ll.interval == (0.5, 1.5)
        assert ll(0.5) == pytest.approx(0.5)
        assert ll(1.5) == pytest.approx(1.0)

    def test_optimal_center_of_wide_quad(self):
        nf = ic.normalize(quad_s4t2())
        assert ic.locus_line(nf)(4 / 3) == pytest.approx(7 / 9, abs=1e-12)

    def test_line_hits_both_midpoints(self, rng):
        for _ in range(50):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            ll = ic.locus_line(nf)
            assert ll(0.5) == pytest.approx(0.5, abs=1e-9)
            assert ll(float(nf.s) / 2) == pytest.approx(float(nf.t) / 2, abs=1e-9)


class TestWeightsFromCenter:
    def test_worked_example_exact(self):
        nf = _fraction_nf(Fraction(3), Fraction(2))
        wt, ws = ic.weights_from_center(nf, Fraction(1))
        assert wt.as_tuple() == (Fraction(-1, 2), Fraction(-1), Fraction(5, 2))
        assert ws.as_tuple() == (Fraction(-1, 6), Fraction(-1, 2), Fraction(5, 3))
        assert wt.product == Fraction(5, 4)
        assert ws.product == Fraction(5, 36)
        exact_t, exact_s = _exact_weights(Fraction(3), Fraction(2), Fraction(1))
        assert wt.as_tuple() == exact_t
        assert ws.as_tuple() == exact_s

    def test_simplified_forms_equal_center_equations(self, rng):
        # one-time equivalence check of the production formulas, in exact
        # rationals at random (s, t, h)
        for _ in range(100):
            s = Fraction(int(rng.integers(2, 60)), int(rng.integers(1, 20)))
            t = Fraction(int(rng.integers(2, 60)), int(rng.integers(1, 20)))
            if s == 1 or t == 1 or s + t <= 1:
                continue
            lo, hi = min(Fraction(1, 2), s / 2), max(Fraction(1, 2), s / 2)
            h = lo + (hi - lo) * Fraction(int(rng.integers(1, 19)), 20)
            nf = _fraction_nf(s, t)
            wt, ws = ic.weights_from_center(nf, h)
            exact_t, exact_s = _exact_weights(s, t, h)
            assert wt.as_tuple() == exact_t
            assert ws.as_tuple() == exact_s
            # closed-form product from direct substitution
            assert wt.product == (s - 2 * h) * (2 * h - 1) * (s + 2 * h * (t - 1)) / t**2
            assert ws.product == (s + 2 * h * (t - 1)) * (2 * h - 1) * (s - 2 * h) \
                * (t - 1)**2 / (s**2 * (s - 1)**2)
            assert wt.product > 0 and ws.product > 0

    def test_boundary_abscissa_rejected(self):
        nf = ic.normalize(quad_s3t2())
        with pytest.raises(errors.CenterOffLocus):
            ic.weights_from_center(nf, 0.5)
        with pytest.raises(errors.CenterOffLocus):
            ic.weights_from_center(nf, 1.5)
        # just inside the open interval the product is tiny but positive
        wt, _ = ic.weights_from_center(nf, 0.5 + 1e-7)
        assert 0 < wt.product < 1e-6


class TestFociQuadratic:
    def test_worked_coefficients(self):
        nf = ic.normalize(quad_s3t2())
        root_sum, root_product = ic.foci_quadratic(nf, 1.0)
        assert root_sum == pytest.approx(2 + 1.5j, abs=1e-14)
        assert root_product == pytest.approx(0.5j, abs=1e-14)

    def test_roots_match_both_triangle_constructions(self):
        # oracle: solve the quadratic and compare against the zeros of the
        # weighted numerators on each triangle
        nf = ic.normalize(quad_s3t2())
        s, t = nf.s, nf.t
        root_sum, root_product = ic.foci_quadratic(nf, 1.0)
        roots = sorted(ic.stable_quadratic_roots(root_sum, root_product),
                       key=lambda z: (z.real, z.imag))
        wt, ws = ic.weights_from_center(nf, 1.0)
        tri1 = ic.TriangleZ(0j, 1 + 0j, complex(0, -t / (s - 1)))
        tri2 = ic.TriangleZ(0j, 1j, complex(-s / (t - 1), 0))
        for tri, w in ((tri1, wt), (tri2, ws)):
            pair = sorted(ic.foci_from_weights(tri, w),
                          key=lambda z: (z.real, z.imag))
            for a, b in zip(roots, pair):
                assert abs(a - b) < 1e-12

    def test_center_is_focal_midpoint(self, rng):
        for _ in range(30):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval()
            h = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            root_sum, _ = ic.foci_quadratic(nf, h)
            k = ic.locus_line(nf)(h)
            assert root_sum / 2 == pytest.approx(complex(h, k), abs=1e-10)

    def test_monic_agreement_is_enforced(self, rng):
        # the operation itself asserts both numerators reduce to the same
        # monic quadratic; run it across a sample
        for _ in range(100):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval()
            for u in (0.2, 0.5, 0.8):
                ic.foci_quadratic(nf, lo + u * (hi - lo))


class TestInscribeAtCenter:
    def test_worked_example_full(self):
        r = ic.inscribe_at_center(quad_s3t2(), ic.Point(1.0, 0.75))
        e = r.ellipse
        assert e.center.x == pytest.approx(1.0, abs=1e-9)
        assert e.center.y == pytest.approx(0.75, abs=1e-9)
        assert e.semi_major == pytest.approx(1.1519582402990595, abs=1e-9)
        assert e.semi_minor == pytest.approx(0.485275398724368, abs=1e-9)
        assert e.angle == pytest.approx(0.5791929425987547, abs=1e-9)
        expected_contacts = [(1 / 3, 0), (5 / 3, 2 / 3), (9 / 7, 10 / 7), (0, 0.25)]
        for hp, (ex, ey) in zip(r.tangencies, expected_contacts):
            assert hp.w == 1.0
            assert hp.x == pytest.approx(ex, abs=1e-9)
            assert hp.y == pytest.approx(ey, abs=1e-9)
        for line in quad_s3t2().side_lines():
            assert ic.tangency_residual(r.conic, line) < 1e-8

    def test_midpoint_center_rejected(self):
        with pytest.raises(errors.CenterOffLocus):
            ic.inscribe_at_center(quad_s3t2(), ic.Point(0.5, 0.5))

    def test_parallelogram_rejected(self):
        q = ic.validate_quad([(0, 0), (2, 0), (3, 1), (1, 1)])
        with pytest.raises(errors.ParallelogramUnsupported):
            ic.inscribe_at_center(q, ic.Point(1.5, 0.5))

    def test_kite_symmetry(self):
        # quad symmetric under swapping x and y: the conic must be too
        c = 1.7
        q = ic.validate_quad([(0, 0), (1, 0), (c, c), (0, 1)])
        seg = ic.locus(q)
        center = seg.point_at(0.4)
        assert center.x == pytest.approx(center.y, abs=1e-12)
        conic = ic.inscribe_at_center(q, center).conic
        swapped = ic.Conic(conic.c, conic.b, conic.a, conic.e, conic.d, conic.f)
        assert ic.conic_distance(conic, swapped) < 1e-9

    def test_shared_contact_point_on_left_side(self):
        # both triangle ellipses touch x = 0 at (0, (s-2h)/(2h(s-1)))
        q = quad_s3t2()
        nf = ic.normalize(q)
        s, t = nf.s, nf.t
        h = 1.0
        expected = (s - 2 * h) / (2 * h * (s - 1))
        wt, ws = ic.weights_from_center(nf, h)
        tri1 = ic.TriangleZ(0j, 1 + 0j, complex(0, -t / (s - 1)))
        tri2 = ic.TriangleZ(0j, 1j, complex(-s / (t - 1), 0))
        e1 = ic.marden_ellipse(tri1, wt)
        e2 = ic.marden_ellipse(tri2, ws)
        left = ic.Line(1, 0, 0)
        for e in (e1, e2):
            p = ic.tangency_point(ic.conic_from_ellipse(e), left)
            assert p.x == pytest.approx(0.0, abs=1e-9)
            assert p.y == pytest.approx(expected, abs=1e-9)
        # and the two tangent ellipses are the same conic
        assert ic.conic_distance(ic.conic_from_ellipse(e1),
                                 ic.conic_from_ellipse(e2)) < 1e-8

    def test_triangle_ellipses_coincide_across_sample(self, rng):
        for _ in range(25):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            s, t = nf.s, nf.t
            lo, hi = nf.interval()
            h = float(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)))
            wt, ws = ic.weights_from_center(nf, h)
            tri1 = ic.TriangleZ(0j, 1 + 0j, complex(0, -t / (s - 1)))
            tri2 = ic.TriangleZ(0j, 1j, complex(-s / (t - 1), 0))
            c1 = ic.conic_from_ellipse(ic.marden_ellipse(tri1, wt))
            c2 = ic.conic_from_ellipse(ic.marden_ellipse(tri2, ws))
            assert ic.conic_distance(c1, c2) < 1e-8

    def test_trapezoid_pencil_path(self, rng):
        for _ in range(15):
            q = random_trapezoid(rng)
            seg = ic.locus(q)
            center = seg.point_at(0.37)
            r = ic.inscribe_at_center(q, center)
            assert math.hypot(r.ellipse.center.x - center.x,
                              r.ellipse.center.y - center.y) < 1e-9 * (1 + seg.length())
            for line in q.side_lines():
                assert ic.tangency_residual(r.conic, line) < 1e-8
            # the focal construction agrees with the pencil oracle
            pencil = ic.pencil_from_lines(*q.side_lines())
            assert ic.conic_distance(r.conic, ic.member_with_center(pencil, center)) < 1e-10
            # the first-triangle weights stay meaningful when t = 1
            assert r.weights_t.product > 0

    def test_ellipse_stays_inside_quad(self, rng):
        for _ in range(20):
            q = random_trapezium(rng) if rng.uniform() < 0.7 else random_trapezoid(rng)
            seg = ic.locus(q)
            e = ic.inscribe_at_center(q, seg.point_at(float(rng.uniform(0.1, 0.9)))).ellipse
            ca, sa = math.cos(e.angle), math.sin(e.angle)
            lines = q.side_lines()
            signs = [line.eval(seg.point_at(0.5)) for line in lines]
            for phi in np.linspace(0, 2 * math.pi, 360, endpoint=False):
                x = e.center.x + e.semi_major * math.cos(phi) * ca \
                    - e.semi_minor * math.sin(phi) * sa
                y = e.center.y + e.semi_major * math.cos(phi) * sa \
                    + e.semi_minor * math.sin(phi) * ca
                for line, sign in zip(lines, signs):
                    v = line.eval(ic.Point(x, y))
                    assert v * math.copysign(1.0, sign) > -1e-9

    def test_uniqueness_probe(self):
        q = quad_s3t2()
        seg = ic.locus(q)
        c1 = ic.inscribe_at_center(q, seg.point_at(0.4)).conic
        c2 = ic.inscribe_at_center(q, seg.point_at(0.6)).conic
        assert ic.conic_distance(c1, c2) > 1e-3

    def test_affine_equivariance(self, rng):
        q = quad_s3t2()
        seg = ic.locus(q)
        center = seg.point_at(0.37)
        base = ic.inscribe_at_center(q, center).conic
        for _ in range(25):
            m = random_affine(rng)
            q2 = transform_quad(q, m)
            mapped_center = m.apply(center)
            direct = ic.inscribe_at_center(q2, mapped_center).conic
            pushed = ic.transform_conic(base, m)
            assert ic.conic_distance(direct, pushed) < 1e-8


class TestInscribeAtParam:
    def test_midparam_matches_center(self):
        r = ic.inscribe_at_param(quad_s3t2(), 0.5)
        assert r.ellipse.center.x == pytest.approx(1.0, abs=1e-9)
        assert r.ellipse.center.y == pytest.approx(0.75, abs=1e-9)

    def test_endpoint_params_rejected(self):
        with pytest.raises(errors.CenterOffLocus):
            ic.inscribe_at_param(quad_s3t2(), 0.0)
        with pytest.raises(errors.CenterOffLocus):
            ic.inscribe_at_param(quad_s3t2(), 1.0 - 1e-12)

    def test_centers_collinear_with_midpoints(self, rng):
        q = random_trapezium(rng)
        seg = ic.locus(q)
        for u in rng.uniform(0.05, 0.95, 100):
            e = ic.inscribe_at_param(q, float(u)).ellipse
            det = (seg.m2.x - seg.m1.x) * (e.center.y - seg.m1.y) \
                - (seg.m2.y - seg.m1.y) * (e.center.x - seg.m1.x)
            assert abs(det) < 1e-10 * (1 + seg.length() ** 2)


class TestChordX:
    def test_worked_quad_chord(self):
        # oracle: clip the midpoint line against each side line directly
        ch = ic.chord_x(quad_s3t2())
        assert ch.p_start.x == pytest.approx(0.0, abs=1e-12)
        assert ch.p_start.y == pytest.approx(0.25, abs=1e-12)
        assert ch.p_end.x == pytest.approx(2.5, abs=1e-12)
        assert ch.p_end.y == pytest.approx(1.5, abs=1e-12)

    def test_endpoints_on_boundary_lines(self, rng):
        for _ in range(30):
            q = random_convex_quad(rng)
            if q.kind is ic.QuadKind.PARALLELOGRAM:
                continue
            ch = ic.chord_x(q)
            for p in (ch.p_start, ch.p_end):
                assert min(abs(line.eval(p)) for line in q.side_lines()) < 1e-9
                assert q.contains_point(p, slack=1e-9)

    def test_chord_strictly_contains_locus(self, rng):
        for _ in range(30):
            q = random_trapezium(rng)
            ch = ic.chord_x(q)
            seg = ic.locus(q)
            dx, dy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
            den = dx * dx + dy * dy
            for m in (seg.m1, seg.m2):
                u = ((m.x - ch.p_start.x) * dx + (m.y - ch.p_start.y) * dy) / den
                assert 1e-6 < u < 1 - 1e-6


class TestTangentConicAtCenter:
    def test_locus_center_reproduces_inscribed_conic(self):
        q = quad_s3t2()
        center = ic.locus(q).point_at(0.5)
        conic, cls, _ = ic.tangent_conic_at_center(q, center)
        assert cls is ic.ConicClass.REAL_ELLIPSE
        assert ic.conic_distance(conic, ic.inscribe_at_center(q, center).conic) < 1e-8

    def test_beyond_midpoint_is_tangent_hyperbola(self):
        q = quad_s3t2()
        ch = ic.chord_x(q)
        conic, cls, tangencies = ic.tangent_conic_at_center(q, ch.point_at(0.9))
        assert cls is ic.ConicClass.HYPERBOLA
        for line in q.side_lines():
            assert ic.tangency_residual(conic, line) < 1e-8
        assert len(tangencies) == 4

    def test_midpoint_rejected(self):
        with pytest.raises(errors.DegenerateAtMidpoint):
            ic.tangent_conic_at_center(quad_s3t2(), ic.Point(0.5, 0.5))

    def test_off_chord_rejected(self):
        with pytest.raises(errors.CenterOffChord):
            ic.tangent_conic_at_center(quad_s3t2(), ic.Point(0.7, 0.7))


class TestWeightPositivity:
    def test_products_positive_across_sample(self, rng):
        for _ in range(100):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval()
            for u in np.linspace(0.02, 0.98, 50):
                h = lo + float(u) * (hi - lo)
                wt, ws = ic.weights_from_center(nf, h)
                assert wt.product > 0
                assert ws.product > 0


def test_marden_conic_helper_matches_public_result():
    q = quad_s3t2()
    nf = ic.normalize(q)
    conic = _marden_conic(nf, 1.0, ic.DEFAULT_TOL)
    ref = ic.inscribe_at_center(q, ic.Point(1.0, 0.75)).conic
    assert ic.conic_distance(conic, ref) < 1e-12
