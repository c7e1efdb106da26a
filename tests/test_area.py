"""Tangent-ellipse areas, the area cubic, and the maximal-area ellipse."""
import math
from fractions import Fraction

import numpy as np
import pytest

import inconic as ic
from inconic import errors
from inconic.area import _real_quadratic_roots
from inconic.marden import AreaTriple

from conftest import (
    normal_form,
    quad_s3t2,
    quad_s4t2,
    random_affine,
    random_trapezium,
    random_trapezoid,
    transform_quad,
)


def _signed(a, b, c):
    return ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2


class TestTriangleTangentEllipseArea:
    def test_worked_exterior_center(self):
        a, b, c = ic.Point(0, 0), ic.Point(1, 0), ic.Point(0, -1)
        p = ic.Point(1, 0.75)
        alpha = abs(_signed(b, p, c))
        beta = abs(_signed(c, p, a))
        gamma = abs(_signed(a, p, b))
        assert (alpha, beta, gamma) == (0.375, 0.5, 0.375)
        # exterior-center relation for this configuration
        assert beta + gamma - alpha == pytest.approx(0.5, abs=1e-12)
        got = ic.triangle_tangent_ellipse_area(a, b, c, p)
        assert got == pytest.approx(8 * math.pi * math.sqrt(0.0048828125),
                                    rel=1e-12)
        # oracle: pi*a*b of the inscribed ellipse of the worked quadrilateral
        # at the same center, which is tangent to these same three lines
        e = ic.inscribe_at_center(quad_s3t2(), p).ellipse
        assert got == pytest.approx(e.area, rel=1e-9)

    def test_centroid_gives_steiner_area(self, rng):
        # oracle: substituting alpha = beta = gamma = K/3 into the product
        # yields (K/2)(K/6)^3 = K^4/432, so the area is pi*K/(3*sqrt(3))
        for _ in range(50):
            pts = rng.uniform(-4, 4, 6)
            a, b, c = (ic.Point(pts[0], pts[1]), ic.Point(pts[2], pts[3]),
                       ic.Point(pts[4], pts[5]))
            k2 = _signed(a, b, c)
            if abs(k2) < 0.1:
                continue
            centroid = ic.Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
            got = ic.triangle_tangent_ellipse_area(a, b, c, centroid)
            k = abs(k2)
            assert got == pytest.approx(math.pi * k / (3 * math.sqrt(3)), rel=1e-9)

    def test_center_on_side_line_rejected(self):
        a, b, c = ic.Point(0, 0), ic.Point(1, 0), ic.Point(0, 1)
        with pytest.raises(errors.DegenerateTriangle):
            ic.triangle_tangent_ellipse_area(a, b, c, ic.Point(0.5, 0.0))

    def test_collinear_triangle_rejected(self):
        with pytest.raises(errors.DegenerateTriangle):
            ic.triangle_tangent_ellipse_area(ic.Point(0, 0), ic.Point(1, 1),
                                             ic.Point(2, 2), ic.Point(0, 1))

    def test_corner_region_has_no_real_ellipse(self):
        a, b, c = ic.Point(0, 0), ic.Point(1, 0), ic.Point(0, 1)
        with pytest.raises(errors.NoRealEllipse):
            ic.triangle_tangent_ellipse_area(a, b, c, ic.Point(-1, 3))

    def test_exterior_point_relation(self, rng):
        # whenever exactly one side separates p from the triangle, the
        # unsigned areas satisfy area(ABC) = (other two) - (separating one)
        count = 0
        while count < 100:
            pts = rng.uniform(-4, 4, 6)
            a, b, c = (ic.Point(pts[0], pts[1]), ic.Point(pts[2], pts[3]),
                       ic.Point(pts[4], pts[5]))
            k2 = _signed(a, b, c)
            if abs(k2) < 0.2:
                continue
            p = ic.Point(*rng.uniform(-6, 6, 2))
            sides = ((b, c, a), (c, a, b), (a, b, c))
            separating = []
            for u, v, opp in sides:
                lu = ic.Line.from_points(u, v)
                if lu.eval(p) * lu.eval(opp) < -1e-9:
                    separating.append((u, v, opp))
            if len(separating) != 1:
                continue
            (u, v, opp) = separating[0]
            alpha = abs(_signed(u, p, v))
            others = abs(_signed(a, p, b)) + abs(_signed(b, p, c)) \
                + abs(_signed(c, p, a)) - alpha
            assert abs(abs(k2) - (others - alpha)) < 1e-10 * max(1, abs(k2))
            count += 1

    def test_sigma_product_nonnegative_on_medial_triangle(self, rng):
        # real tangent-ellipse centers fill the open medial triangle, where
        # no sub-area exceeds the half-sum
        for _ in range(50):
            pts = rng.uniform(-4, 4, 6)
            a, b, c = (ic.Point(pts[0], pts[1]), ic.Point(pts[2], pts[3]),
                       ic.Point(pts[4], pts[5]))
            if abs(_signed(a, b, c)) < 0.2:
                continue
            mids = (ic.midpoint(b, c), ic.midpoint(c, a), ic.midpoint(a, b))
            w = rng.dirichlet([1, 1, 1])
            p = ic.Point(sum(wi * m.x for wi, m in zip(w, mids)),
                         sum(wi * m.y for wi, m in zip(w, mids)))
            triple = AreaTriple(abs(_signed(b, p, c)), abs(_signed(c, p, a)),
                                abs(_signed(a, p, b)))
            assert triple.is_real
            assert triple.sigma >= max(triple.alpha, triple.beta, triple.gamma) - 1e-12

    def test_near_vertex_center_has_no_real_ellipse(self):
        a, b, c = ic.Point(0, 0), ic.Point(1, 0), ic.Point(0, 1)
        with pytest.raises(errors.NoRealEllipse):
            ic.triangle_tangent_ellipse_area(a, b, c, ic.Point(0.05, 0.05))


class TestAreaCubic:
    def test_worked_value(self):
        nf = normal_form(Fraction(3), Fraction(2))
        assert ic.area_cubic(nf, Fraction(1)) == Fraction(5)

    def test_wide_quad_optimum_value(self):
        nf = normal_form(Fraction(4), Fraction(2))
        assert ic.area_cubic(nf, Fraction(4, 3)) == Fraction(400, 27)

    def test_exact_zeros_at_interval_ends(self):
        nf = normal_form(Fraction(3), Fraction(2))
        assert ic.area_cubic(nf, Fraction(1, 2)) == 0
        assert ic.area_cubic(nf, Fraction(3, 2)) == 0

    def test_positive_on_open_interval(self, rng):
        for _ in range(50):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval
            for u in np.linspace(0.01, 0.99, 25):
                assert ic.area_cubic(nf, lo + float(u) * (hi - lo)) > 0


class TestInscribedArea:
    def test_worked_value_against_constructed_ellipse(self):
        nf = ic.normalize(quad_s3t2())
        got = ic.inscribed_area(nf, 1.0)
        assert got == pytest.approx(math.pi * math.sqrt(5) / 4, rel=1e-12)
        e = ic.inscribe_at_center(quad_s3t2(), ic.Point(1.0, 0.75)).ellipse
        assert got == pytest.approx(e.area, rel=1e-9)

    def test_wide_quad_optimal_area(self):
        nf = ic.normalize(quad_s4t2())
        got = ic.inscribed_area(nf, 4 / 3)
        assert got == pytest.approx((math.pi / 6) * math.sqrt(400 / 27), rel=1e-12)
        e = ic.inscribe_at_center(quad_s4t2(), ic.Point(4 / 3, 7 / 9)).ellipse
        assert got == pytest.approx(e.area, rel=1e-9)

    def test_vanishes_toward_interval_ends(self):
        nf = ic.normalize(quad_s3t2())
        tail = ic.inscribed_area(nf, 1.5 - 1e-8)
        assert 0 < tail < 1e-3

    def test_matches_construction_across_sample(self, rng):
        for _ in range(100):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval
            det = abs(nf.T.det)
            for u in rng.uniform(0.05, 0.95, 20):
                h = lo + float(u) * (hi - lo)
                k = ic.locus_line(nf)(h)
                center = nf.T.inverse().apply(ic.Point(h, k))
                e = ic.inscribe_at_center(q, center).ellipse
                assert ic.inscribed_area(nf, h) / det == pytest.approx(
                    e.area, rel=1e-8)

    def test_lemma_substitution_identity_exact(self, rng):
        # sigma-product at (h, L(h)) against the closed form
        # t^2 (2h-1)(s + 2h(t-1))(s - 2h) / (256 (s-1)^4), in exact rationals
        for _ in range(60):
            s = Fraction(int(rng.integers(3, 50)), int(rng.integers(1, 12)))
            t = Fraction(int(rng.integers(3, 50)), int(rng.integers(1, 12)))
            if s == 1 or t == 1 or s + t <= 1:
                continue
            lo, hi = min(Fraction(1, 2), s / 2), max(Fraction(1, 2), s / 2)
            h = lo + (hi - lo) * Fraction(int(rng.integers(1, 15)), 16)
            k = (s - t + 2 * h * (t - 1)) / (2 * (s - 1))
            a = (Fraction(0), Fraction(0))
            b = (Fraction(1), Fraction(0))
            c = (Fraction(0), -t / (s - 1))
            p = (h, k)

            def area2(u, v, w):
                return ((v[0] - u[0]) * (w[1] - u[1])
                        - (v[1] - u[1]) * (w[0] - u[0])) / 2

            alpha = abs(area2(b, p, c))
            beta = abs(area2(c, p, a))
            gamma = abs(area2(a, p, b))
            sigma = (alpha + beta + gamma) / 2
            product = sigma * (sigma - alpha) * (sigma - beta) * (sigma - gamma)
            closed = t**2 * (2 * h - 1) * (s + 2 * h * (t - 1)) * (s - 2 * h) \
                / (256 * (s - 1)**4)
            assert product == closed


class TestMaxArea:
    def test_wide_quad_paper_center(self):
        res = ic.max_area(quad_s4t2())
        assert res.center.x == pytest.approx(4 / 3, abs=1e-9)
        assert res.center.y == pytest.approx(7 / 9, abs=1e-9)
        assert res.h0 == pytest.approx(4 / 3, abs=1e-12)

    def test_worked_quad_closed_form_root(self):
        # oracle: the derivative -24h^2 + 8h + 18 has the single interior
        # root (1 + 2 sqrt 7)/6 = (8 + sqrt 1792)/48
        res = ic.max_area(quad_s3t2())
        h0 = (8 + math.sqrt(1792)) / 48
        assert h0 == pytest.approx((1 + 2 * math.sqrt(7)) / 6, abs=1e-15)
        assert res.h0 == pytest.approx(h0, abs=1e-12)
        assert res.center.x == pytest.approx(h0, abs=1e-9)
        assert res.center.y == pytest.approx((1 + 2 * h0) / 4, abs=1e-9)
        # grid search confirmation
        nf = ic.normalize(quad_s3t2())
        grid = np.linspace(0.5 + 1e-4, 1.5 - 1e-4, 10_000)
        values = [ic.area_cubic(nf, float(h)) for h in grid]
        assert ic.area_cubic(nf, res.h0) >= max(values)

    def test_derivative_root_count_and_dominance(self, rng):
        for _ in range(30):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            s, t = float(nf.s), float(nf.t)
            roots = _real_quadratic_roots(-24 * (t - 1),
                                          8 * ((s + 1) * (t - 1) - s),
                                          2 * s * (s + 2 - t))
            lo, hi = nf.interval
            inside = [r for r in roots if lo < r < hi]
            assert len(inside) == 1
            res = ic.max_area(q)
            grid = lo + (hi - lo) * np.linspace(1e-4, 1 - 1e-4, 2000)
            vals = np.array([ic.area_cubic(nf, float(h)) for h in grid])
            assert ic.area_cubic(nf, res.h0) >= vals.max()

    def test_result_dominates_constructed_areas(self, rng):
        q = random_trapezium(rng)
        res = ic.max_area(q)
        seg = ic.locus(q)
        for u in np.linspace(0.05, 0.95, 40):
            e = ic.inscribe_at_center(q, seg.point_at(float(u))).ellipse
            assert res.area >= e.area - 1e-12

    def test_trapezoid_maximum_is_midparameter(self, rng):
        # in the normalized trapezoid frame the cubic degenerates to
        # s(s-2h)(2h-1), whose maximum sits at the midpoint of the interval;
        # the linear root of A'(h) must match that analytic oracle
        for _ in range(5):
            q = random_trapezoid(rng)
            res = ic.max_area(q)
            seg = ic.locus(q)
            mid = seg.point_at(0.5)
            assert math.hypot(res.center.x - mid.x, res.center.y - mid.y) \
                < 1e-11 * (1 + seg.length())

    def test_worked_trapezoid_maximum(self):
        # t = 1 exactly, so A'(h) is linear with root (s+1)/4 at s = 3/4,
        # and the area is pi*sqrt(3)/4
        q = ic.validate_quad([(0, 0), (2, 0), (1.5, 1), (0, 1)])
        res = ic.max_area(q)
        assert res.h0 == 0.4375
        assert res.area == pytest.approx(math.pi * math.sqrt(3) / 4, rel=1e-14)

    def test_parallelogram_rejected(self):
        q = ic.validate_quad([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(errors.ParallelogramUnsupported):
            ic.max_area(q)

    def test_no_normal_form_per_call(self, monkeypatch):
        # max_area reads the quad's pencil record, derived once per quad, and
        # builds no normal frame: h0 comes from the record's areas
        def fail(*args):
            raise AssertionError("max_area built a normal frame")

        frames, stores, store = [], [], ic.inscribed._store_pencil

        def counted(q, record):
            stores.append(q)
            store(q, record)
        monkeypatch.setattr(ic.inscribed, "_frame", fail)
        monkeypatch.setattr(ic.inscribed, "_store_pencil", counted)
        q = quad_s3t2()
        results = [ic.max_area(q) for _ in range(3)]
        assert stores == [q]
        for res in results:
            assert res.inscribed.ellipse == res.ellipse
            assert res.h0 == pytest.approx((1 + 2 * math.sqrt(7)) / 6, rel=1e-15)

    def test_affine_invariance_of_optimizer(self, rng):
        base = ic.max_area(quad_s3t2())
        for _ in range(20):
            m = random_affine(rng)
            q2 = transform_quad(quad_s3t2(), m)
            res = ic.max_area(q2)
            mapped = m.apply(base.center)
            assert math.hypot(res.center.x - mapped.x,
                              res.center.y - mapped.y) < 1e-8

    def test_no_minimum_cubic_vanishes_at_ends(self, rng):
        for _ in range(20):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval
            margin = 1e-4 * (hi - lo)
            grid = np.linspace(lo + margin, hi - margin, 2000)
            vals = np.array([ic.area_cubic(nf, float(h)) for h in grid])
            assert vals.min() < 1e-3 * vals.max()
