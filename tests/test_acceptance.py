"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import inconic as ic
from inconic.cli import main as cli_main

from conftest import (
    normal_form,
    quad_s3t2,
    quad_s4t2,
    random_affine,
    random_convex_quad,
    random_trapezium,
    random_trapezoid,
    transform_quad,
)


@contextmanager
def report(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


@pytest.fixture(scope="module")
def trapezium_sample():
    rng = np.random.default_rng(424242)
    return [random_trapezium(rng) for _ in range(100)]


def test_criterion_01_max_area_center():
    with report(1, "max-area center of the wide quadrilateral is (4/3, 7/9)"):
        res = ic.max_area(quad_s4t2())
        assert abs(res.center.x - 4 / 3) < 1e-9
        assert abs(res.center.y - 7 / 9) < 1e-9


def test_criterion_02_printed_foci():
    with report(2, "focal zeros match the printed four-decimal values"):
        tri1 = ic.TriangleZ(0j, 1 + 0j, -1j)
        tri2 = ic.TriangleZ(0j, 1j, -3 + 0j)
        f = ic.foci_from_weights(tri1, ic.WeightTriple(-0.25, 1.5))
        got = sorted(f, key=lambda z: z.real)
        assert abs(got[0] - (-0.3043 - 1.2004j)) < 2e-4
        assert abs(got[1] - (-0.1957 - 0.0496j)) < 2e-4
        g = ic.foci_from_weights(tri2, ic.WeightTriple(1 / 3, 1 / 2))
        got = sorted(g, key=lambda z: z.real)
        assert abs(got[0] - (-2.4841 + 0.0981j)) < 2e-4
        assert abs(got[1] - (-0.0159 + 0.4019j)) < 2e-4


def test_criterion_03_weight_products_exact():
    with report(3, "weight products equal 3/32 and 1/36 in exact rationals"):
        wt = ic.WeightTriple(Fraction(-1, 4), Fraction(3, 2))
        ws = ic.WeightTriple(Fraction(1, 3), Fraction(1, 2))
        assert wt.product == Fraction(3, 32)
        assert ws.product == Fraction(1, 36)
        assert ic.marden_validity(wt) and ic.marden_validity(ws)


def test_criterion_04_construction_correctness(trapezium_sample):
    with report(4, "100 trapezia x 20 centers: residuals, centers, oracle match"):
        for q in trapezium_sample:
            lines = q.side_lines()
            pen = ic.pencil_from_lines(*lines)
            seg = ic.locus(q)
            for u in np.linspace(0.04, 0.96, 20):
                center = seg.point_at(float(u))
                result = ic.inscribe_at_center(q, center)
                for line in lines:
                    assert ic.tangency_residual(result.conic, line) < 1e-8
                err = math.hypot(result.ellipse.center.x - center.x,
                                 result.ellipse.center.y - center.y)
                assert err < 1e-9
                oracle = ic.member_with_center(pen, center)
                assert ic.conic_distance(result.conic, oracle) < 1e-8


def test_criterion_05_foci_coincidence(trapezium_sample):
    with report(5, "both triangle numerators reduce to one monic quadratic"):
        for q in trapezium_sample:
            nf = ic.normalize(q)
            s, t = nf.s, nf.t
            lo, hi = nf.interval
            tri1 = ic.TriangleZ(0j, 1 + 0j, complex(0, -t / (s - 1)))
            tri2 = ic.TriangleZ(0j, 1j, complex(-s / (t - 1), 0))
            for u in np.linspace(0.05, 0.95, 20):
                h = lo + float(u) * (hi - lo)
                # foci_quadratic also asserts the reduction internally
                root_sum, root_product = ic.foci_quadratic(nf, h)
                wt, ws = ic.weights_from_center(nf, h)
                for tri, w in ((tri1, wt), (tri2, ws)):
                    t1, t2, t3 = w.as_tuple()
                    z1, z2, z3 = tri.z1, tri.z2, tri.z3
                    esum = t1 * (z2 + z3) + t2 * (z1 + z3) + t3 * (z1 + z2)
                    eprod = t1 * z2 * z3 + t2 * z1 * z3 + t3 * z1 * z2
                    assert abs(esum - root_sum) < 1e-10 * max(1, abs(root_sum))
                    assert abs(eprod - root_product) < 1e-10 * max(1, abs(root_product))


def test_criterion_06_newton_line():
    with report(6, "pencil line of centers passes both diagonal midpoints"):
        rng = np.random.default_rng(616161)
        checked = 0
        while checked < 100:
            q = random_trapezoid(rng) if checked % 3 == 0 else random_convex_quad(rng)
            if q.kind is ic.QuadKind.PARALLELOGRAM:
                continue
            line = ic.centers_line(ic.pencil_from_lines(*q.side_lines()))
            assert abs(line.eval(ic.midpoint(q.v0, q.v2))) < 1e-9
            assert abs(line.eval(ic.midpoint(q.v1, q.v3))) < 1e-9
            checked += 1


def test_criterion_07_area_consistency(trapezium_sample):
    with report(7, "closed-form areas match constructions and the triangle route"):
        nf0 = ic.normalize(quad_s3t2())
        worked = ic.inscribed_area(nf0, 1.0)
        assert abs(worked - math.pi * math.sqrt(5) / 4) < 1e-12
        for q in trapezium_sample[:40]:
            nf = ic.normalize(q)
            s, t = nf.s, nf.t
            lo, hi = nf.interval
            det = abs(nf.T.det)
            tri = (ic.Point(0, 0), ic.Point(1, 0), ic.Point(0, -t / (s - 1)))
            for u in (0.2, 0.45, 0.7, 0.9):
                h = lo + u * (hi - lo)
                formula = ic.inscribed_area(nf, h)
                k = ic.locus_line(nf)(h)
                center = nf.T.inverse().apply(ic.Point(h, k))
                constructed = ic.inscribe_at_center(q, center).ellipse.area
                assert abs(formula / det - constructed) < 1e-8 * constructed
                triangle_route = ic.triangle_tangent_ellipse_area(
                    *tri, ic.Point(h, k))
                assert abs(triangle_route - formula) < 1e-8 * formula


def test_criterion_08_unique_maximum(trapezium_sample):
    with report(8, "one interior critical point dominates a 10^4-point grid"):
        for q in trapezium_sample:
            nf = ic.normalize(q)
            s, t = float(nf.s), float(nf.t)
            lo, hi = nf.interval
            disc = (8 * ((s + 1) * (t - 1) - s)) ** 2 \
                + 4 * 24 * (t - 1) * 2 * s * (s + 2 - t)
            assert disc > 0
            roots = np.roots([-24 * (t - 1), 8 * ((s + 1) * (t - 1) - s),
                              2 * s * (s + 2 - t)])
            inside = [r.real for r in roots if lo < r.real < hi]
            assert len(inside) == 1
            res = ic.max_area(q)
            grid = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), 10_000)
            vals = (s - 2 * grid) * (2 * grid - 1) * (s + 2 * grid * (t - 1))
            peak = (s - 2 * res.h0) * (2 * res.h0 - 1) * (s + 2 * res.h0 * (t - 1))
            assert peak > vals.max()
            # exact zeros at both interval ends, in rational arithmetic
            sf, tf = Fraction(s), Fraction(t)
            nf_exact = normal_form(sf, tf, nf.M, nf.translation, nf.inverse, nf.labeling)
            assert ic.area_cubic(nf_exact, Fraction(1, 2)) == 0
            assert ic.area_cubic(nf_exact, sf / 2) == 0


def test_criterion_09_no_minimum(trapezium_sample):
    with report(9, "grid areas tend to zero at both interval ends"):
        for q in trapezium_sample:
            nf = ic.normalize(q)
            s, t = float(nf.s), float(nf.t)
            lo, hi = nf.interval
            margin = 1e-4 * (hi - lo)
            grid = np.linspace(lo + margin, hi - margin, 10_000)
            vals = (s - 2 * grid) * (2 * grid - 1) * (s + 2 * grid * (t - 1))
            assert vals.min() < 1e-3 * vals.max()


def test_criterion_10_hyperbola_chord():
    with report(10, "chord sweep: ellipses inside the locus, hyperbolas beyond"):
        rng = np.random.default_rng(101010)
        for _ in range(20):
            q = random_trapezium(rng)
            pen = ic.pencil_from_lines(*q.side_lines())
            ch = ic.chord_x(q)
            seg = ic.locus(q)
            u1, u2 = sorted(_chord_param(ch, m) for m in (seg.m1, seg.m2))
            for u in np.linspace(1e-3, 1 - 1e-3, 200):
                u = float(u)
                if min(abs(u - u1), abs(u - u2)) <= 1e-6:
                    continue
                conic = ic.member_with_center(pen, ch.point_at(u))
                cls = ic.classify_conic(conic)
                if u1 < u < u2:
                    assert cls is ic.ConicClass.REAL_ELLIPSE
                else:
                    assert cls is ic.ConicClass.HYPERBOLA
                    for line in q.side_lines():
                        assert ic.tangency_residual(conic, line) < 1e-8
                        contact = ic.tangency_point(conic, line)
                        if contact.is_infinite():
                            assert contact.w == 0.0


def test_criterion_11_affine_equivariance():
    with report(11, "constructions commute with 50 random affine maps"):
        rng = np.random.default_rng(111111)
        q = quad_s3t2()
        center = ic.locus(q).point_at(0.37)
        base_conic = ic.inscribe_at_center(q, center).conic
        base_max = ic.max_area(q).center
        for _ in range(50):
            m = random_affine(rng)
            q2 = transform_quad(q, m)
            direct = ic.inscribe_at_center(q2, m.apply(center)).conic
            pushed = ic.transform_conic(base_conic, m)
            assert ic.conic_distance(direct, pushed) < 1e-8
            mapped_max = m.apply(base_max)
            got_max = ic.max_area(q2).center
            assert math.hypot(got_max.x - mapped_max.x,
                              got_max.y - mapped_max.y) < 1e-8


def test_criterion_12_cli_guards(capsys):
    with report(12, "CLI exit codes: parallelogram 4, off-locus 3, nonconvex 2"):
        code = cli_main(["inscribe", "--vertices", "0,0 1,0 1,1 0,1",
                         "--u", "0.5"])
        assert code == 4
        code = cli_main(["inscribe", "--vertices", "0,0 1,0 3,2 0,1",
                         "--center", "0.7,0.7"])
        assert code == 3
        code = cli_main(["inspect", "--vertices", "0,0 1,0 0.4,0.4 0,1"])
        assert code == 2
        capsys.readouterr()


def _chord_param(ch, p):
    dx, dy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
    return ((p.x - ch.p_start.x) * dx + (p.y - ch.p_start.y) * dy) / \
        (dx * dx + dy * dy)
