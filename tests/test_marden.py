"""Focal construction: partial-fraction zeros, weights, contact points."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inconic as ic
from inconic import errors

# Triangles of the worked s=3, t=2 frame: side lines (y=0, x=0, right side)
# meet at 0, 1, -i; side lines (y=0, x=0, top side) meet at 0, i, -3.
TRI_1 = ic.TriangleZ(0j, 1 + 0j, -1j)
TRI_2 = ic.TriangleZ(0j, 1j, -3 + 0j)

# Zeros frozen from a 50-digit evaluation of the monic focal numerators.
E1_FOCI = (-0.30431090521478730 - 1.2003908883752415j,
           -0.19568909478521270 - 0.049609111624758512j)
E2_FOCI = (-2.4841322071817554 + 0.098071382539985729j,
           -0.015867792818244552 + 0.40192861746001427j)


def _vieta_oracle(tri, w):
    """Coefficient expansion of the weighted numerator, done independently."""
    z1, z2, z3 = tri.z1, tri.z2, tri.z3
    t1, t2, t3 = w.as_tuple()
    s = t1 * (z2 + z3) + t2 * (z1 + z3) + t3 * (z1 + z2)
    p = t1 * z2 * z3 + t2 * z1 * z3 + t3 * z1 * z2
    return s, p


def _foci_written_out(tri, w):
    """``foci_from_weights`` as it was before it read the shared
    ``_focal_coefficients``: the root sum and product written out here."""
    z1, z2, z3 = complex(tri.z1), complex(tri.z2), complex(tri.z3)
    t1, t2, t3 = complex(w.t1), complex(w.t2), complex(w.t3)
    r1, r2 = ic.stable_quadratic_roots(t1 * (z2 + z3) + t2 * (z1 + z3) + t3 * (z1 + z2),
                                       t1 * z2 * z3 + t2 * z1 * z3 + t3 * z1 * z2)
    if (r1.real, r1.imag) > (r2.real, r2.imag):
        r1, r2 = r2, r1
    return r1, r2


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


class TestFociFromWeights:
    def test_first_triangle_printed_values(self):
        w = ic.WeightTriple(-0.25, 1.5)
        f1, f2 = ic.foci_from_weights(TRI_1, w)
        got = sorted([f1, f2], key=lambda z: (z.real, z.imag))
        exp = sorted(E1_FOCI, key=lambda z: (z.real, z.imag))
        for g, e in zip(got, exp):
            assert abs(g - e) < 1e-12

    def test_second_triangle_printed_values(self):
        w = ic.WeightTriple(Fraction(1, 3), Fraction(1, 2))
        f1, f2 = ic.foci_from_weights(TRI_2, w)
        got = sorted([f1, f2], key=lambda z: (z.real, z.imag))
        exp = sorted(E2_FOCI, key=lambda z: (z.real, z.imag))
        for g, e in zip(got, exp):
            assert abs(g - e) < 1e-12

    def test_equal_weights_match_direct_root_formula(self):
        # oracle: zeros of 3z^2 - 2(z1+z2+z3)z + (z1z2 + z1z3 + z2z3)
        tri = ic.TriangleZ(0j, 1 + 0j, 1j)
        w = ic.WeightTriple(Fraction(1, 3), Fraction(1, 3))
        z1, z2, z3 = tri.z1, tri.z2, tri.z3
        b = -2 * (z1 + z2 + z3)
        c = z1 * z2 + z1 * z3 + z2 * z3
        disc = cmath.sqrt(b * b - 12 * c)
        roots = sorted([(-b + disc) / 6, (-b - disc) / 6],
                       key=lambda z: (z.real, z.imag))
        got = ic.foci_from_weights(tri, w)
        for g, e in zip(got, roots):
            assert abs(g - e) < 1e-14

    def test_vieta_identities_random(self, rng):
        for _ in range(1000):
            pts = rng.uniform(-5, 5, 6)
            try:
                tri = ic.TriangleZ(complex(pts[0], pts[1]),
                                   complex(pts[2], pts[3]),
                                   complex(pts[4], pts[5]))
            except ValueError:
                continue
            w = ic.WeightTriple(*rng.uniform(-2, 2, 2))
            f1, f2 = ic.foci_from_weights(tri, w)
            s, p = _vieta_oracle(tri, w)
            scale = max(1.0, abs(s), abs(p))
            assert abs((f1 + f2) - s) < 1e-10 * scale
            assert abs(f1 * f2 - p) < 1e-10 * scale

    def test_bit_identical_to_the_written_out_numerator(self, rng):
        checked = 0
        while checked < 2000:
            pts = rng.uniform(-5, 5, 6)
            try:
                tri = ic.TriangleZ(complex(pts[0], pts[1]), complex(pts[2], pts[3]),
                                   complex(pts[4], pts[5]))
            except ValueError:
                continue
            w = ic.WeightTriple(*(float(t) for t in rng.uniform(-2, 2, 2)))
            assert _bits(ic.foci_from_weights(tri, w)) == _bits(_foci_written_out(tri, w))
            checked += 1

    def test_weights_off_one_raise_degenerate_foci(self):
        # t3 = 1 - t1 - t2 rounds at this magnitude, so the float sum is 0
        w = ic.WeightTriple(4.17732324081696e16, 1347463708700906.0)
        assert abs(float(w.t1 + w.t2 + w.t3) - 1.0) > 1e-9
        with pytest.raises(errors.DegenerateFoci, match="weights do not sum to 1"):
            ic.foci_from_weights(TRI_1, w)


class TestValidity:
    def test_first_example_product(self):
        w = ic.WeightTriple(Fraction(-1, 4), Fraction(3, 2))
        assert w.product == Fraction(3, 32)
        assert ic.marden_validity(w)

    def test_second_example_product(self):
        w = ic.WeightTriple(Fraction(1, 3), Fraction(1, 2))
        assert w.product == Fraction(1, 36)
        assert ic.marden_validity(w)

    def test_zero_product_invalid(self):
        assert not ic.marden_validity(ic.WeightTriple(0.5, 0.5))

    def test_weights_always_sum_to_one(self, rng):
        for _ in range(100):
            w = ic.WeightTriple(*rng.uniform(-3, 3, 2))
            assert w.t1 + w.t2 + w.t3 == pytest.approx(1.0, abs=1e-15)


class TestTangentPoints:
    def test_worked_weights_exact_contacts(self):
        # oracle: the weighted-average formulas in exact rationals;
        # t = (-1/2, -1, 5/2) with vertices 0, 1, -i gives
        #   (t2*z3 + t3*z2)/(t2 + t3) = (5/2 - i)/(3/2)      = 5/3 + 2i/3
        #   (t1*z3 + t3*z1)/(t1 + t3) = (i/2)/2              = i/4
        #   (t1*z2 + t2*z1)/(t1 + t2) = (-1/2)/(-3/2)        = 1/3
        t1, t2 = Fraction(-1, 2), Fraction(-1, 1)
        t3 = 1 - t1 - t2
        assert (t2 * 1) / (t2 + t3) == Fraction(-2, 3)   # -i coefficient
        assert (t3 * 1) / (t2 + t3) == Fraction(5, 3)
        assert (t1 * -1) / (t1 + t3) == Fraction(1, 4)   # i coefficient
        assert (t1 * 1) / (t1 + t2) == Fraction(1, 3)
        got = ic.tangent_points(TRI_1, ic.WeightTriple(-0.5, -1.0))
        assert abs(got[0] - complex(5 / 3, 2 / 3)) < 1e-15
        assert abs(got[1] - complex(0, 0.25)) < 1e-15
        assert abs(got[2] - complex(1 / 3, 0)) < 1e-15

    def test_equal_weights_hit_side_midpoints(self, rng):
        for _ in range(50):
            pts = rng.uniform(-4, 4, 6)
            try:
                tri = ic.TriangleZ(complex(pts[0], pts[1]),
                                   complex(pts[2], pts[3]),
                                   complex(pts[4], pts[5]))
            except ValueError:
                continue
            m1, m2, m3 = ic.tangent_points(tri, ic.WeightTriple(1 / 3, 1 / 3))
            assert abs(m1 - (tri.z2 + tri.z3) / 2) < 1e-12
            assert abs(m2 - (tri.z1 + tri.z3) / 2) < 1e-12
            assert abs(m3 - (tri.z1 + tri.z2) / 2) < 1e-12

    def test_vanishing_pair_sum_raises(self):
        # t1 + t3 = 0 requires t2 = 1 and t3 = -t1
        w = ic.WeightTriple(0.5, 1.0)
        assert w.t1 + w.t3 == pytest.approx(0.0, abs=1e-16)
        with pytest.raises(errors.AsymptoteContact):
            ic.tangent_points(TRI_1, w)

    def test_contacts_collinear_with_side_endpoints(self, rng):
        for _ in range(200):
            pts = rng.uniform(-4, 4, 6)
            try:
                tri = ic.TriangleZ(complex(pts[0], pts[1]),
                                   complex(pts[2], pts[3]),
                                   complex(pts[4], pts[5]))
            except ValueError:
                continue
            w = ic.WeightTriple(*rng.uniform(-1.5, 1.5, 2))
            try:
                zs = ic.tangent_points(tri, w)
            except errors.AsymptoteContact:
                continue
            sides = ((tri.z2, tri.z3), (tri.z1, tri.z3), (tri.z1, tri.z2))
            for zeta, (p, q) in zip(zs, sides):
                u, v = q - p, zeta - p
                resid = abs(u.real * v.imag - u.imag * v.real) / max(abs(u), 1e-12)
                assert resid < 1e-10

    def test_affine_equivariance_of_contacts(self, rng):
        tri = ic.TriangleZ(0j, 2 + 0j, 1 + 1.5j)
        w = ic.WeightTriple(0.4, 0.35)
        base = ic.tangent_points(tri, w)
        for _ in range(20):
            m = rng.uniform(-2, 2, 4)
            if abs(m[0] * m[3] - m[1] * m[2]) < 0.2:
                continue
            tx, ty = rng.uniform(-3, 3, 2)

            def apply(z):
                return complex(m[0] * z.real + m[1] * z.imag + tx,
                               m[2] * z.real + m[3] * z.imag + ty)

            tri2 = ic.TriangleZ(apply(tri.z1), apply(tri.z2), apply(tri.z3))
            mapped = ic.tangent_points(tri2, w)
            for zeta, zeta2 in zip(base, mapped):
                assert abs(apply(zeta) - zeta2) < 1e-12


class TestMardenEllipse:
    def test_second_triangle_ellipse_is_inscribed(self):
        w = ic.WeightTriple(Fraction(1, 3), Fraction(1, 2))
        e = ic.marden_ellipse(TRI_2, w)
        conic = ic.conic_from_ellipse(e)
        for line in TRI_2.side_lines():
            assert ic.tangency_residual(conic, line) < 1e-8
        # all weights positive: every contact lies inside its side segment
        for zeta, (p, q) in zip(ic.tangent_points(TRI_2, w),
                                ((TRI_2.z2, TRI_2.z3), (TRI_2.z1, TRI_2.z3),
                                 (TRI_2.z1, TRI_2.z2))):
            u = ((zeta - p) / (q - p)).real
            assert 0 < u < 1

    def test_first_triangle_ellipse_tangent_but_not_inscribed(self):
        w = ic.WeightTriple(-0.25, 1.5)
        e = ic.marden_ellipse(TRI_1, w)
        conic = ic.conic_from_ellipse(e)
        for line in TRI_1.side_lines():
            assert ic.tangency_residual(conic, line) < 1e-8
        contacts = ic.tangent_points(TRI_1, w)
        sides = ((TRI_1.z2, TRI_1.z3), (TRI_1.z1, TRI_1.z3),
                 (TRI_1.z1, TRI_1.z2))
        params = [((zeta - p) / (q - p)).real for zeta, (p, q) in zip(contacts, sides)]
        assert any(u <= 0 or u >= 1 for u in params)

    def test_steiner_inellipse_area(self):
        tri = ic.TriangleZ(0j, 1 + 0j, 1j)
        e = ic.marden_ellipse(tri, ic.WeightTriple(1 / 3, 1 / 3))
        # classical: the midpoint-contact inellipse has pi/(3 sqrt 3) of the
        # triangle area
        assert e.area == pytest.approx(math.pi * 0.5 / (3 * math.sqrt(3)),
                                       rel=1e-12)

    def test_invalid_weights_rejected(self):
        with pytest.raises(errors.NotAnEllipse, match="weight product"):
            ic.marden_ellipse(TRI_1, ic.WeightTriple(0.5, 0.5))

    def test_valid_weights_give_tangent_ellipse(self, rng):
        count = 0
        while count < 100:
            pts = rng.uniform(-4, 4, 6)
            try:
                tri = ic.TriangleZ(complex(pts[0], pts[1]),
                                   complex(pts[2], pts[3]),
                                   complex(pts[4], pts[5]))
            except ValueError:
                continue
            w = ic.WeightTriple(*rng.uniform(0.05, 0.9, 2))
            if not ic.marden_validity(w):
                continue
            e = ic.marden_ellipse(tri, w)
            conic = ic.conic_from_ellipse(e)
            for line in tri.side_lines():
                assert ic.tangency_residual(conic, line) < 1e-8
            count += 1


@given(st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-3, 3), st.floats(-3, 3), st.floats(0.5, 3))
@settings(max_examples=150, deadline=None)
def test_focal_zeros_satisfy_numerator_property(t1, t2, x, y, spread):
    tri = ic.TriangleZ(complex(x, y), complex(x + spread, y),
                       complex(x, y + spread))
    w = ic.WeightTriple(t1, t2)
    f1, f2 = ic.foci_from_weights(tri, w)
    for z in (f1, f2):
        value = (w.t1 * (z - tri.z2) * (z - tri.z3)
                 + w.t2 * (z - tri.z1) * (z - tri.z3)
                 + w.t3 * (z - tri.z1) * (z - tri.z2))
        assert abs(value) < 1e-9 * max(1.0, abs(z)) ** 2
