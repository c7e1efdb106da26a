"""Center locus, weights, focal quadratic, per-center construction, chord."""
import ast
import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inconic as ic
from inconic import errors
from inconic.inscribed import (
    _dual_entries,
    _frame,
    _locus_abscissas,
    _normal_frame,
    _on_line_bound,
    _project_to_segment,
    _tangent_conic,
)

from inconic.oracle import _check_focal_form

from conftest import (
    contains_point,
    normal_form,
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


def _chord_param(ch, p):
    dx, dy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
    return ((p.x - ch.p_start.x) * dx + (p.y - ch.p_start.y) * dy) / (dx * dx + dy * dy)


class TestLocus:
    def test_worked_quad_midpoints(self):
        seg = ic.locus(quad_s3t2())
        assert seg.m1 == ic.Point(0.5, 0.5)
        assert seg.m2 == ic.Point(1.5, 1.0)
        assert not seg.degenerate

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
                assert contains_point(q, p)


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
        nf = normal_form(Fraction(3), Fraction(2))
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
            nf = normal_form(s, t)
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
            lo, hi = nf.interval
            h = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            root_sum, _ = ic.foci_quadratic(nf, h)
            k = ic.locus_line(nf)(h)
            assert root_sum / 2 == pytest.approx(complex(h, k), abs=1e-10)

    def test_hyperbola_foci_beyond_midpoints(self, rng):
        # beyond the diagonal midpoints the roots are the foci of the tangent
        # hyperbola: in the normal frame the pencil oracle's finite contact
        # points all have the same focal distance difference
        shapes = [(3.0, 2.0)]
        for _ in range(20):
            nf = ic.normalize(random_trapezium(rng))
            shapes.append((nf.s, nf.t))
        for s, t in shapes:
            q = ic.validate_quad([(0, 0), (1, 0), (s, t), (0, 1)])
            nf = normal_form(s, t)
            ch, seg = ic.chord_x(q), ic.locus(q)
            u1, u2 = sorted(_chord_param(ch, m) for m in (seg.m1, seg.m2))
            pen = ic.pencil_from_lines(*q.side_lines())
            lo, hi = nf.interval
            for u in (u1 / 2, (u2 + 1) / 2):
                center = ch.point_at(u)
                assert not lo < center.x < hi
                f1, f2 = ic.stable_quadratic_roots(*ic.foci_quadratic(nf, center.x))
                conic = ic.member_with_center(pen, center)
                assert ic.classify_conic(conic) is ic.ConicClass.HYPERBOLA
                diffs = []
                for line in q.side_lines():
                    contact = ic.tangency_point(conic, line)
                    if not contact.is_infinite():
                        z = complex(contact.x, contact.y)
                        diffs.append(abs(abs(z - f1) - abs(z - f2)))
                assert len(diffs) >= 3
                assert max(diffs) - min(diffs) < 1e-8 * max(diffs)

    def test_monic_agreement_is_enforced(self, rng):
        # the operation itself asserts both numerators reduce to the same
        # monic quadratic; run it across a sample
        for _ in range(100):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval
            for u in (0.2, 0.5, 0.8):
                ic.foci_quadratic(nf, lo + u * (hi - lo))


# The worked normal form s = 3, t = 2 at h = 1 has root sum 2 + 1.5i and
# root product 0.5i, so the focal check holds both triangles' sums to
# 2.5e-10 and their products to 1e-10.
WORKED_NF = normal_form(3.0, 2.0)
FOCAL_SUM_BOUND, FOCAL_PRODUCT_BOUND = 2.5e-10, 1e-10


def _focal_weights_moved(triangle, quantity, factor):
    """The weights of WORKED_NF at h = 1 with one triangle's root sum or
    root product moved by ``factor`` times its bound.  A product move also
    moves that triangle's sum, by the same amount, which stays below the
    sum's larger bound."""
    wt, ws = ic.weights_from_center(WORKED_NF, 1.0)
    if triangle == "first":
        # (0, 1, iy), y = -1: t2 - d moves the sum by d(1 + i), t1 + d the
        # product by -di
        if quantity == "sum":
            wt = ic.WeightTriple(wt.t1, wt.t2 - factor * FOCAL_SUM_BOUND / math.sqrt(2))
        else:
            wt = ic.WeightTriple(wt.t1 + factor * FOCAL_PRODUCT_BOUND, wt.t2)
    else:
        # (0, i, x), x = -3: s2 - d moves the sum by d(3 + i), s1 + d the
        # product by -3di
        if quantity == "sum":
            ws = ic.WeightTriple(ws.t1, ws.t2 - factor * FOCAL_SUM_BOUND / math.sqrt(10))
        else:
            ws = ic.WeightTriple(ws.t1 + factor * FOCAL_PRODUCT_BOUND / 3, ws.t2)
    return wt, ws


def _check_at_1(nf, wt, ws):
    """``_check_focal_form`` on nf at h = 1, with D(1)'s own k."""
    k = _dual_entries(nf.s, nf.t, 1.0)[1]
    return _check_focal_form(nf.s, nf.t, 1.0, k, wt, ws, ic.DEFAULT_TOL)


class TestFocalCheckBound:
    """The focal check's 1e-10 bound, pinned from both sides for the root
    sum and the root product of each side-line triangle."""

    @pytest.mark.parametrize("factor", (2.0, 1.25, 0.8, 0.5))
    @pytest.mark.parametrize("quantity", ("sum", "product"))
    @pytest.mark.parametrize("triangle", ("first", "second"))
    def test_bound(self, triangle, quantity, factor):
        weights = _focal_weights_moved(triangle, quantity, factor)
        if factor > 1:
            with pytest.raises(errors.NumericalFailure,
                               match="^focal numerators disagree with the monic form$"):
                _check_at_1(WORKED_NF, *weights)
        else:
            assert _check_at_1(WORKED_NF, *weights) is None

    def test_second_triangle_is_skipped_at_t_1(self):
        # with one parallel side pair (t = 1) the second triangle does not
        # exist, so its weights are not read; the first triangle's still are
        nf = normal_form(3.0, 1.0)
        wt, _ = ic.weights_from_center(nf, 1.0)
        junk = ic.WeightTriple(0.5, 0.5)
        assert _check_at_1(nf, wt, junk) is None
        with pytest.raises(errors.NumericalFailure, match="focal numerators"):
            _check_at_1(nf, ic.WeightTriple(wt.t1, wt.t2 - 1e-9), junk)

    def test_construction_runs_no_focal_check(self, monkeypatch):
        # the construction reads everything off D(h): it forms no weights
        # and runs no focal check, so neither can stop it
        import inconic.oracle

        def fail(*args):
            raise AssertionError("the construction reached the focal route")

        monkeypatch.setattr(inconic.oracle, "_weights", fail)
        monkeypatch.setattr(inconic.oracle, "_check_focal_form", fail)
        q = quad_s3t2()
        ic.inscribe_at_param(q, 0.5)
        ic.inscribe_at_center(q, ic.locus(q).point_at(0.37))
        ic.max_area(q)
        _, kind, _ = ic.tangent_conic_at_center(q, ic.chord_x(q).point_at(0.9))
        assert kind is ic.ConicClass.HYPERBOLA
        assert ic.InscribedResult.__slots__ == ("ellipse", "conic", "tangencies")


def _normalize_as_before(q, tol=ic.DEFAULT_TOL):
    """``normalize`` as it was written before the constructions read a flat
    frame: the kept rotation's map built as an AffineMap and checked there,
    and the NormalForm built over it, with det read off that map."""
    if q.kind is ic.QuadKind.PARALLELOGRAM:
        raise errors.ParallelogramUnsupported(
            "inscribed ellipses of a parallelogram are not unique")
    v0, v1 = q.v0, q.v1
    frame = _frame(v0, v1, q.v2, q.v3, tol)
    turned = _frame(v1, q.v2, q.v3, v0, tol)
    (s, t, _, _), (s1, t1, _, _) = frame, turned
    if abs(s1 - 1) / math.hypot(s1 - 1, t1) > abs(s - 1) / math.hypot(s - 1, t):
        frame, p0, labeling = turned, v1, (1, 2, 3, 0)
    else:
        p0, labeling = v0, (0, 1, 2, 3)
    s, t, (m11, m12, m21, m22), (b11, b12, b21, b22) = frame
    x0, y0 = p0.x, p0.y
    t_map = ic.AffineMap(m11, m12, m21, m22, -(m11 * x0 + m12 * y0), -(m21 * x0 + m22 * y0))
    nf = normal_form(s, t, (t_map.m11, t_map.m12, t_map.m21, t_map.m22), (t_map.tx, t_map.ty),
                     (b11, b12, b21, b22, x0, y0), labeling)
    assert nf.det == t_map.det
    return nf


class TestNormalFrame:
    """The constructions read ``_normal_frame``'s flat tuple; ``normalize``
    holds the same tuple as a NormalForm, whose slots follow its order."""

    def test_constructions_build_no_normal_form_or_affine_map(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the construction built a NormalForm or an AffineMap")

        q = quad_s3t2()
        center, beyond = ic.locus(q).point_at(0.37), ic.chord_x(q).point_at(0.9)
        monkeypatch.setattr(ic.NormalForm, "__init__", fail)
        monkeypatch.setattr(ic.AffineMap, "__init__", fail)
        ic.inscribe_at_param(q, 0.5)
        ic.inscribe_at_center(q, center)
        ic.max_area(q)
        _, kind, _ = ic.tangent_conic_at_center(q, beyond)
        assert kind is ic.ConicClass.HYPERBOLA

    def test_normalize_matches_the_former_construction(self, rng):
        quads = [quad_s3t2(), quad_s4t2()]
        for _ in range(40):
            quads.append(random_trapezium(rng))
            quads.append(random_trapezoid(rng))
            far = random_affine(rng)
            far = ic.AffineMap(1e6 * far.m11, 1e6 * far.m12, 1e6 * far.m21, 1e6 * far.m22,
                               far.tx + 1e9, far.ty - 1e9)
            quads.append(transform_quad(random_trapezium(rng), far))
        assert len(quads) == 122
        assert ic.NormalForm.__slots__ == (
            "s", "t", "M", "translation", "inverse", "labeling", "interval", "det")
        for q in quads:
            want = _normalize_as_before(q)
            got = ic.normalize(q)
            frame = _normal_frame(q, ic.DEFAULT_TOL)
            checked = ic.NormalForm(*frame[:6])
            for name, value in zip(ic.NormalForm.__slots__, frame):
                assert getattr(got, name) == getattr(checked, name) == value, name
            for name in ("s", "t", "M", "translation", "inverse", "labeling", "det"):
                assert getattr(got, name) == getattr(want, name), name
            assert got == want

    def test_kernel_unpacks_the_frame(self):
        # the tuple is read in slot order, never as frame[<int>]
        for module in (ic.inscribed, ic.area):
            tree = ast.parse(inspect.getsource(module))
            assert not [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                        and isinstance(node.value, ast.Name) and node.value.id == "frame"]

    def test_normalize_builds_no_affine_map_and_checks_once(self, monkeypatch):
        # normalize holds the checked frame tuple as it is: no AffineMap is
        # built on the way and _affine_det runs once; nf.T builds the map
        def fail(*args, **kwargs):
            raise AssertionError("built an AffineMap")

        calls, affine_det = [], ic.inscribed._affine_det

        def counted(*args):
            calls.append(args)
            return affine_det(*args)

        monkeypatch.setattr(ic.AffineMap, "__init__", fail)
        monkeypatch.setattr(ic.inscribed, "_affine_det", counted)
        nf = ic.normalize(quad_s4t2())
        assert len(calls) == 1
        assert nf.det == affine_det(*nf.M, *nf.translation)
        with pytest.raises(AssertionError, match="built an AffineMap"):
            nf.T

    def test_overflowing_basis_raises_as_before(self):
        # validate_quad rejects so thin a quad, so it is built directly: the
        # basis passes _frame's relative singular test, but M = B^-1
        # overflows, which the map's finiteness check reports
        P = ic.Point
        q = ic.ConvexQuad(P(0.0, 0.0), P(1e-10, 0.0), P(3e-10, 2e-310), P(0.0, 1e-310),
                          ic.QuadKind.TRAPEZIUM)
        with pytest.raises(ValueError) as before:
            _normalize_as_before(q)
        for call in (lambda: ic.normalize(q), lambda: _normal_frame(q, ic.DEFAULT_TOL),
                     lambda: ic.inscribe_at_param(q, 0.5)):
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is type(before.value)
            assert str(got.value) == str(before.value) == "affine map entries must be finite"


class TestFocalHead:
    """``foci_quadratic`` reads D(h)'s entries and runs the focal check."""

    def test_coefficients_are_read_off_the_dual_conic(self, rng):
        # root product 2ic and root sum 2(h + ik), with c and k exactly as
        # the construction reads them off D(h), inside the locus and beyond
        for _ in range(30):
            nf = ic.normalize(random_trapezium(rng))
            lo, hi = nf.interval
            for u in (-0.4, 0.1, 0.5, 0.9, 1.4):
                h = lo + u * (hi - lo)
                c, k, _ = _dual_entries(nf.s, nf.t, h)
                root_sum, root_product = ic.foci_quadratic(nf, h)
                assert root_product == 2j * c
                assert root_sum == complex(2 * h, 2 * k)

    def test_a_failing_focal_check_stops_foci_quadratic(self, monkeypatch):
        import inconic.oracle

        def fail(*args):
            raise errors.NumericalFailure("patched focal check")

        monkeypatch.setattr(inconic.oracle, "_check_focal_form", fail)
        with pytest.raises(errors.NumericalFailure, match="^patched focal check$"):
            ic.foci_quadratic(WORKED_NF, 1.0)


def test_zero_length_center_line_raises_numerical_failure():
    # a quad that is a parallelogram to rounding but classifies as a
    # trapezoid under a tiny tol_par normalizes to s = t = 1: its locus has
    # zero length, and each construction raises locus_line's failure
    tol = ic.Tolerances(tol_par=1e-300)
    q = ic.validate_quad([(0, 0), (1, 1e-17), (1, 1), (0, 1)], tol)
    nf = ic.normalize(q, tol)
    assert q.kind is ic.QuadKind.TRAPEZOID and (nf.s, nf.t) == (1.0, 1.0)
    calls = (lambda: ic.inscribe_at_param(q, 0.5, tol),
             lambda: ic.inscribe_at_center(q, ic.locus(q).point_at(0.5), tol),
             lambda: ic.weights_from_center(nf, 0.5, tol),
             lambda: ic.inscribed_area(nf, 0.5, tol))
    for call in calls:
        with pytest.raises(errors.NumericalFailure,
                           match="^s = 1: center line is vertical in this labeling$"):
            call()


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
            lo, hi = nf.interval
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
            nf = ic.normalize(q)
            h = nf.T.apply_xy(center.x, center.y)[0]
            assert ic.weights_from_center(nf, h)[0].product > 0

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


    # the carried center may sit at most 1e-6 (1 + |m2 - m1|) from the
    # request; 1.25 and 0.8 of that pin the bound to within a quarter
    @pytest.mark.parametrize("factor, drifted", [(2.0, True), (1.25, True),
                                                 (0.8, False), (0.5, False)])
    def test_drift_check_bound(self, monkeypatch, factor, drifted):
        import inconic.inscribed
        q = quad_s3t2()
        seg = ic.locus(q)
        length = seg.length()
        step = factor * 1e-6 * (1 + length)
        dx = step * (seg.m2.x - seg.m1.x) / length
        dy = step * (seg.m2.y - seg.m1.y) / length
        construct = inconic.inscribed._construct

        def shifted(*args):
            r = construct(*args)
            e = r.ellipse
            moved = [ic.Point(p.x + dx, p.y + dy) for p in (e.center, e.focus1, e.focus2)]
            ellipse = ic.EllipseGeo(moved[0], e.semi_major, e.semi_minor, e.angle, *moved[1:])
            return ic.InscribedResult(ellipse, r.conic, r.tangencies)

        monkeypatch.setattr(inconic.inscribed, "_construct", shifted)
        center = seg.point_at(0.37)
        if drifted:
            with pytest.raises(errors.NumericalFailure,
                               match="^inscribed conic center drifted from the request$"):
                ic.inscribe_at_center(q, center)
        else:
            got = ic.inscribe_at_center(q, center).ellipse.center
            assert math.hypot(got.x - center.x, got.y - center.y) == \
                pytest.approx(step, rel=1e-6)

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

    def test_center_error_pin(self):
        # the bench's timed-call check: every constructed conic's center
        # within 1e-9 (1 + length) of the requested locus point
        rng = np.random.default_rng(4242)
        for _ in range(200):
            q = random_trapezium(rng)
            seg = ic.locus(q)
            for u in (0.01, 0.5, 0.99):
                got, want = ic.inscribe_at_param(q, u).conic.center(), seg.point_at(u)
                assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-9 * (1 + seg.length())

    def test_centers_collinear_with_midpoints(self, rng):
        q = random_trapezium(rng)
        seg = ic.locus(q)
        for u in rng.uniform(0.05, 0.95, 100):
            e = ic.inscribe_at_param(q, float(u)).ellipse
            det = (seg.m2.x - seg.m1.x) * (e.center.y - seg.m1.y) \
                - (seg.m2.y - seg.m1.y) * (e.center.x - seg.m1.x)
            assert abs(det) < 1e-10 * (1 + seg.length() ** 2)

    @pytest.mark.parametrize("flip", (1, -1), ids=("m1-from-v0v2", "m1-from-v1v3"))
    def test_midpoints_with_equal_abscissas(self, flip):
        # the diagonal midpoints (1, 0.75) and (1, 1) share x, so the locus
        # order falls to y: mirrored in y, the other diagonal's midpoint is m1
        q = ic.validate_quad([(x, flip * y) for x, y in [(0, 0), (3, 0.5), (2, 2), (-1, 1)]])
        seg = ic.locus(q)
        assert seg.m1.x == seg.m2.x and seg.m1.y < seg.m2.y
        m02 = ic.Point((q.v0.x + q.v2.x) / 2, (q.v0.y + q.v2.y) / 2)
        assert (seg.m1 == m02) is (flip == 1)
        for u in (0.13, 0.87):
            got, want = ic.inscribe_at_param(q, u).ellipse.center, seg.point_at(u)
            assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-12 * (1 + seg.length())


# Trapezia with one side pair within eps of parallel: (1,0)-(1+eps,2) is
# nearly parallel to (0,1)-(0,0), so the identity labeling has s - 1 = eps;
# in the second family t - 1 = eps instead.
NEAR_PARALLEL = [pytest.param(v, id=f"{name}-{eps:g}")
                 for eps in (1e-7, 1e-8, 3e-9)
                 for name, v in (("s", [(0, 0), (1, 0), (1 + eps, 2), (0, 1)]),
                                 ("t", [(0, 0), (1, 0), (2, 1 + eps), (0, 1)]))]


def _assert_inscribed_at(q, result, center):
    seg = ic.locus(q)
    for line in q.side_lines():
        assert ic.tangency_residual(result.conic, line) < ic.DEFAULT_TOL.tol_tan
    got = result.ellipse.center
    assert math.hypot(got.x - center.x, got.y - center.y) <= 1e-9 * (1 + seg.length())


class TestNearParallelSides:
    @pytest.mark.parametrize("u", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("vertices", NEAR_PARALLEL)
    def test_inscribe_at_param(self, vertices, u):
        q = ic.validate_quad(vertices)
        _assert_inscribed_at(q, ic.inscribe_at_param(q, u), ic.locus(q).point_at(u))

    @pytest.mark.parametrize("vertices", NEAR_PARALLEL)
    def test_max_area(self, vertices):
        q = ic.validate_quad(vertices)
        res = ic.max_area(q)
        seg = ic.locus(q)
        u, _ = _project_to_segment(res.center, seg.m1, seg.m2)
        assert 0 < u < 1
        _assert_inscribed_at(q, res.inscribed, seg.point_at(u))
        for v in (0.05, 0.5, 0.95):
            assert ic.inscribe_at_param(q, v).ellipse.area <= res.area * (1 + 1e-12)

    def test_labeling_follows_the_normalized_sine(self):
        # rotation 1 has the larger |s-1| here (s ~ 1119, t ~ 2999) but the
        # smaller sine |s-1|/hypot(s-1, t); choosing it by |s-1| alone left
        # center errors above 1e-9 (1 + length) near u = 0.9
        q = ic.validate_quad([(0.21699625849056825, 7.487488201359036),
                              (1.6995804402089831, 6.414904605394848),
                              (5.677028988149596, 3.5403964208103056),
                              (6.0468672395088685, 6.625065470129343)])
        assert ic.normalize(q).labeling == (0, 1, 2, 3)
        _assert_inscribed_at(q, ic.inscribe_at_param(q, 0.9), ic.locus(q).point_at(0.9))


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
                assert contains_point(q, p, slack=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0])
    def test_scales_with_the_quad(self, scale):
        # parallelism is judged by the sine of the angle, so a tiny quad's
        # chord is the unit chord scaled, not "failed to exit"
        unit = ic.chord_x(quad_s3t2())
        ch = ic.chord_x(ic.validate_quad([(scale * x, scale * y)
                                          for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]]))
        for got, want in ((ch.p_start, unit.p_start), (ch.p_end, unit.p_end)):
            assert got.x == pytest.approx(scale * want.x, rel=1e-12, abs=1e-12 * scale)
            assert got.y == pytest.approx(scale * want.y, rel=1e-12, abs=1e-12 * scale)

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

    @staticmethod
    def _chord_as_before(q, tol):
        """chord_x as it was written with lists of side crossings and a
        LocusSegment; returns (chord, number of sides skipped as parallel)."""
        if q.kind is ic.QuadKind.PARALLELOGRAM:
            raise errors.ParallelogramUnsupported("center line degenerates for parallelograms")
        ma = ic.Point((q.v0.x + q.v2.x) / 2, (q.v0.y + q.v2.y) / 2)
        mb = ic.Point((q.v1.x + q.v3.x) / 2, (q.v1.y + q.v3.y) / 2)
        if (mb.x, mb.y) < (ma.x, ma.y):
            ma, mb = mb, ma
        seg = ic.LocusSegment(ma, mb)
        dx, dy = seg.m2.x - seg.m1.x, seg.m2.y - seg.m1.y
        v = q.vertices
        taus, skipped = [], 0
        for i in range(4):
            p, r = v[i], v[(i + 1) % 4]
            nx, ny = r.y - p.y, p.x - r.x
            den = nx * dx + ny * dy
            if abs(den) <= tol.tol_par * math.hypot(nx, ny) * math.hypot(dx, dy):
                skipped += 1
                continue
            taus.append(-(nx * (seg.m1.x - p.x) + ny * (seg.m1.y - p.y)) / den)
        before = [t for t in taus if t < 0]
        after = [t for t in taus if t > 1]
        if not before or not after:
            raise errors.NumericalFailure("center line failed to exit the quadrilateral")
        return ic.ChordX(seg.point_at(max(before)), seg.point_at(min(after))), skipped

    @staticmethod
    def _random_quad(rng):
        kind = rng.choice(("plain", "thin", "trapezoid", "parallelogram"))
        if kind == "plain":
            pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
            cx, cy = sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4
            pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        else:
            s, a = rng.uniform(0.3, 3.0), rng.uniform(-0.9, 0.9)
            t = 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-10, -2)
            pts = {"thin": [(0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)],
                   "trapezoid": [(0.0, 0.0), (1.0, 0.0), (s, 1.0), (0.0, 1.0)],
                   "parallelogram": [(0.0, 0.0), (1.0, 0.0), (1.0 + a, 1.0), (a, 1.0)]}[kind]
            m11, m12, m21, m22 = (rng.uniform(-2, 2) for _ in range(4))
            pts = [(m11 * x + m12 * y, m21 * x + m22 * y) for x, y in pts]
        scale = 10 ** rng.uniform(-6, 6)
        ox, oy = (rng.choice((-1, 1)) * 10 ** rng.uniform(0, 8) for _ in range(2))
        return [(ox + scale * x, oy + scale * y) for x, y in pts]

    def test_bit_identical_to_the_list_construction(self):
        rng = random.Random(34)
        tols = (ic.DEFAULT_TOL, ic.Tolerances(tol_par=0.3), ic.Tolerances(tol_par=0.9))
        checked, skipped, no_exit, kinds = 0, 0, 0, set()
        while checked < 600:
            tol = tols[checked % len(tols)]
            try:
                q = ic.validate_quad(self._random_quad(rng), tol)
            except (errors.InconicError, ValueError):
                continue
            try:
                want, n = self._chord_as_before(q, tol)
                want = repr(want)
                skipped += n
            except errors.InconicError as exc:
                want = f"{type(exc).__name__}: {exc}"
            try:
                got = repr(ic.chord_x(q, tol))
            except errors.InconicError as exc:
                got = f"{type(exc).__name__}: {exc}"
            assert got == want
            no_exit += "failed to exit" in want
            kinds.add(q.kind)
            checked += 1
        assert skipped and no_exit and kinds == set(ic.QuadKind)


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

    def test_focal_route_matches_pencil_oracle(self, rng):
        quads = [random_trapezium(rng) for _ in range(30)]
        quads += [random_trapezoid(rng) for _ in range(30)]
        for q in quads:
            pen = ic.pencil_from_lines(*q.side_lines())
            ch = ic.chord_x(q)
            for j in range(16):
                center = ch.point_at((j + 0.5) / 16)
                conic, cls, tangencies = ic.tangent_conic_at_center(q, center)
                oracle = ic.member_with_center(pen, center)
                assert cls is ic.classify_conic(oracle)
                assert ic.conic_distance(conic, oracle) < 1e-10
                for contact in tangencies:
                    if contact.is_infinite():
                        assert contact.w == 0.0

    def test_guards_build_no_locus_and_no_chord(self, monkeypatch):
        # the center guards read the diagonal midpoints, and the chord ends,
        # in one pass of their own
        q = quad_s3t2()
        seg, ch = ic.locus(q), ic.chord_x(q)
        want_hyperbola = repr(ic.tangent_conic_at_center(q, ch.point_at(0.9)))
        want_ellipse = repr(ic.inscribe_at_center(q, seg.point_at(0.37)))

        def called(*args, **kwargs):
            raise AssertionError("the guard built a locus or a chord")

        monkeypatch.setattr("inconic.inscribed.chord_x", called)
        monkeypatch.setattr("inconic.inscribed.locus", called)
        assert repr(ic.tangent_conic_at_center(q, ch.point_at(0.9))) == want_hyperbola
        assert repr(ic.inscribe_at_center(q, seg.point_at(0.37))) == want_ellipse

    def test_midpoint_rejected(self):
        with pytest.raises(errors.DegenerateAtMidpoint):
            ic.tangent_conic_at_center(quad_s3t2(), ic.Point(0.5, 0.5))

    def test_off_chord_rejected(self):
        with pytest.raises(errors.CenterOffLocus, match="not on the center line"):
            ic.tangent_conic_at_center(quad_s3t2(), ic.Point(0.7, 0.7))


def _worked_moved(off):
    return ic.validate_quad([(x + off, y + off) for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]])


class TestCallerCentersFarOut:
    """A center given at offset D is known only to about eps D; the on-locus
    and on-chord checks accept a few ulps of the coordinates beyond
    tol_on (1 + length)."""

    def test_hyperbola_center_at_offset_1e8(self):
        near, far = _worked_moved(0.0), _worked_moved(1e8)
        _, want_kind, want = ic.tangent_conic_at_center(near, ic.Point(2.3, 1.4))
        _, kind, got = ic.tangent_conic_at_center(far, ic.Point(2.3 + 1e8, 1.4 + 1e8))
        assert kind is want_kind is ic.ConicClass.HYPERBOLA
        for g, w in zip(got, want):
            assert g.w == w.w == 1.0
            assert math.hypot(g.x - 1e8 - w.x, g.y - 1e8 - w.y) <= 1e-6 * (1 + math.hypot(w.x, w.y))

    def test_own_locus_point_at_offset_1e10(self):
        q = _worked_moved(1e10)
        seg = ic.locus(q)
        got = ic.inscribe_at_center(q, seg.point_at(0.37)).ellipse.center
        want = ic.inscribe_at_param(q, 0.37).ellipse.center
        assert math.hypot(got.x - want.x, got.y - want.y) <= \
            _on_line_bound(want, seg.m1, seg.m2, ic.DEFAULT_TOL)

    @pytest.mark.parametrize("off", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_param_semi_axes_do_not_depend_on_offset(self, off):
        # u goes straight to the normal-frame abscissa, and (s, t) come
        # from vertex differences, exact for the worked quad at any offset
        want = ic.inscribe_at_param(_worked_moved(0.0), 0.37).ellipse
        got = ic.inscribe_at_param(_worked_moved(off), 0.37).ellipse
        for g, w in ((got.semi_major, want.semi_major), (got.semi_minor, want.semi_minor)):
            assert abs(g - w) <= 4 * math.ulp(w)

    @pytest.mark.parametrize("off", [0.0, 1e10])
    def test_param_weights_are_exact(self, off):
        # h = 1/2 + 0.37 (3/2 - 1/2) on s = 3, t = 2: t1 = (2h - 3)/2, t2 = 1 - 2h
        q = _worked_moved(off)
        _, h1, h2 = _locus_abscissas(q, ic.DEFAULT_TOL)
        wt, _ = ic.weights_from_center(ic.normalize(q), h1 + 0.37 * (h2 - h1))
        assert wt.as_tuple() == (-0.63, -0.74, 2.37)

    def test_center_off_the_line_still_rejected_at_the_origin(self):
        q = quad_s3t2()
        seg, chord = ic.locus(q), ic.chord_x(q)
        for fn, a, b, u in ((ic.inscribe_at_center, seg.m1, seg.m2, 0.37),
                            (ic.tangent_conic_at_center, chord.p_start, chord.p_end, 0.9)):
            length = math.hypot(b.x - a.x, b.y - a.y)
            nx, ny = (a.y - b.y) / length, (b.x - a.x) / length   # unit normal
            px, py = a.x + u * (b.x - a.x), a.y + u * (b.y - a.y)
            with pytest.raises(errors.CenterOffLocus):
                fn(q, ic.Point(px + 1e-6 * length * nx, py + 1e-6 * length * ny))


def _worked_scaled(scale, off=0.0):
    return ic.validate_quad([(x * scale + off, y * scale + off)
                             for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)]])


class TestScaleOutOfFloatRange:
    """The worked quad builds at every power of ten from 1e-153 to 1e153.
    det(T)^2 is formed with its power of two split off, and a determinant
    of the pushed-out form that under- or overflows is taken again at unit
    scale, so neither leaves the float range before the frame does: from
    1e154 on the basis overflows (NumericalFailure), and at 1e-154 the
    pushed-out form itself does (NotAnEllipse), not a bare
    ZeroDivisionError or OverflowError."""

    @pytest.mark.parametrize("scale", [1e-154])
    def test_out_of_range_raises_not_an_ellipse(self, scale):
        q = _worked_scaled(scale)
        with pytest.raises(errors.NotAnEllipse):
            ic.inscribe_at_param(q, 0.37)
        with pytest.raises(errors.NotAnEllipse):
            ic.max_area(q)

    @pytest.mark.parametrize("scale", [1e78, 1e79, 1e80, 1e81, 1e-77])
    def test_det_squared_past_the_float_range_keeps_full_accuracy(self, scale):
        # det(T)^2 alone would be subnormal above 1e78 and infinite at 1e-77;
        # the semi-major axis lost up to 3.3e-5 of itself at 1e80
        want = ic.inscribe_at_param(_worked_scaled(1.0), 0.37).ellipse
        got = ic.inscribe_at_param(_worked_scaled(scale), 0.37).ellipse
        for g, w in ((got.semi_major, want.semi_major * scale),
                     (got.semi_minor, want.semi_minor * scale), (got.angle, want.angle)):
            assert abs(g - w) <= 4 * math.ulp(w)
        # the input at which det(T)^2 used to overflow
        assert ic.inscribe_at_param(_worked_scaled(7.79e-78, 1.07e-271), 0.25).ellipse.area > 0

    def test_every_power_of_ten_in_range_keeps_full_accuracy(self):
        # the determinant of the pushed-out form used to underflow from
        # about 1e81 (max_area and the hyperbolas) and overflow below about
        # 1e-77.  At 10^k the vertices round as at its mantissa
        # m = 10^k / 2^e, and the ellipses and the hyperbola's contacts are
        # that quad's times 2^e bit for bit.  The
        # semi-axes stay within 4 ulps of the unscaled ones times the scale;
        # the angle moves with the rounding of the vertices, by 6 ulps at
        # 7 of these scales, and within 4 at the others
        unit = _worked_scaled(1.0)
        want = (ic.inscribe_at_param(unit, 0.37).ellipse, ic.max_area(unit).ellipse)
        for k in range(-153, 154):
            scale = 10.0 ** k
            mant, exp = math.frexp(scale)
            q, q_mant = _worked_scaled(scale), _worked_scaled(mant)
            got = (ic.inscribe_at_param(q, 0.37).ellipse, ic.max_area(q).ellipse)
            at_mant = (ic.inscribe_at_param(q_mant, 0.37).ellipse, ic.max_area(q_mant).ellipse)
            for g, m, w in zip(got, at_mant, want):
                assert (g.semi_major, g.semi_minor, g.angle) == \
                    (math.ldexp(m.semi_major, exp), math.ldexp(m.semi_minor, exp), m.angle), k
                for a, b in ((g.semi_major, w.semi_major * scale),
                             (g.semi_minor, w.semi_minor * scale)):
                    assert abs(a - b) <= 4 * math.ulp(b), k
                assert abs(g.angle - w.angle) <= 6 * math.ulp(w.angle), k
            got, at_mant = (ic.tangent_conic_at_center(p, ic.chord_x(p).point_at(0.9))[1:]
                            for p in (q, q_mant))
            assert got[0] is at_mant[0] is ic.ConicClass.HYPERBOLA, k
            assert [(p.x, p.y, p.w) for p in got[1]] == \
                [(math.ldexp(p.x, exp), math.ldexp(p.y, exp), 1.0) if p.w else (p.x, p.y, 0.0)
                 for p in at_mant[1]], k

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(154, 160)])
    def test_basis_out_of_float_range_is_not_called_singular(self, scale):
        # the basis products overflow from about 1.3e154 on, where the
        # relative singular test read inf <= inf
        q = _worked_scaled(scale)
        for call in (lambda: ic.normalize(q), lambda: ic.inscribe_at_param(q, 0.37),
                     lambda: ic.max_area(q)):
            with pytest.raises(errors.NumericalFailure,
                               match="^normalization basis is out of float range$"):
                call()

    @pytest.mark.parametrize("scale", [1e-155, 1e-156])
    def test_normal_map_out_of_float_range_is_not_called_singular(self, scale):
        # M = B^-1 has entries near 1e155 and its products overflow, where
        # the relative singular test read inf <= inf (SingularMap, det=inf)
        q = _worked_scaled(scale)
        for call in (lambda: ic.normalize(q), lambda: ic.inscribe_at_param(q, 0.37),
                     lambda: ic.max_area(q)):
            with pytest.raises(errors.NumericalFailure,
                               match="^linear part is out of float range$"):
                call()

    @pytest.mark.parametrize("scale", [1e-76, 1e77, 1e-153, 1e153])
    def test_range_ends_keep_full_accuracy(self, scale):
        want = ic.inscribe_at_param(_worked_scaled(1.0), 0.37).ellipse
        got = ic.inscribe_at_param(_worked_scaled(scale), 0.37).ellipse
        for g, w in ((got.semi_major, want.semi_major), (got.semi_minor, want.semi_minor)):
            assert g / scale == pytest.approx(w, rel=1e-15)


class TestWeightPositivity:
    def test_products_positive_across_sample(self, rng):
        for _ in range(100):
            q = random_trapezium(rng)
            nf = ic.normalize(q)
            lo, hi = nf.interval
            for u in np.linspace(0.02, 0.98, 50):
                h = lo + float(u) * (hi - lo)
                wt, ws = ic.weights_from_center(nf, h)
                assert wt.product > 0
                assert ws.product > 0


def _imported_modules(module) -> set[str]:
    """Last name component of every module an ``import`` or ``from``
    statement in the module's source names, at any depth."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rpartition(".")[2])
            names.update(alias.name for alias in node.names)
    return names


def test_pencil_is_not_a_construction_route():
    # the kernel/oracle boundary: the per-triangle route (marden), the
    # dual-conic pencil and the conic tools of ``oracle`` are oracles only,
    # so no construction module imports them.  The CLI imports the pencil's
    # and the conic tools' modules, which the package loads on first use,
    # and only ``verify`` calls into them; test_cli.py checks in a fresh
    # process which module code each subcommand runs
    import inconic.area
    import inconic.cli
    import inconic.fmt
    import inconic.geometry
    import inconic.inscribed
    import inconic.svg
    oracles = {"marden", "pencil", "oracle"}
    for module in (inconic.inscribed, inconic.area, inconic.geometry,
                   inconic.fmt, inconic.svg):
        assert not _imported_modules(module) & oracles, module.__name__
    assert _imported_modules(inconic.cli) & oracles == {"pencil", "oracle"}
    assert "pencil_from_lines" not in vars(inconic.inscribed)
    assert "member_with_center" not in vars(inconic.inscribed)
    # the kernel solves no focal quadratic: the solver lives with marden
    assert "stable_quadratic_roots" not in vars(inconic.inscribed)
    assert "cmath" not in _imported_modules(inconic.inscribed)


def test_the_kernel_routes_no_moved_names_itself():
    # the names that moved from ``geometry`` and ``inscribed`` to ``oracle``
    # are routed from one table in the package's ``__init__``: neither module
    # imports anything back from the package or defines a ``__getattr__``
    import inconic.geometry
    import inconic.inscribed
    for module in (inconic.geometry, inconic.inscribed):
        tree = ast.parse(inspect.getsource(module))
        relative = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert relative <= {"errors", "geometry"}, module.__name__
        names = {node.name if isinstance(node, ast.FunctionDef) else node.id
                 for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Name))}
        assert "__getattr__" not in names, module.__name__


def _public_callables() -> dict:
    """The functions in ``inconic.__all__``, the public methods of its
    classes as ``Class.method``, and ``triangle_tangent_ellipse_area``."""
    found = {"triangle_tangent_ellipse_area": ic.marden.triangle_tangent_ellipse_area}
    for name in ic.__all__:
        obj = getattr(ic, name)
        if inspect.isfunction(obj):
            found[name] = obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                method = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isroutine(method):
                    found[f"{name}.{attr}"] = method
    return found


def test_only_the_construction_takes_tolerances():
    # the settable tolerances are the construction's own: the oracles and
    # the conic tools keep fixed thresholds, so ``--tol`` cannot loosen the
    # references that ``verify`` checks the construction against
    assert ic.Tolerances.__slots__ == ("tol_det", "tol_tan", "tol_par",
                                       "tol_interval", "tol_on", "tol_infinity")
    takes_tol = {name for name, f in _public_callables().items()
                 if "tol" in inspect.signature(f).parameters}
    assert takes_tol == {
        "validate_quad", "normalize", "locus_line", "foci_quadratic",
        "weights_from_center", "chord_x", "inscribe_at_center",
        "inscribe_at_param", "tangent_conic_at_center", "max_area",
        "inscribed_area"}


def test_marden_conic_helper_matches_public_result():
    q = quad_s3t2()
    conic = _tangent_conic(_normal_frame(q, ic.DEFAULT_TOL), 1.0, ic.DEFAULT_TOL)[0]
    ref = ic.inscribe_at_center(q, ic.Point(1.0, 0.75)).conic
    assert ic.conic_distance(conic, ref) < 1e-12


def test_construction_route_stays_in_the_normal_frame(monkeypatch):
    # one focal pass per construction: nothing reads the ellipse, its class,
    # its center or its contacts back from the original-frame conic, and no
    # call builds side lines or inverts the normal-form map
    import inconic.area
    import inconic.geometry
    import inconic.inscribed
    import inconic.oracle
    q = quad_s3t2()
    chord = ic.chord_x(q)

    def boom(*args, **kwargs):
        raise AssertionError("left the normal-frame construction route")

    for name in ("classify_conic", "ellipse_from_conic", "tangency_point",
                 "tangency_residual"):
        # oracle last: geometry's forwarder binds what oracle holds when first read
        for module in (inconic.geometry, inconic.inscribed, inconic.area, inconic.oracle):
            monkeypatch.setattr(module, name, boom, raising=False)
    monkeypatch.setattr(ic.Conic, "center", boom)
    monkeypatch.setattr(ic.Line, "from_points", boom)
    monkeypatch.setattr(ic.AffineMap, "inverse", boom)
    ic.inscribe_at_param(q, 0.37)
    ic.inscribe_at_center(q, ic.Point(1.0, 0.75))
    ic.max_area(q)
    assert ic.tangent_conic_at_center(q, chord.point_at(0.5))[1] is ic.ConicClass.REAL_ELLIPSE
    assert ic.tangent_conic_at_center(q, chord.point_at(0.9))[1] is ic.ConicClass.HYPERBOLA


def test_random_sweep_has_no_failures():
    # 1000 trapezia in [0,10]^2 without a parallelism margin, at 9 locus
    # parameters each, reaching close to both diagonal midpoints
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        q = random_trapezium(rng, min_parallel=0.0)
        seg = ic.locus(q)
        for u in np.linspace(0.001, 0.999, 9):
            _assert_inscribed_at(q, ic.inscribe_at_param(q, float(u)), seg.point_at(float(u)))


EPS = 2.0 ** -52
# Errors below are lengths in units of the base semi-major axis (areas in
# units of pi a^2), divided by eps (1 + offset/extent), the relative rounding
# of the mapped vertices.  Over 3000 examples of this property and 15000
# seeded draws from the same ranges the worst was 1.2e3, so the bound leaves
# a margin of 16.
SIMILARITY_BOUND = 2e4


def _similarity(q, scale, theta, offset_ratio, phi):
    """Similarity map of scale 10^scale and rotation theta that puts the
    vertex centroid at 10^offset_ratio extents from the origin, direction phi."""
    vs = q.vertices
    extent = max(max(v.x for v in vs) - min(v.x for v in vs),
                 max(v.y for v in vs) - min(v.y for v in vs))
    cx, cy = sum(v.x for v in vs) / 4, sum(v.y for v in vs) / 4
    k, c, s = 10.0 ** scale, math.cos(theta), math.sin(theta)
    reach = k * extent * 10.0 ** offset_ratio
    ox, oy = reach * math.cos(phi), reach * math.sin(phi)
    return ic.AffineMap(k * c, -k * s, k * s, k * c,
                        ox - k * (c * cx - s * cy), oy - k * (s * cx + c * cy)), k


def _reversed(start, end, mapped_start):
    """Whether the image of a segment runs from ``end`` to ``start``: the
    image of its first end lies nearer ``end``.  Validation and the
    lexicographic midpoint order may reverse a segment under a rotation."""
    return math.hypot(mapped_start.x - end.x, mapped_start.y - end.y) < \
        math.hypot(mapped_start.x - start.x, mapped_start.y - start.y)


@given(seed=st.integers(0, 2**32 - 1), trapezoid=st.booleans(),
       scale=st.floats(-6, 6), theta=st.floats(0, 2 * math.pi),
       offset_ratio=st.floats(0, 6), phi=st.floats(0, 2 * math.pi),
       u=st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_construction_commutes_with_similarities(seed, trapezoid, scale, theta,
                                                 offset_ratio, phi, u):
    rng = np.random.default_rng(seed)
    q = random_trapezoid(rng) if trapezoid else random_trapezium(rng)
    sim, k = _similarity(q, scale, theta, offset_ratio, phi)
    image = ic.validate_quad([sim.apply(v) for v in q.vertices])
    bound = SIMILARITY_BOUND * EPS * (1 + 10.0 ** offset_ratio)

    seg, image_seg = ic.locus(q), ic.locus(image)
    flipped = _reversed(image_seg.m1, image_seg.m2, sim.apply(seg.m1))
    pairs = [(ic.inscribe_at_param(q, u).ellipse,
              ic.inscribe_at_param(image, 1 - u if flipped else u).ellipse),
             (ic.max_area(q).ellipse, ic.max_area(image).ellipse)]
    for base, got in pairs:
        unit = k * base.semi_major
        want = sim.apply(base.center)
        assert math.hypot(got.center.x - want.x, got.center.y - want.y) <= bound * unit
        assert abs(got.semi_major - k * base.semi_major) <= bound * unit
        assert abs(got.semi_minor - k * base.semi_minor) <= bound * unit
        assert abs(got.area - k * k * base.area) <= bound * math.pi * unit * unit

    # tangent conics at chord parameters between and beyond the midpoints,
    # placed on the image's own chord: mapping the base center instead adds
    # the coordinate rounding that the on-chord check does not absorb far
    # from the origin (README, "Input scale and placement")
    chord, image_chord = ic.chord_x(q), ic.chord_x(image)
    flipped = _reversed(image_chord.p_start, image_chord.p_end, sim.apply(chord.p_start))
    ua, ub = sorted(_chord_param(chord, m) for m in (seg.m1, seg.m2))
    for v in (ua / 2, (ua + ub) / 2, (ub + 1) / 2):
        _, kind, _ = ic.tangent_conic_at_center(q, chord.point_at(v))
        _, image_kind, _ = ic.tangent_conic_at_center(
            image, image_chord.point_at(1 - v if flipped else v))
        assert image_kind is kind
