"""Forward error of the construction against a 50-digit closed form.

The oracle takes the same float vertices and redoes the paper's focal
construction in mpmath, independently of the diagonal pencil D(lam) that
the package runs: the labeling ``normalize`` chose, the normal form
(s, t) and its linear part L, the normal-frame abscissa h, the focal
quadratic z^2 - 2(h + i L(h)) z + i (s - 2h)/(s - 1) with 2a fixed by the
contact (0, (s - 2h)/(2h(s - 1))) (the sum of the focal distances for an
ellipse, their difference for a hyperbola), and the original-frame form
Q = L^T Q_n L about the center T^-1((f1 + f2)/2).  From Q come the
semi-axes, the angle and the foci; from its point conic come the contacts,
as the poles of the four side lines, and the unit-norm coefficients.  The
package shares no arithmetic with it: its abscissa lam is u or 1 - u, and
the oracle's h is lam h02 + (1 - lam) h13, h02 and h13 the abscissas of
the diagonal midpoints, formed at 50 digits.

Each error is bounded relative to its condition number, with M the largest
vertex coordinate (every original-frame point is rounded at eps M):
- the semi-axes and ``max_area``'s area relative to eps: the pencil's
  det P = lam (1 - lam)(lam A012 A023 + (1 - lam) A013 A123)/4 holds the
  minor axis to full relative precision up to the ends of the locus;
- the angle relative to eps a^2/(a^2 - b^2), the inverse gap between the
  eigenvalues of Q;
- the foci relative to eps (M + (a^2 + b^2/min(u, 1 - u))/c), c the focal
  half-distance: they move by c times the angle's error and by the
  errors of the semi-axes through c;
- the center and the contacts relative to eps (M + a + |dp/dh| max(1, |h|)),
  the point's own rate of change with h times the rounding of h;
- ``max_area``'s abscissa h0 relative to eps max(1, s);
- the tangent hyperbola's unit-norm coefficients relative to
  eps (1 + |dk/dh| (max(1, |h|) + ||L|| M)), k the coefficient vector: its
  h is read off the float center, which rounds at eps ||L|| M;
- apart from those coefficients, the hyperbola's shape P (the inverse of
  its form Q) relative to eps (|P| + |dP/dh| max(1, |h|)) and its center
  relative to eps (M + |dp/dh| max(1, |h|)), both at the abscissa the
  construction read off the center, so that its rounding is not charged
  to them.
The rates are central differences of the 50-digit construction.

Far from the origin eps M swamps any error in where a point sits on the
quad.  So the ellipse's center, foci and contacts are also built through
``_local_record``, the quad's own pencil record with its origin moved back
by the offset exactly, and bounded with M the largest vertex coordinate
after that move: the quad's extent.  The hyperbola's center is checked
that way only.
"""
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

import inconic as ic
from conftest import random_trapezium
from inconic.inscribed import _center_weights, _construct, _pencil, _tangent_conic

EPS = 2.0 ** -52
C_MAJOR = 4       # semi-major axis, in eps
C_MINOR = 4       # semi-minor axis, in eps
C_ANGLE = 16      # angle, in eps a^2/(a^2 - b^2)
C_POINT = 8       # center, foci and contacts, in their units above
C_H0 = 8          # max_area's h0, in eps max(1, s)
C_AREA = 8        # max_area's area, in eps
C_HYPERBOLA = 8   # tangent hyperbola's unit-norm coefficients, in the unit above
OFFSETS = (0.0, 1e2, 1e4, 1e6, 1e8)
PARAMS = (1e-6, 0.37, 1 - 1e-6)


def _moved(q, off):
    return ic.validate_quad([(v.x + off, v.y + off) for v in q.vertices])


def _frame(q):
    """50-digit normal form of q, with the labeling ``normalize`` chose,
    read by name: the vertices v, T^-1(y) = b y + p0, lin = b^-1, s, t, and
    h1, h2 the abscissas of ``locus``'s m1 and m2.  Call inside
    mp.workdps."""
    rot = ic.normalize(q).labeling[0]
    v = [(mpf(p.x), mpf(p.y)) for p in q.vertices]
    p0, p1, p2, p3 = (v[(rot + i) % 4] for i in range(4))
    b11, b12 = p1[0] - p0[0], p3[0] - p0[0]
    b21, b22 = p1[1] - p0[1], p3[1] - p0[1]
    det = b11 * b22 - b12 * b21
    lin = ((b22 / det, -b12 / det), (-b21 / det, b11 / det))
    dx, dy = p2[0] - p0[0], p2[1] - p0[1]
    s = lin[0][0] * dx + lin[0][1] * dy
    t = lin[1][0] * dx + lin[1][1] * dy
    # p0 and p2 end on (0,0) and (s,t): their diagonal's midpoint has
    # abscissa s/2, the other diagonal's 1/2
    h_02, h_13 = (s / 2, mpf(1) / 2) if rot % 2 == 0 else (mpf(1) / 2, s / 2)
    ma = ((v[0][0] + v[2][0]) / 2, (v[0][1] + v[2][1]) / 2)
    mb = ((v[1][0] + v[3][0]) / 2, (v[1][1] + v[3][1]) / 2)
    h1, h2 = (h_13, h_02) if mb < ma else (h_02, h_13)
    return SimpleNamespace(v=v, p0=p0, b=((b11, b12), (b21, b22)), lin=lin, s=s, t=t,
                           h1=h1, h2=h2, h02=h_02, h13=h_13)


def _focal(frame, h):
    """The focal construction at abscissa h, in mpmath numbers: a dict of
    the original-frame center, contacts and unit-norm coefficients and, for
    an ellipse, semi-axes, angle, focal half-distance and foci."""
    v, p0, b, lin, s, t = frame.v, frame.p0, frame.b, frame.lin, frame.s, frame.t
    h1, h2 = frame.h1, frame.h2
    ellipse = min(h1, h2) < h < max(h1, h2)
    k = (s - t + 2 * h * (t - 1)) / (2 * (s - 1))
    root_sum = 2 * mpc(h, k)
    root_product = mpc(0, 1) * (s - 2 * h) / (s - 1)
    sq = mp.sqrt(root_sum * root_sum - 4 * root_product)
    f1, f2 = (root_sum + sq) / 2, (root_sum - sq) / 2
    contact = mpc(0, (s - 2 * h) / (2 * h * (s - 1)))
    d1, d2 = abs(contact - f1), abs(contact - f2)
    a = (d1 + d2) / 2 if ellipse else abs(d1 - d2) / 2
    c = abs(f2 - f1) / 2
    b2 = a * a - c * c
    ux, uy = (f2 - f1).real / (2 * c), (f2 - f1).imag / (2 * c)
    # Q_n = u u^T / a^2 + v v^T / b2 and its inverse P_n, v = (-uy, ux)
    qn = ((ux * ux / a ** 2 + uy * uy / b2, ux * uy * (1 / a ** 2 - 1 / b2)),
          (ux * uy * (1 / a ** 2 - 1 / b2), uy * uy / a ** 2 + ux * ux / b2))
    pn = ((ux * ux * a ** 2 + uy * uy * b2, ux * uy * (a ** 2 - b2)),
          (ux * uy * (a ** 2 - b2), uy * uy * a ** 2 + ux * ux * b2))
    (q11, q12), (_, q22) = [
        [sum(lin[m][i] * qn[m][n] * lin[n][j] for m in range(2) for n in range(2))
         for j in range(2)] for i in range(2)]
    inv = [[sum(b[i][m] * pn[m][n] * b[j][n] for m in range(2) for n in range(2))
            for j in range(2)] for i in range(2)]
    mx, my = ((f1 + f2) / 2).real, ((f1 + f2) / 2).imag
    cx = b[0][0] * mx + b[0][1] * my + p0[0]
    cy = b[1][0] * mx + b[1][1] * my + p0[1]

    out = {"ellipse": ellipse, "center": (cx, cy), "form": (q11, q12, q22),
           "shape": (inv[0][0], inv[0][1], inv[1][1])}
    # (x - c)^T Q (x - c) = 1 as a x^2 + b xy + c y^2 + d x + e y + f = 0,
    # scaled as ``Conic`` scales it, up to sign
    coeffs = (q11, 2 * q12, q22, -2 * (q11 * cx + q12 * cy), -2 * (q12 * cx + q22 * cy),
              q11 * cx * cx + 2 * q12 * cx * cy + q22 * cy * cy - 1)
    norm = mp.sqrt(sum(x * x * w for x, w in zip(coeffs, (1, 0.5, 1, 0.5, 0.5, 1))))
    out["coefficients"] = tuple(x / norm for x in coeffs)
    # the contacts: poles [[Q^-1 - c c^T, -c], [-c^T, -1]] l of the sides
    contacts = []
    for i in range(4):
        (px, py), (rx, ry) = v[i], v[(i + 1) % 4]
        la, lb = ry - py, px - rx
        lc = -(la * px + lb * py)
        x = inv[0][0] * la + inv[0][1] * lb - cx * (cx * la + cy * lb) - cx * lc
        y = inv[1][0] * la + inv[1][1] * lb - cy * (cx * la + cy * lb) - cy * lc
        w = -(cx * la + cy * lb) - lc
        contacts.append((x / w, y / w))
    out["contacts"] = contacts
    if ellipse:
        spread = mp.sqrt((q11 - q22) ** 2 + 4 * q12 ** 2)
        major = 1 / mp.sqrt((q11 + q22 - spread) / 2)
        minor = 1 / mp.sqrt((q11 + q22 + spread) / 2)
        angle = mp.atan2(2 * q12, q11 - q22) / 2 + mp.pi / 2
        angle -= mp.pi if angle > mp.pi / 2 else 0
        cdist = mp.sqrt(major ** 2 - minor ** 2)
        ex, ey = cdist * mp.cos(angle), cdist * mp.sin(angle)
        out.update(major=major, minor=minor, angle=angle, cdist=cdist,
                   foci=sorted([(cx - ex, cy - ey), (cx + ex, cy + ey)]))
    return out


def _rate(frame, h, key):
    """|d/dh| of the point or vector ``key`` of ``_focal``, by a central
    difference at 50 digits."""
    step = mpf(10) ** -20
    ahead, behind = _focal(frame, h + step), _focal(frame, h - step)
    if key == "contacts":
        return [float(mp.sqrt(sum(((p - m) / (2 * step)) ** 2 for p, m in zip(pa, pb))))
                for pa, pb in zip(ahead[key], behind[key])]
    pairs = list(zip(ahead[key], behind[key]))
    return float(min(mp.sqrt(sum(((p - sign * m) / (2 * step)) ** 2 for p, m in pairs))
                     for sign in (1, -1)))


def _point(p, offset=0.0):
    return tuple(float(x - offset) for x in p)


def oracle_inscribed(q: ic.ConvexQuad, u: float, rates: bool = False,
                     offset: float = 0.0) -> dict:
    """The inscribed ellipse at locus parameter u, computed at 50 digits
    from q's float vertices and returned as floats, its points moved by
    (-offset, -offset) before they are rounded; with ``rates``, also
    |d/dh| of its center and of each contact."""
    with mp.workdps(50):
        frame = _frame(q)
        h = frame.h1 + mpf(u) * (frame.h2 - frame.h1)
        exact = _focal(frame, h)
        out = {"h": float(h), "center": _point(exact["center"], offset),
               "contacts": [_point(p, offset) for p in exact["contacts"]],
               "foci": [_point(p, offset) for p in exact["foci"]]}
        out.update({key: float(exact[key]) for key in ("major", "minor", "angle", "cdist")})
        if rates:
            out["center_rate"] = _rate(frame, h, "center")
            out["contact_rates"] = _rate(frame, h, "contacts")
        return out


def oracle_tangent_conic(q: ic.ConvexQuad, center: ic.Point) -> tuple[bool, tuple, float, float]:
    """(ellipse?, unit-norm coefficients, h, |d coefficients/dh|) of the
    50-digit tangent conic centered at the float point ``center``."""
    with mp.workdps(50):
        frame = _frame(q)
        p0, lin = frame.p0, frame.lin
        h = lin[0][0] * (mpf(center.x) - p0[0]) + lin[0][1] * (mpf(center.y) - p0[1])
        exact = _focal(frame, h)
        return (exact["ellipse"], _point(exact["coefficients"]), float(h),
                _rate(frame, h, "coefficients"))


def oracle_tangent_shape(q: ic.ConvexQuad, lam: float, offset: float) -> tuple:
    """(shape P = Q^-1, center, |dP/dh|, |d center/dh|, h) of the 50-digit
    tangent conic at the float pencil abscissa lam itself, at normal-frame
    abscissa h = lam h02 + (1 - lam) h13, the center moved by
    (-offset, -offset) before it is rounded."""
    with mp.workdps(50):
        frame = _frame(q)
        h = mpf(lam) * frame.h02 + (1 - mpf(lam)) * frame.h13
        exact = _focal(frame, h)
        return (_point(exact["shape"]), _point(exact["center"], offset),
                _rate(frame, h, "shape"), _rate(frame, h, "center"), float(h))


def oracle_max_area(q: ic.ConvexQuad) -> tuple[float, float]:
    """(h0, area) of the maximal-area inscribed ellipse at 50 digits: h0 is
    the root inside the interval of A'(h) = d/dh (s - 2h)(2h - 1)(s + 2h(t - 1)),
    and the area is pi a b of the oracle ellipse there."""
    with mp.workdps(50):
        frame = _frame(q)
        s, t, h1, h2 = frame.s, frame.t, frame.h1, frame.h2
        a, b, c = -24 * (t - 1), 8 * ((s + 1) * (t - 1) - s), 2 * s * (s + 2 - t)
        root = mp.sqrt(b * b - 4 * a * c)
        h0, = [h for h in ((-b + root) / (2 * a), (-b - root) / (2 * a))
               if min(h1, h2) < h < max(h1, h2)]
        exact = _focal(frame, h0)
        return float(h0), float(mp.pi * exact["major"] * exact["minor"])


def _magnitude(q, offset=0.0):
    return max(max(abs(p.x - offset), abs(p.y - offset)) for p in q.vertices)


def _dist(p, x, y, offset=0.0):
    """Distance from p to (x, y) + (offset, offset); p minus the offset is
    exact, since p lies within a factor 2 of it (or it is 0)."""
    return math.hypot(p.x - offset - x, p.y - offset - y)


def _local_record(q, offset):
    """q's pencil record with its origin v0 moved by (-offset, -offset).
    v0 lies within a factor 2 of the offset (or the offset is 0), so the
    move is exact: a construction through it does the moved quad's own
    unit-scale arithmetic bit for bit, and rounds its points at the quad's
    extent rather than at the offset."""
    shape = _pencil(q)[0]
    x0, y0, sc = shape[:3]
    x1, y1 = x0 - offset, y0 - offset
    assert Fraction(x1) == Fraction(x0) - Fraction(offset)
    assert Fraction(y1) == Fraction(y0) - Fraction(offset)
    return ((x1, y1, sc, shape[3], x1 / sc, y1 / sc) + shape[6:],) + _pencil(q)[1:]


def _lam_mu(q, u):
    """The pencil abscissa lam of locus parameter u, and 1 - lam, as
    ``inscribe_at_param`` forms them."""
    return (1 - u, u) if _pencil(q)[3] else (u, 1 - u)


# a quad whose semi-minor axis near u = 1 lost 9.9 eps/min(u, 1 - u) when
# the construction ran through the rounded normal-frame abscissa
FOUND_QUAD = [(-0.98730119503798, 0.6888649528719106),
              (-0.5481031686572659, -0.7894366195585321),
              (0.4835098930527457, -0.09502552188349189),
              (0.4903748916426258, -0.06946889936210887)]


def _draws(offset):
    rng = np.random.default_rng(20260101)
    quads = [random_trapezium(rng) for _ in range(40)] + [ic.validate_quad(FOUND_QUAD)]
    return [_moved(q, offset) for q in quads]


def test_oracle_matches_the_worked_quad():
    # at u = 1/2 the worked quad's ellipse has area pi sqrt(5)/4, center
    # (1, 0.75) and contacts (1/3, 0), (5/3, 2/3), (9/7, 10/7), (0, 1/4)
    q = ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])
    exact = oracle_inscribed(q, 0.5)
    assert math.pi * exact["major"] * exact["minor"] == \
        pytest.approx(math.pi * math.sqrt(5) / 4, rel=1e-15)
    assert exact["center"] == pytest.approx((1.0, 0.75), rel=1e-15)
    for got, want in zip(exact["contacts"], [(1 / 3, 0), (5 / 3, 2 / 3), (9 / 7, 10 / 7), (0, 0.25)]):
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
    # s = 3, t = 2: A'(h) = -24 h^2 + 8 h + 18 vanishes at h0 = (1 + 2 sqrt 7)/6,
    # where the area is pi/4 sqrt(A(h0))
    h0, area = oracle_max_area(q)
    assert h0 == pytest.approx((1 + 2 * math.sqrt(7)) / 6, rel=1e-15)
    assert area == pytest.approx(math.pi / 4 * math.sqrt((3 - 2 * h0) * (2 * h0 - 1) * (3 + 2 * h0)),
                                 rel=1e-15)


@pytest.mark.parametrize("offset", OFFSETS)
def test_semi_axes_against_the_oracle(offset):
    worst_major = worst_minor = 0.0
    for q in _draws(offset):
        for u in PARAMS:
            exact = oracle_inscribed(q, u)
            major, minor = exact["major"], exact["minor"]
            e = ic.inscribe_at_param(q, u).ellipse
            worst_major = max(worst_major, abs(e.semi_major - major) / major / EPS)
            worst_minor = max(worst_minor, abs(e.semi_minor - minor) / minor / EPS)
    assert worst_major <= C_MAJOR, f"semi-major error {worst_major:.3g} eps"
    assert worst_minor <= C_MINOR, f"semi-minor error {worst_minor:.3g} eps"


@pytest.mark.parametrize("offset", OFFSETS)
def test_center_angle_foci_and_contacts_against_the_oracle(offset):
    # each point twice: as ``inscribe_at_param`` returns it, against the
    # largest coordinate M, and built through ``_local_record``, against the
    # quad's extent once the offset is subtracted exactly
    keys = ("center", "angle", "foci", "contacts")
    worst = dict.fromkeys(keys + tuple(f"local {k}" for k in keys if k != "angle"), 0.0)
    for q in _draws(offset):
        local_record = _local_record(q, offset)
        frames = (("", offset, _magnitude(q)), ("local ", 0.0, _magnitude(q, offset)))
        for u in PARAMS:
            exact = oracle_inscribed(q, u, rates=True, offset=offset)
            r = ic.inscribe_at_param(q, u)
            local = _construct(local_record, *_lam_mu(q, u), ic.DEFAULT_TOL)
            e = r.ellipse
            assert (local.ellipse.semi_major, local.ellipse.semi_minor, local.ellipse.angle) == \
                (e.semi_major, e.semi_minor, e.angle)
            a, b, h = exact["major"], exact["minor"], max(1.0, abs(exact["h"]))
            turn = (e.angle - exact["angle"] + math.pi / 2) % math.pi - math.pi / 2
            worst["angle"] = max(worst["angle"], abs(turn) / (EPS * a * a / (a * a - b * b)))
            for (frame, shift, size), result in zip(frames, (r, local)):
                e = result.ellipse
                unit = EPS * (size + a + exact["center_rate"] * h)
                key = frame + "center"
                worst[key] = max(worst[key], _dist(e.center, *exact["center"], shift) / unit)
                unit = EPS * (size + (a * a + b * b / min(u, 1 - u)) / exact["cdist"])
                key = frame + "foci"
                for got, want in zip((e.focus1, e.focus2), exact["foci"]):
                    worst[key] = max(worst[key], _dist(got, *want, shift) / unit)
                key = frame + "contacts"
                for got, want, rate in zip(result.tangencies, exact["contacts"],
                                           exact["contact_rates"]):
                    assert got.w == 1.0
                    unit = EPS * (size + a + rate * h)
                    worst[key] = max(worst[key], _dist(got, *want, shift) / unit)
    bounds = {k: C_ANGLE if k == "angle" else C_POINT for k in worst}
    over = {k: f"{worst[k]:.3g}" for k in worst if worst[k] > bounds[k]}
    assert not over, f"errors over their bounds: {over}"


@pytest.mark.parametrize("offset", OFFSETS)
def test_max_area_against_the_oracle(offset):
    worst_h0 = worst_area = 0.0
    for q in _draws(offset):
        h0, area = oracle_max_area(q)
        got = ic.max_area(q)
        worst_h0 = max(worst_h0, abs(got.h0 - h0) / (EPS * max(1.0, ic.normalize(q).s)))
        worst_area = max(worst_area, abs(got.area - area) / area / EPS)
    assert worst_h0 <= C_H0, f"h0 error {worst_h0:.3g} eps max(1, s)"
    assert worst_area <= C_AREA, f"area error {worst_area:.3g} eps"


@pytest.mark.parametrize("offset", OFFSETS)
def test_tangent_hyperbolas_against_the_oracle(offset):
    # halfway between each chord end and the diagonal midpoint next to it;
    # the shape P and the center are checked apart from the coefficients,
    # at the abscissa lam the construction read off the float center, the
    # center through ``_local_record`` against the quad's extent
    worst = dict.fromkeys(("coefficients", "shape", "center"), 0.0)
    for q in _draws(offset):
        seg, chord = ic.locus(q), ic.chord_x(q)
        nf, local_record = ic.normalize(q), _local_record(q, offset)
        lin = nf.T
        reach = math.hypot(lin.m11, lin.m12, lin.m21, lin.m22) * _magnitude(q)
        sc = _pencil(q)[0][2]
        for end in (chord.p_start, chord.p_end):
            m = min((seg.m1, seg.m2), key=lambda p: _dist(p, end.x, end.y))
            center = ic.Point((end.x + m.x) / 2, (end.y + m.y) / 2)
            ellipse, coefficients, h, rate = oracle_tangent_conic(q, center)
            assert not ellipse
            conic, kind, _ = ic.tangent_conic_at_center(q, center)
            assert kind is ic.ConicClass.HYPERBOLA
            distance = ic.conic_distance(conic, ic.Conic(*coefficients))
            worst["coefficients"] = max(worst["coefficients"], distance / (
                EPS * (1 + rate * (max(1.0, abs(h)) + reach))))

            lam, mu = _center_weights(_pencil(q), center, ic.DEFAULT_TOL)
            _, kind, _, shape, got, _ = _tangent_conic(local_record, lam, mu, ic.DEFAULT_TOL)
            assert kind is ic.ConicClass.HYPERBOLA
            want_shape, want, shape_rate, center_rate, h_read = \
                oracle_tangent_shape(q, lam, offset)
            scale = max(1.0, abs(h_read))
            error = math.hypot(*(g * sc * sc - w for g, w in zip(shape, want_shape)))
            unit = EPS * (math.hypot(*want_shape) + shape_rate * scale)
            worst["shape"] = max(worst["shape"], error / unit)
            unit = EPS * (_magnitude(q, offset) + center_rate * scale)
            worst["center"] = max(worst["center"], math.dist(got, want) / unit)
    bounds = {"coefficients": C_HYPERBOLA, "shape": C_HYPERBOLA, "center": C_POINT}
    over = {k: f"{worst[k]:.3g}" for k in worst if worst[k] > bounds[k]}
    assert not over, f"errors over their bounds: {over}"
