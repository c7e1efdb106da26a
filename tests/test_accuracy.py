"""Forward error of ``inscribe_at_param`` against a 50-digit closed form.

The oracle takes the same float vertices and redoes the paper's
construction in mpmath: the labeling ``normalize`` chose, the normal form
(s, t) and its linear part L, the locus abscissa h = h1 + u (h2 - h1)
measured from the diagonal midpoint ``locus`` calls m1, the focal
quadratic z^2 - 2(h + i L(h)) z + i (s - 2h)/(s - 1) with 2a fixed by the
contact (0, (s - 2h)/(2h(s - 1))), and the original-frame form
Q = L^T Q_n L, whose eigenvalues give the semi-axes.

Even an exact construction at the float nearest h loses about
eps/min(u, 1 - u) of the semi-minor axis near an end of the locus, where
the ellipse flattens, so that error is bounded relative to its condition
number; the semi-major axis is bounded relative to eps alone.
"""
import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

import inconic as ic
from conftest import random_trapezium

EPS = 2.0 ** -52
C = 1e3
PARAMS = (1e-6, 0.37, 1 - 1e-6)


def _moved(q, off):
    return ic.validate_quad([(v.x + off, v.y + off) for v in q.vertices])


def oracle_semi_axes(q: ic.ConvexQuad, u: float) -> tuple[float, float]:
    """(semi-major, semi-minor) of the inscribed ellipse at locus parameter
    u, computed at 50 digits from q's float vertices."""
    rot = ic.normalize(q).labeling[0]
    with mp.workdps(50):
        v = [(mpf(p.x), mpf(p.y)) for p in q.vertices]
        p0, p1, p2, p3 = (v[(rot + i) % 4] for i in range(4))
        b11, b12 = p1[0] - p0[0], p3[0] - p0[0]
        b21, b22 = p1[1] - p0[1], p3[1] - p0[1]
        det = b11 * b22 - b12 * b21
        lin = ((b22 / det, -b12 / det), (-b21 / det, b11 / det))   # L = B^-1
        dx, dy = p2[0] - p0[0], p2[1] - p0[1]
        s = lin[0][0] * dx + lin[0][1] * dy
        t = lin[1][0] * dx + lin[1][1] * dy

        # p0 and p2 end on (0,0) and (s,t): their diagonal's midpoint has
        # abscissa s/2, the other diagonal's 1/2
        h_02, h_13 = (s / 2, mpf(1) / 2) if rot % 2 == 0 else (mpf(1) / 2, s / 2)
        ma = ((v[0][0] + v[2][0]) / 2, (v[0][1] + v[2][1]) / 2)
        mb = ((v[1][0] + v[3][0]) / 2, (v[1][1] + v[3][1]) / 2)
        h1, h2 = (h_13, h_02) if mb < ma else (h_02, h_13)
        h = h1 + mpf(u) * (h2 - h1)
        k = (s - t + 2 * h * (t - 1)) / (2 * (s - 1))

        root_sum = 2 * mpc(h, k)
        root_product = mpc(0, 1) * (s - 2 * h) / (s - 1)
        sq = mp.sqrt(root_sum * root_sum - 4 * root_product)
        f1, f2 = (root_sum + sq) / 2, (root_sum - sq) / 2
        contact = mpc(0, (s - 2 * h) / (2 * h * (s - 1)))
        a = (abs(contact - f1) + abs(contact - f2)) / 2
        c = abs(f2 - f1) / 2
        b2 = a * a - c * c
        ux, uy = (f2 - f1).real / (2 * c), (f2 - f1).imag / (2 * c)
        qn = ((ux * ux / a ** 2 + uy * uy / b2, ux * uy * (1 / a ** 2 - 1 / b2)),
              (ux * uy * (1 / a ** 2 - 1 / b2), uy * uy / a ** 2 + ux * ux / b2))
        (q11, q12), (_, q22) = [
            [sum(lin[m][i] * qn[m][n] * lin[n][j] for m in range(2) for n in range(2))
             for j in range(2)] for i in range(2)]
        spread = mp.sqrt((q11 - q22) ** 2 + 4 * q12 ** 2)
        small, big = (q11 + q22 - spread) / 2, (q11 + q22 + spread) / 2
        return float(1 / mp.sqrt(small)), float(1 / mp.sqrt(big))


def test_oracle_matches_the_worked_quad():
    # at u = 1/2 the worked quad's ellipse has area pi sqrt(5)/4
    major, minor = oracle_semi_axes(ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)]), 0.5)
    assert math.pi * major * minor == pytest.approx(math.pi * math.sqrt(5) / 4, rel=1e-15)


@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6, 1e8])
def test_semi_axes_against_the_oracle(offset):
    rng = np.random.default_rng(20260101)
    worst_major = worst_minor = 0.0
    for _ in range(40):
        q = _moved(random_trapezium(rng), offset)
        for u in PARAMS:
            major, minor = oracle_semi_axes(q, u)
            e = ic.inscribe_at_param(q, u).ellipse
            worst_major = max(worst_major, abs(e.semi_major - major) / major / EPS)
            worst_minor = max(worst_minor,
                              abs(e.semi_minor - minor) / minor / (EPS / min(u, 1 - u)))
    assert worst_major <= C, f"semi-major error {worst_major:.3g} eps"
    assert worst_minor <= C, f"semi-minor error {worst_minor:.3g} eps/min(u, 1-u)"
