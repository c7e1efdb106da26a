"""Verdicts and outputs under ill-conditioned affine maps.

``conftest.random_affine`` draws well-conditioned maps only.  Here seeded
quads go through seeded maps of determinant +-1 built from a stretch
diag(r, 1/r) or a shear [[1, s], [0, 1]] between two rotations, with
condition number kappa up to 1e6 and an offset up to the image's extent.
Every verdict ``validate_quad`` makes is a ratio of unit-scale triangle
areas, which the map keeps, so the image must get the same kind and every
call the same exception class.  Every output must be the image of the
unmapped one: centers, contacts and chord ends pulled back through the
map (exactly, in rationals) within C eps kappa of the unmapped quad's
extent, and areas within C eps kappa relative, |det| = 1.  The quad's
own rounding, eps at the image's extent, is at most eps kappa at the
unmapped quad's extent, so C bounds how much a well-shaped quad's
construction amplifies it.

The three probe quads, each near a verdict's threshold, are named cases:
each builds under its map with the unmapped quad's area.
"""
import json
import math
import random
from fractions import Fraction

import pytest

import inconic as ic
from inconic import errors
from inconic.cli import main

EPS = 2.0 ** -52
C = 16                 # allowed amplification of the input's rounding
PARAMS = (0.2, 0.5, 0.8)
CHORD_POINTS = (0.03, 0.97)
CASES = 160


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return ((c, -s), (s, c))


def _product(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
                 for i in range(2))


def _kappa(m):
    """Condition number of the 2x2 matrix m."""
    (a, b), (c, d) = m
    f, det = a * a + b * b + c * c + d * d, abs(a * d - b * c)
    big = (f + math.sqrt(max(f * f - 4 * det * det, 0.0))) / 2
    return big / det


def _draw_map(rng):
    """(M, kappa): det M = +-1, built from a stretch or a shear between two
    rotations, kappa log-uniform in [1, 1e6]."""
    kappa = 10 ** rng.uniform(0, 6)
    r = math.sqrt(kappa)
    core = ((r, 0.0), (0.0, 1 / r)) if rng.random() < 0.5 else ((1.0, r - 1 / r), (0.0, 1.0))
    m = _product(_rotation(rng.uniform(0, 2 * math.pi)),
                 _product(core, _rotation(rng.uniform(0, 2 * math.pi))))
    if rng.random() < 0.5:
        m = (m[0], (-m[1][0], -m[1][1]))
    return m, _kappa(m)


def _apply(m, t, points):
    return [(m[0][0] * x + m[0][1] * y + t[0], m[1][0] * x + m[1][1] * y + t[1])
            for x, y in points]


def _pull_back(m, t):
    """The exact inverse of x -> m x + t, on Fractions."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in m]
    det = a * d - b * c
    tx, ty = Fraction(t[0]), Fraction(t[1])

    def back(p):
        x, y = Fraction(p.x) - tx, Fraction(p.y) - ty
        return (float((d * x - b * y) / det), float((a * y - c * x) / det))
    return back


def _plain(rng):
    """A strictly convex quad in [0, 10]^2 whose corner and side-pair
    ratios are all at least 0.02, so its outputs are well conditioned."""
    while True:
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
        cx, cy = sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        try:
            q = ic.validate_quad(pts, ic.Tolerances(tol_par=0.02))
        except errors.NotConvex:
            continue
        if q.kind is ic.QuadKind.TRAPEZIUM:
            return pts


def _trapezoid(rng):
    s = rng.uniform(0.3, 3.0)
    return [(0.0, 0.0), (1.0, 0.0), (s, 1.0), (0.0, 1.0)]


def _parallelogram(rng):
    s = rng.uniform(-1.0, 1.0)
    return [(0.0, 0.0), (1.0, 0.0), (1.0 + s, 1.0), (s, 1.0)]


def _not_convex(rng):
    """A reflex vertex, or the vertices out of cyclic order."""
    pts = _plain(rng)
    if rng.random() < 0.5:
        return [pts[0], pts[2], pts[1], pts[3]]
    (x0, y0), (x2, y2) = pts[0], pts[2]
    f = rng.uniform(0.1, 0.4)  # vertex 1 pulled inside, beyond the diagonal
    return [pts[0], ((1 - f) * (x0 + x2) / 2 + f * pts[3][0],
                     (1 - f) * (y0 + y2) / 2 + f * pts[3][1]), pts[2], pts[3]]


def _outcome(call):
    try:
        return call()
    except (errors.InconicError, ValueError) as exc:
        return exc


def _extent(points):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys))


def _outputs(q):
    """Every call's result or exception on q: max_area, the ellipses at
    PARAMS, the chord and the tangent conics at CHORD_POINTS of it."""
    out = {"max_area": _outcome(lambda: ic.max_area(q)), "locus": _outcome(lambda: ic.locus(q))}
    for i, u in enumerate(PARAMS):
        out["param", i] = _outcome(lambda: ic.inscribe_at_param(q, u))
    out["chord"] = chord = _outcome(lambda: ic.chord_x(q))
    for i, v in enumerate(CHORD_POINTS):
        out["tangent", i] = (chord if isinstance(chord, Exception) else
                             _outcome(lambda: ic.tangent_conic_at_center(q, chord.point_at(v))))
    return out


def _gap(back, got, want):
    """Largest distance between a pulled-back point of got and the nearest
    point of want (both lists of Points)."""
    pulled = [back(p) for p in got]
    return max(min(math.dist(p, w.as_tuple()) for w in want) for p in pulled)


def _assert_equivariant(vertices, m, kappa, t, chord=True):
    """The mapped quad's kind, exception classes and outputs against the
    unmapped quad's, each output within C eps kappa; without ``chord``,
    the chord's ends are left out, as the center line's direction of a
    near-parallelogram is only as well conditioned as its short locus."""
    image = _apply(m, t, vertices)
    want_q = _outcome(lambda: ic.validate_quad(vertices))
    got_q = _outcome(lambda: ic.validate_quad(image))
    assert type(got_q) is type(want_q)
    if isinstance(want_q, Exception):
        return
    assert got_q.kind is want_q.kind
    want, got = _outputs(want_q), _outputs(got_q)
    for key in want:
        assert type(got[key]) is type(want[key]), key
    if isinstance(want["max_area"], Exception):
        return
    back = _pull_back(m, t)
    bound = C * EPS * kappa
    unit = _extent(vertices)
    seg, seg_img = want["locus"], got["locus"]
    flip = math.dist(back(seg_img.m1), seg.m2.as_tuple()) < math.dist(back(seg_img.m1),
                                                                     seg.m1.as_tuple())
    best, best_img = want["max_area"], got["max_area"]
    assert abs(best_img.area / best.area - 1) <= bound
    assert _gap(back, [best_img.center], [best.center]) <= bound * unit
    last = len(PARAMS) - 1  # PARAMS and CHORD_POINTS are symmetric about 1/2
    for i in range(len(PARAMS)):
        r, r_img = want["param", last - i if flip else i], got["param", i]
        assert abs(r_img.ellipse.area / r.ellipse.area - 1) <= bound
        assert _gap(back, [r_img.ellipse.center], [r.ellipse.center]) <= bound * unit
        contacts = [p.to_point() for p in r.tangencies]
        assert _gap(back, [p.to_point() for p in r_img.tangencies], contacts) <= bound * unit
    if not chord or isinstance(want["chord"], Exception):
        return
    chord, chord_img = want["chord"], got["chord"]
    assert _gap(back, [chord_img.p_start, chord_img.p_end], [chord.p_start, chord.p_end]) \
        <= bound * unit
    last = len(CHORD_POINTS) - 1
    for i in range(len(CHORD_POINTS)):
        mine, theirs = got["tangent", i], want["tangent", last - i if flip else i]
        assert type(mine) is type(theirs)
        if not isinstance(mine, Exception):
            assert mine[1] is theirs[1]


def _cases():
    rng = random.Random(20261022)
    makers = (_plain, _plain, _trapezoid, _parallelogram, _not_convex)
    for i in range(CASES):
        make = makers[i % len(makers)]
        vertices = make(rng)
        m, kappa = _draw_map(rng)
        extent = _extent(_apply(m, (0.0, 0.0), vertices))
        t = (rng.uniform(-1, 1) * extent, rng.uniform(-1, 1) * extent)
        yield pytest.param(vertices, m, kappa, t, id=f"{make.__name__[1:]}-{i}")


@pytest.mark.parametrize("vertices, m, kappa, t", list(_cases()))
def test_seeded_maps_keep_verdicts_and_outputs(vertices, m, kappa, t):
    _assert_equivariant(vertices, m, kappa, t)


def test_the_seeded_maps_reach_the_stated_conditioning():
    kappas = [case.values[2] for case in _cases()]
    assert max(kappas) > 1e5 and min(kappas) < 10
    for case in _cases():
        (a, b), (c, d) = case.values[1]
        assert abs(abs(a * d - b * c) - 1) < 1e-9


# (unmapped quad, map, kind): each quad sits near a threshold where a
# verdict judged on unit edge directions, or on the shape's own norm, would
# change under its map
PROBES = {
    # s - 1 = 3e-8 and t - 1 = 2e-8: the shear was refused as a parallelogram
    "sheared-near-parallelogram": ([(0.0, 0.0), (1.0, 0.0), (1 + 3e-8, 1 + 2e-8), (0.0, 1.0)],
                                   ((10.0, 10.0), (0.0, 0.1)), ic.QuadKind.TRAPEZIUM),
    # vertex 2 is 3e-9 of the area from straight: the stretch raised NotConvex
    "stretched-near-straight-corner": ([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 + 3e-9), (0.0, 1.0)],
                                       ((10.0, 0.0), (0.0, 0.1)), ic.QuadKind.TRAPEZIUM),
    # the ellipses near the midpoints are thin only as the map makes them:
    # the stretch raised DegeneratePoint, judged on the shape's own norm
    "thin-stretch-near-parallelogram": ([(0.0, 0.0), (1.0, 0.0), (1 + 3e-8, 1 + 2e-8), (0.0, 1.0)],
                                        ((1e3, 0.0), (0.0, 1e-3)), ic.QuadKind.TRAPEZIUM),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_quads_build_under_their_map(name):
    vertices, m, kind = PROBES[name]
    assert ic.validate_quad(vertices).kind is kind
    _assert_equivariant(vertices, m, _kappa(m), (0.0, 0.0), chord=False)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_quads_build_from_the_command_line(capsys, name):
    # the image's vertices as the command line reads them: repr round-trips
    vertices, m, _ = PROBES[name]
    image = " ".join(f"{x!r},{y!r}" for x, y in _apply(m, (0.0, 0.0), vertices))
    assert main(["maxarea", "--vertices", image]) == 0
    area = ic.max_area(ic.validate_quad(vertices)).area
    assert json.loads(capsys.readouterr().out)["area"] == pytest.approx(area, rel=1e-12)
