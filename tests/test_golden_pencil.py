"""The pencil oracle pinned bit for bit on seeded quads and line sets.

Seven families are drawn with ``random.Random``.  Four are quadrilaterals
as in test_golden_construction.py: plain quads, the same kind under a
similarity map of scale 10^-6 to 10^6 and offset up to 10^8, thin
trapezia and trapezoids (one meet at infinity).  On each, the test
records ``q.side_lines()``, the pencil's ``d_a.m`` and ``d_b.m``,
``centers_line`` and ``member_with_center`` at points of the line through
the diagonal midpoints, inside and beyond them.  Two families draw from
those four and aim at ``member_with_center``'s checks: centers within
0.5, 1 and 2 times 1e-9 max(1, |h|, |k|) of the three degenerate members'
centers, along the line of centers, and centers pushed off that line,
whose message carries the residual.  The last family builds line sets
that reach each of ``pencil_from_lines``' ten coincidence and concurrency
raises, at and around their thresholds, and unvalidated quads whose side
lines leave the float range or pass through coincident vertices.

Each output is the ``repr`` of the result, or the class and message of
what was raised; ``golden/pencil.json`` holds a sha256 over them per
family.  The quads and centers are made with arithmetic, ``hypot`` and
``sqrt`` only, and the pencil uses no atan2, cos or sin, so the digests do
not depend on the C library.  ``python tests/test_golden_pencil.py``
prints the digests of the code as it stands.
"""
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from inconic import (
    ConvexQuad,
    Line,
    Point,
    QuadKind,
    centers_line,
    member_with_center,
    pencil_from_lines,
    validate_quad,
)

from test_golden_construction import _thin_trapezium, _trapezoid

GOLDEN_PATH = Path(__file__).parent / "golden" / "pencil.json"
PER_FAMILY = 200
LINE_POINTS = (-0.5, -0.1, 0.02, 0.13, 0.5, 0.87, 0.98, 1.1, 1.5)  # m1 + u (m2 - m1)
NEAR_STEPS = (-2, -1, -0.5, 0, 0.5, 1, 2)   # along the line of centers, in 1e-9 max(1, |h|, |k|)
OFF_PUSHES = (1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3)  # in the quad's extent
THRESHOLD_STEPS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)  # around the raises' 1e-12 bounds
RAISES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
          (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _turn(x, y):
    """A key increasing with the angle of (x, y) over a full turn, with no
    trigonometry: the L1-normalized angle."""
    p = y / (abs(x) + abs(y))
    return 2 - p if x < 0 else (4 + p if y < 0 else p)


def _plain(rng):
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
    cx, cy = sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4
    return sorted(pts, key=lambda p: _turn(p[0] - cx, p[1] - cy))


def _far(rng):
    scale = 10 ** rng.uniform(-6, 6)
    gx, gy = rng.gauss(0, 1), rng.gauss(0, 1)
    n = math.hypot(gx, gy)
    c, s = scale * gx / n, scale * gy / n
    ox, oy = (rng.choice((-1, 1)) * 10 ** rng.uniform(0, 8) for _ in range(2))
    return [(c * x - s * y + ox, s * x + c * y + oy) for x, y in _plain(rng)]


def _mixed(rng):
    return rng.choice((_plain, _far, _thin_trapezium, _trapezoid))(rng)


def _raised(exc):
    return f"{type(exc).__name__}: {exc}"


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # every raised class and message is pinned
        return _raised(exc)


def _pencil_outputs(lines, centers_of):
    """The pencil of lines, its line of centers and its members at the
    centers ``centers_of(pencil)`` names."""
    try:
        pen = pencil_from_lines(*lines)
    except Exception as exc:
        yield _raised(exc)
        return
    yield repr((pen.d_a.m, pen.d_b.m))
    yield _outcome(centers_line, pen)
    for center in centers_of(pen):
        yield _outcome(member_with_center, pen, center)


def _quad_outputs(vertices, centers_of):
    try:
        q = validate_quad(vertices)
        lines = q.side_lines()
    except Exception as exc:
        yield _raised(exc)
        return
    yield repr(lines)
    yield from _pencil_outputs(lines, lambda pen: centers_of(q, pen))


def _midpoint_line(q):
    """m1 and the step m2 - m1 between the midpoints of v0v2 and v1v3."""
    v0, v1, v2, v3 = q.vertices
    x1, y1 = (v0.x + v2.x) / 2, (v0.y + v2.y) / 2
    return x1, y1, (v1.x + v3.x) / 2 - x1, (v1.y + v3.y) / 2 - y1


def _line_points(q, pen):
    x1, y1, dx, dy = _midpoint_line(q)
    return [Point(x1 + u * dx, y1 + u * dy) for u in LINE_POINTS]


def _meet(l, m):
    return (l.b * m.c - l.c * m.b, l.c * m.a - l.a * m.c, l.a * m.b - l.b * m.a)


def _near_degenerate(q, pen):
    """Centers stepped along the line of centers from the centers of the
    degenerate members: the diagonal midpoints v1v3 and v0v2 and the
    midpoint of the two outer meets, where that is finite."""
    l1, l2, l3, l4 = pen.lines
    _, _, dx, dy = _midpoint_line(q)
    n = math.hypot(dx, dy)
    dx, dy = dx / n, dy / n
    centers = []
    for (l, m), (k, o) in (((l1, l2), (l3, l4)), ((l1, l4), (l2, l3)), ((l1, l3), (l2, l4))):
        p, r = _meet(l, m), _meet(k, o)
        w = 2 * p[2] * r[2]
        if w == 0:
            continue
        h, k = (p[0] * r[2] + r[0] * p[2]) / w, (p[1] * r[2] + r[1] * p[2]) / w
        near = 1e-9 * max(1.0, abs(h), abs(k))
        centers += [Point(h + f * near * dx, k + f * near * dy) for f in NEAR_STEPS]
    return centers


def _off_line(q, pen):
    """The middle of the diagonal midpoints pushed off their line."""
    x1, y1, dx, dy = _midpoint_line(q)
    n = math.hypot(dx, dy)
    xs, ys = [v.x for v in q.vertices], [v.y for v in q.vertices]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    x, y = x1 + dx / 2, y1 + dy / 2
    return [Point(x + sign * f * extent * dy / n, y - sign * f * extent * dx / n)
            for f in OFF_PUSHES for sign in (1, -1)]


def _random_line(rng):
    return Line(rng.gauss(0, 1), rng.gauss(0, 1), rng.uniform(-5, 5))


def _line_set(rng, target):
    """Four lines aimed at one of ``RAISES``: two that coincide, or three
    through one point, to within a few steps of the 1e-12 bound."""
    lines = [_random_line(rng) for _ in range(4)]
    f = rng.choice(THRESHOLD_STEPS)
    if len(target) == 2:
        i, j = target
        l = lines[i]
        e = f * 1e-12 * (1 + abs(l.c)) ** 2
        lines[j] = Line(l.a + e * rng.gauss(0, 1), l.b + e * rng.gauss(0, 1),
                        l.c + e * rng.gauss(0, 1))
    else:
        x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
        for i in target:
            a, b = rng.gauss(0, 1), rng.gauss(0, 1)
            lines[i] = Line(a, b, -(a * x + b * y))
        # the last one moved off the common point; its shift times a meet
        # of norm below 1 crosses the determinant's bound between f = 0 and 1
        l = lines[target[-1]]
        lines[target[-1]] = Line(l.a, l.b, l.c + f * 1e-12 * max(1.0, abs(x), abs(y)) * 10)
    return lines


def _raw_quad(rng, huge):
    """An unvalidated quad: a plain one moved next to the float limit, where
    a side line's c can overflow, or one with two vertices made equal."""
    pts = _plain(rng)
    if huge:
        scale = rng.uniform(1e306, 2.5e306)
        pts = [(1.5e308 + scale * x, 1.5e308 + scale * y) for x, y in pts]
    else:
        j = rng.randrange(4)
        pts[(j + 1) % 4] = pts[j]
    return ConvexQuad(*(Point(x, y) for x, y in pts), QuadKind.TRAPEZIUM)


def _chord_family(make):
    return lambda rng, i: _quad_outputs(make(rng), _line_points)


def _lines_family(rng, i):
    """The i-th draw cycles through ``RAISES`` and the two raw quads."""
    k = i % (len(RAISES) + 2)
    if k >= len(RAISES):
        try:
            lines = _raw_quad(rng, k > len(RAISES)).side_lines()
        except Exception as exc:
            yield _raised(exc)
            return
        yield repr(lines)
    else:
        lines = _line_set(rng, RAISES[k])
    yield from _pencil_outputs(lines, lambda pen: ())


# name: (seed, outputs of the i-th draw)
FAMILIES = {
    "plain": (111, _chord_family(_plain)),
    "far": (222, _chord_family(_far)),
    "thin_trapezium": (333, _chord_family(_thin_trapezium)),
    "trapezoid": (444, _chord_family(_trapezoid)),
    "degenerate_centers": (555, lambda rng, i: _quad_outputs(_mixed(rng), _near_degenerate)),
    "off_line": (666, lambda rng, i: _quad_outputs(_mixed(rng), _off_line)),
    "line_sets": (777, _lines_family),
}


def family_digest(name):
    """(number of outputs, sha256 over them) of one family."""
    seed, outputs_of = FAMILIES[name]
    rng = random.Random(seed)
    outputs = [out for i in range(PER_FAMILY) for out in outputs_of(rng, i)]
    return len(outputs), hashlib.sha256("\n".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pencil_outputs_are_bit_identical(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    count, digest = family_digest(name)
    assert count == golden["outputs"]
    assert digest == golden["sha256"]


if __name__ == "__main__":
    print(json.dumps({name: dict(zip(("outputs", "sha256"), family_digest(name)))
                      for name in sorted(FAMILIES)}, indent=2))
