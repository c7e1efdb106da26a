"""Every construction entry point pinned bit for bit on seeded quads.

Four families of quadrilaterals are drawn with ``random.Random``: plain
quads, the same kind under a similarity map of scale 10^-6 to 10^6 and
offset up to 10^8, thin trapezia (one side pair parallel to within
10^-10 to 10^-2) and trapezoids.  A fifth family runs plain quads under
tolerances set so that the tangency, at-infinity, parallelism and
interval checks fire and the center-line check is loosened.  On each quad
the test runs ``inscribe_at_param`` at five parameters, ``max_area``, and
``inscribe_at_center`` and ``tangent_conic_at_center`` at points of the
interior chord (``inscribe_at_center`` also at three locus points).  A sixth family
draws from the first four and runs the same two calls at centers on the
center guards' decision boundaries, under the default tolerances and one
of the stressed sets: chord parameters within a few ``tol_interval`` of
each diagonal midpoint and each chord end, and points pushed off the
center line, across it, by 0.5, 1 and 2 times the miss ``_center_bound``
allows.
Each output is the ``repr`` of the result, or the class and message of
what was raised; ``golden/construction.json`` holds a sha256 over them
per family.  A change that moves one bit of one result, or the class or
message of one exception, fails here.
``golden/construction_outcomes.json`` holds a coarser sha256 over the four
default-tolerance families: each output's outcome only, the result's type
(and a tangent conic's class), or the raised class and its message with
every number replaced by ``#``.  A change that moves trailing digits
passes that one; a change that turns a result into a raise, or one raise
into another, fails it.  The floats go through the C library's atan2, cos
and sin, so the digests assume a libm that rounds those as glibc does.
``python tests/test_golden_construction.py`` prints the digests of the
code as it stands.
"""
import hashlib
import json
import math
import random
import re
from pathlib import Path

import pytest

from inconic import (
    DEFAULT_TOL,
    Point,
    Tolerances,
    chord_x,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    max_area,
    tangent_conic_at_center,
    validate_quad,
)
from inconic.inscribed import _center_bound, _pencil

GOLDEN_PATH = Path(__file__).parent / "golden" / "construction.json"
OUTCOMES_PATH = Path(__file__).parent / "golden" / "construction_outcomes.json"
PER_FAMILY = 150
PARAMS = (1e-7, 0.13, 0.5, 0.87, 1 - 1e-7)
LOCUS_POINTS = (0.13, 0.5, 0.87)
CHORD_POINTS = (0.02, 0.2, 0.5, 0.8, 0.98)
GUARD_STEPS = (-2, -1, -0.5, 0, 0.5, 1, 2)   # chord-parameter offsets, in tol_interval
GUARD_PUSHES = (0.5, 1, 2)                   # off-line misses, in _center_bound


def _plain(rng):
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
    cx, cy = sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4
    return sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _far(rng):
    scale = 10 ** rng.uniform(-6, 6)
    angle = rng.uniform(0, 2 * math.pi)
    c, s = scale * math.cos(angle), scale * math.sin(angle)
    ox, oy = (rng.choice((-1, 1)) * 10 ** rng.uniform(0, 8) for _ in range(2))
    return [(c * x - s * y + ox, s * x + c * y + oy) for x, y in _plain(rng)]


def _affine_image(rng, pts):
    while True:
        m11, m12, m21, m22 = (rng.uniform(-2, 2) for _ in range(4))
        if abs(m11 * m22 - m12 * m21) > 0.2:
            break
    tx, ty = rng.uniform(-5, 5), rng.uniform(-5, 5)
    return [(m11 * x + m12 * y + tx, m21 * x + m22 * y + ty) for x, y in pts]


def _thin_trapezium(rng):
    s = rng.uniform(0.3, 3.0)
    t = 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-10, -2)
    return _affine_image(rng, [(0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)])


def _trapezoid(rng):
    s = rng.uniform(0.3, 3.0)
    return _affine_image(rng, [(0.0, 0.0), (1.0, 0.0), (s, 1.0), (0.0, 1.0)])


def _mixed(rng):
    return rng.choice((_plain, _far, _thin_trapezium, _trapezoid))(rng)


# the "tolerances" and "chord_guard" families cycle through these
CHECK_TOLS = (
    Tolerances(tol_tan=1e-30),
    Tolerances(tol_infinity=0.9),
    Tolerances(tol_par=0.3),
    Tolerances(tol_on=1e-3),
    Tolerances(tol_interval=0.2),
)


def _outcome(fn, *args):
    """What fn(*args) returned, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every raised class and message is pinned
        return exc


def _full(out):
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return repr(out)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _coarse(out):
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {_NUMBER.sub('#', str(out))}"
    if isinstance(out, tuple):  # tangent_conic_at_center's (conic, class, contacts)
        return f"tuple {out[1].name}"
    return type(out).__name__


def _outputs(vertices, tol):
    try:
        q = validate_quad(vertices, tol)
    except Exception as exc:
        yield exc
        return
    for u in PARAMS:
        yield _outcome(inscribe_at_param, q, u, tol)
    yield _outcome(max_area, q, tol)
    try:
        seg, chord = locus(q), chord_x(q)
    except Exception as exc:
        yield exc
        return
    for u in LOCUS_POINTS:
        yield _outcome(inscribe_at_center, q, seg.point_at(u), tol)
    for u in CHORD_POINTS:
        p = chord.point_at(u)
        yield _outcome(inscribe_at_center, q, p, tol)
        yield _outcome(tangent_conic_at_center, q, p, tol)


def _chord_param(chord, p):
    dx, dy = chord.p_end.x - chord.p_start.x, chord.p_end.y - chord.p_start.y
    return ((p.x - chord.p_start.x) * dx + (p.y - chord.p_start.y) * dy) / (dx * dx + dy * dy)


def _guard_centers(q, seg, chord, tol):
    step = tol.tol_interval
    params = [k * step for k in GUARD_STEPS if k >= 0]
    params += [1 - k * step for k in GUARD_STEPS if k >= 0]
    for m in (seg.m1, seg.m2):
        um = _chord_param(chord, m)
        params += [um + k * step for k in GUARD_STEPS]
    centers = [chord.point_at(u) for u in params]
    # a point moved by r across the line, at unit scale, misses it by
    # |2d| r; the unit is 2^e (``_pencil``)
    sc, line = _pencil(q)[0][2], _pencil(q)[2]
    dx, dy = line[7], line[8]
    length = math.hypot(dx, dy)
    for p in (seg.point_at(0.5), chord.point_at(0.02), chord.point_at(0.98)):
        r = sc * _center_bound(_pencil(q), p, tol) / (2 * length)
        for f in GUARD_PUSHES:
            for sign in (1, -1):
                centers.append(Point(p.x - sign * f * r * dy / length,
                                     p.y + sign * f * r * dx / length))
    return centers


def _guard_outputs(vertices, stressed):
    for tol in (DEFAULT_TOL, stressed):
        try:
            q = validate_quad(vertices, tol)
            centers = _guard_centers(q, locus(q), chord_x(q), tol)
        except Exception as exc:
            yield exc
            continue
        for p in centers:
            yield _outcome(inscribe_at_center, q, p, tol)
            yield _outcome(tangent_conic_at_center, q, p, tol)


# name: (quad maker, seed, outputs of one quad, tolerances cycled per quad)
FAMILIES = {
    "plain": (_plain, 101, _outputs, (DEFAULT_TOL,)),
    "far": (_far, 202, _outputs, (DEFAULT_TOL,)),
    "thin_trapezium": (_thin_trapezium, 303, _outputs, (DEFAULT_TOL,)),
    "trapezoid": (_trapezoid, 404, _outputs, (DEFAULT_TOL,)),
    "tolerances": (_plain, 505, _outputs, CHECK_TOLS),
    "chord_guard": (_mixed, 606, _guard_outputs, CHECK_TOLS),
}


# the families whose outcomes ``construction_outcomes.json`` pins
OUTCOME_FAMILIES = ("far", "plain", "thin_trapezium", "trapezoid")


def family_digest(name, show=_full):
    """(number of outputs, sha256 over them, each shown by ``show``) of one
    family."""
    make, seed, outputs_of, tols = FAMILIES[name]
    rng = random.Random(seed)
    outputs = [show(out) for i in range(PER_FAMILY)
               for out in outputs_of(make(rng), tols[i % len(tols)])]
    return len(outputs), hashlib.sha256("\n".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_construction_outputs_are_bit_identical(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    count, digest = family_digest(name)
    assert count == golden["outputs"]
    assert digest == golden["sha256"]


@pytest.mark.parametrize("name", OUTCOME_FAMILIES)
def test_construction_outcomes_are_unchanged(name):
    golden = json.loads(OUTCOMES_PATH.read_text(encoding="utf-8"))[name]
    count, digest = family_digest(name, _coarse)
    assert count == golden["outputs"]
    assert digest == golden["sha256"]


def _digests(names, show):
    return {name: dict(zip(("outputs", "sha256"), family_digest(name, show)))
            for name in names}


if __name__ == "__main__":
    # ``--outcomes`` prints construction_outcomes.json's digests instead
    import sys
    if sys.argv[1:] == ["--outcomes"]:
        print(json.dumps(_digests(OUTCOME_FAMILIES, _coarse), indent=2))
    else:
        print(json.dumps(_digests(sorted(FAMILIES), _full), indent=2))
