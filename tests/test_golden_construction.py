"""Every construction entry point pinned bit for bit on seeded quads.

Four families of quadrilaterals are drawn with ``random.Random``: plain
quads, the same kind under a similarity map of scale 10^-6 to 10^6 and
offset up to 10^8, thin trapezia (one side pair parallel to within
10^-10 to 10^-2) and trapezoids.  A fifth family runs plain quads under
tolerances set so that the tangency, at-infinity, parallelism, basis and
interval checks fire.  On each quad the test runs ``inscribe_at_param``
at five parameters, ``max_area``, and ``inscribe_at_center`` and
``tangent_conic_at_center`` at points of the interior chord
(``inscribe_at_center`` also at three locus points).  Each output is the
``repr`` of the result, or the class and message of what was raised;
``golden/construction.json`` holds a sha256 over them per family.  A
change that moves one bit of one result, or the class or message of one
exception, fails here.  The floats go through the C library's atan2, cos
and sin, so the digests assume a libm that rounds those as glibc does.
``python tests/test_golden_construction.py`` prints the digests of the
code as it stands.
"""
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from inconic import (
    DEFAULT_TOL,
    Tolerances,
    chord_x,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    max_area,
    tangent_conic_at_center,
    validate_quad,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "construction.json"
PER_FAMILY = 150
PARAMS = (1e-7, 0.13, 0.5, 0.87, 1 - 1e-7)
LOCUS_POINTS = (0.13, 0.5, 0.87)
CHORD_POINTS = (0.02, 0.2, 0.5, 0.8, 0.98)


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


FAMILIES = {
    "plain": (_plain, 101),
    "far": (_far, 202),
    "thin_trapezium": (_thin_trapezium, 303),
    "trapezoid": (_trapezoid, 404),
    "tolerances": (_plain, 505),
}
# the "tolerances" family cycles through these; the others use DEFAULT_TOL
CHECK_TOLS = (
    Tolerances(tol_tan=1e-30),
    Tolerances(tol_infinity=0.9),
    Tolerances(tol_par=0.3),
    Tolerances(tol_det=0.5),
    Tolerances(tol_interval=0.2),
)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # every raised class and message is pinned
        return f"{type(exc).__name__}: {exc}"


def _outputs(vertices, tol):
    try:
        q = validate_quad(vertices, tol)
    except Exception as exc:
        yield f"{type(exc).__name__}: {exc}"
        return
    for u in PARAMS:
        yield _outcome(inscribe_at_param, q, u, tol)
    yield _outcome(max_area, q, tol)
    try:
        seg, chord = locus(q), chord_x(q, tol)
    except Exception as exc:
        yield f"{type(exc).__name__}: {exc}"
        return
    for u in LOCUS_POINTS:
        yield _outcome(inscribe_at_center, q, seg.point_at(u), tol)
    for u in CHORD_POINTS:
        p = chord.point_at(u)
        yield _outcome(inscribe_at_center, q, p, tol)
        yield _outcome(tangent_conic_at_center, q, p, tol)


def family_digest(name):
    """(number of outputs, sha256 over them) of one family."""
    make, seed = FAMILIES[name]
    rng = random.Random(seed)
    tols = CHECK_TOLS if name == "tolerances" else (DEFAULT_TOL,)
    outputs = [out for i in range(PER_FAMILY)
               for out in _outputs(make(rng), tols[i % len(tols)])]
    return len(outputs), hashlib.sha256("\n".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_construction_outputs_are_bit_identical(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    count, digest = family_digest(name)
    assert count == golden["outputs"]
    assert digest == golden["sha256"]


if __name__ == "__main__":
    print(json.dumps({name: dict(zip(("outputs", "sha256"), family_digest(name)))
                      for name in sorted(FAMILIES)}, indent=2))
