"""The number rule and the fixed-schema ellipse writer.

``ellipse_json`` must print byte for byte what ``dumps`` prints for the
same record as a dict, which is how the CLI wrote ellipses before it had
a writer of its own.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inconic as ic
from conftest import random_trapezium, random_trapezoid
from inconic.fmt import NonFiniteNumber, dumps, ellipse_json, fmt_number

TINY = 1e-12
JUST_UNDER = math.nextafter(TINY, 0.0)


def _ulps_from(x: float, k: int) -> float:
    """The float k steps from x (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# one slot of the ellipse record: any finite float (subnormals included),
# signed zeros and the smallest subnormals, values within 4 ulps of +-1e-12
# (where an earlier rule cut to 0), magnitudes from 1e15 to 1e17 (where
# %.15g turns to exponent form) and around 1e300 (where 29 of them still
# sum finite)
_SLOT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)]),
    st.builds(_ulps_from, st.sampled_from([TINY, -TINY]), st.integers(-4, 4)),
    st.floats(1e15, 1e17) | st.floats(-1e17, -1e15),
    st.floats(1e299, 1e301) | st.floats(-1e301, -1e299),
)


def _record(result, h0=None) -> dict:
    """The ellipse record as a dict, for ``dumps``."""
    e = result.ellipse
    doc = {
        "center": [e.center.x, e.center.y],
        "semi_major": e.semi_major,
        "semi_minor": e.semi_minor,
        "angle_rad": e.angle,
        "foci": [[e.focus1.x, e.focus1.y], [e.focus2.x, e.focus2.y]],
        "conic": list(result.conic.coefficients()),
        "tangencies": [[t.x, t.y, t.w] for t in result.tangencies],
        "area": e.area,
        "classification": "ellipse",
    }
    if h0 is not None:
        doc["h0"] = h0
    return doc


def _fake(values) -> SimpleNamespace:
    """A result-shaped object carrying the 28 given numbers in the
    record's key order."""
    v = list(values)
    conic = tuple(v[4:10])
    center, focus1, focus2 = (SimpleNamespace(x=v[i], y=v[i + 1]) for i in (2, 10, 12))
    return SimpleNamespace(
        ellipse=SimpleNamespace(angle=v[0], area=v[1], center=center, focus1=focus1,
                                focus2=focus2, semi_major=v[14], semi_minor=v[15]),
        conic=SimpleNamespace(coefficients=lambda: conic),
        tangencies=[SimpleNamespace(x=v[i], y=v[i + 1], w=v[i + 2])
                    for i in range(16, 28, 3)])


def _old_rule(x) -> str:
    """``fmt_number`` as it was written before its float fast path."""
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot format a non-finite number")
    if x == 0:
        x = 0.0
    return f"{x:.15g}"


class TestNumberRule:
    @pytest.mark.parametrize("x, text", [
        (JUST_UNDER, "1e-12"), (-JUST_UNDER, "-1e-12"), (TINY, "1e-12"), (-TINY, "-1e-12"),
        (1e-13, "1e-13"), (-2.0**-498, "-1.22197454539984e-150"),
        (5e-324, "4.94065645841247e-324"),
        (0.0, "0"), (-0.0, "0"), (3.0, "3"), (-2.0, "-2"), (1e15, "1e+15"),
        (0.1, "0.1"), (1 / 3, "0.333333333333333"), (7, "7"), (10**20, str(10**20)),
    ])
    def test_explicit_values(self, x, text):
        assert fmt_number(x) == text

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError):
            fmt_number(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.float64("-inf")])
    def test_non_finite_is_its_own_value_error(self, x):
        # the CLI tells it from a malformed input by its class
        assert issubclass(NonFiniteNumber, ValueError)
        with pytest.raises(NonFiniteNumber):
            fmt_number(x)

    def test_bool_raises(self):
        with pytest.raises(TypeError):
            fmt_number(True)

    @given(x=st.floats() | st.integers())
    def test_same_as_the_old_rule(self, x):
        for value in (x, np.float64(x)) if isinstance(x, float) else (x,):
            try:
                want = _old_rule(value)
            except ValueError:
                with pytest.raises(ValueError):
                    fmt_number(value)
            else:
                assert fmt_number(value) == want


class TestEllipseWriter:
    @pytest.mark.parametrize("value, text", [
        (JUST_UNDER, "1e-12"), (-JUST_UNDER, "-1e-12"), (TINY, "1e-12"), (-TINY, "-1e-12"),
        (1e-13, "1e-13"), (-5e-324, "-4.94065645841247e-324"),
        (-0.0, "0"), (2.0, "2"), (-5.0, "-5"), (0.0, "0"),
    ])
    def test_edge_values_in_every_slot(self, value, text):
        values = [value] * 28
        for h0 in (None, value):
            fake = _fake(values)
            got = ellipse_json(fake, h0)
            assert got == dumps(_record(fake, h0))
            assert got.startswith(f'{{"angle_rad":{text},"area":{text},"center":[{text},')

    def test_slots_follow_the_keys(self):
        fake = _fake(float(i) for i in range(1, 29))
        assert ellipse_json(fake) == dumps(_record(fake))
        assert ellipse_json(fake, 99.5) == dumps(_record(fake, 99.5))

    @pytest.mark.parametrize("slot", [0, 1, 5, 14, 27, 28], ids=lambda i: f"slot{i}")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, slot, bad):
        values = [1.0] * 29   # the 28 record numbers and h0
        values[slot] = bad
        fake = _fake(values[:28])
        with pytest.raises(ValueError):
            ellipse_json(fake, values[28])
        with pytest.raises(ValueError):
            dumps(_record(fake, values[28]))

    @given(seed=st.integers(0, 2**32 - 1), trapezoid=st.booleans(),
           scale=st.floats(-6, 6), offset=st.floats(0, 8), far=st.booleans(),
           phi=st.floats(0, 2 * math.pi), u=st.floats(1e-3, 1 - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_same_as_dumps(self, seed, trapezoid, scale, offset, far, phi, u):
        # quads of extent 10^scale, moved up to 10^8 from the origin
        rng = np.random.default_rng(seed)
        q = random_trapezoid(rng) if trapezoid else random_trapezium(rng)
        k = 10.0 ** scale
        reach = 10.0 ** offset if far else 0.0
        ox, oy = reach * math.cos(phi), reach * math.sin(phi)
        image = ic.validate_quad([(k * v.x + ox, k * v.y + oy) for v in q.vertices])
        result = ic.inscribe_at_param(image, u)
        assert ellipse_json(result) == dumps(_record(result))
        best = ic.max_area(image)
        assert ellipse_json(best.inscribed, best.h0) == dumps(_record(best.inscribed, best.h0))

    @given(values=st.lists(_SLOT, min_size=29, max_size=29),
           int_slot=st.none() | st.integers(0, 28),
           numpy_slot=st.none() | st.integers(0, 28),
           int_value=st.integers(-10**20, 10**20))
    @settings(max_examples=500, deadline=None)
    def test_bulk_format_is_the_rule(self, values, int_slot, numpy_slot, int_value):
        # plain finite floats go through one %.15g format, anything else
        # through fmt_number; both must print what dumps prints
        if numpy_slot is not None:
            values[numpy_slot] = np.float64(values[numpy_slot])
        if int_slot is not None:
            values[int_slot] = int_value
        fake = _fake(values[:28])
        assert ellipse_json(fake) == dumps(_record(fake))
        assert ellipse_json(fake, values[28]) == dumps(_record(fake, values[28]))

    @given(values=st.lists(_SLOT, min_size=29, max_size=29), slot=st.integers(0, 28),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]), numpy=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_non_finite_in_any_slot_raises(self, values, slot, bad, numpy):
        values[slot] = np.float64(bad) if numpy else bad
        fake = _fake(values[:28])
        with pytest.raises(NonFiniteNumber):
            ellipse_json(fake, values[28])
        if slot < 28:
            with pytest.raises(NonFiniteNumber):
                ellipse_json(fake)

    def test_plain_floats_take_the_bulk_format(self, monkeypatch):
        # a construction's record is all plain finite floats: fmt_number,
        # the value-by-value path, is not called for it
        q = ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])
        result, best = ic.inscribe_at_param(q, 0.37), ic.max_area(q)
        want = ellipse_json(result), ellipse_json(best.inscribed, best.h0)

        def fail(x):
            raise AssertionError("the record went value by value")

        monkeypatch.setattr("inconic.fmt.fmt_number", fail)
        assert (ellipse_json(result), ellipse_json(best.inscribed, best.h0)) == want


class TestScalars:
    @pytest.mark.parametrize("value", [True, False, None, [True, False, None],
                                       {"b": False, "a": True}])
    def test_literals_same_as_json(self, value):
        assert dumps(value) == json.dumps(value, separators=(",", ":"), sort_keys=True)


class TestStrings:
    @given(st.text())
    @settings(max_examples=300)
    def test_same_as_json(self, text):
        # printable ASCII without a quote or backslash is quoted directly,
        # every other string by json
        assert dumps(text) == json.dumps(text)
        assert dumps({text: [text]}) == json.dumps({text: [text]}, separators=(",", ":"))

    @pytest.mark.parametrize("text", ["ellipse", "a b", "", '"', "\\", "\x7f", "\n", "é"])
    def test_explicit_strings(self, text):
        assert dumps(text) == json.dumps(text)
