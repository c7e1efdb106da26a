"""Value-type contract: every value type of the package is immutable,
compares, hashes and prints by its fields, and survives copy and pickle
without being checked or normalized a second time."""
import copy
import math
import pickle

import pytest

import inconic
from inconic import (
    DEFAULT_TOL,
    AffineMap,
    AreaTriple,
    Conic,
    DualConic,
    EllipseGeo,
    HomPoint,
    Line,
    LocusSegment,
    Point,
    TangentPencil,
    Tolerances,
    TriangleZ,
    WeightTriple,
    chord_x,
    inscribe_at_param,
    locus,
    locus_line,
    max_area,
    normalize,
    pencil_from_lines,
    validate_quad,
)
from inconic.errors import SingularMap
from inconic.geometry import _Value

from conftest import normal_form

QUAD = [(0, 0), (1, 0), (3, 2), (0, 1)]

# Line and Conic from input that one normalization rounds differently from
# two, so a copy that ran __init__ again would not compare equal
LINE_INPUT = (1.0, 1.0, 1.0)
CONIC_INPUT = (-1.0, 0.3, 2.0, 0.7, -0.1, 5.0)

FACTORIES = {
    "AffineMap": lambda: AffineMap(2.0, 1.0, -1.0, 3.0, 0.5, -0.25),
    "AreaTriple": lambda: AreaTriple(1.0, 2.0, 2.5),
    "ChordX": lambda: chord_x(validate_quad(QUAD)),
    "Conic": lambda: Conic(*CONIC_INPUT),
    "ConvexQuad": lambda: validate_quad(QUAD),
    "DualConic": lambda: DualConic(((2.0, 0.5, 0.0), (0.5, 1.0, 0.25), (0.0, 0.25, -1.0))),
    "EllipseGeo": lambda: inscribe_at_param(validate_quad(QUAD), 0.37).ellipse,
    "HomPoint": lambda: HomPoint(1.0, 2.0, 0.5),
    "InscribedResult": lambda: inscribe_at_param(validate_quad(QUAD), 0.37),
    "Line": lambda: Line(*LINE_INPUT),
    "LocusLine": lambda: locus_line(normalize(validate_quad(QUAD))),
    "LocusSegment": lambda: locus(validate_quad(QUAD)),
    "MaxAreaResult": lambda: max_area(validate_quad(QUAD)),
    "NormalForm": lambda: normalize(validate_quad(QUAD)),
    "Point": lambda: Point(1.5, -2.0),
    "TangentPencil": lambda: pencil_from_lines(*validate_quad(QUAD).side_lines()),
    "Tolerances": lambda: Tolerances(tol_tan=1e-7),
    "TriangleZ": lambda: TriangleZ(0j, 1 + 0j, 1j),
    "WeightTriple": lambda: WeightTriple(0.2, 0.3),
}
IDENTITY = {"DualConic", "TangentPencil"}
NAMES = sorted(FACTORIES)


def _key(obj):
    """What a copy must preserve: the value itself, or the fields of an
    identity-compared type."""
    if isinstance(obj, DualConic):
        return obj.m
    if isinstance(obj, TangentPencil):
        return (obj.d_a.m, obj.d_b.m, obj.lines)
    return obj


def test_factories_cover_every_public_value_type():
    public = {name for name in inconic.__all__
              if isinstance(getattr(inconic, name), type)
              and issubclass(getattr(inconic, name), _Value)}
    assert public == set(FACTORIES)
    for name, build in FACTORIES.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    obj = FACTORIES[name]()
    for field in obj.__slots__:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == a and hash(a) == hash(a)
    if name in IDENTITY:
        assert a != b
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert a != object()


def test_equality_reads_every_field():
    assert Point(1.0, 2.0) != Point(1.0, 2.5)
    assert WeightTriple(0.2, 0.3) != WeightTriple(0.2, 0.4)
    assert Tolerances() != Tolerances(tol_infinity=1e-9)
    assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_every_slot(name):
    obj = FACTORIES[name]()
    text = repr(obj)
    assert text.startswith(f"{type(obj).__qualname__}(")
    assert text.endswith(")")
    for field in obj.__slots__:
        assert f"{field}={getattr(obj, field)!r}" in text


def test_repr_shows_computed_fields():
    assert repr(WeightTriple(0.25, 0.5)) == "WeightTriple(t1=0.25, t2=0.5, t3=0.25)"
    assert repr(AreaTriple(1.0, 2.0, 3.0)) == \
        "AreaTriple(alpha=1.0, beta=2.0, gamma=3.0, sigma=3.0)"
    assert repr(Point(1.0, -2.0)) == "Point(x=1.0, y=-2.0)"


def test_copy_fixtures_renormalize_differently():
    line, conic = Line(*LINE_INPUT), Conic(*CONIC_INPUT)
    assert Line(line.a, line.b, line.c) != line
    assert Conic(*conic.coefficients()) != conic


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "pickle0"])
def test_copy_and_pickle_round_trip(name, how):
    obj = FACTORIES[name]()
    clone = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda o: pickle.loads(pickle.dumps(o)),
        "pickle0": lambda o: pickle.loads(pickle.dumps(o, protocol=0)),
    }[how](obj)
    assert type(clone) is type(obj)
    assert _key(clone) == _key(obj)
    if name not in IDENTITY:
        assert hash(clone) == hash(obj)


def test_defaults():
    m = AffineMap(1.0, 2.0, 3.0, 4.0)
    assert (m.tx, m.ty) == (0.0, 0.0)
    assert LocusSegment(Point(0.0, 0.0), Point(1.0, 1.0)).degenerate is False
    assert Tolerances() == DEFAULT_TOL
    assert DEFAULT_TOL.tol_tan == 1e-8


def test_the_singular_threshold_is_not_a_tolerance():
    # the normal frame depends on the quad alone, so the 1e-12 singular
    # threshold of a basis or a map is fixed, not a Tolerances field
    with pytest.raises(TypeError):
        Tolerances(tol_det=1e-12)
    with pytest.raises(ValueError, match="^unknown tolerance setting 'tol_det=1e-12'$"):
        Tolerances.from_string("tol_det=1e-12")


# each constructor check: same exception class, same message
CHECKS = [
    (lambda: Point(math.nan, 0.0), ValueError, "point components must be finite"),
    (lambda: HomPoint(math.inf, 0.0, 1.0), ValueError, "homogeneous components must be finite"),
    (lambda: HomPoint(0.0, 0.0, 0.0), ValueError, "homogeneous point cannot be the zero triple"),
    (lambda: Line(0.0, 0.0, 1.0), ValueError, "line requires finite (a, b) != (0, 0)"),
    (lambda: Line(1.0, 0.0, math.nan), ValueError, "line requires finite (a, b) != (0, 0)"),
    (lambda: AffineMap(1.0, 0.0, 0.0, math.inf), ValueError, "affine map entries must be finite"),
    (lambda: AffineMap(1.0, 2.0, 2.0, 4.0), SingularMap, "linear part is singular (det=0)"),
    (lambda: Conic(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), ValueError,
     "conic coefficients cannot all vanish"),
    (lambda: Conic(1.0, 0.0, 1.0, 0.0, 0.0, math.nan), ValueError,
     "conic coefficients must be finite"),
    (lambda: EllipseGeo(Point(0.0, 0.0), 0.0, 1.0, 0.0, Point(0.0, 0.0), Point(0.0, 0.0)),
     ValueError, "semi-axes must be positive"),
    (lambda: EllipseGeo(Point(0.0, 0.0), 1.0, 2.0, 0.0, Point(0.0, 0.0), Point(0.0, 0.0)),
     ValueError, "semi_major must be the larger axis"),
    (lambda: EllipseGeo(Point(0.0, 0.0), 2.0, 1.0, 2.0, Point(0.0, 0.0), Point(0.0, 0.0)),
     ValueError, "angle must lie in (-pi/2, pi/2]"),
    (lambda: normal_form(0.5, 0.25), ValueError,
     "normal form requires s > 0, t > 0, s + t > 1"),
    (lambda: TriangleZ(0j, complex(math.nan, 0.0), 1j), ValueError,
     "triangle vertices must be finite"),
    (lambda: TriangleZ(0j, 1 + 1j, 2 + 2j), ValueError, "triangle vertices are collinear"),
    (lambda: AreaTriple(1.0, -1.0, 1.0), ValueError, "sub-triangle areas are unsigned"),
    (lambda: DualConic(((0.0,) * 3,) * 3), ValueError, "matrix cannot be zero or non-finite"),
]


@pytest.mark.parametrize("build, exc, message", CHECKS)
def test_constructor_checks(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("name", Tolerances.__slots__)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_tolerances_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValueError):
        DEFAULT_TOL.replace(**{name: value})
    with pytest.raises(ValueError):
        Tolerances.from_string(f"{name}={value}")


def test_tolerances_replace_and_from_string_read_the_slots():
    tol = DEFAULT_TOL.replace(tol_tan=1e-7)
    assert tol.tol_tan == 1e-7
    assert all(getattr(tol, n) == getattr(DEFAULT_TOL, n)
               for n in Tolerances.__slots__ if n != "tol_tan")
    assert Tolerances.from_string("tol_on=2e-9, tol_par=1e-3") == \
        Tolerances(tol_on=2e-9, tol_par=1e-3)
    with pytest.raises(TypeError):
        DEFAULT_TOL.replace(bogus=1.0)
    with pytest.raises(ValueError, match="unknown tolerance setting"):
        Tolerances.from_string("bogus=1")


@pytest.mark.parametrize("text", ["tol_tan=1e-7,tol_tan=1e-3", "tol_tan=1e-7, tol_tan =1e-7",
                                  "tol_tan=1e-7,tol_on=1e-9,tol_tan=1e-3"])
def test_a_tolerance_set_twice_is_refused(text):
    # the last value won silently
    with pytest.raises(ValueError, match="^tolerance tol_tan is set twice$"):
        Tolerances.from_string(text)


@pytest.mark.parametrize("text", ["tol_tan=", "tol_tan", " tol_tan = ", "tol_on=1e-9,tol_tan="])
def test_known_tolerance_without_a_value_is_reported_missing(text):
    # a known name was reported as an unknown setting
    with pytest.raises(ValueError, match="^missing value for tolerance tol_tan$"):
        Tolerances.from_string(text)
