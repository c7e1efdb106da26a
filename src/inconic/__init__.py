"""Inscribed conics of convex quadrilaterals.

The centers of ellipses inscribed in a convex quadrilateral fill the open
segment between the midpoints of the diagonals (the Newton line of the
quadrilateral).  This package constructs the unique inscribed ellipse for
any center on that segment, finds the unique maximal-area inscribed
ellipse, and extends the construction to tangent hyperbolas for centers on
the interior chord beyond the midpoints.  A dual-conic pencil provides an
independent second construction used for verification.

Importing the package runs only the kernel (``errors``, ``geometry``,
``inscribed``).  The oracles ``marden`` and ``pencil``, the conic tools
and focal-route objects no construction calls (``oracle``), ``area`` and
``svg`` are registered under their own module paths but compiled and run
at their first attribute access, so a command-line process runs only what
its subcommand uses.  Their public names (``max_area``,
``member_with_center``, ``classify_conic``, ...) resolve on first access
to the package.  One table here, ``_LEFT_FOR_ORACLE``, lists the names
that moved from ``geometry`` and ``inscribed`` to ``oracle``; the package
gives both modules a ``__getattr__`` that resolves them the same way.
"""
import importlib.util
import sys


def _load_on_first_use(name: str):
    """``inconic.<name>``, registered in ``sys.modules`` through
    ``LazyLoader``: its code is compiled and run at the first attribute
    access.  The module path stays, as the benchmark's tracer needs it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _forward_on_first_use(namespace: dict, homes: dict):
    """A PEP 562 ``__getattr__`` for the module whose globals are
    ``namespace``: a name in ``homes`` is read from ``inconic.<home>`` and
    bound into ``namespace`` on first access, so that the next lookup is a
    plain one; any other name is an AttributeError."""
    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        return value
    return __getattr__


from . import errors, geometry, inscribed
from .geometry import (
    DEFAULT_TOL,
    AffineMap,
    Conic,
    ConicClass,
    ConvexQuad,
    EllipseGeo,
    HomPoint,
    Line,
    Point,
    QuadKind,
    Tolerances,
    midpoint,
    validate_quad,
)
from .inscribed import (
    ChordX,
    InscribedResult,
    LocusSegment,
    NormalForm,
    chord_x,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    normalize,
    tangent_conic_at_center,
)

marden, pencil, oracle, area, svg = map(_load_on_first_use,
                                        ("marden", "pencil", "oracle", "area", "svg"))

# kernel module -> the public names that left it for ``oracle``, still bound
# there on first access, as the benchmark's tracer wraps them by those paths
_LEFT_FOR_ORACLE = {
    geometry: ("adjugate3", "classify_conic", "conic_distance", "conic_from_ellipse",
               "ellipse_from_conic", "ellipse_from_foci_point", "tangency_point",
               "tangency_residual", "transform_conic", "transform_line"),
    inscribed: ("LocusLine", "WeightTriple", "foci_quadratic", "locus_line",
                "weights_from_center"),
}
geometry.__getattr__, inscribed.__getattr__ = (
    _forward_on_first_use(vars(module), dict.fromkeys(_LEFT_FOR_ORACLE[module], "oracle"))
    for module in (geometry, inscribed))

# public name -> the module loaded on first use that defines it
_ON_FIRST_USE = {
    **dict.fromkeys(("AreaTriple", "TriangleZ", "foci_from_weights", "marden_ellipse",
                     "marden_validity", "stable_quadratic_roots", "tangent_points",
                     "triangle_tangent_ellipse_area"), "marden"),
    **dict.fromkeys(("DualConic", "TangentPencil", "centers_line", "member_with_center",
                     "pencil_from_lines"), "pencil"),
    **{name: "oracle" for names in _LEFT_FOR_ORACLE.values() for name in names},
    **dict.fromkeys(("MaxAreaResult", "area_cubic", "inscribed_area", "max_area"), "area"),
}

__getattr__ = _forward_on_first_use(globals(), _ON_FIRST_USE)


def __dir__():
    return sorted({*globals(), *_ON_FIRST_USE})


__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AreaTriple", "ChordX", "Conic", "ConicClass", "ConvexQuad",
    "DEFAULT_TOL", "DualConic", "EllipseGeo", "HomPoint", "InscribedResult",
    "Line", "LocusLine", "LocusSegment", "MaxAreaResult", "NormalForm",
    "Point", "QuadKind", "TangentPencil", "Tolerances", "TriangleZ",
    "WeightTriple", "area_cubic", "centers_line", "chord_x", "classify_conic",
    "conic_distance", "conic_from_ellipse", "ellipse_from_conic",
    "ellipse_from_foci_point", "errors", "foci_from_weights",
    "foci_quadratic", "inscribe_at_center", "inscribe_at_param",
    "inscribed_area", "locus", "locus_line", "marden_ellipse",
    "marden_validity", "max_area", "member_with_center", "midpoint",
    "normalize", "pencil_from_lines", "stable_quadratic_roots",
    "tangency_point", "tangency_residual", "tangent_conic_at_center",
    "tangent_points", "transform_conic", "transform_line", "validate_quad",
    "weights_from_center",
]
