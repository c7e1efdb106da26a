"""Inscribed conics of convex quadrilaterals.

The centers of ellipses inscribed in a convex quadrilateral fill the open
segment between the midpoints of the diagonals (the Newton line of the
quadrilateral).  This package constructs the unique inscribed ellipse for
any center on that segment, finds the unique maximal-area inscribed
ellipse, and extends the construction to tangent hyperbolas for centers on
the interior chord beyond the midpoints.  A dual-conic pencil provides an
independent second construction used for verification.
"""

from . import errors
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
    classify_conic,
    conic_distance,
    conic_from_ellipse,
    ellipse_from_conic,
    ellipse_from_foci_point,
    midpoint,
    tangency_point,
    tangency_residual,
    transform_conic,
    transform_line,
    validate_quad,
)
from .marden import (
    AreaTriple,
    TriangleZ,
    foci_from_weights,
    marden_ellipse,
    marden_validity,
    stable_quadratic_roots,
    tangent_points,
    triangle_tangent_ellipse_area,
)
from .pencil import (
    DualConic,
    TangentPencil,
    centers_line,
    member_with_center,
    pencil_from_lines,
)
from .inscribed import (
    ChordX,
    InscribedResult,
    LocusLine,
    LocusSegment,
    NormalForm,
    WeightTriple,
    chord_x,
    foci_quadratic,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    locus_line,
    normalize,
    tangent_conic_at_center,
    weights_from_center,
)
from .area import (
    MaxAreaResult,
    area_cubic,
    inscribed_area,
    max_area,
)

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
