"""Exception hierarchy for geometric contract violations.

Every operation raises a subclass of :class:`InconicError` when its
preconditions fail; plain ``ValueError`` is reserved for malformed values
(non-finite coordinates, all-zero conics and the like).  Each class names
one meaning: a conic that is not a real ellipse is always
:class:`NotAnEllipse`, and a requested center outside the admissible set
(locus segment, interior chord, the pencil's line of centers, or a
diagonal midpoint) is always a :class:`CenterOffLocus`.  ``cli.main`` is
the one place that maps these classes to the CLI's exit codes.
"""


class InconicError(Exception):
    """Base class for all geometric errors raised by this package."""


class NotConvex(InconicError):
    """Vertices do not bound a strictly convex quadrilateral."""


class DegenerateQuad(InconicError):
    """Repeated vertices or zero-area vertex set."""


class ParallelogramUnsupported(InconicError):
    """Construction requested on a parallelogram (inscribed ellipse not unique)."""


class NotAnEllipse(InconicError):
    """Conic does not classify as a real nondegenerate ellipse, or a
    triangle's weight product is not positive so its tangent conic is not
    one."""


class SingularMap(InconicError):
    """Affine map is not invertible."""


class NotTangent(InconicError):
    """Line is not tangent to the conic."""


class DegeneratePoint(InconicError):
    """Point lies on the focal line: no ellipse through it on the closed
    focal segment, no hyperbola outside it."""


class DegenerateTriangle(InconicError):
    """Collinear triangle vertices, or a center on a side line."""


class DegenerateFoci(InconicError):
    """Focal quadratic degenerates below degree two."""


class AsymptoteContact(InconicError):
    """A pairwise weight sum vanishes: the contact point is at infinity."""


class CenterOffLocus(InconicError):
    """Requested center is not admissible: not strictly inside the open
    locus segment (ellipses), not on the open interior chord of the center
    line (tangent conics), or not on the pencil's line of centers."""


class DegenerateAtMidpoint(CenterOffLocus):
    """Requested center coincides with a diagonal midpoint."""


class NoRealEllipse(InconicError):
    """No real central conic tangent to the three lines has this center."""


class DegenerateConfiguration(InconicError):
    """Lines are not in general position (duplicates or three concurrent)."""


class DegenerateMember(InconicError):
    """The pencil member for this center is a degenerate conic."""


class NumericalFailure(InconicError):
    """A verified post-condition failed numerically."""
