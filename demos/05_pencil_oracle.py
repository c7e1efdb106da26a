"""A second, independent construction: the pencil of dual conics.

A line is tangent to a conic exactly when it lies on the conic's dual, so
"tangent to four fixed lines" is a linear pencil in dual space, spanned by
two degenerate members built from the lines' intersection points.  This
route never mentions foci or weights, which makes it a true cross-check of
the focal construction; as a bonus, the member centers sweep a straight
line, which is precisely the line through the two diagonal midpoints.
"""
import numpy as np

import inconic as ic

quad = ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])
pen = ic.pencil_from_lines(*quad.side_lines())

print("every pencil member is tangent to all four lines:")
for lam in (-2.0, -0.5, 0.0, 0.5, 2.0):
    member = pen.member(lam)
    vals = [abs(member.apply_line(l)) for l in pen.lines]
    print(f"  lambda = {lam:+.1f}: max |l^T D l| = {max(vals):.2e}")

line = ic.centers_line(pen)
m1, m2 = ic.midpoint(quad.v0, quad.v2), ic.midpoint(quad.v1, quad.v3)
print(f"\nline of centers: {line.a:+.4f} x {line.b:+.4f} y {line.c:+.4f} = 0")
print(f"  distance to diagonal midpoint {m1.as_tuple()}: {abs(line.eval(m1)):.2e}")
print(f"  distance to diagonal midpoint {m2.as_tuple()}: {abs(line.eval(m2)):.2e}")

print("\nagreement of the two constructions along the interior chord:")
chord = ic.chord_x(quad)
for u in np.linspace(0.06, 0.94, 8):
    center = chord.point_at(float(u))
    focal, cls, _ = ic.tangent_conic_at_center(quad, center)
    dual = ic.member_with_center(pen, center)
    print(f"  u = {u:.2f}: {cls.value:<9} canonical distance "
          f"{ic.conic_distance(focal, dual):.2e}")
