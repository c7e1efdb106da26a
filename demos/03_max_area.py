"""The unique maximal-area inscribed ellipse.

Along the center segment the squared area is proportional to the cubic
(s-2h)(2h-1)(s+2h(t-1)), which vanishes at both ends and has a single
interior critical point: a unique maximum, and no minimum (the infimum 0
is never attained).
"""
import numpy as np

import inconic as ic

for vertices in ([(0, 0), (1, 0), (4, 2), (0, 1)],
                 [(0, 0), (1, 0), (3, 2), (0, 1)],
                 [(0, 0), (2, 0), (2, 2), (0, 1)]):
    quad = ic.validate_quad(vertices)
    res = ic.max_area(quad)
    print(f"{vertices} ({quad.kind.value})")
    print(f"  max-area center ({res.center.x:.9f}, {res.center.y:.9f}), "
          f"area {res.area:.9f}")

quad = ic.validate_quad([(0, 0), (1, 0), (4, 2), (0, 1)])
nf = ic.normalize(quad)
lo, hi = nf.interval
print(f"\narea profile over the open abscissa interval ({lo:g}, {hi:g}):")
for hval in np.linspace(lo + 0.05, hi - 0.05, 12):
    area = ic.inscribed_area(nf, float(hval))
    bar = "#" * int(40 * area / 2.1)
    print(f"  h = {hval:.3f}  {area:.5f}  {bar}")
print("note the single hump and the collapse toward both ends")
