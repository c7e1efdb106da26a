"""Minimal SVG 1.1 scene writer for quadrilaterals and their conics.

Coordinates are emitted in user units exactly as computed (the SVG y axis
points down, so scenes appear vertically mirrored relative to the usual
math orientation; the numbers themselves are untouched).
"""
from __future__ import annotations

import math

from .fmt import fmt_number as _f
from .geometry import EllipseGeo, Point
from .inscribed import ChordX, LocusSegment


def _bbox(points, ellipses):
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    for e in ellipses:
        xs.extend([e.center.x - e.semi_major, e.center.x + e.semi_major])
        ys.extend([e.center.y - e.semi_major, e.center.y + e.semi_major])
    return min(xs), min(ys), max(xs), max(ys)


def scene(quad_vertices, seg: LocusSegment, chord: ChordX | None,
          ellipses: list[EllipseGeo], tangency_points: list[Point]) -> str:
    """Assemble the SVG document for one quadrilateral scene."""
    pts = list(quad_vertices) + [seg.m1, seg.m2]
    if chord is not None:
        pts += [chord.p_start, chord.p_end]
    x0, y0, x1, y1 = _bbox(pts, ellipses)
    w, h = x1 - x0, y1 - y0
    pad = 0.05 * max(w, h)
    vx, vy = x0 - pad, y0 - pad
    vw, vh = w + 2 * pad, h + 2 * pad
    stroke = 0.008 * max(vw, vh)
    dot = 1.5 * stroke

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(vx)} {_f(vy)} {_f(vw)} {_f(vh)}">',
    ]
    corner_list = " ".join(f"{_f(p.x)},{_f(p.y)}" for p in quad_vertices)
    parts.append(f'<polygon points="{corner_list}" fill="none" '
                 f'stroke="black" stroke-width="{_f(stroke)}"/>')
    if chord is not None:
        parts.append(
            f'<line x1="{_f(chord.p_start.x)}" y1="{_f(chord.p_start.y)}" '
            f'x2="{_f(chord.p_end.x)}" y2="{_f(chord.p_end.y)}" '
            f'stroke="gray" stroke-width="{_f(stroke)}" '
            f'stroke-dasharray="{_f(4 * stroke)} {_f(2 * stroke)}"/>')
    parts.append(
        f'<line x1="{_f(seg.m1.x)}" y1="{_f(seg.m1.y)}" '
        f'x2="{_f(seg.m2.x)}" y2="{_f(seg.m2.y)}" '
        f'stroke="blue" stroke-width="{_f(1.5 * stroke)}"/>')
    for e in ellipses:
        deg = math.degrees(e.angle)
        parts.append(
            f'<ellipse cx="{_f(e.center.x)}" cy="{_f(e.center.y)}" '
            f'rx="{_f(e.semi_major)}" ry="{_f(e.semi_minor)}" '
            f'transform="rotate({_f(deg)} {_f(e.center.x)} {_f(e.center.y)})" '
            f'fill="none" stroke="crimson" stroke-width="{_f(stroke)}"/>')
    for p in tangency_points:
        parts.append(f'<circle cx="{_f(p.x)}" cy="{_f(p.y)}" r="{_f(dot)}" '
                     f'fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
