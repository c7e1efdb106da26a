"""Command-line front-end.

Subcommands: inspect, inscribe, maxarea, verify, sample, render.  JSON goes
to stdout with sorted keys and fixed number formatting; diagnostics go to
stderr.  Exit codes: 0 ok, 1 usage, 2 invalid quadrilateral, 3 center off
the locus/chord, 4 parallelogram, 5 numerical failure, 6 file I/O.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import errors
from .area import max_area
from .fmt import dumps
from .geometry import (
    DEFAULT_TOL,
    Point,
    QuadKind,
    Tolerances,
    conic_distance,
    tangency_residual,
    validate_quad,
)
from .inscribed import (
    ChordX,
    chord_x,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    normalize,
    tangent_conic_at_center,
)
from .pencil import member_with_center, pencil_from_lines
from . import svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_QUAD = 2
EXIT_OFF_LOCUS = 3
EXIT_PARALLELOGRAM = 4
EXIT_NUMERICAL = 5
EXIT_IO = 6

_OFF_LOCUS = (errors.CenterOffLocus, errors.CenterOffChord,
              errors.DegenerateAtMidpoint, errors.CenterOffCentersLine)
_BAD_QUAD = (errors.NotConvex, errors.DegenerateQuad)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="inconic",
                     description="Inscribed conics of convex quadrilaterals.")
    common = _Parser(add_help=False)
    group = common.add_mutually_exclusive_group()
    group.add_argument("--vertices",
                       help='four vertices as "x0,y0 x1,y1 x2,y2 x3,y3"')
    group.add_argument("--input", help='JSON file {"vertices": [[x,y] x4]}')
    common.add_argument("--tol",
                        help='tolerance overrides, e.g. "tol_tan=1e-7,tol_par=1e-8"')

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inspect", parents=[common],
                   help="kind, diagonal midpoints, locus, chord, normal form")

    p_ins = sub.add_parser("inscribe", parents=[common],
                           help="inscribed ellipse at a chosen center")
    sel = p_ins.add_mutually_exclusive_group(required=True)
    sel.add_argument("--center", help='center as "h,k"')
    sel.add_argument("--u", type=float, help="locus parameter in (0,1)")

    sub.add_parser("maxarea", parents=[common],
                   help="the unique maximal-area inscribed ellipse")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="residual report for a chosen center")
    sel = p_ver.add_mutually_exclusive_group(required=True)
    sel.add_argument("--center", help='center as "h,k"')
    sel.add_argument("--u", type=float, help="locus parameter in (0,1)")
    p_ver.add_argument("--allow-hyperbola", action="store_true",
                       help="accept chord centers beyond the diagonal midpoints")

    p_sam = sub.add_parser("sample", parents=[common],
                           help="N inscribed ellipses at u = i/(N+1)")
    p_sam.add_argument("--n", type=int, required=True)

    p_ren = sub.add_parser("render", parents=[common], help="write an SVG")
    p_ren.add_argument("--out", required=True)
    sel = p_ren.add_mutually_exclusive_group()
    sel.add_argument("--center", help='center as "h,k"')
    sel.add_argument("--u", type=float)
    sel.add_argument("--maxarea", action="store_true")
    sel.add_argument("--n", type=int)
    return parser


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _center_point(text: str) -> Point:
    try:
        return Point(*_parse_pair(text))
    except ValueError as exc:
        print(f"bad --center value: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_vertices(args) -> list[tuple[float, float]]:
    if args.vertices:
        chunks = args.vertices.split()
        if len(chunks) != 4:
            raise ValueError("expected four 'x,y' vertex pairs")
        return [_parse_pair(c) for c in chunks]
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        verts = data.get("vertices") if isinstance(data, dict) else None
        if (not isinstance(verts, list) or len(verts) != 4
                or not all(isinstance(v, list) and len(v) == 2 for v in verts)):
            raise errors.DegenerateQuad('input must be {"vertices": [[x,y] x 4]}')
        return [(float(v[0]), float(v[1])) for v in verts]
    raise SystemExit(EXIT_USAGE)


def _tolerances(args) -> Tolerances:
    tol = DEFAULT_TOL
    env = os.environ.get("INCONIC_TOL")
    if env:
        tol = Tolerances.from_string(env, tol)
    if getattr(args, "tol", None):
        tol = Tolerances.from_string(args.tol, tol)
    return tol


def _hom_triple(hp) -> list[float]:
    return [hp.x, hp.y, hp.w]


def _ellipse_output(result, classification: str = "ellipse") -> dict:
    e = result.ellipse
    return {
        "center": [e.center.x, e.center.y],
        "semi_major": e.semi_major,
        "semi_minor": e.semi_minor,
        "angle_rad": e.angle,
        "foci": [[e.focus1.x, e.focus1.y], [e.focus2.x, e.focus2.y]],
        "conic": list(result.conic.coefficients()),
        "tangencies": [_hom_triple(t) for t in result.tangencies],
        "area": e.area,
        "classification": classification,
    }


def _resolve_center(q, args, tol) -> Point:
    if args.center is not None:
        return _center_point(args.center)
    u = args.u
    if not (0 < u < 1):
        raise errors.CenterOffLocus("parameter u must be in (0,1)")
    return locus(q).point_at(u)


def cmd_inspect(args) -> int:
    tol = _tolerances(args)
    q = validate_quad(_load_vertices(args), tol)
    seg = locus(q)
    doc = {
        "kind": q.kind.value,
        "M1": [seg.m1.x, seg.m1.y],
        "M2": [seg.m2.x, seg.m2.y],
        "locus_param_range": None,
        "chord_x": None,
        "normal_form": None,
        "s": None,
        "t": None,
    }
    if q.kind is not QuadKind.PARALLELOGRAM:
        nf = normalize(q, tol)
        lo, hi = nf.interval()
        ch = chord_x(q, tol)
        doc.update({
            "locus_param_range": [lo, hi],
            "chord_x": [[ch.p_start.x, ch.p_start.y], [ch.p_end.x, ch.p_end.y]],
            "normal_form": {"s": nf.s, "t": nf.t},
            "s": nf.s,
            "t": nf.t,
        })
    print(dumps(doc))
    return EXIT_OK


def cmd_inscribe(args) -> int:
    tol = _tolerances(args)
    q = validate_quad(_load_vertices(args), tol)
    if args.center is not None:
        result = inscribe_at_center(q, _center_point(args.center), tol)
    else:
        result = inscribe_at_param(q, args.u, tol)
    print(dumps(_ellipse_output(result)))
    return EXIT_OK


def cmd_maxarea(args) -> int:
    tol = _tolerances(args)
    q = validate_quad(_load_vertices(args), tol)
    res = max_area(q, tol)
    doc = _ellipse_output(res.inscribed)
    doc.update({"h0": res.h0})
    print(dumps(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    q = validate_quad(_load_vertices(args), tol)
    center = _resolve_center(q, args, tol)
    lines = q.side_lines()
    marden_distance = None
    try:
        result = inscribe_at_center(q, center, tol)
        conic = result.conic
        classification = "ellipse"
        pen = pencil_from_lines(*lines, tol=tol)
        marden_distance = conic_distance(conic, member_with_center(pen, center, tol))
    except _OFF_LOCUS:
        if not args.allow_hyperbola:
            raise
        conic, classification_enum, _ = tangent_conic_at_center(q, center, tol)
        classification = classification_enum.value
    residuals = [tangency_residual(conic, line) for line in lines]
    got = conic.center(tol)
    center_error = math.hypot(got.x - center.x, got.y - center.y)
    doc = {
        "tangency_residuals": residuals,
        "center_error": center_error,
        "marden_vs_pencil_distance": marden_distance,
        "classification": classification,
    }
    print(dumps(doc))
    failures = []
    if any(r >= tol.tol_tan for r in residuals):
        failures.append("tangency_residuals")
    if center_error >= 1e-9 * (1 + locus(q).length()):
        failures.append("center_error")
    if marden_distance is not None and marden_distance >= 1e-8:
        failures.append("marden_vs_pencil_distance")
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sample(args) -> int:
    tol = _tolerances(args)
    if args.n < 1:
        raise SystemExit(EXIT_USAGE)
    q = validate_quad(_load_vertices(args), tol)
    outputs = []
    for i in range(1, args.n + 1):
        result = inscribe_at_param(q, i / (args.n + 1), tol)
        outputs.append(_ellipse_output(result))
    print(dumps(outputs))
    return EXIT_OK


def cmd_render(args) -> int:
    tol = _tolerances(args)
    q = validate_quad(_load_vertices(args), tol)
    seg = locus(q)
    chord: ChordX | None = None
    if q.kind is not QuadKind.PARALLELOGRAM:
        chord = chord_x(q, tol)
    results = []
    if args.maxarea:
        results.append(max_area(q, tol).inscribed)
    elif args.center is not None:
        results.append(inscribe_at_center(q, _center_point(args.center), tol))
    elif args.u is not None:
        results.append(inscribe_at_param(q, args.u, tol))
    elif args.n is not None:
        if args.n < 1:
            raise SystemExit(EXIT_USAGE)
        for i in range(1, args.n + 1):
            results.append(inscribe_at_param(q, i / (args.n + 1), tol))
    ellipses = [r.ellipse for r in results]
    contacts = [t.to_point(tol) for r in results for t in r.tangencies
                if not t.is_infinite(tol)]
    text = svg.scene(q.vertices, seg, chord, ellipses, contacts)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


_COMMANDS = {
    "inspect": cmd_inspect,
    "inscribe": cmd_inscribe,
    "maxarea": cmd_maxarea,
    "verify": cmd_verify,
    "sample": cmd_sample,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _BAD_QUAD as exc:
        print(f"invalid quadrilateral: {exc}", file=sys.stderr)
        return EXIT_BAD_QUAD
    except _OFF_LOCUS as exc:
        print(f"center not admissible: {exc}", file=sys.stderr)
        return EXIT_OFF_LOCUS
    except errors.ParallelogramUnsupported as exc:
        print(f"parallelogram: {exc}", file=sys.stderr)
        return EXIT_PARALLELOGRAM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_QUAD
    except errors.InconicError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())
