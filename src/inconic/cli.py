"""Command-line front-end.

Subcommands: inspect, inscribe, maxarea, verify, sample, render.  JSON goes
to stdout with sorted keys and fixed number formatting; diagnostics go to
stderr.  Exit codes: 0 ok, 1 usage, 2 invalid quadrilateral, 3 center off
the locus/chord, 4 parallelogram, 5 numerical failure, 6 file I/O.  argparse
checks every argument, so a usage error exits 1 before the quadrilateral is
read; each subparser carries its handler (``run``), and ``main`` maps every
other error to its code in one place.  Every subcommand that builds
ellipses picks them in ``_results``, by ``--maxarea``, ``--center``,
``--u`` or ``--n``.
"""
from __future__ import annotations

import argparse
import math
import re
import sys

from . import area, errors, oracle, pencil, svg
from .fmt import dumps, ellipse_json
from .geometry import AffineMap, ConvexQuad, Point, QuadKind, Tolerances, validate_quad
from .inscribed import (
    chord_x,
    inscribe_at_center,
    inscribe_at_param,
    locus,
    normalize,
    tangent_conic_at_center,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_QUAD = 2
EXIT_OFF_LOCUS = 3
EXIT_PARALLELOGRAM = 4
EXIT_NUMERICAL = 5
EXIT_IO = 6


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1; a token such as
    -3,-2.25 or -1e-3 ("-", then a digit or ".") is read as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="inconic",
                     description="Inscribed conics of convex quadrilaterals.")
    # the selectors _results reads, for the subcommands that lack some
    parser.set_defaults(center=None, u=None, maxarea=False, n=None)
    common = _Parser(add_help=False)
    group = common.add_mutually_exclusive_group(required=True)
    group.add_argument("--vertices",
                       help='four vertices as "x0,y0 x1,y1 x2,y2 x3,y3"')
    group.add_argument("--input", help='JSON file {"vertices": [[x,y] x4]}')
    common.add_argument("--tol",
                        help='tolerance overrides, e.g. "tol_tan=1e-7,tol_par=1e-8"')
    chosen = _Parser(add_help=False)
    sel = chosen.add_mutually_exclusive_group(required=True)
    sel.add_argument("--center", type=_center, help='center as "h,k"')
    sel.add_argument("--u", type=_param, help="locus parameter in (0,1)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inspect", parents=[common],
                   help="kind, diagonal midpoints, locus, chord, normal form"
                   ).set_defaults(run=cmd_inspect)
    sub.add_parser("inscribe", parents=[common, chosen],
                   help="inscribed ellipse at a chosen center").set_defaults(run=cmd_inscribe)
    sub.add_parser("maxarea", parents=[common],
                   help="the unique maximal-area inscribed ellipse"
                   ).set_defaults(run=cmd_inscribe, maxarea=True)

    p_ver = sub.add_parser("verify", parents=[common, chosen],
                           help="residual report for a chosen center")
    p_ver.add_argument("--allow-hyperbola", action="store_true",
                       help="accept chord centers beyond the diagonal midpoints")
    p_ver.set_defaults(run=cmd_verify)

    p_sam = sub.add_parser("sample", parents=[common],
                           help="N inscribed ellipses at u = i/(N+1)")
    p_sam.add_argument("--n", type=_count, required=True)
    p_sam.set_defaults(run=cmd_sample)

    p_ren = sub.add_parser("render", parents=[common], help="write an SVG")
    p_ren.add_argument("--out", required=True)
    sel = p_ren.add_mutually_exclusive_group()
    sel.add_argument("--center", type=_center, help='center as "h,k"')
    sel.add_argument("--u", type=_param)
    sel.add_argument("--maxarea", action="store_true")
    sel.add_argument("--n", type=_count)
    p_ren.set_defaults(run=cmd_render)
    return parser


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _center(text: str) -> Point:
    """``--center "h,k"``; argparse reports a bad value as a usage error."""
    try:
        return Point(*_parse_pair(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _checked(kind, ok, rule: str):
    """An argparse type: the text read as kind, a usage error unless ok."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_count = _checked(int, lambda n: n >= 1, "must be at least 1")  # --n
_param = _checked(float, math.isfinite, "must be finite")  # --u; inside (0, 1) is checked later


def _load_vertices(args) -> list[tuple[float, float]]:
    if args.vertices is not None:
        chunks = args.vertices.split()
        if len(chunks) != 4:
            raise ValueError("expected four 'x,y' vertex pairs")
        return [_parse_pair(c) for c in chunks]
    import json
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    verts = data.get("vertices") if isinstance(data, dict) else None
    if (isinstance(verts, list) and len(verts) == 4
            and all(isinstance(v, list) and len(v) == 2  # JSON numbers, not bool
                    and all(type(c) in (int, float) for c in v) for v in verts)):
        try:
            return [(float(v[0]), float(v[1])) for v in verts]
        except OverflowError:  # an integer too large for a float
            pass
    raise ValueError('input must be {"vertices": [[x,y] x 4]}')


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances.from_string(args.tol or "")
    except ValueError as exc:
        print(f"bad --tol value: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_inspect(args, q: ConvexQuad, tol: Tolerances) -> int:
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
        nf = normalize(q)
        lo, hi = nf.interval
        ch = chord_x(q)
        doc.update({
            "locus_param_range": [lo, hi],
            "chord_x": [[ch.p_start.x, ch.p_start.y], [ch.p_end.x, ch.p_end.y]],
            "normal_form": {"s": nf.s, "t": nf.t},
            "s": nf.s,
            "t": nf.t,
        })
    print(dumps(doc))
    return EXIT_OK


def _results(args, q: ConvexQuad, tol: Tolerances):
    """The (result, h0) pairs the selector names, h0 the max-area abscissa
    or None: ``--maxarea``, ``--center``, ``--u``, else each of ``--n``'s
    members as it is built; none without a selector."""
    if args.maxarea:
        best = area.max_area(q, tol)
        yield best.inscribed, best.h0
    elif args.center is not None:
        yield inscribe_at_center(q, args.center, tol), None
    elif args.u is not None:
        yield inscribe_at_param(q, args.u, tol), None
    elif args.n is not None:
        for i in range(1, args.n + 1):
            yield inscribe_at_param(q, i / (args.n + 1), tol), None


def cmd_inscribe(args, q: ConvexQuad, tol: Tolerances) -> int:
    ((result, h0),) = _results(args, q, tol)
    print(ellipse_json(result, h0))
    return EXIT_OK


def _pencil_member(q, center: Point):
    """The pencil oracle's conic with the given center, built in a
    similarity frame and mapped back: q translated to q.v0 and divided by
    its extent e, the larger of its x and y spans.  Built in place, the
    pencil's unit-norm duals carry the offset in their entries: on the
    worked quad the member is 3e-13 from the focal conic 1e3 extents out,
    3e-10 at 1e6, and its center equations read as degenerate from 1e7."""
    x0, y0 = q.v0.x, q.v0.y
    xs, ys = [v.x for v in q.vertices], [v.y for v in q.vertices]
    e = max(max(xs) - min(xs), max(ys) - min(ys))
    shifted = ConvexQuad(*(Point((v.x - x0) / e, (v.y - y0) / e) for v in q.vertices), q.kind)
    member = pencil.member_with_center(pencil.pencil_from_lines(*shifted.side_lines()),
                                       Point((center.x - x0) / e, (center.y - y0) / e))
    return oracle.transform_conic(member, AffineMap(e, 0.0, 0.0, e, x0, y0))


def cmd_verify(args, q: ConvexQuad, tol: Tolerances) -> int:
    lines = q.side_lines()
    classification = "ellipse"
    try:
        ((result, _),) = _results(args, q, tol)
        conic = result.conic
        center = result.ellipse.center if args.center is None else args.center
    except errors.CenterOffLocus:
        if args.center is None or not args.allow_hyperbola:
            raise
        center = args.center
        conic, classification_enum, _ = tangent_conic_at_center(q, center, tol)
        classification = classification_enum.value
    marden_distance = oracle.conic_distance(conic, _pencil_member(q, center))
    residuals = [oracle.tangency_residual(conic, line) for line in lines]
    got = conic.center()
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
    if marden_distance >= 1e-8:
        failures.append("marden_vs_pencil_distance")
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sample(args, q: ConvexQuad, tol: Tolerances) -> int:
    # each record is written as its ellipse is built; a failure at any
    # member raises before anything is printed
    records = [ellipse_json(result, h0) for result, h0 in _results(args, q, tol)]
    print("[" + ",".join(records) + "]")
    return EXIT_OK


def cmd_render(args, q: ConvexQuad, tol: Tolerances) -> int:
    seg = locus(q)
    chord = None if q.kind is QuadKind.PARALLELOGRAM else chord_x(q)
    results = [result for result, _ in _results(args, q, tol)]
    ellipses = [r.ellipse for r in results]
    contacts = [t.to_point() for r in results for t in r.tangencies
                if not t.is_infinite()]
    text = svg.scene(q.vertices, seg, chord, ellipses, contacts)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    """Parse, read the tolerances and the quad, run the command; the one
    place where an error becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        tol = _tolerances(args)
        q = validate_quad(_load_vertices(args), tol)
        return args.run(args, q, tol)
    except SystemExit as exc:  # usage, already reported on stderr
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (errors.NotConvex, errors.DegenerateQuad) as exc:
        print(f"invalid quadrilateral: {exc}", file=sys.stderr)
        return EXIT_BAD_QUAD
    except errors.CenterOffLocus as exc:
        print(f"center not admissible: {exc}", file=sys.stderr)
        return EXIT_OFF_LOCUS
    except errors.ParallelogramUnsupported as exc:
        print(f"parallelogram: {exc}", file=sys.stderr)
        return EXIT_PARALLELOGRAM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except errors.InconicError as exc:  # fmt.NonFiniteNumber included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_QUAD


def run() -> None:
    sys.exit(main())
