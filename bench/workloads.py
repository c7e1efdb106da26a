"""Seeded inputs, timed calls and output checks of the four workloads.

Every workload is one pass of calls (``Workload.ops``) that the worker
repeats in a closed loop: one caller, the next call starts when the
previous one returns.  The inputs come only from the seed.  The two sweeps
also carry a conditioning set (``Workload.far_quads``): one quadrilateral in
eight is pushed through a random similarity map of scale 10^U(-6,6) and
offset up to 10^6 times its extent.  Those quadrilaterals sit inside the
domain the package documents, but many of their calls raise at this
commit, so they are run once outside the timed loop and their outcome is
the ``ok_share`` metric instead of a failure of the timed calls.
The thin trapezia, with a pair of opposite sides nearly parallel, join
that set unmapped: there too absolute thresholds (ROADMAP item 3) can make
a call fail.  ``chord_verify`` has a conditioning set of the same kind
(``Workload.edge_ops``): every center of a thin trapezium, and the centers
close to a diagonal midpoint, where the tangent conic degenerates and its
classification's absolute threshold can call it degenerate.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inconic as ic
from inconic import cli
from reference import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"

K_PARAMS = 9          # evenly spaced locus parameters per quad, u = k/(K+1)
FAR_EVERY = 8         # one quad in eight goes to the conditioning set
CHORD_CENTERS = 16    # evenly spaced centers along the interior chord
EDGE_PARALLEL = 0.05  # |sin| between opposite sides below which a trapezium
                      # is thin and goes to the conditioning set
EDGE_GAP = 0.005      # chord parameter distance to a diagonal midpoint below
                      # which a chord_verify center goes there too
QUADS = {"trapezium_sweep": 1024, "trapezoid_maxarea": 96, "chord_verify": 128}

# The fixed CLI script: (kind, argv), run in a seeded order.  sample runs
# three times so that the slowest subcommand still gets enough samples in a run.
WORKED = "0,0 1,0 3,2 0,1"
TRAPEZOID = "0,0 2,0 1.5,1 0,1"
SAMPLE_N = 1000
RENDER_N = 20


class CliExit(Exception):
    """A CLI invocation exited with a nonzero code."""


@dataclass(frozen=True)
class Op:
    """One timed call: ``fn(*args)``; ``expect`` feeds the output check."""

    kind: str
    fn: Callable
    args: tuple
    expect: object = None


@dataclass
class Workload:
    name: str
    ops: list            # one pass of timed calls
    call_kinds: tuple    # the light, frequent calls: call_rel_p50
    task_kinds: tuple    # the heavy whole-quad task: task_rel_p50
                         # (each a geometric mean of per-kind medians)
    inputs: dict
    reference: Callable                             # timed before every call
    far_quads: list = field(default_factory=list)   # (raw vertices, kind), untimed:
                                                    # far-mapped and thin quads
    edge_ops: list = field(default_factory=list)    # chord_verify ops, untimed
    inproc_ops: list | None = None                  # cli_session, traced run
    scratch: Path | None = None


def api(name: str) -> Callable:
    """Call ``inconic.<name>`` looked up at call time, so that the traced
    run's rebinding of the package namespace is seen."""
    def call(*args):
        return getattr(ic, name)(*args)
    call.__name__ = name
    return call


def reference_process() -> None:
    """The reference for a CLI invocation (see ``reference``).  Processes
    are waited for without a timeout, which would poll at up to 50 ms
    intervals; run.py's watchdog ends a worker that hangs."""
    subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, check=True)


def crosscheck(q, center) -> float:
    """The focal-vs-pencil comparison ``inconic verify`` makes."""
    focal = ic.inscribe_at_center(q, center).conic
    oracle = ic.member_with_center(ic.pencil_from_lines(*q.side_lines()), center)
    return ic.conic_distance(focal, oracle)


# --------------------------------------------------------------------------
# Random quadrilaterals (rejection sampling as in the test fixtures)
# --------------------------------------------------------------------------

_REJECT = (ic.errors.InconicError, ValueError)


def _convex_quad(rng):
    while True:
        pts = rng.uniform(0.0, 10.0, size=(4, 2))
        c = pts.mean(axis=0)
        pts = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]
        raw = [tuple(map(float, p)) for p in pts]
        try:
            return raw, ic.validate_quad(raw)
        except _REJECT:
            continue


def _min_opposite_cross(q) -> float:
    v = q.vertices
    dirs = []
    for i in range(4):
        dx, dy = v[(i + 1) % 4].x - v[i].x, v[(i + 1) % 4].y - v[i].y
        n = math.hypot(dx, dy)
        dirs.append((dx / n, dy / n))
    return min(abs(dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0])
               for i, j in ((0, 2), (1, 3)))


def random_trapezium(rng, min_parallel=1e-3):
    """No parallel sides, every opposite pair at least min_parallel apart."""
    while True:
        raw, q = _convex_quad(rng)
        if q.kind is ic.QuadKind.TRAPEZIUM and _min_opposite_cross(q) > min_parallel:
            return raw, q


def random_trapezoid(rng):
    """Affine image of (0,0), (1,0), (s,1), (0,1) by a well-conditioned map."""
    while True:
        s = rng.uniform(0.3, 3.0)
        if abs(s - 1) < 0.05:
            continue
        m = rng.uniform(-2.0, 2.0, size=4)
        if abs(m[0] * m[3] - m[1] * m[2]) < 0.2:
            continue
        t = rng.uniform(-5.0, 5.0, size=2)
        raw = [(float(m[0] * x + m[1] * y + t[0]), float(m[2] * x + m[3] * y + t[1]))
               for x, y in ((0.0, 0.0), (1.0, 0.0), (s, 1.0), (0.0, 1.0))]
        q = ic.validate_quad(raw)
        if q.kind is ic.QuadKind.TRAPEZOID:
            return raw, q


def far_map(raw, rng):
    """Similarity image: scale 10^U(-6,6), a rotation, and an offset of
    10^U(0,6) times the scaled extent in a random direction."""
    pts = np.array(raw)
    center = pts.mean(axis=0)
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    theta = rng.uniform(0.0, 2 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    extent = scale * float(np.ptp(pts, axis=0).max())
    phi = rng.uniform(0.0, 2 * math.pi)
    offset = extent * 10.0 ** rng.uniform(0.0, 6.0) * np.array([math.cos(phi), math.sin(phi)])
    mapped = (scale * (pts - center)) @ rot.T + offset
    return [tuple(map(float, p)) for p in mapped]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _min_s_gap(quads) -> float:
    return min(abs(ic.normalize(q).s - 1) for q in quads)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _sweep(name, gen, seed) -> Workload:
    rng = np.random.default_rng(seed)
    ops, far_quads, timed_quads, raws = [], [], [], []
    far_count = 0
    for i in range(QUADS[name]):
        raw, q = gen(rng)
        if i % FAR_EVERY == FAR_EVERY - 1:
            far = far_map(raw, rng)
            far_quads.append((far, q.kind))
            raws.append(far)
            far_count += 1
            continue
        raws.append(raw)
        if q.kind is ic.QuadKind.TRAPEZIUM and _min_opposite_cross(q) < EDGE_PARALLEL:
            far_quads.append((raw, q.kind))
            continue
        timed_quads.append(q)
        ops.append(Op("validate", api("validate_quad"), (raw,), q.kind))
        ops.extend(quad_calls(q))
    inputs = {
        "quads": len(raws), "timed_quads": len(timed_quads),
        "far_mapped_quads": far_count, "far_share": far_count / len(raws),
        "thin_quads": len(far_quads) - far_count,
        "kinds": dict(Counter(q.kind.value for q in timed_quads)), "min_abs_s_minus_1": _min_s_gap(timed_quads),
        "params_per_quad": K_PARAMS, "digest": _digest(raws),
    }
    return Workload(name, ops, ("inscribe",), ("maxarea",), inputs, reference,
                    far_quads=far_quads)


def _chord_verify(seed) -> Workload:
    rng = np.random.default_rng(seed)
    ops, edge_ops, raws, quads = [], [], [], []
    inside_count = 0
    for _ in range(QUADS["chord_verify"]):
        raw, q = random_trapezium(rng)
        raws.append(raw)
        quads.append(q)
        chord, seg = ic.chord_x(q), ic.locus(q)
        ua, ub = sorted(_chord_param(chord, m) for m in (seg.m1, seg.m2))
        thin = _min_opposite_cross(q) < EDGE_PARALLEL
        for j in range(CHORD_CENTERS):
            u = (j + 0.5) / CHORD_CENTERS
            center = chord.point_at(u)
            inside = ua < u < ub
            calls = [Op("tangent", api("tangent_conic_at_center"), (q, center), inside)]
            if inside:
                inside_count += 1
                calls.append(Op("crosscheck", crosscheck, (q, center)))
            edge = thin or min(abs(u - ua), abs(u - ub)) < EDGE_GAP
            (edge_ops if edge else ops).extend(calls)
    inputs = {
        "quads": len(raws), "kinds": {"trapezium": len(raws)},
        "far_share": 0.0, "min_abs_s_minus_1": _min_s_gap(quads),
        "centers": len(raws) * CHORD_CENTERS, "centers_inside_locus": inside_count,
        "edge_centers": sum(op.kind == "tangent" for op in edge_ops),
        "digest": _digest(raws),
    }
    return Workload("chord_verify", ops, ("tangent",), ("crosscheck",), inputs, reference,
                    edge_ops=edge_ops)


def _chord_param(chord, p) -> float:
    dx, dy = chord.p_end.x - chord.p_start.x, chord.p_end.y - chord.p_start.y
    return ((p.x - chord.p_start.x) * dx + (p.y - chord.p_start.y) * dy) / (dx * dx + dy * dy)


def _cli_env() -> dict:
    env = dict(os.environ)
    env.pop("INCONIC_TOL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


cli_peak_rss_kb = 0    # the largest peak resident memory of a CLI process so far


def cli_process(*argv) -> str:
    """One fresh ``python -m inconic`` process; returns its stdout.  The
    process is reaped with ``os.wait4``, which gives its own peak resident
    memory, apart from that of any other child such as the reference."""
    global cli_peak_rss_kb
    with tempfile.TemporaryFile(dir=RUN_DIR) as err:
        proc = subprocess.Popen([sys.executable, "-m", "inconic", *argv],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=_CLI_ENV)
        with proc.stdout:
            out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cli_peak_rss_kb = max(cli_peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            err.seek(0)
            raise CliExit(f"exit {proc.returncode}: {err.read().decode().strip()[:200]}")
    return out


def cli_inprocess(*argv) -> str:
    """``inconic.cli.main(argv)`` in this process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


_CLI_ENV = _cli_env()


def _cli_session(seed) -> Workload:
    rng = np.random.default_rng(seed)
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=RUN_DIR))
    svg_path = str(scratch / "scene.svg")
    script = [
        ("cli_inspect", ("inspect", "--vertices", WORKED)),
        ("cli_verify", ("verify", "--vertices", WORKED, "--u", "0.37")),
        *[("cli_sample", ("sample", "--vertices", WORKED, "--n", str(SAMPLE_N)))] * 3,
        ("cli_maxarea", ("maxarea", "--vertices", TRAPEZOID)),
        ("cli_render", ("render", "--vertices", WORKED, "--n", str(RENDER_N),
                        "--out", svg_path)),
    ]
    ops = [Op(script[i][0], cli_process, script[i][1], svg_path)
           for i in rng.permutation(len(script))]
    inproc = [Op(op.kind, cli_inprocess, op.args, op.expect) for op in ops]
    inputs = {"invocations_per_pass": len(ops), "kinds": dict(Counter(op.kind for op in ops)),
              "far_share": 0.0,
              "digest": _digest([str(op.args).replace(svg_path, "OUT") for op in ops])}
    light = ("cli_inspect", "cli_verify", "cli_maxarea", "cli_render")
    return Workload("cli_session", ops, light, ("cli_sample",), inputs, reference_process,
                    inproc_ops=inproc, scratch=scratch)


BY_NAME = {
    "trapezium_sweep": lambda seed: _sweep("trapezium_sweep", random_trapezium, seed),
    "trapezoid_maxarea": lambda seed: _sweep("trapezoid_maxarea", random_trapezoid, seed),
    "chord_verify": _chord_verify,
    "cli_session": _cli_session,
}


# --------------------------------------------------------------------------
# Output checks: None when the result is right, else the reason it is wrong
# --------------------------------------------------------------------------

def check(op: Op, result) -> str | None:
    return _CHECKS[op.kind](op, result)


def _check_validate(op, q):
    return None if q.kind is op.expect else f"kind {q.kind.value}, expected {op.expect.value}"


def _check_inscribe(op, r):
    q, u = op.args
    seg = ic.locus(q)
    if max(ic.tangency_residual(r.conic, line) for line in q.side_lines()) >= ic.DEFAULT_TOL.tol_tan:
        return "tangency residual"
    want, got = seg.point_at(u), r.conic.center()
    if math.hypot(got.x - want.x, got.y - want.y) > 1e-9 * (1 + seg.length()):
        return "center error"
    return None


def _check_maxarea(op, r):
    (q,) = op.args
    seg = ic.locus(q)
    dx, dy = seg.m2.x - seg.m1.x, seg.m2.y - seg.m1.y
    u0 = ((r.center.x - seg.m1.x) * dx + (r.center.y - seg.m1.y) * dy) / (dx * dx + dy * dy)
    for u in (u0 - 0.01, u0 + 0.01):
        if not 0 < u < 1:
            continue
        try:
            neighbour = ic.inscribe_at_param(q, u).ellipse.area
        except (ic.errors.InconicError, ValueError) as exc:
            return f"neighbour at u0 +- 0.01 raised {type(exc).__name__}"
        if r.area < neighbour:
            return "area below a neighbour"
    return None


def _check_tangent(op, r):
    want = ic.ConicClass.REAL_ELLIPSE if op.expect else ic.ConicClass.HYPERBOLA
    return None if r[1] is want else f"class {r[1].value}, expected {want.value}"


def _check_crosscheck(op, distance):
    return None if distance < 1e-8 else "focal-vs-pencil distance"


def _check_cli_json(op, out):
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if op.kind == "cli_sample" and len(doc) != SAMPLE_N:
        return f"sample returned {len(doc)} entries"
    return None


def _check_cli_render(op, out):
    try:
        text = Path(op.expect).read_text(encoding="utf-8")
    except OSError:
        return "no SVG written"
    if not text.startswith("<?xml") or text.count("<ellipse") != RENDER_N:
        return "SVG lacks the ellipses"
    return None


_CHECKS = {
    "validate": _check_validate, "inscribe": _check_inscribe,
    "maxarea": _check_maxarea, "tangent": _check_tangent,
    "crosscheck": _check_crosscheck, "cli_inspect": _check_cli_json,
    "cli_verify": _check_cli_json, "cli_sample": _check_cli_json,
    "cli_maxarea": _check_cli_json, "cli_render": _check_cli_render,
}


def quad_calls(q) -> list:
    """The calls each sweep makes on a validated quad."""
    return ([Op("inscribe", api("inscribe_at_param"), (q, k / (K_PARAMS + 1)))
             for k in range(1, K_PARAMS + 1)]
            + [Op("maxarea", api("max_area"), (q,))])
