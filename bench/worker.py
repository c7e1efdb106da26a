"""Benchmark worker: builds one workload, reports ready, then measures it.

Started by run.py, which times the set-up from spawn to the ``ready``
line.  Protocol on stdin/stdout:

    -> ready          import, inputs and one warm-up call per kind are done
    <- run | exit
    -> one JSON line  the measurements (after ``run``)

The package is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inconic as ic  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op, api  # noqa: E402

LAYERS = ("geometry", "marden", "inscribed", "pencil", "area")
TAIL = {"validate": 99, "inscribe": 99, "maxarea": 90, "tangent": 99, "crosscheck": 90}
CLI_SUBCOMMANDS = ("inspect", "verify", "maxarea", "sample", "render")
SPAN_OPS = 64          # ops of the traced phase whose spans are written out
SPAWNS = 5             # interpreter / import probes in the traced run


@dataclass
class Phase:
    """Executions of a closed loop over whole passes of ops."""

    ops: list
    times: list = field(default_factory=list)      # ns per execution
    refs: list = field(default_factory=list)       # ns of the references around them
    raised: dict = field(default_factory=dict)     # execution -> (class, origin)
    results: list = field(default_factory=list)    # first-pass results, until checked
    wrong: list = field(default_factory=list)      # op index -> reason | None
    elapsed_ns: int = 0

    def failed(self, e: int) -> bool:
        return e in self.raised or self.wrong[e % len(self.ops)] is not None

    def failed_count(self) -> int:
        return sum(self.failed(e) for e in range(len(self.times)))

    def wrong_count(self) -> int:
        n = len(self.ops)
        return sum(e not in self.raised and self.wrong[e % n] is not None
                   for e in range(len(self.times)))

    def ops_per_s(self) -> float:
        """Successful calls per second of call time (references excluded)."""
        return (len(self.times) - self.failed_count()) / (sum(self.times) / 1e9)

    def latencies(self, *kinds: str) -> list:
        n = len(self.ops)
        return sorted(t for e, t in enumerate(self.times)
                      if self.ops[e % n].kind in kinds and not self.failed(e))

    def relative(self, *kinds: str) -> list:
        """Each successful call's time over the mean of the references run
        just before and just after it (see ``reference.py``)."""
        n, refs = len(self.ops), self.refs
        return [2 * t / (refs[e] + refs[e + 1]) for e, t in enumerate(self.times)
                if self.ops[e % n].kind in kinds and not self.failed(e)]


def describe(exc: BaseException) -> tuple:
    """(exception class, innermost inconic module in the traceback)."""
    origin = None
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("inconic."):
            origin = name.split(".", 1)[1]
        tb = tb.tb_next
    return type(exc).__name__, origin


def timed_phase(ops, reference, seconds, tracer=None) -> Phase:
    """Closed loop over whole passes of ops until ``seconds`` have passed,
    each call preceded (and the last one followed) by a timed reference.
    Whole passes keep the mix of calls, and every statistic over it, the
    same in every run.  The outputs are checked later, by ``check_phase``."""
    phase = Phase(ops)
    n = len(ops)
    times, refs, raised, results = phase.times, phase.refs, phase.raised, phase.results
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    e = 0
    while True:
        op = ops[e % n]
        result = None
        r0 = perf_counter_ns()
        reference()
        t0 = perf_counter_ns()
        refs.append(t0 - r0)
        try:
            result = op.fn(*op.args)
        except Exception as exc:  # a failed call is a measured outcome
            raised[e] = describe(exc)
        dt = perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op(dt)
        times.append(dt)
        if e < n:
            results.append(result)
        e += 1
        if e % n == 0 and perf_counter_ns() >= deadline:
            break
    phase.elapsed_ns = perf_counter_ns() - start
    r0 = perf_counter_ns()
    reference()
    refs.append(perf_counter_ns() - r0)
    return phase


def check_phase(phase: Phase) -> None:
    """Check the first pass's outputs.  The inputs and calls repeat in
    every pass, so the verdict holds for every execution of an op.  The
    checks call the package too: run this after the timer and the trace."""
    phase.wrong = [None if i in phase.raised else safe_check(op, phase.results[i])
                   for i, op in enumerate(phase.ops)]
    phase.results = []


def safe_check(op: Op, result):
    try:
        return workloads.check(op, result)
    except Exception as exc:  # an output the check cannot even read is wrong
        return f"check raised {type(exc).__name__}"


def run_conditioning(wl) -> list:
    """One untimed pass over the conditioning set, the far-mapped and thin
    quads and the edge calls: (kind, raised, wrong).  Calls after a failing
    validate_quad cannot run and count as failed."""
    def outcome(op):
        try:
            r = op.fn(*op.args)
        except Exception as exc:
            return op.kind, describe(exc), None
        return op.kind, None, safe_check(op, r)

    out = []
    for raw, kind in wl.far_quads:
        validate = Op("validate", api("validate_quad"), (raw,), kind)
        try:
            q = validate.fn(*validate.args)
        except Exception as exc:
            cls, origin = describe(exc)
            out.append(("validate", (cls, origin), None))
            out.extend((k, (f"not run after {cls}", None), None)
                       for k in ["inscribe"] * workloads.K_PARAMS + ["maxarea"])
            continue
        out.append(("validate", None, safe_check(validate, q)))
        out.extend(map(outcome, workloads.quad_calls(q)))
    out.extend(map(outcome, wl.edge_ops))
    return out


def failure_summary(phase: Phase, untimed: list) -> dict:
    n = len(phase.ops)
    timed_raised = Counter(cls for cls, _ in phase.raised.values())
    timed_wrong = Counter(phase.wrong[e % n] for e in range(len(phase.times))
                          if e not in phase.raised and phase.wrong[e % n])
    first = [(op.kind, phase.raised.get(i), phase.wrong[i]) for i, op in enumerate(phase.ops)]
    once = first + untimed          # one pass of timed calls plus the conditioning set
    failed_once = sum(1 for _, r, w in once if r or w)
    origins = Counter(r[1] for _, r, _ in once if r and r[1])
    return {
        "timed": {"attempted": len(phase.times),
                  "failed": sum(timed_raised.values()) + sum(timed_wrong.values()),
                  "raised": dict(timed_raised), "wrong": dict(timed_wrong)},
        "conditioning": {"attempted": len(untimed),
                         "failed": sum(1 for _, r, w in untimed if r or w),
                         "raised": dict(Counter(r[0] for _, r, _ in untimed if r)),
                         "wrong": dict(Counter(w for _, _, w in untimed if w))},
        "fail_share": failed_once / len(once),
        "raised_per_kop": {layer: 1e3 * origins[layer] / len(once) for layer in LAYERS},
    }


def percentile(lat: list, p: float):
    """Nearest-rank percentile of sorted samples; None without samples."""
    return lat[max(math.ceil(p / 100 * len(lat)) - 1, 0)] if lat else None


def latency_detail(phase: Phase) -> dict:
    """Throughput, and p10, p25, median and tail of every call kind with its
    sample count.  A tail is reported only with ten samples beyond it."""
    out = {"ops_per_s": phase.ops_per_s(), "ref_p50_us": statistics.median(phase.refs) / 1e3}
    for kind in dict.fromkeys(op.kind for op in phase.ops):
        lat = phase.latencies(kind)
        unit, scale = ("ms", 1e6) if kind.startswith("cli_") else ("us", 1e3)
        for p in (10, 25, 50, TAIL.get(kind)):
            if p is not None and (p <= 50 or len(lat) * (100 - p) / 100 >= 10):
                value = percentile(lat, p)
                out[f"{kind}_p{p}_{unit}"] = None if value is None else value / scale
        out[f"{kind}_n"] = len(lat)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_relative(phase: Phase, kinds: tuple):
    """Geometric mean over ``kinds`` of each kind's median relative time,
    so that every kind moves the figure, whatever the others do."""
    medians = [statistics.median(rel) for rel in map(phase.relative, kinds) if rel]
    if len(medians) != len(kinds):
        return None
    return math.exp(statistics.fmean(map(math.log, medians)))


def spawn_ms(code: str) -> float:
    """Median wall time of ``python -c code`` over SPAWNS processes."""
    times = []
    for _ in range(SPAWNS):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads._CLI_ENV,
                       check=True, stdout=subprocess.DEVNULL)
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def worked_counts() -> dict:
    """Exact counts on the worked examples, through the same wrappers."""
    q = ic.validate_quad([(0, 0), (1, 0), (3, 2), (0, 1)])
    hyperbola_center = ic.chord_x(q).point_at(0.9)
    trapezoid = ic.validate_quad([(0, 0), (2, 0), (1.5, 1), (0, 1)])

    def count(label, fn, *args):
        tracer = Tracer()
        tracer.install()
        try:
            fn(*args)
        finally:
            tracer.uninstall()
        return tracer.calls[label]

    return {"worked.adjugate3_per_inscribe":
            count("geometry.adjugate3", ic.inscribe_at_param, q, 0.37),
            "worked.adjugate3_per_hyperbola":
            count("geometry.adjugate3", ic.tangent_conic_at_center, q, hyperbola_center),
            "worked.inscribes_per_trapezoid_max_area":
            count("inscribed.inscribe_at_center", ic.max_area, trapezoid)}


def write_spans(tracer: Tracer, name: str, seed: int) -> str:
    workloads.RUN_DIR.mkdir(parents=True, exist_ok=True)
    path = workloads.RUN_DIR / f"spans-{name}-{seed}.jsonl"
    t0 = tracer.spans[0][4] if tracer.spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        for op, sid, parent, label, start, end in tracer.spans:
            fh.write(json.dumps([op, sid, parent, label, start - t0, end - t0]) + "\n")
    return str(path.relative_to(ROOT))


def measure(wl, seconds: int, trace: bool, seed: int) -> dict:
    is_cli = wl.inproc_ops is not None
    if not trace:
        phase = timed_phase(wl.ops, wl.reference, seconds)
        rss = workloads.cli_peak_rss_kb / 1024 if is_cli else peak_rss_mb()
        check_phase(phase)
        failures = failure_summary(phase, run_conditioning(wl))
        metrics = {
            "peak_rss_mb": rss,
            "ok_share": 1 - failures["fail_share"],
            "call_rel_p50": median_relative(phase, wl.call_kinds),
            "task_rel_p50": median_relative(phase, wl.task_kinds),
        }
        return {"phases": [phase], "failures": failures, "metrics": metrics,
                "latency": latency_detail(phase)}

    # Traced run: an untraced half gives the overhead base (and, for the
    # CLI, in-process cli.main times), the traced half the per-layer numbers.
    ops = wl.inproc_ops if is_cli else wl.ops
    base = timed_phase(ops, workloads.reference, seconds / 2)
    check_phase(base)
    tracer = Tracer(span_ops=SPAN_OPS)
    tracer.install()
    try:
        traced = timed_phase(ops, workloads.reference, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    check_phase(traced)
    failures = failure_summary(traced, run_conditioning(wl))
    metrics = tracer.per_op()
    max_area_calls = tracer.calls["area.max_area"]
    metrics["area.inscribes_per_max_area"] = (
        tracer.edges[("area.max_area", "inscribed.inscribe_at_center")] / max_area_calls
        if max_area_calls else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = failures["raised_per_kop"][layer]
    interp = spawn_ms("pass")
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = spawn_ms("import inconic") - interp
    for sub in CLI_SUBCOMMANDS:
        lat = base.latencies(f"cli_{sub}") if is_cli else []
        metrics[f"cli.main_us.{sub}"] = statistics.median(lat) / 1e3 if lat else 0.0
    untraced, traced_rate = base.ops_per_s(), traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead"] = untraced / traced_rate
    metrics["trace.covered_share"] = tracer.covered_ns / tracer.wall_ns
    metrics.update(worked_counts())
    return {"phases": [base, traced], "failures": failures, "metrics": metrics,
            "latency": latency_detail(base),
            "trace": {"unbalanced_ops": tracer.unbalanced_ops, "traced_ops": tracer.ops,
                      "passes": tracer.ops // len(ops),
                      "spans_file": write_spans(tracer, wl.name, seed)}}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def warm_up(wl) -> None:
    """One call of each kind, so that the timed phase starts warm; for the
    CLI one ``inspect`` process, which warms the file cache for the rest."""
    kinds = wl.call_kinds[:1] if wl.inproc_ops is not None else dict.fromkeys(
        op.kind for op in wl.ops)
    for kind in kinds:
        op = next(op for op in wl.ops if op.kind == kind)
        try:
            op.fn(*op.args)
        except Exception:  # a failing call is measured in the timed phase
            pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if Path(ic.__file__).resolve().parent != ROOT / "src" / "inconic":
        print(f"imported inconic from {ic.__file__}, not this checkout", file=sys.stderr)
        return 2
    wl = workloads.BY_NAME[args.workload](args.seed)
    try:
        warm_up(wl)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        out = measure(wl, args.seconds, bool(args.trace), args.seed)
    finally:
        if wl.scratch is not None:
            shutil.rmtree(wl.scratch, ignore_errors=True)
    phases = out.pop("phases")
    out["attempted"] = sum(len(p.times) for p in phases)
    out["failed"] = sum(p.failed_count() for p in phases)
    out["wrong"] = sum(p.wrong_count() for p in phases)
    out["elapsed_s"] = sum(p.elapsed_ns for p in phases) / 1e9
    out["inputs"] = wl.inputs
    out["environment"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
