"""Run one workload of the inconic benchmark and print its metrics.

    python3 bench/run.py --workload trapezium_sweep --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  Spawns library workers (bench/worker.py)
that import the checkout's own ``src/inconic``; the set-up time is measured
from spawn to ready over several workers and the last one runs the timed,
closed-loop phase.  The host speed drifts, so each set-up is divided by the
mean time of the reference processes (bench/reference.py) run just before
and just after it, and ``setup_s`` is the median of those ratios times
REFERENCE_PROCESS_S: set-up seconds on a host where the reference process
takes that long.  With ``--trace 0`` the result carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Every
metric is printed by name with its unit, followed by the detail the
workload has (latency of each call kind, failures by exception class, input
properties, environment); the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 7        # set-up is measured this many times; the median counts
REFERENCE_PROCESS_S = 0.3   # the scale of setup_s: a reference process, in seconds
WORKER_TIMEOUT = 170    # seconds, for one worker from spawn to exit


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn_worker(args, run: bool):
    """Start a worker, time it to ``ready``, then tell it to run or exit.
    Returns (setup seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group():  # the worker and any CLI process it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(WORKER_TIMEOUT, kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError(f"worker did not get ready (exit {proc.wait()})")
        out, _ = proc.communicate("run\n" if run else "exit\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup, (json.loads(out.strip().splitlines()[-1]) if run else None)


def reference_process_s() -> float:
    """Wall time of one run of the reference process.  A watchdog, not a
    wait timeout: ``Popen.wait(timeout)`` polls at up to 50 ms intervals,
    which would round the time up to the next poll."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")], cwd=ROOT)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise BenchError(f"reference process exited with {code}")
    return elapsed


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_n", "count"), ("_share", "share"),
                         ("_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--report", help="also write the full result as JSON to this file")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "inconic" / "__init__.py").is_file():
        print(f"no inconic sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    spawns = 1 if args.trace else SETUP_SPAWNS
    try:
        setups, refs = [], []
        for i in range(spawns):
            if not args.trace:
                refs.append(reference_process_s())
            setup, result = spawn_worker(args, run=(i == spawns - 1))
            setups.append(setup)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if not args.trace:
        # References before and after each set-up; the last worker goes on
        # to the timed phase, so its set-up has only the one before.
        around = [(refs[i] + refs[i + 1]) / 2 for i in range(spawns - 1)] + refs[-1:]
        measured["setup_s"] = REFERENCE_PROCESS_S * statistics.median(
            s / r for s, r in zip(setups, around))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    unbalanced = result.get("trace", {}).get("unbalanced_ops", 0)
    correct = (result["wrong"] == 0 and unbalanced == 0
               and all(v["value"] is not None for v in metrics.values()))

    failures = result["failures"]
    print(f"inconic bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("inputs       " + " ".join(f"{k}={v}" for k, v in result["inputs"].items()))
    print("environment  " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    print(f"timed calls  attempted={result['attempted']} failed={result['failed']} "
          f"wrong={result['wrong']} elapsed_s={result['elapsed_s']:.3f} "
          f"raised={failures['timed']['raised']} wrong_by_reason={failures['timed']['wrong']}")
    cond = failures["conditioning"]
    print(f"conditioning attempted={cond['attempted']} failed={cond['failed']} "
          f"raised={cond['raised']} wrong={cond['wrong']}")
    if args.trace:
        print("trace        " + " ".join(f"{k}={v}" for k, v in result["trace"].items()))
    else:
        print("setup_s      raw " + " ".join(f"{s:.4f}" for s in setups)
              + "  reference " + " ".join(f"{r:.4f}" for r in refs))
    rows = [(name, v["value"], v["unit"]) for name, v in metrics.items()]
    rows.append(("fail_share", failures["fail_share"], "share"))
    rows += [(k, v, unit_of(k)) for k, v in result["latency"].items()]
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12}  {unit}")

    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    if args.report:
        report = dict(result, setup_s_samples=setups, reference_process_s=refs, result=final,
                      workload=args.workload, seed=args.seed, traced=args.trace)
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
