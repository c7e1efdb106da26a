"""Run workloads over several seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 [--workload W ...] [--trace 1] [--out FILE]

For each workload and metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median, and flags any spread above a third of the
metric's bound in BENCHMARK.json.  Runs are sequential, one at a time, each
exactly as BENCHMARK.json's command.  ``--out`` writes the summary with
every run's values as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"

# What the role metrics measure on each workload.
ROLES = {
    "trapezium_sweep": {"call_rel_p50": "inscribe_at_param", "task_rel_p50": "max_area"},
    "trapezoid_maxarea": {"call_rel_p50": "inscribe_at_param", "task_rel_p50": "max_area"},
    "chord_verify": {"call_rel_p50": "tangent_conic_at_center",
                     "task_rel_p50": "focal-vs-pencil cross-check"},
    "cli_session": {"call_rel_p50": "python -m inconic inspect, verify, maxarea and render: "
                                    "geometric mean of each one's median",
                    "task_rel_p50": "python -m inconic sample --n 1000"},
}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace) -> dict:
    """One run as the command in BENCHMARK.json; returns its full report."""
    report = RUN_DIR / f"collect-{workload}-{seed}-{trace}.json"
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                             "--report", str(report)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(report.read_text(encoding="utf-8"))
    assert full["result"] == last
    return dict(full, wall_s=wall)


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", help="default: all of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in workloads:
        runs = [run_once(spec, workload, seed, args.trace) for seed in seed_range(args.seeds)]
        rows = {}
        print(f"{workload}: correct={[r['result']['correct'] for r in runs]} "
              f"failed={[r['result']['failed'] for r in runs]} "
              f"wall_s={[round(r['wall_s'], 1) for r in runs]}")
        for m in metrics:
            s = summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            rows[m["name"]] = s
            limit = m.get("bound", 0) / 3
            flag = "  <-- above bound/3" if m.get("bound") and s["spread"] > limit else ""
            ok &= not flag
            print(f"  {m['name']:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": [r["result"]["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs], "metrics": rows,
            "detail": {k: summarise([r["latency"][k] for r in runs])
                       for k in runs[0]["latency"]
                       if all(r["latency"].get(k) is not None for r in runs)}}
    summary["roles"] = {w: ROLES[w] for w in workloads}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
