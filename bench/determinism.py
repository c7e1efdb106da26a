"""Check that the seed fixes everything in a run except its timings.

    python3 bench/determinism.py [--seed 3] [--workload W ...]

Runs each workload twice with the same seed in the traced mode, once for
one second and once for BENCHMARK.json's ``run_seconds``, and requires
identical inputs, identical per-op call counts (every ``*.calls``),
``area.inscribes_per_max_area``, worked-example counts, raised rates,
``fail_share`` and the conditioning set's failures.  The two runs must complete a
different number of whole passes, so that a count which depends on how
long a run lasts shows as a difference.  Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"


def exact_part(report: dict) -> dict:
    metrics = {name: m["value"] for name, m in report["result"]["metrics"].items()
               if name.endswith((".calls", ".raised")) or name.startswith("worked.")
               or name == "area.inscribes_per_max_area"}
    return {"inputs": report["inputs"], "metrics": metrics,
            "fail_share": report["failures"]["fail_share"],
            "conditioning": report["failures"]["conditioning"]}


def traced_report(workload: str, seed: int, seconds: int) -> dict:
    path = RUN_DIR / f"determinism-{workload}-{seconds}.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
                    "--report", str(path)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    same = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        short, long = (traced_report(workload, args.seed, s) for s in (1, spec["run_seconds"]))
        passes = (short["trace"]["passes"], long["trace"]["passes"])
        first, second = exact_part(short), exact_part(long)
        diffs = [k for k in first if first[k] != second[k]]
        diffs += [f"metrics.{k}" for k in first["metrics"]
                  if first["metrics"][k] != second["metrics"].get(k)]
        if passes[0] == passes[1]:
            diffs.append("same pass count in both runs")
        same &= not diffs
        print(f"{workload}: {'identical' if not diffs else 'FAILS on ' + ', '.join(diffs)} "
              f"({len(first['metrics'])} exact metrics, passes {passes[0]} and {passes[1]}, "
              f"fail_share {first['fail_share']:.6f}, inputs {first['inputs']['digest']})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
