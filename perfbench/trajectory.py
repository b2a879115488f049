"""Repeat the benchmark over seeds and write one BENCH_<label>.json entry.

    python3 perfbench/trajectory.py --label <label>

Runs ``run.py`` once per (seed, workload) for seeds 1..10, seed-major so that
slow drifts of the machine spread over all workloads, one process at a time.
For every end-to-end metric it reports the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Then it makes one
traced run per workload, which gives that workload's tracing overhead and its
own per-layer time account, and the median over those runs of the pooled
per-layer metrics; and last the frontier report of ``run.py --frontier``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(*args: str) -> tuple[dict, str]:
    """The result line of one run.py run, and its stderr report."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {w: {m: [] for m in bounds} for w in names}
    started = time.time()
    for seed in range(1, RUNS + 1):
        for w in names:
            doc, report = bench("--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0")
            if not doc["correct"]:
                raise SystemExit(f"{w} seed {seed}: {doc['failed']}/{doc['attempted']} invocations failed")
            for m in bounds:
                values[w][m].append(doc["metrics"][m]["value"])
            print(f"{time.time() - started:7.0f} s  {w} seed {seed}: "
                  + "  ".join(f"{m}={values[w][m][-1]:.4f}" for m in bounds), file=sys.stderr)
            print("          " + next(line for line in report.splitlines() if line.startswith("verdict_s")),
                  file=sys.stderr)

    entry: dict = {
        "label": args.label,
        "hardware": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.platform()}, "
                    f"Python {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "seeds": [1, RUNS],
        "end_to_end": {},
    }
    steady = True
    for w in names:
        entry["end_to_end"][w] = {}
        for m, bound in bounds.items():
            xs = values[w][m]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "bound": bound, "values": xs}
            ok = spread < bound / 3
            steady &= ok
            print(f"{w:<9} {m:<12} median {med:10.4f}  spread {spread:6.3f}  bound {bound:5.2f}"
                  f"  {'ok' if ok else 'SPREAD ABOVE BOUND/3'}")
    pooled = []
    entry["trace_report"] = {}
    for w in names:
        seed = RUNS + 1
        doc, _ = bench("--workload", w, "--seed", str(seed), "--trace", "1")
        pooled.append({k: v["value"] for k, v in doc["metrics"].items()})
        trace = ROOT / ".perfbench" / f"trace-{w}-seed{seed}.json"
        entry["trace_report"][w] = json.loads(trace.read_text())["report"]
    entry["per_layer"] = {k: statistics.median(p[k] for p in pooled) for k in pooled[0]}
    entry["per_layer"].pop("trace.overhead_s")
    subprocess.run([sys.executable, str(HERE / "run.py"), "--frontier"], cwd=ROOT, check=True)
    entry["frontier"] = json.loads((ROOT / ".perfbench" / "frontier.json").read_text())
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
