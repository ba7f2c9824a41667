"""Run every workload over several seeds and print each metric by name.

    python3 perfbench/report.py [--seeds 1,2,...] [--trace] [--out FILE]

Runs perfbench/run.py once per (seed, workload), for every workload and for
the run_seconds of BENCHMARK.json, one run at a time.  Without
--trace it prints per workload every end-to-end metric with its unit: the
median over the seeds, the first and third quartiles, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, plus
failed_share, the failed jobs over the attempted jobs of all runs.  With
--trace the runs are traced and it prints the per-layer metrics instead.
--out writes the summary, raw values included, into the "end_to_end" or
"per_layer" section of FILE, keeping the other section.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", action="store_true", help="traced runs, per-layer metrics")
    parser.add_argument("--out", help="write the summary and raw values here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs: dict = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(_run(w, seed, spec["run_seconds"], int(args.trace)))
            print(f"ran {w} seed {seed}", file=sys.stderr, flush=True)

    section = {"seeds": seeds, "seconds": spec["run_seconds"], "machine": {
        "cpus": os.cpu_count(), "processor": platform.processor() or platform.machine(),
        "python": platform.python_version()}, "workloads": {}}
    for w in names:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        entry = {"failed_share": failed / attempted, "attempted": attempted, "metrics": {}}
        print(f"\n{w}: failed_share {entry['failed_share']:.4f} "
              f"({failed} of {attempted} jobs), {len(seeds)} seeds")
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for m in metrics:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs[w]])
            entry["metrics"][m["name"]] = dict(s, unit=m["unit"], bound=m.get("bound"))
            bound = f"{m['bound']:6.2f}" if "bound" in m else ""
            spread = f"{s['spread']:7.3f}" if s["spread"] is not None else f"{'-':>7}"
            print(f"  {m['name']:28} {m['unit']:6} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {spread} {bound}")
        section["workloads"][w] = entry
    if args.out:
        out = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                out = json.load(fh)
        out["per_layer" if args.trace else "end_to_end"] = section
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
