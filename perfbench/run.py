"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It times SETUP_REPEATS set-up processes
(interpreter start, import, writing the input files) and reports their
median as setup_s, then runs the workload in one fresh worker process for
S seconds.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  Times
are rescaled to a reference machine speed; see calibrate.py.

Determinism across runs: the input and output file hashes and the named
counters of each (workload, seed) are kept in perfbench/_work/manifest,
keyed by a hash of the program and benchmark sources; a later run at the
same seed that disagrees counts each differing entry as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "tsn")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, "_work")

SETUP_REPEATS = 11
TIME_LIMIT_S = 170.0
# counters that must repeat exactly at one seed
REPEATING = ("exact.bb_nodes", "approx.greedy_calls", "approx.greedy_memo_entries",
             "exact.ilp_vars", "exact.ilp_rows", "exact.lp_bytes")


def _source_hash() -> str:
    h = hashlib.sha256()
    for folder in (SRC, HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _child(argv: list[str], deadline: float) -> str:
    """Run a child process to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv[0]} exited with code {proc.returncode}")
    return lines[-1]


def _manifest_check(workload: str, seed: int, record: dict) -> list[str]:
    """Compare with the manifest of earlier runs at this seed; add to it."""
    folder = os.path.join(WORK, "manifest")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-{seed}-{_source_hash()}.json")
    known: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    problems = []
    for section, values in record.items():
        seen = known.setdefault(section, {})
        for key, value in values.items():
            if key in seen and seen[key] != value:
                problems.append(f"{section} {key} differs from an earlier run at seed {seed}")
            seen.setdefault(key, value)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "cli.py")) or not os.path.isfile(spec_path):
        print(f"no tsn sources under {os.path.dirname(SRC)} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_times, input_hashes = [], []
        for i in range(SETUP_REPEATS):
            # the child times itself from this moment, with its own probes
            setup = json.loads(_child(
                ["setup", *common, "--dir", os.path.join(work, f"setup{i}"),
                 "--spawned-at", repr(time.perf_counter())], deadline))
            setup_times.append(setup["setup_s"])
            input_hashes.append(setup["inputs"])
        run_dir = os.path.join(work, "setup0")
        result = json.loads(_child(
            ["run", *common, "--dir", run_dir, "--seconds", str(args.seconds),
             "--trace", str(args.trace)], deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    failed = result["failed"]
    # set-up processes must write identical inputs
    differing = sum(1 for h in input_hashes[1:] if h != input_hashes[0])
    if differing:
        problems.append(f"{differing} set-up runs wrote different inputs")
    counters = {k: v for k, v in result["counters"].items() if k in REPEATING}
    record = {"inputs": input_hashes[0], "outputs": result["hashes"], "counters": counters}
    mismatches = _manifest_check(args.workload, args.seed, record)
    problems += mismatches
    failed = min(result["attempted"], failed + differing + len(mismatches))
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    measured = dict(result["metrics"], setup_s=statistics.median(setup_times))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else measured
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
