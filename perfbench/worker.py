"""One workload in one fresh, single-threaded Python process.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --dir D --seconds S --trace 0|1

`setup` writes the workload's input files into D and prints their hashes.
`run` is a closed loop with one client: it calls `tsn.cli.main(argv)` for
each job in turn, the next job starting when the previous one returns, and
repeats the whole job list (one pass) until S seconds have gone by.  Stdout
of each job is captured and read as its JSON report.  Reports are checked
after each pass, outside the timed section; the slower checks of the output
files run once, after the last pass and after the peak memory has been read,
so that the checker's own models do not set it.  With --trace 1 the passes
alternate untraced and traced, so the tracing overhead is measured in the
same process.  The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from workloads import KIND_METRIC, check_files, check_report, file_digest  # noqa: E402

MAX_PROBLEMS = 20
WORK = os.path.join(HERE, "_work")


def _run_jobs(jobs, cli) -> tuple[list, float]:
    """One timed pass through `cli.main` (looked up per call, so a traced
    pass sees the wrapper): [(seconds at reference speed, measured seconds,
    exit code, stdout, error)] and the median calibration probe."""
    results = []
    probes = []
    for job in jobs:
        buf = io.StringIO()
        error = None
        # each job starts with no garbage left by the previous one, as a
        # fresh `tsn` process would
        gc.collect()
        with calibrate.Stopwatch() as watch:
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(job.argv)
            except Exception:  # a traceback is a failed job, not a crashed benchmark
                rc, error = None, traceback.format_exc()
        probes += watch.probes
        results.append((watch.reference_seconds, watch.seconds, rc, buf.getvalue(), error))
    return results, statistics.median(probes)


class Pass:
    """What one pass measured and found, read from the job results."""

    def __init__(self, jobs, results: list, probe: float):
        self.times = {metric: 0.0 for metric in KIND_METRIC.values()}
        self.times["wall_s"] = sum(r[0] for r in results)
        self.raw_wall = sum(r[1] for r in results)
        self.probe = probe
        self.counters = {"exact.bb_nodes": 0, "approx.greedy_calls": 0,
                         "exact.ilp_vars": 0, "exact.ilp_rows": 0, "exact.lp_bytes": 0}
        self.hashes: dict[str, str] = {}
        self.failed_jobs: dict[int, list[str]] = {}
        self.reports: list = []
        num, den = Fraction(0), Fraction(0)
        for j, (job, (seconds, _, rc, out, error)) in enumerate(zip(jobs, results)):
            self.times[KIND_METRIC[job.kind]] += seconds
            problems = []
            report = None
            if error is not None:
                problems.append("traceback: " + error.strip().splitlines()[-1])
            elif rc != 0:
                problems.append(f"exit code {rc}")
            else:
                try:
                    report = json.loads(out) if out.strip() else None
                    problems += check_report(job, report)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    problems.append(f"check raised {exc!r}")
            if report is not None and not problems:
                counter = job.expect.get("counter")
                if counter == "bb":
                    self.counters["exact.bb_nodes"] += report["stats"]["nodes"]
                elif counter == "greedy":
                    self.counters["approx.greedy_calls"] += report["stats"]["calls"]
                elif counter == "ilp":
                    self.counters["exact.ilp_vars"] += report["variables"]
                    self.counters["exact.ilp_rows"] += report["constraints"]
                    self.counters["exact.lp_bytes"] += os.path.getsize(job.outputs[0])
                if job.ratio == "num":
                    num += Fraction(report["cost"])
                if job.ratio == "den":
                    den += Fraction(report["cost"])
                if job.ratio_ref is not None:
                    den += job.ratio_ref
            for path in job.outputs:
                if os.path.exists(path):
                    self.hashes[os.path.basename(path)] = file_digest(path)
                else:
                    problems.append(f"missing output {os.path.basename(path)}")
            if problems:
                self.failed_jobs[j] = problems
            self.reports.append(report)
        self.ratio = float(num / den) if den else None


def _describe(job, problems) -> str:
    return f"{' '.join(job.argv[:4])} ...: {'; '.join(problems)}"


def cmd_setup(args) -> int:
    """Write the inputs; report their hashes and the set-up time at the
    reference speed, from the parent's spawn to the last file written."""
    os.makedirs(args.dir, exist_ok=True)
    # interpreter start and the imports above, rescaled by the first probe
    startup = time.perf_counter() - args.spawned_at
    with calibrate.Stopwatch() as watch:
        paths = workloads.write_inputs(args.workload, args.seed, args.dir)
    first = watch.probes[0]
    setup_s = startup * calibrate.scale(first, first) + watch.reference_seconds
    print(json.dumps({"setup_s": setup_s,
                      "inputs": {os.path.basename(p): file_digest(p) for p in paths}}))
    return 0


def cmd_run(args) -> int:
    from tsn import cli

    jobs = workloads.jobs_for(args.workload, args.dir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict, int]] = []
    problems: list[str] = []
    attempted = failed = 0
    first: Pass | None = None
    started = time.perf_counter()
    last_duration = {False: 0.0, True: 0.0}
    while True:
        # with tracing, passes alternate untraced and traced
        use_trace = tracer is not None and (len(passes) + len(traced)) % 2 == 1
        pass_started = time.perf_counter()
        if use_trace:
            span0, memo0 = len(tracer.spans), tracer.memo_entries
            tracer.install()
        try:
            results, probe = _run_jobs(jobs, cli)
        finally:
            if use_trace:
                tracer.uninstall()
        p = Pass(jobs, results, probe)
        if first is None:
            first = p
        # determinism: every output file and counter repeats the first pass
        for j, job in enumerate(jobs):
            for path in job.outputs:
                name = os.path.basename(path)
                if p.hashes.get(name) != first.hashes.get(name):
                    p.failed_jobs.setdefault(j, []).append(f"{name} differs from pass 1")
        if p.counters != first.counters:
            p.failed_jobs.setdefault(len(jobs) - 1, []).append(
                f"counters {p.counters} differ from pass 1 {first.counters}")
        if use_trace:
            summary = tracer.summarize(span0, len(tracer.spans))
            span_calls = summary["calls"].get("approx.charikar_level", 0)
            if span_calls != p.counters["approx.greedy_calls"]:
                p.failed_jobs.setdefault(len(jobs) - 1, []).append(
                    f"greedy spans {span_calls} != reported calls "
                    f"{p.counters['approx.greedy_calls']}")
            memo = tracer.memo_entries - memo0
            if traced and (memo, summary["calls"]) != (traced[0][2], traced[0][1]["calls"]):
                p.failed_jobs.setdefault(len(jobs) - 1, []).append(
                    "memo entries or span counts differ from the first traced pass")
            traced.append((p, summary, memo))
        else:
            passes.append(p)
        attempted += len(jobs)
        failed += len(p.failed_jobs)
        for j, found in p.failed_jobs.items():
            if len(problems) < MAX_PROBLEMS:
                problems.append(_describe(jobs[j], found))
        now = time.perf_counter()
        last_duration[use_trace] = now - pass_started
        # stop before a pass that would end after --seconds, once there is
        # an untraced pass and, with tracing, a traced one
        next_trace = tracer is not None and not use_trace
        estimate = last_duration[next_trace] or last_duration[use_trace]
        if now - started + estimate > args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the files on disk are the last pass's, and every pass's files hashed
    # the same as the first pass's or that pass has already failed
    for j, job in enumerate(jobs):
        if j in first.failed_jobs:
            continue
        try:
            found = check_files(job, first.reports[j])
        except (ValueError, KeyError, TypeError, OSError) as exc:
            found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(_describe(job, found))
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": len(passes),
        "metrics": {
            **{m: statistics.median(p.times[m] for p in passes) for m in passes[0].times},
            "peak_rss_mb": peak_rss_mb,
            "approx_cost_ratio": first.ratio,
        },
        "counters": first.counters,
        "hashes": first.hashes,
    }
    if tracer is not None:
        result["per_layer"] = _per_layer(passes, traced)
        result["counters"]["approx.greedy_memo_entries"] = traced[0][2]
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


def _per_layer(passes: list[Pass], traced: list) -> dict:
    from tracing import LAYERS, MODULE_LAYERS, OTHER

    layers = [*LAYERS, *MODULE_LAYERS.values(), OTHER]
    med = lambda xs: statistics.median(list(xs))  # noqa: E731
    # self times are rescaled to the reference speed like the job times,
    # with the pass's overall factor
    out = {layer: med(s["self_s"].get(layer, 0.0) * p.times["wall_s"] / p.raw_wall
                      for p, s, _ in traced)
           for layer in layers}
    p0, s0, memo0 = traced[0]
    out.update({
        "exact.bb_nodes": p0.counters["exact.bb_nodes"],
        "exact.ilp_vars": p0.counters["exact.ilp_vars"],
        "exact.ilp_rows": p0.counters["exact.ilp_rows"],
        "exact.lp_bytes": p0.counters["exact.lp_bytes"],
        "core.satisfies_calls": s0["calls"].get("core.satisfies", 0),
        "approx.greedy_calls": s0["calls"].get("approx.charikar_level", 0),
        "approx.greedy_memo_entries": memo0,
        "trace.spans": sum(s0["calls"].values()),
        "trace.overhead_s": med(p.times["wall_s"] for p, _, _ in traced)
        - med(p.times["wall_s"] for p in passes),
        "trace.raw_wall_s": med(p.raw_wall for p in passes),
        "trace.probe_s": med(p.probe for p in passes),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        if mode == "setup":
            p.add_argument("--spawned-at", type=float, required=True,
                           help="time.perf_counter() of the parent just before the spawn")
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
