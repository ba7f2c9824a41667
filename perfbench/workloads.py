"""Workload definitions: generated inputs, job lists and output checks.

A job is one `tsn` command line.  The worker runs the jobs of a workload
back to back through `tsn.cli.main`, and only afterwards checks what they
printed and wrote, so no check falls inside a timed section.  Every planted
optimum here comes from the gadget constructions: a satisfiable label-cover
graph costs |E|, a k-partite graph with no weakly satisfiable hyperedge
costs k per hyperedge, a strongly satisfiable one costs 1 per hyperedge.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# Job kinds; each end-to-end time metric sums the jobs of one kind.
KIND_METRIC = {
    "solve": "solve_s",
    "bench": "bench_s",
    "approx": "approx_s",
    "reduce": "reduce_s",
    "export": "export_s",
    "io": "io_s",
}


@dataclass
class Job:
    kind: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    # what check_report() and check_files() verify; keys are described there
    expect: dict = field(default_factory=dict)
    # approx_cost_ratio: "num" adds the reported cost to the numerator,
    # "den" adds it to the denominator; ratio_ref adds a constant instead
    ratio: Optional[str] = None
    ratio_ref: Optional[Fraction] = None


# ---------------------------------------------------------------------------
# Gadget arguments


@dataclass(frozen=True)
class Gadget:
    name: str
    kind: str
    args: tuple[str, ...]
    optimum: int


def _lc(name: str, u: int, v: int, deg: int, sigma: int, seed: int) -> Gadget:
    args = ("--u", str(u), "--v", str(v), "--degree", str(deg), "--sigma", str(sigma),
            "--seed", str(seed))
    return Gadget(name, "lc-yes", args, optimum=u * deg)


def _phlc(name: str, kind: str, parts: tuple[int, ...], m: int, sigma: int, seed: int) -> Gadget:
    args = ("--k", str(len(parts)), "--part-sizes", ",".join(map(str, parts)),
            "--edges", str(m), "--sigma", str(sigma), "--seed", str(seed))
    optimum = len(parts) * m if kind == "phlc-nosat" else m
    return Gadget(name, kind, args, optimum=optimum)


# The gadgets are fixed draws: the workload seed does not change them.  On
# these small gadgets B&B work and the union cost hang on tie-breaks, so
# any other draw, or a relabelled copy, moves them: over six relabellings of
# one u=3 gadget, union cost ranged 8-11 and B&B nodes 3233-3647; over the
# export gadgets' draws the union-to-optimum ratio spread by 11%.
EXACT_GADGETS = (
    _lc("lc3a", 3, 3, 2, 3, 0),
    _lc("lc3b", 3, 3, 2, 3, 1),
    _lc("lc3c", 3, 3, 2, 3, 2),
    _lc("lc4", 4, 4, 2, 3, 0),
    _phlc("nosat5", "phlc-nosat", (1, 1, 1, 1, 1), 2, 2, 0),
    _phlc("nosat3", "phlc-nosat", (2, 2, 2), 3, 2, 0),
)

EXPORT_GADGETS = (
    _lc("lc12", 12, 12, 4, 4, 0),
    _phlc("phlc5", "phlc-yes", (3, 3, 3, 3, 3), 6, 3, 0),
    # small enough for `solve --method bb`, so this workload also has a
    # time-to-optimum job
    _lc("lc2", 2, 2, 2, 2, 0),
)

# `tsn bench` draws its instances from its own --seeds, fixed for the same
# reason; brute-force time alone differs up to 5x between draws.
BENCH_SEEDS = "0,1,2"

# On exact-gadget the reduce, export, approx and union-verify jobs take 2-10
# ms each beside seconds of B&B, and a 40 s run holds only two to six
# passes.  Their sums over one pass of each gadget's jobs spread by 16%
# across runs, so each pass runs them this many times.
EXACT_CHEAP_REPEATS = 3


# ---------------------------------------------------------------------------
# Random monotonic single-source instances


@dataclass(frozen=True)
class MonoShape:
    name: str
    n: int
    m: int
    T: int
    k: int
    level: int
    draw: int


# Level-3 greedy time differs up to 6x between random draws of one shape
# (n=20: 2.2-12.3 s over six draws), far more than any bound the benchmark
# could hold.  So each shape uses a fixed draw, and the workload seed picks
# an isomorphic copy of it (see random_monotonic).
MONO_SHAPES = (
    MonoShape("g16a", 16, 60, 4, 6, 3, 0),
    MonoShape("g16b", 16, 60, 4, 6, 3, 1),
    MonoShape("g20", 20, 80, 5, 8, 3, 0),
    MonoShape("g30", 30, 150, 6, 10, 2, 0),
    # small enough for `solve --method bb` and a brute-force cross-check
    MonoShape("g8", 8, 20, 3, 4, 3, 0),
)
MONO_BB = "g8"


def random_monotonic(shape: MonoShape, seed: int):
    """Directed edge-variant instance with upward-closed activity and every
    demand rooted at n0, at exactly the shape's n, m, T and k."""
    from tsn.core import first_unsatisfiable_demand, make_instance

    rng = random.Random(f"{shape.name}/{shape.draw}")
    names = [f"n{i}" for i in range(shape.n)]
    all_arcs = [(u, v) for u in names for v in names if u != v]
    while True:
        arcs = rng.sample(all_arcs, shape.m)
        edges = []
        for u, v in arcs:
            w = Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(1, 9))
            first = rng.randint(1, shape.T)
            edges.append((u, v, w, frozenset(range(first, shape.T + 1))))
        demands = [(names[0], rng.choice(names[1:]), rng.randint(1, shape.T))
                   for _ in range(shape.k)]
        inst = make_instance(directed=True, variant="edge", num_times=shape.T,
                             vertices=names, edges=edges, demands=demands)
        if first_unsatisfiable_demand(inst) is None:
            break
    # the isomorphic copy for this workload seed: the vertices other than
    # the source n0 are renamed.  Arc order stays, because B&B breaks ties
    # by arc index (shuffling moved its node count by up to 31% on g8).
    rng = random.Random(f"{shape.name}/{seed}")
    rest = names[1:]
    rng.shuffle(rest)
    rename = dict(zip(names[1:], rest), n0="n0")
    edges = [(rename[e.u], rename[e.v], e.w, e.times) for e in inst.edges]
    demands = [(d.a, rename[d.b], d.t) for d in inst.demands]
    return make_instance(directed=True, variant="edge", num_times=shape.T,
                         vertices=names, edges=edges, demands=demands)


# ---------------------------------------------------------------------------
# Set-up: the input files a workload reads


def write_inputs(workload: str, seed: int, root: str) -> list[str]:
    """Generate and write the workload's input files; returns their paths.
    export-pipeline has none: its `tsn gen` jobs write its inputs."""
    import contextlib
    import io

    from tsn import cli
    from tsn.core import dump_json, instance_to_dict

    paths = []
    if workload == "exact-gadget":
        for g in EXACT_GADGETS:
            path = os.path.join(root, f"{g.name}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["gen", "--kind", g.kind, *g.args, "-o", path])
            if rc != 0:
                raise RuntimeError(f"tsn gen failed for {g.name} (exit {rc})")
            paths.append(path)
    elif workload == "greedy-mono":
        for shape in MONO_SHAPES:
            path = os.path.join(root, f"{shape.name}.json")
            dump_json(instance_to_dict(random_monotonic(shape, seed)), path)
            paths.append(path)
    elif workload != "export-pipeline":
        raise ValueError(f"unknown workload {workload!r}")
    return paths


# ---------------------------------------------------------------------------
# Job lists


def _gadget_jobs(g: Gadget, root: str, solve: bool, repeats: int = 1) -> list[Job]:
    p = lambda suffix: os.path.join(root, g.name + suffix)  # noqa: E731
    inst, opt = p(".json"), Fraction(g.optimum)
    jobs = []
    if solve:
        jobs += [
            Job("solve", ["solve", "-i", inst, "--method", "bb", "-o", p(".bb.json")],
                [p(".bb.json")], {"cost": opt, "counter": "bb"}),
            Job("io", ["verify", "-i", inst, "-s", p(".bb.json")]),
        ]
    jobs += [
        Job("reduce", ["reduce", "--to", "simple", "-i", inst, "-o", p(".simple.json"),
                       "--map", p(".map.json")], [p(".simple.json"), p(".map.json")]),
        Job("export", ["solve", "-i", inst, "--method", "ilp-export", "--lp", p(".lp")],
            [p(".lp")], {"lp_of": (p(".simple.json"), True), "counter": "ilp"}),
        Job("approx", ["approx", "-i", inst, "--method", "union", "-o", p(".union.json")],
            [p(".union.json")], {"feasible": True, "min_cost": opt},
            ratio="num", ratio_ref=opt),
        Job("io", ["verify", "-i", inst, "-s", p(".union.json")]),
    ] * repeats
    return jobs


def _bench_job(root: str, kind: str, args: list[str], methods: str, optimum: int) -> Job:
    out = os.path.join(root, "bench.csv")
    argv = ["bench", "--kind", kind, *args, "--methods", methods,
            "--seeds", BENCH_SEEDS, "-o", out]
    return Job("bench", argv, [out], {"bench_optimum": Fraction(optimum)})


def jobs_for(workload: str, root: str) -> list[Job]:
    """The ordered job list of one pass over the workload."""
    jobs: list[Job] = []
    if workload == "exact-gadget":
        for g in EXACT_GADGETS:
            jobs += _gadget_jobs(g, root, solve=True, repeats=EXACT_CHEAP_REPEATS)
        jobs.append(_bench_job(root, "lc-yes", ["--u", "3", "--v", "3", "--degree", "2",
                                                "--sigma", "2"], "brute,bb,union", 6))
    elif workload == "greedy-mono":
        for shape in MONO_SHAPES:
            p = lambda suffix, s=shape: os.path.join(root, s.name + suffix)  # noqa: E731
            inst = p(".json")
            jobs.append(Job("io", ["validate", "-i", inst]))
            if shape.name == MONO_BB:
                jobs += [
                    Job("solve", ["solve", "-i", inst, "--method", "bb", "-o", p(".bb.json")],
                        [p(".bb.json")], {"brute_cost": inst, "counter": "bb"}),
                    Job("io", ["verify", "-i", inst, "-s", p(".bb.json")]),
                ]
            jobs += [
                Job("approx", ["approx", "-i", inst, "--method", "charikar", "--level",
                               str(shape.level), "-o", p(".greedy.json")],
                    [p(".greedy.json")], {"feasible": True, "tree_of": inst,
                                          "counter": "greedy"}, ratio="num"),
                Job("approx", ["approx", "-i", inst, "--method", "union", "-o",
                               p(".union.json")],
                    [p(".union.json")], {"feasible": True}, ratio="den"),
                Job("reduce", ["reduce", "--to", "dst", "-i", inst, "-o", p(".dst.json")],
                    [p(".dst.json")], {"dst_vertices": shape.k * shape.n}),
                Job("export", ["solve", "-i", inst, "--method", "ilp-export", "--lp",
                               p(".lp")], [p(".lp")], {"lp_of": (inst, False), "counter": "ilp"}),
                Job("io", ["verify", "-i", inst, "-s", p(".greedy.json")]),
                Job("io", ["verify", "-i", inst, "-s", p(".union.json")]),
            ]
        # a small bench, so that bench_s is defined here too
        jobs.append(_bench_job(root, "lc-yes", ["--u", "2", "--v", "2", "--degree", "1",
                                                "--sigma", "2"], "brute,bb,union", 2))
    elif workload == "export-pipeline":
        for g in EXPORT_GADGETS:
            inst = os.path.join(root, g.name + ".json")
            jobs += [
                Job("io", ["gen", "--kind", g.kind, *g.args, "-o", inst], [inst]),
                Job("io", ["validate", "-i", inst]),
            ]
            jobs += _gadget_jobs(g, root, solve=g.name == "lc2")
        jobs.append(_bench_job(root, "lc-yes", ["--u", "2", "--v", "2", "--degree", "2",
                                                "--sigma", "2"], "brute,bb,union", 4))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# Output checks


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_instance(path: str):
    from tsn.core import instance_from_dict, load_json

    return instance_from_dict(load_json(path))


def _load_solution(path: str):
    from tsn.core import load_json, solution_from_dict

    return solution_from_dict(load_json(path))[0]


def check_report(job: Job, report: Optional[dict]) -> list[str]:
    """Problems with one finished job's report; [] when correct."""
    e = job.expect
    problems = []
    if report is None:
        # only bench, which writes its CSV with -o, prints no report
        if job.argv[0] != "bench":
            return ["no JSON report on stdout"]
        report = {}
    if job.argv[0] in ("validate", "verify") and report.get("ok") is not True:
        problems.append(f"report says ok={report.get('ok')!r}")
    if "cost" in e and Fraction(report["cost"]) != e["cost"]:
        problems.append(f"cost {report['cost']} != planted optimum {e['cost']}")
    if e.get("feasible") and report.get("feasible") is not True:
        problems.append("approx solution reported infeasible")
    if "min_cost" in e and Fraction(report["cost"]) < e["min_cost"]:
        problems.append(f"approx cost {report['cost']} below optimum {e['min_cost']}")
    return problems


def check_files(job: Job, report: Optional[dict]) -> list[str]:
    """Problems with one finished job's output files; [] when correct.

    These checks are slower and hold models of their own.  The worker runs
    them once, after its last pass and after reading its peak memory, and
    compares every pass's files to the first pass's by hash.
    """
    from tsn import exact, variants
    from tsn.core import is_feasible, solution_cost

    e = job.expect
    problems = []
    if "brute_cost" in e:
        opt = exact.brute_force(_load_instance(e["brute_cost"])).cost
        if Fraction(report["cost"]) != opt:
            problems.append(f"bb cost {report['cost']} != brute-force cost {opt}")
    if "lp_of" in e:
        # lp_of names the simple image written by `reduce --to simple`, or
        # the input instance whose simple image the checker builds itself
        path, is_simple = e["lp_of"]
        image = _load_instance(path)
        if not is_simple:
            image, _ = variants.to_simple(variants.normalize(image, "node")[0])
        model = exact.build_ilp(image)
        with open(job.outputs[0], encoding="ascii") as fh:
            text = fh.read()
        if not exact.models_equivalent(exact.parse_lp(text), model):
            problems.append("LP file is not equivalent to build_ilp of the simple image")
        if not exact.models_equivalent(exact.parse_lp(exact.emit_lp(model)), model):
            problems.append("parse_lp(emit_lp(m)) is not equivalent to m")
    if "tree_of" in e:
        from tsn.monotonic import normalize_to_time_layered_tree

        inst = _load_instance(e["tree_of"])
        sol = _load_solution(job.outputs[0])
        tree = normalize_to_time_layered_tree(inst, sol)
        if not is_feasible(inst, tree):
            problems.append("time-layered tree of the greedy solution is infeasible")
        if solution_cost(inst, tree) > sol.cost:
            problems.append("time-layered tree costs more than the greedy solution")
    if "dst_vertices" in e:
        from tsn.core import load_json

        got = len(load_json(job.outputs[0])["vertices"])
        if got != e["dst_vertices"]:
            problems.append(f"dst image has {got} vertices, expected {e['dst_vertices']}")
    if "bench_optimum" in e:
        import csv

        opt = e["bench_optimum"]
        with open(job.outputs[0], newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append("bench wrote no rows")
        for row in rows:
            cost = Fraction(row["cost"])
            if Fraction(row["optimum"]) != opt:
                problems.append(f"bench optimum {row['optimum']} != planted {opt}")
            if row["method"] in ("brute", "bb") and cost != opt:
                problems.append(f"bench {row['method']} cost {cost} != planted {opt}")
            if cost < opt:
                problems.append(f"bench {row['method']} cost {cost} below optimum {opt}")
    return problems
