"""Command-line surface: validate, reduce, solve, approx, gen, verify, bench.

All file outputs are deterministic for a given (input, flags, seed); run
metadata such as wall time goes to the stdout report only, never into output
files.  Exit codes: 0 success, 1 infeasible (nothing else), 2 input error,
an input over the size budget or a command out of memory, 3 internal
invariant violation or any other unexpected error; every error prints one
JSON line and no traceback.

`main` pauses Python's cyclic garbage collector for the whole command and
restores the caller's setting when it returns.  A command builds large
acyclic structures (edges, frames, ILP rows) that reference counting frees
on its own; the collector would only re-scan them as they grow, which took
about a quarter of `build_ilp`'s time on lc-yes 32/32/5/5.  The pause is safe because
no command leaves a `tsn` object in a reference cycle: `tests/test_cli.py`
runs every command under `gc.DEBUG_SAVEALL` and checks that, and that the
caller's setting comes back on success and on every error exit.

A call builds only the subparser its first argument names, and imports only
the modules that command runs; this module imports `core` alone.  That
parser is given the full list of commands as its metavar, so its help,
usage lines and errors read byte for byte as the full parser's, which any
other first argument (none, `-h`, an unknown word) gets.  `tests/test_cli.py`
compares the two on every command.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from .core import (
    MAX_LEVEL,
    InfeasibleInstanceError,
    InputError,
    InternalError,
    TemporalInstance,
    dump_json,
    dump_jsons,
    first_unsatisfiable_demand,
    instance_from_dict,
    instance_to_dict,
    is_acyclic,
    is_feasible,
    is_monotonic,
    load_json,
    solution_cost,
    solution_from_dict,
    solution_to_dict,
    validate,
    write_text,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
# the detail of the exit-2 line for a MemoryError: no size guard caught the
# input, so tests of a guard reject this line
OUT_OF_MEMORY = "the command ran out of memory; the input is too large for this machine"

DEFAULT_LEVEL = 2  # greedy level of charikar when none is given

# the subcommands, in the full parser's order
COMMANDS = ("validate", "reduce", "solve", "approx", "gen", "verify", "bench")


def _digest(instance: TemporalInstance) -> dict:
    return {
        "vertices": len(instance.vertices),
        "edges": len(instance.edges),
        "demands": len(instance.demands),
        "T": instance.num_times,
        "variant": instance.variant,
        "directed": instance.directed,
        "monotonic": is_monotonic(instance),
        "acyclic": is_acyclic(instance) if instance.directed else None,
    }


def _report(args, instance: Optional[TemporalInstance], **extra) -> None:
    """Print the stdout report: the command and argv of `args`, the
    instance's digest when there is one, then `extra` in order."""
    rep: dict = {"command": args.command, "argv": args.argv}
    if instance is not None:
        rep["digest"] = _digest(instance)
    rep.update(extra)
    print(json.dumps(rep, indent=2))


def _to_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}") from None


def _load_instance(path: str) -> TemporalInstance:
    instance = instance_from_dict(load_json(path))
    violations = validate(instance)
    if violations:
        raise InputError("; ".join(violations))
    return instance


def cmd_validate(args) -> int:
    instance = instance_from_dict(load_json(args.input))
    violations = validate(instance)
    _report(
        args,
        instance if not violations else None,
        violations=violations,
        ok=not violations,
    )
    return EXIT_OK if not violations else EXIT_INPUT


def cmd_reduce(args) -> int:
    instance = _load_instance(args.input)
    started = time.perf_counter()
    if args.to in ("priority-st", "dst"):
        from . import monotonic

        if args.to == "priority-st":
            data = monotonic.priority_to_dict(monotonic.tsn_to_priority(instance))
        else:
            data = monotonic.dst_to_dict(monotonic.single_source_to_dst(instance))
        # both read the input's own frames: no step to map
        steps = []
    else:
        from . import variants

        image, maps = variants.normalize(instance, args.to)
        data = instance_to_dict(image)
        steps = [variants.reduction_map_to_dict(m) for m in maps]
    outputs = {args.output: data}
    if args.map:
        outputs[args.map] = {"steps": steps}
    dump_jsons(outputs)
    _report(
        args,
        instance,
        target=args.to,
        output=args.output,
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return EXIT_OK


def _solve(method: str, instance: TemporalInstance, level: Optional[int], stats: dict):
    """Run the solver that `method` names, the greedy at `level`, and put
    its counters in `stats`: the one place a method name picks a solver."""
    if method in ("brute", "bb"):
        from . import exact

        if method == "brute":
            return exact.brute_force(instance, stats=stats)
        return exact.solve_bb(instance, stats)
    from . import approx

    if method == "union":
        return approx.shortest_paths_union(instance)
    return approx.charikar(instance, level, stats)


def _solution_report(args, **extra) -> int:
    """`solve` and `approx`: run `args.method` on the input, check the
    solution, write it to `-o` when given, and report it; `extra` goes
    between method and cost."""
    instance = _load_instance(args.input)
    started = time.perf_counter()
    stats: dict = {}
    solution = _solve(args.method, instance, getattr(args, "level", None), stats)
    feasible = is_feasible(instance, solution)
    if args.output:
        dump_json(solution_to_dict(solution, feasible), args.output)
    _report(
        args,
        instance,
        method=args.method,
        **extra,
        cost=str(solution.cost),
        feasible=feasible,
        # exact costs such as the root bounds are written like `cost`
        stats={k: v if isinstance(v, int) else str(v) for k, v in stats.items()},
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    # a flag the method does not write is refused, before any input is read
    if args.method != "ilp-export":
        if args.lp:
            raise InputError(f"--lp is written by ilp-export only, not by {args.method}")
        return _solution_report(args)
    if not args.lp:
        raise InputError("--lp PATH is required for ilp-export")
    if args.output:
        raise InputError("ilp-export writes no solution: -o is for bb and brute")
    from . import exact, variants

    instance = _load_instance(args.input)
    started = time.perf_counter()
    model = exact.build_ilp(variants.normalize(instance, "simple")[0])
    write_text(exact.emit_lp(model), args.lp)
    _report(
        args,
        instance,
        method=args.method,
        lp=args.lp,
        variables=len(model.binaries),
        constraints=len(model.constraints),
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return EXIT_OK


def cmd_approx(args) -> int:
    # --level belongs to charikar; with union it is refused before any
    # input is read
    if args.method == "union":
        if args.level is not None:
            raise InputError("--level is for charikar only, not for union")
    elif args.level is None:
        args.level = DEFAULT_LEVEL
    return _solution_report(args, level=args.level)


def _generate(args, seed: int):
    """Returns (instance, trace, constraint_graph_dict)."""
    from . import hardness

    if args.kind == "example1":
        h = hardness.example1_label_cover()
    elif args.kind == "lc-yes":
        h = hardness.gen_yes_lc(args.u, args.v, args.degree, args.sigma, seed)
    else:
        gen = hardness.gen_yes_phlc if args.kind == "phlc-yes" else hardness.gen_nosat_phlc
        sizes = [_to_int(s, "--part-sizes entry") for s in args.part_sizes.split(",")]
        h = gen(args.k, sizes, args.edges, args.sigma, seed)
    # the bipartite kinds keep their left/right JSON form
    to_dict = hardness.phlc_to_dict if args.kind.startswith("phlc") else hardness.lc_to_dict
    instance, trace = hardness.phlc_to_kdtsn(h)
    return instance, trace, to_dict(h)


def cmd_gen(args) -> int:
    from . import hardness

    started = time.perf_counter()
    instance, trace, source = _generate(args, args.seed)
    if args.undirected:
        instance = replace(instance, directed=False)
    outputs = {args.output: instance_to_dict(instance)}
    if args.trace:
        outputs[args.trace] = hardness.trace_to_dict(trace)
    if args.source:
        outputs[args.source] = source
    dump_jsons(outputs)
    _report(
        args,
        instance,
        kind=args.kind,
        seed=args.seed,
        output=args.output,
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_instance(args.input)
    solution, claimed_feasible = solution_from_dict(load_json(args.solution))
    if solution is None:
        ok = first_unsatisfiable_demand(instance) is not None
        _report(args, instance, ok=ok, note="infeasibility marker")
        return EXIT_OK if ok else EXIT_INPUT
    problems = []
    if len(set(solution.edges)) != len(solution.edges):
        problems.append("edge index listed twice")
    if any(i < 0 or i >= len(instance.edges) for i in solution.edges):
        problems.append("edge index out of range")
    else:
        recomputed = solution_cost(instance, solution)
        if recomputed != solution.cost:
            problems.append(f"cost mismatch: file says {solution.cost}, recomputed {recomputed}")
        actual = is_feasible(instance, solution)
        if actual != claimed_feasible:
            problems.append(f"feasible flag mismatch: file says {claimed_feasible}, actual {actual}")
    _report(args, instance, ok=not problems, problems=problems)
    return EXIT_OK if not problems else EXIT_INPUT


def cmd_bench(args) -> int:
    methods = [m for m in args.methods.split(",") if m]
    levels: dict[str, int] = {}  # greedy level of each charikar[:level] method
    for method in methods:
        if method in ("brute", "bb", "union"):
            continue
        name, colon, level = method.partition(":")
        if name != "charikar":
            raise InputError(f"unknown method {method!r}")
        levels[method] = _to_int(level, f"level of {method!r}") if colon else DEFAULT_LEVEL
        if not 1 <= levels[method] <= MAX_LEVEL:
            raise InputError(f"level of {method!r} must be from 1 to {MAX_LEVEL}")
    seeds = [_to_int(s, "--seeds entry") for s in args.seeds.split(",") if s]
    rows = []
    # with no method there is no row, so no instance is built
    for seed in seeds if methods else ():
        instance, _, _ = _generate(args, seed)
        # branch and bound gives the optimum column and its own row; every
        # other row runs through `_solve` with the limits of `solve` and
        # `approx`, so a brute row past the subset cap is left empty
        optimum = _solve("bb", instance, None, {}).cost
        for method in methods:
            try:
                if method == "bb":
                    cost = optimum
                else:
                    cost = _solve(method.partition(":")[0], instance, levels.get(method), {}).cost
            except InputError:
                # method not applicable to this instance: keep the row, leave
                # the cost empty
                cost = None
            rows.append({
                "kind": args.kind,
                "seed": seed,
                "method": method,
                "cost": "" if cost is None else str(cost),
                "optimum": str(optimum),
                "ratio": str(cost / optimum) if cost is not None and optimum > 0 else "",
            })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["kind", "seed", "method", "cost", "optimum", "ratio"])
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.output:
        write_text(text, args.output)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    """The gadget kind and its seven parameters, shared by `gen` and `bench`."""
    p.add_argument("--kind", required=True,
                   choices=["example1", "lc-yes", "phlc-yes", "phlc-nosat"])
    p.add_argument("--u", type=int, default=1, help="left vertices (lc-yes)")
    p.add_argument("--v", type=int, default=1, help="right vertices (lc-yes)")
    p.add_argument("--degree", type=int, default=1, help="edges per left vertex (lc-yes)")
    p.add_argument("--sigma", type=int, default=2, help="label count")
    p.add_argument("--k", type=int, default=3, help="number of parts (phlc)")
    p.add_argument("--part-sizes", default="1,1,1", help="comma list (phlc)")
    p.add_argument("--edges", type=int, default=1, help="hyperedge count (phlc)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `tsn` parser with every subcommand, or with `command` alone."""
    # the docstring's first two paragraphs, the commands, determinism and
    # exit codes, are for users; the rest is for maintainers
    description = "\n\n".join(__doc__.split("\n\n")[:2])
    parser = argparse.ArgumentParser(prog="tsn", description=description)
    # the full parser lists its choices itself; a one-command parser is given
    # the same list, so its usage lines and errors read the same.  The full
    # parser keeps no metavar: one would replace "command" in its errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "validate"):
        p = sub.add_parser("validate", help="check instance invariants")
        p.add_argument("-i", "--input", required=True)
        p.set_defaults(func=cmd_validate)

    if command in (None, "reduce"):
        p = sub.add_parser("reduce", help="apply a strict reduction")
        p.add_argument("--to", required=True,
                       choices=["edge", "node", "node_and_edge", "simple", "priority-st", "dst"])
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--map", help="write the reduction map here")
        p.set_defaults(func=cmd_reduce)

    if command in (None, "solve"):
        p = sub.add_parser("solve", help="exact solving / ILP export")
        p.add_argument("-i", "--input", required=True)
        p.add_argument("--method", required=True, choices=["bb", "brute", "ilp-export"])
        p.add_argument("--lp", help="LP text output path (ilp-export)")
        p.add_argument("-o", "--output", help="solution JSON path")
        p.set_defaults(func=cmd_solve)

    if command in (None, "approx"):
        p = sub.add_parser("approx", help="approximation algorithms")
        p.add_argument("-i", "--input", required=True)
        p.add_argument("--method", required=True, choices=["union", "charikar"])
        p.add_argument("--level", type=int,
                       help=f"greedy level, 1 to {MAX_LEVEL} (charikar only; "
                            f"default {DEFAULT_LEVEL})")
        p.add_argument("-o", "--output", help="solution JSON path")
        p.set_defaults(func=cmd_approx)

    if command in (None, "gen"):
        p = sub.add_parser("gen", help="generate benchmark instances")
        _add_generator_args(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--undirected", action="store_true")
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--trace", help="write the gadget trace here")
        p.add_argument("--source", help="write the constraint-graph JSON here")
        p.set_defaults(func=cmd_gen)

    if command in (None, "verify"):
        p = sub.add_parser("verify", help="recheck a solution file")
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-s", "--solution", required=True)
        p.set_defaults(func=cmd_verify)

    if command in (None, "bench"):
        p = sub.add_parser("bench", help="run generated instances through methods")
        _add_generator_args(p)
        p.add_argument("--methods", default="", help="comma list: brute,bb,union,charikar[:i]")
        p.add_argument("--seeds", default="0")
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code, with the cyclic garbage
    collector paused for the command and the caller's setting restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # a command parses with its own subparser alone; anything else (no
    # argument, -h, an unknown word) gets the full parser's help or error
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    args.argv = argv
    try:
        return args.func(args)
    except InfeasibleInstanceError as exc:
        print(json.dumps({"command": args.command, "error": "infeasible", "detail": str(exc)}))
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(json.dumps({"command": args.command, "error": "input", "detail": str(exc)}))
        return EXIT_INPUT
    except InternalError as exc:
        print(json.dumps({"command": args.command, "error": "internal", "detail": str(exc)}))
        return EXIT_INTERNAL
    except MemoryError:
        print(json.dumps({"command": args.command, "error": "input", "detail": OUT_OF_MEMORY}))
        return EXIT_INPUT
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"command": args.command, "error": "internal", "detail": detail}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
