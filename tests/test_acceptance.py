"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from tsn.approx import charikar, shortest_paths_union
from tsn.cli import main
from tsn.core import (
    InfeasibleInstanceError,
    is_feasible,
    satisfies,
    solution_from_dict,
    solution_from_edges,
    load_json,
)
from tsn.exact import brute_force, build_ilp, solve_bb
from tsn.hardness import (
    example1_label_cover,
    gen_nosat_phlc,
    gen_yes_lc,
    gen_yes_phlc,
    phlc_to_kdtsn,
)
from tsn.monotonic import (
    normalize_to_time_layered_tree,
    priority_to_tsn,
    single_source_to_dst,
    tsn_to_priority,
)
from tsn.variants import node_edge_to_node, node_to_edge, to_simple

from helpers import (
    assignment_objective,
    assignment_satisfies,
    dst_brute,
    dst_solution_to_tsn,
    earliest_necessary_times,
    hub_instance,
    priority_brute,
    rand_instance,
    rand_monotonic_single_source,
    rand_priority_instance,
)
from test_exact import _random_simple_instance
from test_monotonic import rand_monotonic_undirected


def report(number, label, started, limit=None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS ({label}, {elapsed:.2f}s)")


def test_criterion_1_example1_reproduction(tmp_path, capsys):
    """Generated toy instance solves to optimum cost 1 with both demands
    satisfied, in under a second."""
    started = time.perf_counter()
    path = tmp_path / "ex1.json"
    sol_path = tmp_path / "sol.json"
    assert main(["gen", "--kind", "example1", "-o", str(path)]) == 0
    assert main(["solve", "-i", str(path), "--method", "bb", "-o", str(sol_path)]) == 0
    solution, feasible = solution_from_dict(load_json(str(sol_path)))
    assert feasible and solution is not None
    assert solution.cost == Fraction(1)
    inst, _ = phlc_to_kdtsn(example1_label_cover())
    for d in inst.demands:
        assert satisfies(inst, solution, d)
    assert brute_force(inst).cost == Fraction(1)
    with capsys.disabled():
        report(1, "toy instance optimum 1", started, limit=1.0)


def test_criterion_2_yes_gap_two_demands(capsys):
    """Every generated satisfiable bipartite instance with at most three
    constraint edges and three labels yields a gadget optimum of exactly
    the constraint-edge count."""
    started = time.perf_counter()
    shapes = [  # (left, right, degree) with |E| = left * degree <= 3
        (1, 1, 1),
        (1, 2, 2),
        (1, 3, 3),
        (2, 2, 1),
        (3, 3, 1),
    ]
    checked = 0
    for (u, v, deg), sigma, seed in product(shapes, (1, 2, 3), (0, 1)):
        lc = gen_yes_lc(u, v, deg, sigma, seed)
        assert len(lc.edges) <= 3
        inst, _ = phlc_to_kdtsn(lc)
        opt = brute_force(inst).cost
        assert opt == len(lc.edges), (u, v, deg, sigma, seed)
        checked += 1
    assert checked == 30
    with capsys.disabled():
        report(2, f"{checked} YES instances at optimum |E|", started, limit=30.0)


def test_criterion_3_k_gap_three_demands(capsys):
    """One totally-unsatisfiable three-part construction costs 3 per
    constraint edge; a strongly-satisfiable one costs 1: the factor-k gap."""
    started = time.perf_counter()
    nosat = gen_nosat_phlc(3, [1, 1, 1], 1, 2)
    inst_no, _ = phlc_to_kdtsn(nosat)
    assert brute_force(inst_no).cost == Fraction(3)
    yes = gen_yes_phlc(3, [1, 1, 1], 1, 2, seed=4)
    inst_yes, _ = phlc_to_kdtsn(yes)
    assert brute_force(inst_yes).cost == Fraction(1)
    with capsys.disabled():
        report(3, "unsatisfiable costs 3, satisfiable costs 1", started, limit=60.0)


def test_criterion_4_oracle_equivalence(capsys):
    """Branch and bound agrees exactly with the subset oracle on 500 random
    mixed instances (directed/undirected, all variants)."""
    started = time.perf_counter()
    rng = random.Random(20240)
    solved = 0
    trials = 0
    while solved < 500:
        trials += 1
        inst = rand_instance(rng, max_edges=6, max_demands=3)
        try:
            expected = brute_force(inst)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                solve_bb(inst)
            continue
        got = solve_bb(inst)
        assert got.cost == expected.cost, f"mismatch on trial {trials}"
        assert is_feasible(inst, got) and is_feasible(inst, expected)
        solved += 1
    with capsys.disabled():
        report(4, f"{solved} feasible instances, zero mismatches", started, limit=300.0)


def test_criterion_5_strict_reduction_preservation(capsys):
    """Each reduction preserves the optimum exactly on 200 random instances."""
    started = time.perf_counter()
    rng = random.Random(20241)

    def opt_or_none(instance):
        try:
            return brute_force(instance).cost
        except InfeasibleInstanceError:
            return None

    done = 0
    while done < 200:  # node_edge_to_node
        inst = rand_instance(rng, variant="node_and_edge", max_edges=6)
        image, rmap = node_edge_to_node(inst)
        a, b = opt_or_none(inst), opt_or_none(image)
        assert a == b
        done += 1

    done = 0
    while done < 200:  # node_to_edge
        inst = rand_instance(rng, variant="node", max_edges=6)
        image, rmap = node_to_edge(inst)
        assert opt_or_none(inst) == opt_or_none(image)
        done += 1

    done = 0
    while done < 200:  # to_simple
        inst = rand_instance(rng, directed=True, variant="node", max_edges=6)
        image, rmap = to_simple(inst)
        assert opt_or_none(inst) == opt_or_none(image)
        done += 1

    done = 0
    while done < 200:  # priority both directions
        p = rand_priority_instance(rng)
        image, rmap = priority_to_tsn(p)
        assert priority_brute(p) == opt_or_none(image)
        mono = rand_monotonic_undirected(rng)
        q = tsn_to_priority(mono)
        assert priority_brute(q) == opt_or_none(mono)
        done += 1

    done = 0
    while done < 200:  # level graph, both directions via projection
        inst = rand_monotonic_single_source(rng, max_edges=6)
        dst = single_source_to_dst(inst)
        opt = brute_force(inst).cost
        cost, level_ids = dst_brute(dst)
        assert cost == opt
        lifted = dst_solution_to_tsn(dst, level_ids)
        assert lifted.cost == opt and is_feasible(inst, lifted)
        done += 1
    with capsys.disabled():
        report(5, "5 reductions x 200 instances, zero mismatches", started)


def test_criterion_6_trivial_approximation_bound(capsys):
    """Per-demand shortest paths never exceed k times the optimum, and the
    hub pathology realises ratio 27/10 at k=3, C=10, eps=1."""
    started = time.perf_counter()
    rng = random.Random(20242)
    done = 0
    while done < 200:
        inst = rand_instance(rng, max_edges=6)
        if not inst.demands:
            continue
        try:
            opt = brute_force(inst).cost
        except InfeasibleInstanceError:
            continue
        sol = shortest_paths_union(inst)
        assert is_feasible(inst, sol)
        assert sol.cost <= len(inst.demands) * opt
        done += 1
    hub = hub_instance(C=10, eps=1, k=3)
    union = shortest_paths_union(hub)
    opt = brute_force(hub).cost
    assert union.cost == Fraction(27) and opt == Fraction(10)
    assert union.cost / opt == Fraction(27, 10)
    with capsys.disabled():
        report(6, "union <= k*OPT on 200 instances; hub ratio 27/10", started)


def test_criterion_7_recursive_greedy_bound(capsys):
    """Level-1 stays within k*OPT, level-2 within 4*sqrt(k)*OPT, on 200
    random monotonic single-source instances; the hub instance solves to
    exactly C at level 2."""
    started = time.perf_counter()
    rng = random.Random(20243)
    done = 0
    while done < 200:
        inst = rand_monotonic_single_source(rng, max_edges=6)
        opt = brute_force(inst).cost
        k = len(inst.demands)
        s1 = charikar(inst, 1)
        assert is_feasible(inst, s1)
        assert s1.cost <= k * opt
        s2 = charikar(inst, 2)
        assert is_feasible(inst, s2)
        assert s2.cost**2 <= 16 * k * opt**2  # cost <= 4 sqrt(k) OPT
        done += 1
    hub = hub_instance(C=10, eps=1, k=3)
    assert charikar(hub, 2).cost == Fraction(10)
    with capsys.disabled():
        report(7, "levels 1-2 within bounds on 200 instances; hub at C", started)


def test_criterion_8_ilp_validity(capsys):
    """On every model with at most 14 binaries, the satisfying assignments
    project exactly onto the feasible edge subsets and the minimum objective
    equals the oracle optimum."""
    started = time.perf_counter()
    rng = random.Random(20244)
    done = 0
    while done < 40:
        inst = _random_simple_instance(rng)
        try:
            model = build_ilp(inst)
        except InfeasibleInstanceError:
            continue
        if len(model.binaries) > 14:
            continue
        projections = set()
        best = None
        for bits in product((0, 1), repeat=len(model.binaries)):
            values = dict(zip(model.binaries, bits))
            if not assignment_satisfies(model, values):
                continue
            projections.add(
                frozenset(i for i, var in enumerate(model.edge_var) if values[var])
            )
            obj = assignment_objective(model, values)
            if best is None or obj < best:
                best = obj
        feasible_sets = {
            frozenset(i for i in range(len(inst.edges)) if mask >> i & 1)
            for mask in range(1 << len(inst.edges))
            if is_feasible(inst, [i for i in range(len(inst.edges)) if mask >> i & 1])
        }
        assert projections == feasible_sets
        if feasible_sets:
            assert best == brute_force(inst).cost
        else:
            assert best is None
        done += 1
    with capsys.disabled():
        report(8, f"{done} models, exact projection + optimum match", started)


def test_criterion_9_tree_normalization(capsys):
    """Normalising 200 random feasible monotonic single-source solutions
    always yields a feasible tree, never costlier, with non-decreasing
    earliest necessary times along root paths."""
    started = time.perf_counter()
    rng = random.Random(20245)
    done = 0
    while done < 200:
        inst = rand_monotonic_single_source(rng)
        if rng.random() < 0.5:
            base = set(range(len(inst.edges)))
        else:
            base = set(brute_force(inst).edges)
            base |= {i for i in range(len(inst.edges)) if rng.random() < 0.4}
        sol = solution_from_edges(inst, base)
        if not is_feasible(inst, sol):
            continue
        out = normalize_to_time_layered_tree(inst, sol)
        assert out.cost <= sol.cost
        assert is_feasible(inst, out)
        indeg = {}
        for i in out.edges:
            e = inst.edges[i]
            indeg[e.v] = indeg.get(e.v, 0) + 1
            assert indeg[e.v] <= 1
        ent = earliest_necessary_times(inst, out.edges)
        assert all(t is not None for t in ent.values())
        out_by = {}
        for i in out.edges:
            out_by.setdefault(inst.edges[i].u, []).append(i)

        def walk(v, floor):
            for i in out_by.get(v, ()):
                assert ent[i] >= floor
                walk(inst.edges[i].v, ent[i])

        walk(inst.demands[0].a, 0)
        done += 1
    with capsys.disabled():
        report(9, "200 normalisations: tree, monotone, feasible, no costlier", started)


def test_criterion_10_determinism(tmp_path, capsys):
    """Every solver and generator rerun with identical seed and flags
    produces byte-identical files."""
    started = time.perf_counter()
    runs = {
        "gen-lc": ["gen", "--kind", "lc-yes", "--u", "2", "--v", "2", "--degree", "1",
                    "--sigma", "3", "--seed", "9"],
        "gen-phlc": ["gen", "--kind", "phlc-yes", "--k", "3", "--part-sizes", "1,1,1",
                      "--edges", "1", "--sigma", "2", "--seed", "9"],
        "gen-ex1": ["gen", "--kind", "example1"],
    }
    produced = {}
    for name, argv in runs.items():
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.json"
            assert main(argv + ["-o", str(out)]) == 0
            produced.setdefault(name, []).append(out.read_bytes())
        assert produced[name][0] == produced[name][1]
    inst_path = tmp_path / "gen-ex1-a.json"
    for method in ("brute", "bb"):
        blobs = []
        for attempt in ("a", "b"):
            sol = tmp_path / f"sol-{method}-{attempt}.json"
            assert main(["solve", "-i", str(inst_path), "--method", method, "-o", str(sol)]) == 0
            blobs.append(sol.read_bytes())
        assert blobs[0] == blobs[1]
    # approximation methods are checked on a monotonic single-source input
    from tsn.core import dump_json, instance_to_dict

    mono = rand_monotonic_single_source(random.Random(77), max_edges=6)
    mono_path = tmp_path / "mono.json"
    dump_json(instance_to_dict(mono), str(mono_path))
    for method, extra in (("union", []), ("charikar", ["--level", "2"])):
        blobs = []
        for attempt in ("a", "b"):
            sol = tmp_path / f"sol-{method}-{attempt}.json"
            args = ["approx", "-i", str(mono_path), "--method", method, "-o", str(sol)] + extra
            assert main(args) == 0
            blobs.append(sol.read_bytes())
        assert blobs[0] == blobs[1]
    with capsys.disabled():
        report(10, "byte-identical reruns for generators and solvers", started)
