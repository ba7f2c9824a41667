import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsn.core import (
    Demand,
    Edge,
    FrameIndex,
    InfeasibleInstanceError,
    InputError,
    InternalError,
    effective_times,
    first_unsatisfiable_demand,
    instance_to_dict,
    is_feasible,
    make_instance,
    solution_cost,
)
from tsn.exact import (
    BruteForceCapError,
    _local_search,
    _thin,
    brute_force,
    build_ilp,
    emit_lp,
    models_equivalent,
    parse_lp,
    solve_bb,
)
from tsn.hardness import (
    example1_label_cover,
    gen_nosat_phlc,
    gen_yes_lc,
    phlc_to_kdtsn,
)
from tsn.variants import node_to_edge, normalize, reduction_map_to_dict, to_simple

from helpers import (
    assignment_objective,
    assignment_satisfies,
    naive_brute,
    rand_feasible_instance,
    rand_instance,
    rand_monotonic_single_source,
)

BOUND_WEIGHTS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))


def bb_corpus():
    """540 seeded feasible instances: random ones with the tie-prone weights
    above and with integer weights, and random monotonic single-source
    ones."""
    rng = random.Random(6029)
    for n in range(540):
        kind = n % 3
        if kind == 0:
            yield rand_feasible_instance(
                rng, max_vertices=7, max_edges=12, max_times=3, max_demands=4,
                weights=BOUND_WEIGHTS,
            )
        elif kind == 1:
            yield rand_feasible_instance(
                rng, max_vertices=7, max_edges=12, max_times=3, max_demands=4
            )
        else:
            yield rand_monotonic_single_source(
                rng, max_vertices=7, max_edges=14, max_times=3, max_demands=5,
                weights=BOUND_WEIGHTS,
            )


def bb_corpus_digest():
    """sha256 over the `solve_bb` solutions of `bb_corpus`.  Which of tied
    optima comes back is fixed by the input alone (the root incumbent, the
    local search and the branch order), so any change to those orders, to
    the bounds that decide whether the root returns or to the search
    changes the digest."""
    h = hashlib.sha256()
    for inst in bb_corpus():
        sol = solve_bb(inst)
        h.update(f"{sol.edges} {sol.cost}\n".encode())
    return h.hexdigest()


def brute_search_digest():
    """sha256 over `brute_force` on `bb_corpus`: each solution with the
    search's `completion_tests` and `improvements`, so a change to which
    nodes the search tests or which leaves it keeps changes the digest."""
    h = hashlib.sha256()
    for inst in bb_corpus():
        stats = {}
        sol = brute_force(inst, stats=stats)
        h.update(f"{sol.edges} {sol.cost} {stats['completion_tests']} {stats['improvements']}\n".encode())
    return h.hexdigest()


def brute_corpus_digest():
    """sha256 over the `brute_force` results of 600 seeded instances: random
    ones with many zero-weight edges (infeasible ones recorded by their
    error), feasible ones with the tie-prone weights above, and random
    monotonic single-source ones.  Any change to which optimum the oracle
    returns changes the digest."""
    rng = random.Random(7121)
    h = hashlib.sha256()
    for n in range(600):
        kind = n % 3
        if kind == 0:
            inst = rand_instance(rng, max_edges=10, zero_weight_share=0.45)
        elif kind == 1:
            inst = rand_feasible_instance(
                rng, max_vertices=7, max_edges=14, max_times=3, max_demands=4,
                weights=BOUND_WEIGHTS,
            )
        else:
            inst = rand_monotonic_single_source(
                rng, max_vertices=7, max_edges=14, max_times=3, max_demands=5,
            )
        try:
            sol = brute_force(inst)
        except InfeasibleInstanceError as exc:
            h.update(f"infeasible {exc}\n".encode())
        else:
            h.update(f"{sol.edges} {sol.cost}\n".encode())
    return h.hexdigest()


class TestBruteForce:
    def test_no_demands_empty_solution(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", 1, (1,))], demands=[],
        )
        sol = brute_force(inst)
        assert sol.edges == () and sol.cost == 0

    def test_shortcut_beats_path(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "x", "y", "b"],
            edges=[
                ("a", "x", 2, (1,)),
                ("x", "y", 2, (1,)),
                ("y", "b", 2, (1,)),
                ("a", "b", 5, (1,)),
            ],
            demands=[("a", "b", 1)],
        )
        sol = brute_force(inst)
        assert sol.edges == (3,) and sol.cost == 5

    def test_infeasible_reported(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("b", "a", 1, (1,))],
            demands=[("a", "b", 1)],
        )
        with pytest.raises(InfeasibleInstanceError):
            brute_force(inst)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr("tsn.exact.BRUTE_CAP", 0)
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", 1, (1,))], demands=[],
        )
        with pytest.raises(BruteForceCapError):
            brute_force(inst)

    def test_matches_literal_enumeration(self):
        # the greedy implementation must reproduce the naive subset scan
        # exactly, including the lexicographic tie-break over index tuples
        rng = random.Random(99)
        checked = 0
        while checked < 120:
            inst = rand_instance(rng, max_edges=6, zero_weight_share=0.45)
            expected = naive_brute(inst)
            if expected is None:
                with pytest.raises(InfeasibleInstanceError):
                    brute_force(inst)
            else:
                got = brute_force(inst)
                assert got == expected
            checked += 1

    def test_solutions_are_pinned_on_seeded_corpus(self):
        # digest taken from the two-search oracle (an optimum search, then a
        # lexicographic greedy that re-ran it per edge); the single
        # include-first search must return the same set on every instance
        assert brute_corpus_digest() == "42419c6428eed86ed9c5ac8794415fb60437c719495fa7767582332d8d5f53d0"

    def test_search_is_pinned_on_bb_corpus(self):
        # recorded before the completion sets became masks and the root
        # stopped being tested twice: the same solutions, tests and leaves
        assert brute_search_digest() == "0759890784157245eb25ed983f0cafdb0ad681276a296eadeb93ce88006997f9"

    @pytest.mark.parametrize(
        "u, v, degree, sigma, seed, edges, left_out, tests, improvements",
        [
            (3, 3, 2, 2, 0, 63, (0, 3, 12, 15, 30, 33, 46, 49, 58), 380, 10),
            (3, 3, 2, 2, 1, 66, (6, 9, 18, 21, 24, 27, 40, 43, 46, 49, 52, 61), 380, 13),
            (3, 3, 2, 2, 2, 63, (6, 9, 18, 21, 30, 33, 36, 53, 58), 234, 10),
            (3, 3, 2, 3, 0, 99, (0, 3, 12, 15, 18, 21, 30, 33, 42, 45, 48, 51, 54, 57,
                                 64, 69, 72, 75, 78, 81, 92, 97, 98), 7932, 22),
        ],
        ids=["lc-yes-3322-s0", "lc-yes-3322-s1", "lc-yes-3322-s2", "lc-yes-3323-s0"],
    )
    def test_search_pinned_on_gadgets(
        self, monkeypatch, u, v, degree, sigma, seed, edges, left_out, tests, improvements
    ):
        # edge sets recorded before the completion test cut subtrees with no
        # feasible leaf, pinned by the edges the solution leaves out.  Before
        # it, brute force tested every leaf it reached: the three 3/3/2/2
        # draws made 10,205, 14,010 and 5,591 feasibility calls, against
        # 415, 412 and 269 with it (tie-break pass included)
        inst, _ = phlc_to_kdtsn(gen_yes_lc(u, v, degree, sigma, seed=seed))
        assert len(inst.edges) == edges
        monkeypatch.setattr("tsn.exact.BRUTE_CAP", edges)
        stats = {}
        sol = brute_force(inst, stats=stats)
        assert sol.edges == tuple(i for i in range(edges) if i not in left_out)
        assert solve_bb(inst).cost == sol.cost == 6
        assert stats == {"completion_tests": tests, "improvements": improvements}

    def test_deterministic(self):
        rng = random.Random(17)
        inst = rand_instance(rng, max_edges=6)
        try:
            first = brute_force(inst)
        except InfeasibleInstanceError:
            return
        assert brute_force(inst) == first


class TestSolveBb:
    def test_example1_cost_one(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        assert solve_bb(inst).cost == 1

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(23)
        agree = 0
        while agree < 150:
            inst = rand_instance(rng, max_edges=6)
            try:
                expected = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    solve_bb(inst)
                continue
            got = solve_bb(inst)
            assert got.cost == expected.cost
            assert is_feasible(inst, got)
            assert solution_cost(inst, got) == got.cost
            agree += 1

    def test_yes_label_cover_instance_cost_is_edge_count(self):
        lc = gen_yes_lc(2, 2, 1, 2, seed=5)
        inst, _ = phlc_to_kdtsn(lc)
        sol = solve_bb(inst)
        assert sol.cost == len(lc.edges)

    @pytest.mark.parametrize("variant", ["edge", "node", "node_and_edge"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_brute_with_mixed_denominators(self, directed, variant):
        # the integer kernel scales weights by the LCM of their
        # denominators; optima must still agree exactly with brute force
        rng = random.Random(f"mixed/{directed}/{variant}")
        weights = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(0))
        agree = 0
        while agree < 20:
            inst = rand_instance(
                rng, directed=directed, variant=variant, max_edges=7, weights=weights
            )
            try:
                expected = brute_force(inst)
            except InfeasibleInstanceError:
                continue
            got = solve_bb(inst)
            assert got.cost == expected.cost
            assert isinstance(got.cost, Fraction)
            assert is_feasible(inst, got)
            agree += 1

    @pytest.mark.parametrize(
        "make, nodes",
        [
            (lambda: phlc_to_kdtsn(gen_yes_lc(3, 3, 2, 3, seed=0)), 1),
            (lambda: phlc_to_kdtsn(gen_nosat_phlc(3, [2, 2, 2], 3, 2, seed=0)), 1),
        ],
        ids=["lc-yes-u3", "phlc-nosat-k3"],
    )
    def test_node_count_pinned_on_gadgets(self, make, nodes):
        # the search itself (root incumbent, local search, branch order,
        # bounds, fixing) is fixed: only the time per node may change.
        # Before the dual-ascent bound these took 3559 and 1383 nodes,
        # before the search stopped at an incumbent that meets the root
        # bound 383 and 105, and before the root returned an incumbent that
        # meets its bound 307 and 62.
        inst, _ = make()
        stats = {}
        solve_bb(inst, stats)
        assert stats["nodes"] == nodes

    @pytest.mark.parametrize(
        "u, degree, sigma, cost", [(12, 4, 4, 48), (32, 5, 5, 160)], ids=["lc-yes-12", "lc-yes-32"]
    )
    def test_large_gadgets_close_at_the_root(self, u, degree, sigma, cost):
        # root bound and incumbent meet: no search, where the first optimum
        # in branch order took 1,129 and 4,913 nodes
        inst, _ = phlc_to_kdtsn(gen_yes_lc(u, u, degree, sigma, seed=0))
        stats = {}
        sol = solve_bb(inst, stats)
        assert sol.cost == cost
        assert stats["nodes"] == stats["incumbent_updates"] == 1
        assert stats["root_lower_bound"] == stats["root_upper_bound"] == cost

    def test_long_path_does_not_hit_recursion_limit(self):
        n = 1500
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=[f"v{i}" for i in range(n + 1)],
            edges=[(f"v{i}", f"v{i + 1}", 1, (1,)) for i in range(n)],
            demands=[("v0", f"v{n}", 1)],
        )
        sol = solve_bb(inst)
        assert sol.cost == n
        assert sol.edges == tuple(range(n))

    def test_solutions_are_pinned_on_seeded_corpus(self):
        # re-taken when the root began to return an incumbent that meets its
        # bound and to improve it by local search: the optimum returned is
        # no longer the first in branch order, and its cost is brute force's
        # (test_costs_match_brute_on_seeded_corpus)
        assert bb_corpus_digest() == "78c73061dab4f759533f3e7b607efbd2ec3620db7b3d22e8a5db5f69236ad6cb"

    def test_costs_match_brute_on_seeded_corpus(self):
        for inst in bb_corpus():
            got = solve_bb(inst)
            assert got.cost == brute_force(inst).cost
            assert is_feasible(inst, got)

    @pytest.mark.parametrize("seed", [2179, 6452, 7176, 11254, 11798, 15643, 15819, 16267])
    def test_search_below_the_root(self, seed):
        # drawn so that the search leaves the root, updates its incumbent
        # below it and prunes a node whose included edges alone reach the
        # incumbent (`budget <= 0`): no gadget and no other test of the
        # suite gets there, since they all close at the root
        inst = rand_feasible_instance(
            random.Random(seed), max_vertices=8, max_edges=18, max_times=3, max_demands=5
        )
        stats = {}
        got = solve_bb(inst, stats)
        assert got.cost == brute_force(inst).cost
        assert stats["incumbent_updates"] >= 2
        assert stats["completion_prunes"] >= 1
        assert is_feasible(inst, got)

    def test_counts_nodes(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        stats = {}
        solve_bb(inst, stats)
        assert stats["nodes"] > 0


def _bound_corpus(seed, count, max_edges=7):
    """Feasible instances of every kind the dual ascent must handle: random
    directed and undirected ones in all three variants and random monotonic
    single-source ones, with the tie-prone weights {0, 1, 2, 1/2, 1/3, 2/7}."""
    rng = random.Random(seed)
    for n in range(count):
        if n % 4 == 3:
            yield rand_monotonic_single_source(
                rng, max_vertices=6, max_edges=max_edges, max_demands=4,
                weights=BOUND_WEIGHTS,
            )
        else:
            yield rand_feasible_instance(
                rng, directed=n % 4 != 1, variant=("edge", "node", "node_and_edge")[n % 3],
                max_vertices=6, max_edges=max_edges, max_demands=4, weights=BOUND_WEIGHTS,
            )


def _masks(state):
    """The included and excluded masks of a 0 undecided, 1 included, 2 excluded list."""
    return bytearray(s == 1 for s in state), bytearray(s == 2 for s in state)


def dual_ascent_digest():
    """sha256 over `FrameIndex.dual_ascent` on `_bound_corpus`: the root
    call over every demand, then three budgeted calls per instance under
    random include/exclude masks over the demands the included edges leave
    unmet, each recorded as (bound, reduced costs).  A change to how the
    ascent grows its cuts or picks a demand changes the digest, even where
    the bound stays below the optimum."""
    rng = random.Random(3907)
    h = hashlib.sha256()
    for inst in _bound_corpus("digest", 300, max_edges=10):
        fidx = FrameIndex(inst)
        state = bytearray(len(inst.edges))
        h.update(f"{fidx.dual_ascent(*_masks(state), list(range(len(fidx.demands))))}\n".encode())
        for _ in range(3):
            state = bytearray(rng.choice((0, 0, 1, 2)) for _ in inst.edges)
            included, excluded = _masks(state)
            unmet = [j for j in range(len(fidx.demands)) if not fidx.reaches(j, included)]
            budget = rng.randint(1, sum(fidx.weight) + 1)
            h.update(f"{fidx.dual_ascent(included, excluded, unmet, budget)}\n".encode())
    return h.hexdigest()


def _root_incumbent(fidx):
    """The root's lower bound, and its incumbent before the local search:
    the edges of reduced cost 0, thinned."""
    state = bytearray(len(fidx.weight))
    lower, reduced = fidx.dual_ascent(*_masks(state), list(range(len(fidx.demands))))
    member = bytearray(r == 0 for r in reduced)
    _thin(fidx, member)
    return lower, member


def _cheapest_completion(fidx, state, must=None):
    """Scaled cost of the cheapest undecided edges that, with the included
    ones (and edge `must`, when given), meet every demand; None when no
    such set exists.  Plain enumeration of the undecided edges."""
    free = [i for i, s in enumerate(state) if s == 0 and i != must]
    fixed, base = bytearray(s == 1 for s in state), 0
    if must is not None:
        fixed[must], base = 1, fidx.weight[must]
    best = None
    for pick in range(1 << len(free)):
        member, cost = fixed.copy(), base
        for k, i in enumerate(free):
            if pick >> k & 1:
                member[i] = 1
                cost += fidx.weight[i]
        if (best is None or cost < best) and fidx.first_unmet(member) is None:
            best = cost
    return best


class TestInfeasibleDemandNamed:
    """Both exact solvers name the demand that `first_unsatisfiable_demand`
    names.  The index drops demands with equal endpoints, so on instances
    that open with one an index position is not an input position."""

    @staticmethod
    def assert_both_name(inst):
        expected = first_unsatisfiable_demand(inst)
        assert expected is not None
        for solve in (brute_force, solve_bb):
            with pytest.raises(InfeasibleInstanceError) as info:
                solve(inst)
            assert info.value.demand == expected

    def test_hand_built_instance_opening_with_a_self_demand(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b", "c"], edges=[("a", "b", 1, (1,))],
            demands=[("c", "c", 1), ("a", "b", 1), ("b", "a", 1), ("a", "c", 1)],
        )
        self.assert_both_name(inst)
        assert first_unsatisfiable_demand(inst) == Demand("b", "a", 1)

    def test_seeded_instances_opening_with_a_self_demand(self):
        rng = random.Random(4409)
        checked = 0
        while checked < 150:
            inst = rand_instance(rng, max_edges=6, max_demands=4)
            if first_unsatisfiable_demand(inst) is None:
                continue
            v = rng.choice(inst.vertices)
            inst = replace(inst, demands=(Demand(v, v, rng.randint(1, inst.num_times)),) + inst.demands)
            self.assert_both_name(inst)
            checked += 1


class TestDualAscent:
    def test_root_bound_never_exceeds_brute_force_optimum(self):
        for inst in _bound_corpus("root", 160):
            fidx = FrameIndex(inst)
            state = bytearray(len(inst.edges))
            bound, reduced = fidx.dual_ascent(*_masks(state), list(range(len(fidx.demands))))
            assert isinstance(bound, int)
            assert Fraction(bound, fidx.scale) <= brute_force(inst).cost
            assert all(0 <= r <= w for r, w in zip(reduced, fidx.weight))

    def test_bounds_and_reduced_costs_are_pinned(self):
        # recorded while the ascent grew S with two routines, one for the
        # first cut and one for the cuts a raise made tight; the other tests
        # here check only that the bound stays below a completion
        assert dual_ascent_digest() == "779c4adb3210ade51cd7fbf60ed276f8911a9ed8488b7730c19e7f4ef6bbdad9"

    def test_bound_never_exceeds_cheapest_completion_of_a_node(self):
        # random include/exclude decisions: the ascent over the demands the
        # included edges leave unmet never exceeds what finishing them costs
        rng = random.Random(71)
        checked = 0
        for inst in _bound_corpus("node", 400):
            fidx = FrameIndex(inst)
            # 0 undecided, 1 included, 2 excluded
            state = bytearray(rng.choice((0, 0, 1, 2)) for _ in inst.edges)
            if fidx.first_unmet(bytearray(s != 2 for s in state)) is not None:
                continue  # some demand has no completion: the ascent reports it
            included = bytearray(s == 1 for s in state)
            unmet = [j for j in range(len(fidx.demands)) if not fidx.reaches(j, included)]
            bound, _ = fidx.dual_ascent(*_masks(state), unmet)
            assert bound <= _cheapest_completion(fidx, state)
            checked += 1
        assert checked >= 150

    def test_reduced_costs_only_fix_edges_outside_every_optimum(self):
        # any solution through edge e costs at least LB + reduced[e], so an
        # edge fixed by LB + reduced[e] > UB is in no solution of cost <= UB
        for inst in _bound_corpus("fixing", 120, max_edges=6):
            fidx = FrameIndex(inst)
            state = bytearray(len(inst.edges))
            bound, reduced = fidx.dual_ascent(*_masks(state), list(range(len(fidx.demands))))
            for e in range(len(inst.edges)):
                through = _cheapest_completion(fidx, state, must=e)
                if through is not None:
                    assert through >= bound + reduced[e]

    def test_budget_stops_the_ascent_early(self):
        inst, _ = phlc_to_kdtsn(gen_nosat_phlc(3, [2, 2, 2], 3, 2, seed=0))
        fidx = FrameIndex(inst)
        state = bytearray(len(inst.edges))
        everything = list(range(len(fidx.demands)))
        full, _ = fidx.dual_ascent(*_masks(state), everything)
        assert full == 9 * fidx.scale  # k * |E|, the planted optimum
        for budget in range(1, full + 1):
            bound, _ = fidx.dual_ascent(*_masks(state), everything, budget)
            assert budget <= bound <= full

    def test_budgeted_ascent_reports_a_demand_without_completion(self):
        # a -> x -> b is the only path and x -> b is excluded: under a
        # budget the ascent reports the dead demand, without one it is an
        # internal error
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1,)), ("x", "b", 1, (1,))],
            demands=[("a", "b", 1)],
        )
        fidx = FrameIndex(inst)
        state = bytearray([0, 2])
        bound, _ = fidx.dual_ascent(*_masks(state), [0], 5)
        assert bound is None
        with pytest.raises(InternalError):
            fidx.dual_ascent(*_masks(state), [0])

    def test_reverse_delete_leaves_a_minimal_feasible_set(self):
        rng = random.Random(5)
        for inst in _bound_corpus("delete", 120, max_edges=9):
            fidx = FrameIndex(inst)
            member = bytearray([1]) * len(inst.edges)
            candidates = [i for i in range(len(inst.edges)) if fidx.weight[i]]
            rng.shuffle(candidates)
            fidx.reverse_delete(member, candidates)
            kept = [i for i, m in enumerate(member) if m]
            # the name-keyed check, independent of the index's `reaches`
            assert is_feasible(inst, kept)
            for e in candidates:
                if member[e]:
                    assert not is_feasible(inst, [i for i in kept if i != e])

    def test_root_bounds_bracket_the_optimum(self):
        for make in (
            lambda: phlc_to_kdtsn(example1_label_cover()),
            lambda: phlc_to_kdtsn(gen_yes_lc(3, 3, 2, 3, seed=1)),
            lambda: phlc_to_kdtsn(gen_nosat_phlc(3, [2, 2, 2], 3, 2, seed=0)),
        ):
            inst, _ = make()
            stats = {}
            cost = solve_bb(inst, stats).cost
            assert stats["root_lower_bound"] <= cost <= stats["root_upper_bound"]
            assert stats["incumbent_updates"] >= 1

    def test_local_search_only_improves_a_feasible_incumbent(self):
        improved = 0
        for inst in _bound_corpus("local", 400, max_edges=9):
            fidx = FrameIndex(inst)
            lower, member = _root_incumbent(fidx)
            start = sum(w for w, m in zip(fidx.weight, member) if m)
            upper, improvements = _local_search(fidx, member, start, lower)
            kept = [i for i, m in enumerate(member) if m]
            # the name-keyed check, independent of the index's `reaches`
            assert is_feasible(inst, kept)
            assert upper == sum(fidx.weight[i] for i in kept)
            assert lower <= upper <= start
            assert (improvements > 0) == (upper < start)
            stats = {}
            cost = solve_bb(inst, stats).cost
            assert stats["root_lower_bound"] <= cost <= stats["root_upper_bound"]
            assert stats["root_upper_bound"] == Fraction(upper, fidx.scale)
            assert stats["local_search_improvements"] == improvements
            improved += improvements > 0
        assert improved >= 5


def simple_path_instance():
    return make_instance(
        directed=True, variant="edge", num_times=1,
        vertices=["a", "x", "b"],
        edges=[("a", "x", 2, (1,)), ("x", "b", 3, (1,))],
        demands=[("a", "b", 1)],
    )


class TestBuildIlp:
    def test_single_edge_model(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", 4, (1,))],
            demands=[("a", "b", 1)],
        )
        model = build_ilp(inst)
        assert len(model.binaries) == 2
        assert model.objective == ((Fraction(4), "d_a_b"),)
        # the only satisfying assignments set both variables to one
        sats = []
        for bits in product((0, 1), repeat=2):
            values = dict(zip(model.binaries, bits))
            if assignment_satisfies(model, values):
                sats.append(values)
        assert len(sats) == 1
        assert all(v == 1 for v in sats[0].values())

    def test_conservation_ties_path_flows(self):
        model = build_ilp(simple_path_instance())
        rows = [c for c in model.constraints if c.kind == "conservation"]
        assert len(rows) == 1
        assert set(rows[0].terms) == {(1, "d_a_x_1"), (-1, "d_x_b_1")}

    def test_variable_count_matches_independent_tally(self):
        rng = random.Random(41)
        built = 0
        while built < 25:
            inst = _random_simple_instance(rng)
            if inst is None:
                continue
            try:
                model = build_ilp(inst)
            except InfeasibleInstanceError:
                continue
            expected = len(inst.edges)
            for t in range(1, inst.num_times + 1):
                expected += sum(1 for e in inst.edges if t in e.times)
            assert len(model.binaries) == expected
            built += 1

    @pytest.mark.parametrize("make, message", [
        (lambda: replace(simple_path_instance(), directed=False), "directed instances"),
        (lambda: replace(simple_path_instance(), demands=()), "at least one demand"),
        (lambda: replace(simple_path_instance(), num_times=2), "time horizon"),
        (lambda: make_instance(
            directed=True, variant="edge", num_times=1, vertices=["a", "b"],
            edges=[("a", "b", 1, (1,)), ("a", "b", 2, (1,))], demands=[("a", "b", 1)],
            allow_parallel=True,
        ), "parallel arcs 0 and 1"),
    ], ids=["undirected", "no-demands", "horizon-not-k", "parallel-arcs"])
    def test_input_errors(self, make, message):
        with pytest.raises(InputError, match=message):
            build_ilp(make())

    def test_node_variant_model_is_its_edge_image_model(self):
        # node activity is read directly, and an arc active at no time is
        # left out as node_to_edge drops it.  Node-variant parallel arcs
        # share their activity, so the dead pair p->q_r does not trip the
        # parallel check, and their names do not push the live p_q->r
        # (d_p_q_r too) to a suffix
        inst = make_instance(
            directed=True, variant="node", num_times=2,
            vertices=["a", "b", "p", "q_r", "p_q", "r"],
            edges=[("p", "q_r", 1), ("p", "q_r", 2), ("a", "p_q", 1), ("p_q", "r", 1),
                   ("r", "b", 1), ("a", "p", 3), ("p", "b", 0)],
            demands=[("a", "b", 1), ("a", "b", 2)],
            node_activity={"a": (1, 2), "b": (1, 2), "p": (1,), "q_r": (2,),
                           "p_q": (1, 2), "r": (1, 2)},
            allow_parallel=True,
        )
        model = build_ilp(inst)
        assert "d_p_q_r" in model.edge_var and len(model.edge_var) == 5
        assert emit_lp(model) == emit_lp(build_ilp(node_to_edge(inst)[0]))

    def test_rejects_non_simple_demands(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "b", "c"],
            edges=[("a", "b", 1, (1, 2)), ("a", "c", 1, (1, 2))],
            demands=[("a", "b", 1), ("a", "c", 2)],
        )
        with pytest.raises(Exception):
            build_ilp(inst)


def _random_simple_instance(rng, max_mid=2, max_edges=4, max_k=2):
    """Random directed instance shaped like a simplifying-reduction image:
    source without in-arcs, sink without out-arcs, demands (a,b,1..k)."""
    k = rng.randint(1, max_k)
    mids = [f"m{i}" for i in range(rng.randint(1, max_mid))]
    names = ["s"] + mids + ["t"]
    heads = mids + ["t"]
    tails = ["s"] + mids
    candidates = [(u, v) for u in tails for v in heads if u != v]
    rng.shuffle(candidates)
    m = rng.randint(2, max_edges)
    edges = []
    for (u, v) in candidates[:m]:
        times = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
        edges.append((u, v, rng.randint(0, 5), times))
    inst = make_instance(
        directed=True, variant="edge", num_times=k,
        vertices=names, edges=edges,
        demands=[("s", "t", i) for i in range(1, k + 1)],
    )
    return inst


def _flow_rows_by_scan(inst, model):
    """(terms, sense, rhs) of the conservation, source and sink rows, rebuilt
    from the model's coupling rows by a direct scan.  Coupling rows tie an
    edge's variable to its flow variables in increasing time order, so each
    row names one (edge, time, flow variable)."""
    a, b = inst.demands[0].a, inst.demands[0].b
    times = {var: sorted(effective_times(inst, i)) for i, var in enumerate(model.edge_var)}
    arcs = []
    for con in model.constraints:
        if con.kind == "coupling":
            (_, dvar), (_, fv) = con.terms
            i = model.edge_var.index(dvar)
            arcs.append((inst.edges[i], times[dvar].pop(0), fv))
    rows = {"conservation": [], "source": [], "sink": []}
    for t in range(1, inst.num_times + 1):
        for v in inst.vertices:
            if v in (a, b):
                continue
            terms = [(1, fv) for e, s, fv in arcs if s == t and e.v == v]
            terms += [(-1, fv) for e, s, fv in arcs if s == t and e.u == v]
            if terms:
                rows["conservation"].append((tuple(terms), "=", 0))
    for t in range(1, inst.num_times + 1):
        rows["source"].append((tuple((1, fv) for e, s, fv in arcs if s == t and e.u == a), "=", 1))
        rows["sink"].append((tuple((1, fv) for e, s, fv in arcs if s == t and e.v == b), "=", 1))
    return rows


def _name_collision_instance():
    """Vertex names that fuse under "_" joins: (a, b_c) and (a_b, c) share
    d_a_b_c, and the flow variable of c->b at time 2 meets the edge
    variable of c->b_2."""
    return make_instance(
        directed=True, variant="edge", num_times=2,
        vertices=["a", "a_b", "b_c", "b", "c", "c_1", "b_2"],
        edges=[("a", "b_c", 1, (1, 2)), ("a_b", "c", 2, (1, 2)), ("a", "a_b", 1, (1, 2)),
               ("b_c", "b", 1, (1,)), ("c", "b", 1, (2,)), ("c", "c_1", 1, (1, 2)),
               ("c_1", "b", 3, (1, 2)), ("c", "b_2", 1, (1, 2)), ("b_2", "b", 1, (1, 2))],
        demands=[("a", "b", 1), ("a", "b", 2)],
    )


# exact decimals and 1/3, which takes the objective-scale path
PIPELINE_DECIMAL_WEIGHTS = (Fraction(0), Fraction(1), Fraction(4), Fraction(1, 2), Fraction(3, 4))
PIPELINE_SCALED_WEIGHTS = PIPELINE_DECIMAL_WEIGHTS + (Fraction(1, 3),)
# names the simple form also makes (a, b, x1, y1), the node-and-edge split
# makes (x(...)#i) or that sanitise or join into one LP token
PIPELINE_NAMES = ("a", "b", "x1", "y1", "m(1)", "m,1,", "a_b", "b_c", "x(n0,n1)#0")


def _renamed(inst, names):
    """`inst` with its i-th vertex called names[i] (the rest keep theirs)."""
    new = dict(zip(inst.vertices, names))
    ren = lambda v: new.get(v, v)  # noqa: E731
    return replace(
        inst,
        vertices=tuple(map(ren, inst.vertices)),
        edges=tuple(replace(e, u=ren(e.u), v=ren(e.v)) for e in inst.edges),
        demands=tuple(Demand(ren(d.a), ren(d.b), d.t) for d in inst.demands),
        node_activity=None if inst.node_activity is None
        else {ren(v): ts for v, ts in inst.node_activity.items()},
    )


def simple_pipeline_corpus():
    """61 directed instances: 20 seeded draws with demands of each variant and
    `_name_collision_instance()`.  Weights are 0, integers, 1/2 and 3/4, and
    every other draw also has 1/3.  Every node_and_edge draw and every third
    node draw take the `PIPELINE_NAMES`, and every node draw after the fourth keeps
    stored `times` on its edges, which the node variant ignores.  With T at
    most 3, some vertices share an activity set and some do not."""
    rng = random.Random(2411)
    for n in range(60):
        variant = ("edge", "node", "node_and_edge")[n % 3]
        inst = None
        while inst is None or not inst.demands:
            inst = rand_instance(
                rng, directed=True, variant=variant, max_vertices=6, max_edges=10,
                max_times=3, max_demands=4,
                weights=PIPELINE_SCALED_WEIGHTS if n % 2 else PIPELINE_DECIMAL_WEIGHTS,
            )
        if variant == "node" and n >= 12:
            inst = replace(inst, edges=tuple(
                Edge(e.u, e.v, e.w, frozenset(rng.sample(range(1, 4), rng.randint(1, 3))))
                for e in inst.edges
            ))
        if n % 3 == 2 or n % 9 == 1:
            inst = _renamed(inst, PIPELINE_NAMES)
        yield inst
    yield _name_collision_instance()


def simple_pipeline_digest():
    """sha256 over, for each instance of `simple_pipeline_corpus`, the
    simple image `normalize(inst, "simple")` writes, its reduction steps
    and the LP text of `build_ilp` on that image (or the error it raises).
    Any change to the bytes of `reduce --to simple --map` or of
    `solve --method ilp-export` on these inputs changes the digest."""
    h = hashlib.sha256()
    for inst in simple_pipeline_corpus():
        image, steps = normalize(inst, "simple")
        h.update(json.dumps(instance_to_dict(image)).encode())
        h.update(json.dumps([reduction_map_to_dict(m) for m in steps]).encode())
        try:
            text = emit_lp(build_ilp(image))
        except (InfeasibleInstanceError, InputError) as exc:
            text = f"{type(exc).__name__}: {exc}"
        h.update(text.encode())
    return h.hexdigest()


class TestIlpRows:
    def test_flow_rows_match_a_direct_scan(self):
        rng = random.Random(67)
        gadget, _ = phlc_to_kdtsn(gen_yes_lc(3, 3, 2, 3, seed=1))
        cases = [_name_collision_instance(), to_simple(normalize(gadget, "node")[0])[0]]
        while len(cases) < 42:
            cases.append(_random_simple_instance(rng, max_mid=4, max_edges=10, max_k=3))
        built = 0
        for inst in cases:
            try:
                model = build_ilp(inst)
            except InfeasibleInstanceError:
                continue
            kinds = [c.kind for c in model.constraints]
            assert kinds == sorted(kinds, key=["coupling", "conservation", "source", "sink"].index)
            got = {
                kind: [(c.terms, c.sense, c.rhs) for c in model.constraints if c.kind == kind]
                for kind in ("conservation", "source", "sink")
            }
            assert got == _flow_rows_by_scan(inst, model)
            built += 1
        assert built >= 20

    def test_uniquified_names_are_pinned(self):
        model = build_ilp(_name_collision_instance())
        assert model.binaries == (
            "d_a_a_b", "d_a_a_b_1", "d_a_a_b_2", "d_a_b_c", "d_a_b_c_1", "d_a_b_c_2",
            "d_a_b_c__2", "d_a_b_c__2_1", "d_a_b_c__2_2", "d_b_2_b", "d_b_2_b_1", "d_b_2_b_2",
            "d_b_c_b", "d_b_c_b_1", "d_c_1_b", "d_c_1_b_1", "d_c_1_b_2", "d_c_b", "d_c_b_2",
            "d_c_b_2_1", "d_c_b_2_2", "d_c_b_2__2", "d_c_c_1", "d_c_c_1_1", "d_c_c_1_2",
        )
        assert [c.name for c in model.constraints] == [
            "cpl_a_b_c_1", "cpl_a_b_c_2", "cpl_a_b_c_1__2", "cpl_a_b_c_2__2", "cpl_a_a_b_1",
            "cpl_a_a_b_2", "cpl_b_c_b_1", "cpl_c_b_2", "cpl_c_c_1_1", "cpl_c_c_1_2",
            "cpl_c_1_b_1", "cpl_c_1_b_2", "cpl_c_b_2_1", "cpl_c_b_2_2", "cpl_b_2_b_1",
            "cpl_b_2_b_2", "cons_1_a_b", "cons_1_b_c", "cons_1_c", "cons_1_c_1", "cons_1_b_2",
            "cons_2_a_b", "cons_2_b_c", "cons_2_c", "cons_2_c_1", "cons_2_b_2",
            "src_1", "src_2", "snk_1", "snk_2",
        ]

    def test_simple_pipeline_digest_is_pinned(self):
        # the simple image, its map and the LP text, byte for byte: a faster
        # simple-form chain or LP writer must leave this digest where it is
        assert simple_pipeline_digest() == (
            "5eddb54f1483bc0e0cd68c2d31a4e64e359c272801df530816df2ec2d32cec1f"
        )

class TestIlpValidity:
    def test_satisfying_assignments_project_onto_feasible_solutions(self):
        rng = random.Random(59)
        done = 0
        while done < 20:
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
                chosen = frozenset(
                    i for i, var in enumerate(model.edge_var) if values[var]
                )
                projections.add(chosen)
                obj = assignment_objective(model, values)
                if best is None or obj < best:
                    best = obj
            feasible_sets = {
                frozenset(ids)
                for r in range(1 << len(inst.edges))
                for ids in [tuple(i for i in range(len(inst.edges)) if r >> i & 1)]
                if is_feasible(inst, ids)
            }
            assert projections == feasible_sets
            if feasible_sets:
                assert best == brute_force(inst).cost
            else:
                assert best is None
                with pytest.raises(InfeasibleInstanceError):
                    brute_force(inst)
            done += 1


class TestLpFormat:
    def test_single_edge_text_shape(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", 4, (1,))],
            demands=[("a", "b", 1)],
        )
        text = emit_lp(build_ilp(inst))
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[1] == " obj: 4 d_a_b"
        assert lines[2] == "Subject To"
        assert sum(1 for ln in lines if ln.lstrip().startswith("cpl")) == 1
        assert sum(1 for ln in lines if ln.lstrip().startswith("src")) == 1
        assert sum(1 for ln in lines if ln.lstrip().startswith("snk")) == 1
        assert lines[-1] == "End"

    def test_round_trip_random_models(self):
        rng = random.Random(61)
        done = 0
        while done < 25:
            inst = _random_simple_instance(rng)
            try:
                model = build_ilp(inst)
            except InfeasibleInstanceError:
                continue
            assert models_equivalent(parse_lp(emit_lp(model)), model)
            done += 1

    def test_parsed_model_keeps_edge_vars_and_row_kinds(self):
        model = build_ilp(simple_path_instance())
        parsed = parse_lp(emit_lp(model))
        assert parsed == model
        assert parsed.edge_var == ("d_a_x", "d_x_b")
        assert [c.kind for c in parsed.constraints] == [
            "coupling", "coupling", "conservation", "source", "sink"
        ]

    @given(
        weights=st.lists(
            st.fractions(min_value=0, max_value=10, max_denominator=6),
            min_size=2, max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_fractional_weights(self, weights):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "x", "b"],
            edges=[("a", "x", weights[0], (1,)), ("x", "b", weights[1], (1,))],
            demands=[("a", "b", 1)],
        )
        model = build_ilp(inst)
        text = emit_lp(model)
        assert models_equivalent(parse_lp(text), model)

    def test_scale_comment_for_non_decimal_weights(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", Fraction(1, 3), (1,))],
            demands=[("a", "b", 1)],
        )
        text = emit_lp(build_ilp(inst))
        assert text.startswith("\\ objective-scale: 3")
        assert models_equivalent(parse_lp(text), build_ilp(inst))

    def test_identifiers_are_lp_safe_and_collision_free(self):
        import re

        # raw names with LP-hostile characters that sanitise identically
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["s", "m(1)", "m,1,", "t"],
            edges=[
                ("s", "m(1)", 1, (1,)),
                ("s", "m,1,", 2, (1,)),
                ("m(1)", "t", 1, (1,)),
                ("m,1,", "t", 2, (1,)),
            ],
            demands=[("s", "t", 1)],
        )
        model = build_ilp(inst)
        pattern = re.compile(r"[A-Za-z][A-Za-z0-9_.]*\Z")
        assert len(set(model.binaries)) == len(model.binaries)
        for name in model.binaries:
            assert pattern.fullmatch(name), name
        for con in model.constraints:
            assert pattern.fullmatch(con.name), con.name
        # distinct raw vertices must stay distinct variables
        assert len({v for _, v in model.objective}) == len(inst.edges)
        assert models_equivalent(parse_lp(emit_lp(model)), model)

    @pytest.mark.parametrize("text", [
        "Minimize\n obj: 1 x\nSubject To\n c1 1 x = 1\nBinary\n x\nEnd\n",
        "Minimize\n obj: 1 x\nSubject To\n c1: 1 x 1\nBinary\n x\nEnd\n",
        "Minimize\n obj: 1 x\n",
        "Minimize\n obj: 1 x\nSubject To\n c1: 1 x + y = 1\nBinary\n x\nEnd\n",
        "Minimize\n obj: 1 x\nSubject To\n c1: 1 x = one\nBinary\n x\nEnd\n",
        "Minimize\n obj: 1/0 x\nSubject To\nBinary\n x\nEnd\n",
        "Minimize\n obj: x\nSubject To\nBinary\n x\nEnd\n",
        "\\ objective-scale: 0\nMinimize\n obj: 1 x\nSubject To\nBinary\n x\nEnd\n",
        "Minimize\n obj: 1 x\nSubject To\n c1: 1 x = 1\n",
        "Minimize\n obj: 1 x\nSubject To\n c1: 1 x <= 1\nBinary\n x\nEnd\n",
        "Maximize\n obj: 1 x\nSubject To\nBinary\n x\nEnd\n",
        "Minimize\n 1 x\nSubject To\nBinary\n x\nEnd\n",
    ], ids=["row-without-colon", "row-without-sense", "ends-after-objective",
            "term-without-coefficient", "rhs-not-a-number", "zero-denominator",
            "objective-without-coefficient", "zero-scale", "no-binary-section",
            "sense-emit-lp-never-writes", "not-minimize", "no-objective-row"])
    def test_malformed_text_is_an_input_error(self, text):
        with pytest.raises(InputError):
            parse_lp(text)

    def test_example1_simple_image_exports_and_optimum_is_one(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        node_image, _ = normalize(inst, "node")
        simple, _ = to_simple(node_image)
        model = build_ilp(simple)
        text = emit_lp(model)
        assert "Minimize" in text and "Binary" in text
        # the exported program's optimum equals the instance optimum
        assert brute_force(simple).cost == 1
