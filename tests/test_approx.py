import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from tsn.approx import (
    ClosureTree,
    NoSolutionError,
    _hop,
    _Memo,
    charikar,
    charikar_level,
    expand_tree,
    metric_closure,
    shortest_paths_union,
)
from tsn.core import (
    InfeasibleInstanceError,
    InputError,
    is_feasible,
    make_instance,
)
from tsn.exact import brute_force
from tsn.variants import normalize

from helpers import hub_instance, lift_chain, rand_instance, rand_monotonic_single_source


def all_simple_path_costs(instance, u, v, t):
    """Exhaustive enumeration oracle for shortest frame distances."""
    from tsn.core import effective_times

    adj = {}
    for i, e in enumerate(instance.edges):
        if t not in effective_times(instance, i):
            continue
        adj.setdefault(e.u, []).append((e.v, e.w))
        if not instance.directed:
            adj.setdefault(e.v, []).append((e.u, e.w))
    best = [None]

    def dfs(x, cost, seen):
        if x == v:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for y, w in adj.get(x, ()):
            if y not in seen:
                dfs(y, cost + w, seen | {y})

    dfs(u, Fraction(0), {u})
    return best[0]


class TestMetricClosure:
    def test_zero_self_distance(self):
        inst = rand_instance(random.Random(1), variant="edge")
        closure = metric_closure(inst)
        for v in inst.vertices:
            for t in range(1, inst.num_times + 1):
                assert closure.distance(v, v, t) == 0

    def test_two_edge_path(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b", "c"],
            edges=[("a", "b", 2, (1,)), ("b", "c", 3, (1,))],
            demands=[],
        )
        closure = metric_closure(inst)
        assert closure.distance("a", "c", 1) == 5
        assert closure.path_edges("a", "c", 1) == [0, 1]

    def test_tree_edge_without_a_path_is_an_inconsistent_tree(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b", "c"], edges=[("a", "b", 1, (1,))], demands=[],
        )
        closure = metric_closure(inst)
        edge = (("a", 0), ("c", 1), Fraction(1))
        tree = ClosureTree(root=("a", 0), nodes=frozenset({("a", 0), ("c", 1)}),
                           edges=(edge,), covered=())
        with pytest.raises(InputError, match="inconsistent tree: no a->c path in frame 1"):
            expand_tree(inst, closure, tree)

    def test_agrees_with_path_enumeration(self):
        rng = random.Random(2)
        for _ in range(15):
            inst = rand_instance(rng, variant="edge", max_vertices=5, max_edges=7)
            closure = metric_closure(inst)
            for t in range(1, inst.num_times + 1):
                for u in inst.vertices:
                    for v in inst.vertices:
                        assert closure.distance(u, v, t) == all_simple_path_costs(
                            inst, u, v, t
                        )

    def test_triangle_inequality(self):
        rng = random.Random(21)
        inst = rand_instance(rng, variant="edge", max_edges=8)
        closure = metric_closure(inst)
        for t in range(1, inst.num_times + 1):
            for u in inst.vertices:
                for v in inst.vertices:
                    for x in inst.vertices:
                        duv = closure.distance(u, v, t)
                        dvx = closure.distance(v, x, t)
                        dux = closure.distance(u, x, t)
                        if duv is not None and dvx is not None:
                            assert dux is not None and dux <= duv + dvx

    def test_monotonic_distances_nonincreasing_in_time(self):
        rng = random.Random(22)
        for _ in range(20):
            inst = rand_monotonic_single_source(rng, require_feasible=False)
            closure = metric_closure(inst)
            for u in inst.vertices:
                for v in inst.vertices:
                    for t in range(1, inst.num_times):
                        d1 = closure.distance(u, v, t)
                        d2 = closure.distance(u, v, t + 1)
                        if d1 is not None:
                            assert d2 is not None and d2 <= d1

    def test_distance_is_one_cached_fraction_per_triple(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1, vertices=["a", "b"],
            edges=[("a", "b", Fraction(3, 2), (1,))], demands=[],
        )
        closure = metric_closure(inst)
        d = closure.distance("a", "b", 1)
        assert d == Fraction(3, 2) and closure.distance("a", "b", 1) is d
        assert closure.distance("b", "a", 1) is None

    def test_arguments_outside_the_closure(self):
        # times outside 1..T and unknown vertices have no distance and no
        # path; equal endpoints have distance 0 and the empty path, even
        # for an unknown vertex or time
        inst = make_instance(
            directed=True, variant="edge", num_times=2, vertices=["s", "a", "b"],
            edges=[("s", "a", 1, (1, 2)), ("a", "b", 2, (2,))], demands=[("s", "b", 2)],
        )
        closure = metric_closure(inst)
        for u, v, t in [("s", "a", 0), ("s", "a", 3), ("s", "zz", 1), ("zz", "a", 1),
                        ("b", "a", 1), ("s", "b", 1)]:
            assert closure.distance(u, v, t) is None
            with pytest.raises(InputError, match=f"no {u}->{v} path in frame {t}"):
                closure.path_edges(u, v, t)
        for u, t in [("zz", 1), ("zz", 0), ("s", 0), ("s", 7), ("a", 1)]:
            assert closure.distance(u, u, t) == 0
            assert closure.path_edges(u, u, t) == []
        assert closure.distance("s", "b", 2) == 3
        assert closure.path_edges("s", "b", 2) == [0, 1]
        assert closure.successors(("zz", 1)) == [] and closure.successors(("s", 5)) == []

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "root, pair",
        [(("s", 0), ("a", 0)), (("zz", 0), ("a", 1)), (("s", 3), ("a", 1))],
        ids=["time-0-demand", "unknown-root", "root-past-T"],
    )
    def test_greedy_finds_nothing_outside_the_closure(self, level, root, pair):
        inst = make_instance(
            directed=True, variant="edge", num_times=2, vertices=["s", "a", "b"],
            edges=[("s", "a", 1, (1, 2)), ("a", "b", 2, (2,))], demands=[("s", "b", 2)],
        )
        with pytest.raises(NoSolutionError, match="only 0 residual demands"):
            charikar_level(level, metric_closure(inst), root, 1, [pair])


class TestShortestPathsUnion:
    def test_single_demand_is_one_shortest_path(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b", "c"],
            edges=[("a", "b", 2, (1,)), ("b", "c", 3, (1,)), ("a", "c", 9, (1,))],
            demands=[("a", "c", 1)],
        )
        sol = shortest_paths_union(inst)
        assert sol.cost == 5 and sol.edges == (0, 1)

    def test_hub_instance_pays_direct_edges(self):
        inst = hub_instance(C=10, eps=1, k=3)
        sol = shortest_paths_union(inst)
        assert sol.cost == 27  # 3 * (10 - 1)
        assert brute_force(inst).cost == 10
        assert sol.cost == Fraction(27, 10) * brute_force(inst).cost

    def test_ratio_at_most_k_against_oracle(self):
        rng = random.Random(33)
        done = 0
        while done < 80:
            inst = rand_instance(rng, max_edges=6)
            if not inst.demands:
                continue
            try:
                opt = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    shortest_paths_union(inst)
                continue
            sol = shortest_paths_union(inst)
            assert is_feasible(inst, sol)
            assert sol.cost <= len(inst.demands) * opt.cost
            done += 1

    def test_frame_adjacency_built_once_per_demand_time(self, monkeypatch):
        # the union asks the frame index for each demand's frame; the index
        # builds a frame on its first request and serves the cached one after
        from tsn.core import FrameIndex

        built = []
        real = FrameIndex.frame

        def counting(index, t):
            if t not in index._frames:
                built.append(t)
            return real(index, t)

        monkeypatch.setattr(FrameIndex, "frame", counting)
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "b", "c", "d"],
            edges=[("a", "b", 1, (1, 2)), ("b", "c", 1, (1, 2)), ("a", "d", 2, (1, 2))],
            demands=[("a", "b", 1), ("a", "c", 1), ("a", "d", 1), ("b", "c", 2), ("a", "c", 2)],
        )
        sol = shortest_paths_union(inst)
        assert sol.edges == (0, 1, 2)
        assert sorted(built) == [1, 2]

    def test_cost_at_most_sum_of_distances(self):
        rng = random.Random(34)
        done = 0
        while done < 40:
            inst = rand_instance(rng, variant="edge", max_edges=6)
            try:
                sol = shortest_paths_union(inst)
            except InfeasibleInstanceError:
                continue
            closure = metric_closure(inst)
            total = Fraction(0)
            for d in inst.demands:
                dd = closure.distance(d.a, d.b, d.t)
                assert dd is not None
                total += dd
            assert sol.cost <= total
            done += 1


class TestCharikarLevel:
    def test_level1_single_demand_is_one_closure_edge(self):
        inst = hub_instance(C=10, eps=1, k=1)
        closure = metric_closure(inst)
        tree = charikar_level(1, closure, ("a", 0), 1, [("b1", 1)])
        assert len(tree.edges) == 1
        ((parent, child, cost),) = tree.edges
        assert parent == ("a", 0) and child == ("b1", 1)
        assert cost == closure.distance("a", "b1", 1) == 9

    def test_hub_instance_level2_finds_hub_route(self):
        inst = hub_instance(C=10, eps=1, k=3)
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        tree = charikar_level(2, closure, ("a", 0), 3, pairs)
        assert tree.cost == 10
        sol = expand_tree(inst, closure, tree)
        chosen = {(inst.edges[i].u, inst.edges[i].v) for i in sol.edges}
        assert chosen == {("a", "hub"), ("hub", "b1"), ("hub", "b2"), ("hub", "b3")}
        assert sol.cost == 10

    def test_no_solution_when_unreachable(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b", "c"],
            edges=[("a", "b", 1, (1,))],
            demands=[("a", "c", 1)],
        )
        closure = metric_closure(inst)
        with pytest.raises(NoSolutionError):
            charikar_level(1, closure, ("a", 0), 1, [("c", 1)])

    @pytest.mark.parametrize("level, k, pair", [(0, 1, ("b", 2)), (2, -1, ("b", 2)),
                                                (2, 1, ("b", 3)), (1, 1, ("z", 1))],
                             ids=["level-below-1", "negative-k", "time-past-T", "unknown-vertex"])
    def test_bad_arguments_are_input_errors(self, level, k, pair):
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["s", "b"], edges=[("s", "b", 1, (1, 2))], demands=[("s", "b", 2)],
        )
        with pytest.raises(InputError):
            charikar_level(level, metric_closure(inst), ("s", 0), k, [pair])

    def test_every_sub_call_goes_through_the_module_name(self, monkeypatch):
        # a tracer that wraps `tsn.approx.charikar_level` must see every
        # call the greedy counts, and read the memo as its sixth argument:
        # one entry per sub-call
        import tsn.approx

        real = tsn.approx.charikar_level
        seen = []

        def counting(*args, **kwargs):
            cache = kwargs.get("_cache", args[5] if len(args) > 5 else None)
            seen.append(cache)
            return real(*args, **kwargs)

        monkeypatch.setattr(tsn.approx, "charikar_level", counting)
        inst = rand_monotonic_single_source(
            random.Random(7), max_vertices=9, max_edges=24, max_times=4, max_demands=6
        )
        stats = {}
        charikar(inst, 3, stats)
        assert len(seen) == stats["calls"] > 1
        assert all(cache is seen[0] for cache in seen)
        assert len(seen[0]) == stats["calls"] - 1

    def test_time_monotone_along_edges(self):
        rng = random.Random(35)
        for _ in range(25):
            inst = rand_monotonic_single_source(rng)
            closure = metric_closure(inst)
            pairs = [(d.b, d.t) for d in inst.demands]
            for level in (1, 2):
                tree = charikar_level(
                    level, closure, (inst.demands[0].a, 0), len(pairs), pairs
                )
                for (pu, pt), (cu, ct), _ in tree.edges:
                    assert pt <= ct

    def test_bounds_against_oracle(self):
        rng = random.Random(36)
        done = 0
        while done < 60:
            inst = rand_monotonic_single_source(rng)
            opt = brute_force(inst).cost
            k = len(inst.demands)
            sol1 = charikar(inst, 1)
            assert is_feasible(inst, sol1)
            assert sol1.cost <= k * opt
            sol2 = charikar(inst, 2)
            assert is_feasible(inst, sol2)
            # cost <= 4 sqrt(k) opt, squared to stay in exact arithmetic
            assert sol2.cost**2 <= 16 * k * opt**2
            done += 1

    def test_deeper_levels_stay_feasible(self):
        # regression: a subtree rooted exactly at a demand pair must not
        # cover it through a degenerate self-edge
        rng = random.Random(321)
        for _ in range(40):
            inst = rand_monotonic_single_source(rng, max_edges=6)
            opt = brute_force(inst).cost
            k = len(inst.demands)
            sol = charikar(inst, 3)
            assert is_feasible(inst, sol)
            assert sol.cost**3 <= 18**3 * k * opt**3  # 18 = 9 * (3 - 1)

    def test_returned_structures_are_strict_trees(self):
        rng = random.Random(322)
        for _ in range(30):
            inst = rand_monotonic_single_source(rng, max_edges=6)
            closure = metric_closure(inst)
            pairs = [(d.b, d.t) for d in inst.demands]
            root = (inst.demands[0].a, 0)
            for level in (1, 2, 3):
                tree = charikar_level(level, closure, root, len(pairs), pairs)
                indeg = {}
                for parent, child, _ in tree.edges:
                    assert parent != child
                    indeg[child] = indeg.get(child, 0) + 1
                    assert indeg[child] <= 1
                assert root not in indeg
                # every node reachable from the root
                out_by = {}
                for parent, child, _ in tree.edges:
                    out_by.setdefault(parent, []).append(child)
                seen = {root}
                stack = [root]
                while stack:
                    x = stack.pop()
                    for y in out_by.get(x, ()):
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                assert seen >= tree.nodes

    def test_merge_skips_a_child_already_in_the_tree(self, monkeypatch):
        # on this draw a level-2 and a level-3 pick reach a pair the running
        # tree already holds; `_merge` must keep the first in-edge, so the
        # result stays a tree and its expansion feasible
        import tsn.approx

        rng = random.Random(3)
        weights = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
        for _ in range(93):
            inst = rand_monotonic_single_source(
                rng, max_vertices=7, max_edges=16, max_times=4, max_demands=5, weights=weights
            )
        real = tsn.approx._merge
        skips = []

        def counting(base_edges, base_nodes, extra, root):
            extra = list(extra)
            have = {child for _, child, _ in base_edges}
            skips.extend(child for _, child, _ in extra if child == root or child in have)
            return real(base_edges, base_nodes, extra, root)

        monkeypatch.setattr(tsn.approx, "_merge", counting)
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        root = (inst.demands[0].a, 0)
        for level in (2, 3):
            skips.clear()
            tree = charikar_level(level, closure, root, len(pairs), pairs)
            assert skips
            children = [child for _, child, _ in tree.edges]
            assert len(children) == len(set(children))
            assert root not in children
            assert is_feasible(inst, charikar(inst, level))

    def test_star_expands_to_direct_edges_verbatim(self):
        inst = hub_instance(C=10, eps=1, k=3)
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        star = charikar_level(1, closure, ("a", 0), 3, pairs)
        sol = expand_tree(inst, closure, star)
        chosen = {(inst.edges[i].u, inst.edges[i].v) for i in sol.edges}
        assert chosen == {("a", "b1"), ("a", "b2"), ("a", "b3")}
        assert sol.cost == star.cost == 27

    def test_infeasible_instance_reported(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b", "c"],
            edges=[("a", "b", 1, (1,))],
            demands=[("a", "b", 1), ("a", "c", 1)],
        )
        with pytest.raises(NoSolutionError):
            charikar(inst, 2)

    def test_expand_never_increases_cost(self):
        rng = random.Random(37)
        for _ in range(25):
            inst = rand_monotonic_single_source(rng)
            edge_inst = inst  # already edge variant
            closure = metric_closure(edge_inst)
            pairs = [(d.b, d.t) for d in edge_inst.demands]
            tree = charikar_level(
                2, closure, (edge_inst.demands[0].a, 0), len(pairs), pairs
            )
            sol = expand_tree(edge_inst, closure, tree)
            assert sol.cost <= tree.cost
            for d in edge_inst.demands:
                if (d.b, d.t) in tree.covered:
                    from tsn.core import satisfies

                    assert satisfies(edge_inst, sol, d)


MIXED_WEIGHTS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 6),
                 Fraction(1), Fraction(2), Fraction(3)]


def greedy_corpus_digest():
    """sha256 over every `charikar_level` tree, at each level and every budget
    k, on a seeded corpus of random monotonic single-source instances with
    mixed-denominator weights; a NoSolutionError is recorded as such."""
    rng = random.Random(4711)
    h = hashlib.sha256()
    for _ in range(120):
        inst = rand_monotonic_single_source(
            rng, max_vertices=7, max_edges=14, max_times=4, max_demands=5,
            require_feasible=False, weights=MIXED_WEIGHTS,
        )
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        root = (inst.demands[0].a, 0)
        for level in (1, 2, 3):
            for k in range(1, len(pairs) + 1):
                try:
                    tree = charikar_level(level, closure, root, k, pairs)
                except NoSolutionError:
                    h.update(f"{level} {k} none\n".encode())
                    continue
                edges = [(p, c, str(w)) for p, c, w in tree.edges]
                record = (level, k, tree.root, sorted(tree.nodes), edges, tree.covered, str(tree.cost))
                h.update(repr(record).encode() + b"\n")
    return h.hexdigest()


class TestGreedyPinned:
    def test_trees_are_pinned_on_mixed_denominator_corpus(self):
        # digest taken before the greedy moved to integer costs and the
        # reachable-residual memo key; any change to a tree, its cover or
        # its cost changes it
        assert greedy_corpus_digest() == "d907160c6d8a40eee7f1fc617c27a62369fe983325a1c99bf1232e0ecdfcb90e"


    def test_call_and_memo_counts_pinned(self):
        # the memo keyed on the residual reachable from each sub-root; with
        # the whole residual in the key this instance took 340 calls
        stats = {}
        assert charikar(call_count_instance(), 3, stats).cost == 5
        assert stats == {"calls": 212, "memo_hits": 2072}

    def test_hop_lookups_pinned(self, monkeypatch):
        # 876 while each level-1 call sorted its own star and each memo miss
        # summed its subtree's hops again; the star orders and the costs the
        # trees carry leave the successor lists, the first look-up of each
        # closure distance and the edges `_merge` leaves out
        import tsn.approx

        lookups = []

        def counting(*args):
            lookups.append(args)
            return _hop(*args)

        monkeypatch.setattr(tsn.approx, "_hop", counting)
        assert charikar(call_count_instance(), 3).cost == 5
        assert len(lookups) == 254

    def test_repeated_pairs_are_pinned_with_calls_and_memo_hits(self):
        # digest taken before the memo key became a bitmask of the live
        # pairs; any change to a tree, its cover, its cost or to the number
        # of calls and memo hits that built it changes it
        assert repeated_pairs_digest() == "017a50c961b64a9f7f70c2ab2f146900d33680978c6b9cef9da7cd910e367ebf"


def call_count_instance():
    """The random monotonic instance whose level-3 greedy makes 212 calls."""
    return rand_monotonic_single_source(
        random.Random(7), max_vertices=9, max_edges=24, max_times=4, max_demands=6
    )


def repeated_pairs_corpus():
    """(closure, demand pairs, root) of a seeded corpus whose demand
    multisets repeat pairs (up to three copies each)."""
    rng = random.Random(2718)
    for _ in range(150):
        inst = rand_monotonic_single_source(
            rng, max_vertices=7, max_edges=14, max_times=4, max_demands=4,
            require_feasible=False, weights=MIXED_WEIGHTS,
        )
        pairs = [(d.b, d.t) for d in inst.demands]
        pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 4))]
        rng.shuffle(pairs)
        yield metric_closure(inst), pairs, (inst.demands[0].a, 0)


def repeated_pairs_digest():
    """sha256 over every `charikar_level` tree, cover and cost, and the calls
    and memo hits behind it, at levels 1-3 and every budget k, on
    `repeated_pairs_corpus`."""
    h = hashlib.sha256()
    for closure, pairs, root in repeated_pairs_corpus():
        for level in (1, 2, 3):
            for k in range(1, len(pairs) + 1):
                stats = {}
                try:
                    tree = charikar_level(level, closure, root, k, pairs, _stats=stats)
                except NoSolutionError:
                    h.update(f"{level} {k} none {stats}\n".encode())
                    continue
                edges = [(p, c, str(w)) for p, c, w in tree.edges]
                record = (level, k, sorted(tree.nodes), edges, tree.covered, str(tree.cost),
                          stats["calls"], stats["memo_hits"])
                h.update(repr(record).encode() + b"\n")
    return h.hexdigest()


def table_reuse_corpus():
    """(closure, demand pairs, root) of a seeded corpus of up to 12 vertices
    and 40 arcs, where one sub-root often meets the same live residual in
    several rounds and sibling sub-calls; up to three demand pairs are
    repeated."""
    rng = random.Random(1999)
    for _ in range(80):
        inst = rand_monotonic_single_source(
            rng, max_vertices=12, max_edges=40, max_times=4, max_demands=7,
            require_feasible=False, weights=MIXED_WEIGHTS,
        )
        pairs = [(d.b, d.t) for d in inst.demands]
        pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pairs)
        yield metric_closure(inst), pairs, (inst.demands[0].a, 0)


def table_reuse_digest():
    """sha256 over every `charikar_level` tree, cover and cost, and the calls
    and memo hits behind it, at levels 2-3 and every budget k, on
    `table_reuse_corpus`."""
    h = hashlib.sha256()
    for closure, pairs, root in table_reuse_corpus():
        for level in (2, 3):
            for k in range(1, len(pairs) + 1):
                stats = {}
                try:
                    tree = charikar_level(level, closure, root, k, pairs, _stats=stats)
                except NoSolutionError:
                    h.update(f"{level} {k} none {stats}\n".encode())
                    continue
                edges = [(p, c, str(w)) for p, c, w in tree.edges]
                record = (level, k, sorted(tree.nodes), edges, tree.covered, str(tree.cost),
                          stats["calls"], stats["memo_hits"])
                h.update(repr(record).encode() + b"\n")
    return h.hexdigest()


class TestPickTables:
    def test_trees_calls_and_memo_hits_are_pinned_on_larger_corpus(self):
        # digest taken before the greedy kept one pick table per (level,
        # sub-root, live residual); any change to a tree, its cover, its
        # cost or to the calls and memo hits behind it changes it
        assert table_reuse_digest() == "5548e8de852c241e2d030fead33b07b65bf3bc657118f478b40eee30723f7f87"

    def test_rounds_and_sibling_calls_read_shared_tables(self, monkeypatch):
        # each round of a level-2+ call merges one pick; on this draw far
        # fewer (level, sub-root, live residual) tables than rounds serve
        # them, and the memo still holds one entry per sub-call
        import tsn.approx

        real = tsn.approx._merge
        rounds = []

        def counting(*args):
            rounds.append(args)
            return real(*args)

        monkeypatch.setattr(tsn.approx, "_merge", counting)
        inst = call_count_instance()
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        memo, stats = tsn.approx._Memo(), {}
        charikar_level(3, closure, (inst.demands[0].a, 0), len(pairs), pairs, memo, stats)
        assert len(memo) == stats["calls"] - 1
        assert 0 < 2 * len(memo.rounds) <= len(rounds)

    def test_larger_sub_budget_wins_a_full_tie(self):
        # tree taken from the full scan; here two sub-budgets at one pair
        # tie on density, node count and pair, and the scan keeps the larger
        # one, so a table that let the smaller one stand builds another tree
        arcs = [("n6", "n3", 0), ("n4", "n2", 1), ("n5", "n4", 0), ("n5", "n2", 1),
                ("n3", "n6", 1), ("n4", "n5", 0), ("n3", "n2", 0), ("n2", "n0", 1),
                ("n3", "n0", 0), ("n3", "n7", 0), ("n7", "n5", 1), ("n5", "n6", 1),
                ("n1", "n3", 1), ("n1", "n5", 1), ("n2", "n4", 1), ("n2", "n7", 1),
                ("n7", "n0", 1), ("n0", "n5", 1), ("n7", "n6", 1), ("n2", "n5", 1)]
        inst = make_instance(
            directed=True, variant="edge", num_times=1, vertices=[f"n{i}" for i in range(8)],
            edges=[(u, v, w, (1,)) for u, v, w in arcs], demands=[],
        )
        pairs = [("n4", 1), ("n6", 1), ("n5", 1), ("n2", 1), ("n3", 1), ("n7", 1), ("n3", 1)]
        stats = {}
        tree = charikar_level(3, metric_closure(inst), ("n0", 0), 6, pairs, _stats=stats)
        assert sorted(tree.edges) == [
            (("n0", 0), ("n4", 1), 1), (("n3", 1), ("n2", 1), 0), (("n3", 1), ("n7", 1), 0),
            (("n4", 1), ("n3", 1), 1), (("n4", 1), ("n5", 1), 0),
        ]
        assert stats == {"calls": 372, "memo_hits": 631}


class TestCarriedNumbers:
    # a memoised subtree is ranked by the scaled cost and covered entries it
    # carries; nothing walks it again, so these check the carried numbers
    @pytest.mark.parametrize("corpus, levels", [
        (repeated_pairs_corpus, (1, 2, 3)),
        (table_reuse_corpus, (2, 3)),
    ], ids=["repeated-pairs", "table-reuse"])
    def test_every_memo_entry_carries_its_hops_and_cover(self, corpus, levels):
        for closure, pairs, root in corpus():
            # inside one top-level call a residual holds each pair with its
            # full multiplicity
            multiplicity = Counter(pairs)
            for level in levels:
                for k in range(1, len(pairs) + 1):
                    memo = _Memo()
                    try:
                        top = charikar_level(level, closure, root, k, pairs, memo)
                    except NoSolutionError:
                        continue
                    for tree in (top, *memo.values()):
                        assert tree.scaled_cost == sum(
                            _hop(closure, parent[0], child) for parent, child, _ in tree.edges)
                        assert tree.covered_entries == sum(multiplicity[p] for p in tree.covered)
                        assert tree.cost == Fraction(tree.scaled_cost, closure.index.scale)

    def test_carried_numbers_take_no_part_in_equality(self):
        inst = call_count_instance()
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        tree = charikar_level(3, closure, (inst.demands[0].a, 0), len(pairs), pairs)
        by_hand = ClosureTree(root=tree.root, nodes=tree.nodes, edges=tree.edges,
                              covered=tree.covered)
        assert (tree.scaled_cost, tree.covered_entries) != (0, 0)
        assert (by_hand.scaled_cost, by_hand.covered_entries) == (0, 0)
        assert by_hand == tree and hash(by_hand) == hash(tree) and repr(by_hand) == repr(tree)
        assert type(tree.cost) is Fraction and tree.cost == 5
        # slotted: thousands of memoised trees keep no instance dict
        assert not hasattr(tree, "__dict__")

    def test_star_orders_add_no_memo_entries_or_tables(self):
        # the same 211 entries and 26 pick tables as before the star orders
        # were kept; the 41 orders serve every level-1 call
        inst = call_count_instance()
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        memo, stats = _Memo(), {}
        charikar_level(3, closure, (inst.demands[0].a, 0), len(pairs), pairs, memo, stats)
        assert stats["calls"] == 212
        assert (len(memo), len(memo.rounds), len(memo.stars)) == (211, 26, 41)
        level1 = sum(1 for key in memo if key[0] == 1)
        assert 0 < len(memo.stars) < level1
        for (root, live), star in memo.stars.items():
            order = [(hop, edge[1]) for hop, edge in star]
            assert order == sorted(order)
            assert all(edge[0] == root and live >> closure.bits[edge[1]] & 1
                       for _, edge in star)


def shared_state_cases():
    """(closure, demand pairs, root) of the 212-call instance and of
    `table_reuse_corpus`."""
    inst = call_count_instance()
    yield metric_closure(inst), [(d.b, d.t) for d in inst.demands], (inst.demands[0].a, 0)
    yield from table_reuse_corpus()


class TestSharedLevel1TreesAndResiduals:
    # level-1 memo entries share one tree per (sub-root, covered pairs) and
    # every sub-call of a mask gets one cached sub-residual; neither may
    # change what any call returns
    def test_shared_trees_and_residuals_match_fresh_calls(self):
        checked = 0
        for closure, pairs, root in shared_state_cases():
            pair_of = {bit: pair for pair, bit in closure.bits.items()}
            ordered = sorted(pairs)
            for level in (2, 3):
                memo = _Memo()
                try:
                    charikar_level(level, closure, root, len(pairs), pairs, memo)
                except NoSolutionError:
                    continue
                for mask, residual in memo.residuals.items():
                    assert residual == tuple(q for q in ordered if mask >> closure.bits[q] & 1)
                assert set(memo.residuals) == {key[3] for key in memo}
                for (sub_level, bit, sub_k, mask), tree in memo.items():
                    if sub_level != 1:
                        continue
                    sub_residual = tuple(q for q in ordered if mask >> closure.bits[q] & 1)
                    fresh = charikar_level(1, closure, pair_of[bit], sub_k, sub_residual, _Memo())
                    assert fresh == tree
                    assert (fresh.scaled_cost, fresh.covered_entries) == (
                        tree.scaled_cost, tree.covered_entries)
                    checked += 1
        assert checked > 1000

    def test_an_earlier_instance_leaves_no_trace(self):
        # the same vertex names in every draw, so state kept across
        # top-level calls would collide
        rng = random.Random(31)
        insts = [call_count_instance()] + [
            rand_monotonic_single_source(rng, max_vertices=9, max_edges=24, max_times=4,
                                         max_demands=6)
            for _ in range(8)]

        def run(inst):
            stats = {}
            sol = charikar(inst, 3, stats)
            return sol.edges, sol.cost, stats

        forward = [run(inst) for inst in insts]
        backward = [run(inst) for inst in reversed(insts)][::-1]
        assert forward == backward
        assert len(set(map(repr, forward))) == len(insts)

    def test_shared_state_is_pinned(self):
        # the 212-call instance: its 126 level-1 memo entries hold 82
        # distinct trees, and 8 sub-residual tuples serve its 211 sub-calls;
        # keyed on (sub-root, live pairs, prefix length) the trees would be
        # 126, one per entry
        inst = call_count_instance()
        closure = metric_closure(inst)
        pairs = [(d.b, d.t) for d in inst.demands]
        memo = _Memo()
        charikar_level(3, closure, (inst.demands[0].a, 0), len(pairs), pairs, memo)
        level1 = [tree for key, tree in memo.items() if key[0] == 1]
        assert (len(memo), len(level1)) == (211, 126)
        assert (len(memo.prefixes), len(memo.residuals)) == (82, 8)
        assert len({id(tree) for tree in level1}) == len(memo.prefixes)


def rand_monotonic_node_and_edge(rng):
    """Feasible monotonic single-source `node_and_edge` instance: each
    vertex and each arc is active at each time with probability 0.7, and a
    draw is kept only when every effective time set is upward closed."""
    from tsn.core import first_unsatisfiable_demand, is_monotonic

    while True:
        n, T = rng.randint(2, 5), rng.randint(1, 3)
        names = [f"n{i}" for i in range(n)]

        def times():
            return frozenset(t for t in range(1, T + 1) if rng.random() < 0.7)

        arcs = rng.sample([(u, v) for u in names for v in names if u != v],
                          rng.randint(1, min(8, n * (n - 1))))
        inst = make_instance(
            directed=True, variant="node_and_edge", num_times=T, vertices=names,
            edges=[(u, v, Fraction(rng.randint(0, 5)), times()) for u, v in arcs],
            demands=[(names[0], rng.choice(names[1:]), rng.randint(1, T))
                     for _ in range(rng.randint(1, 3))],
            node_activity={v: times() for v in names},
        )
        if is_monotonic(inst) and first_unsatisfiable_demand(inst) is None:
            return inst


def image_greedy(inst, level):
    """The greedy on the edge image of `inst`, lifted back to `inst`."""
    image, steps = normalize(inst, "edge")
    closure = metric_closure(image)
    pairs = [(d.b, d.t) for d in image.demands]
    tree = charikar_level(level, closure, (image.demands[0].a, 0), len(pairs), pairs)
    return lift_chain(steps, expand_tree(image, closure, tree), inst)


def _prefixed(inst, prefix):
    """The same instance with `prefix` before every vertex name."""
    return make_instance(
        directed=inst.directed, variant=inst.variant, num_times=inst.num_times,
        vertices=[prefix + v for v in inst.vertices],
        edges=[(prefix + e.u, prefix + e.v, e.w, e.times) for e in inst.edges],
        demands=[(prefix + d.a, prefix + d.b, d.t) for d in inst.demands],
        node_activity={prefix + v: ts for v, ts in inst.node_activity.items()},
    )


class TestNodeAndEdgeImages:
    def test_greedy_stays_feasible_on_non_monotonic_edge_images(self):
        # splitting an edge u->v through a midpoint x_e leaves the half-arc
        # u->x_e active on act(u) & times_e, which need not be upward
        # closed; the greedy on the input itself must be feasible and build
        # the solution of the greedy on that image, whether the names sort
        # before the midpoint names x(u,v)#i or after them
        from tsn.core import is_monotonic

        rng = random.Random(2016)
        non_monotonic = 0
        for _ in range(300):
            inst = rand_monotonic_node_and_edge(rng)
            non_monotonic += not is_monotonic(normalize(inst, "edge")[0])
            late = _prefixed(inst, "z")
            for level in (1, 2, 3):
                sol = charikar(inst, level)
                assert is_feasible(inst, sol)
                assert sol == image_greedy(inst, level)
                assert charikar(late, level) == image_greedy(late, level)
        assert non_monotonic >= 1


TIED_WEIGHTS = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]


def _shuffled_vertices(rng, inst):
    """The same instance with its `vertices` list in a random order, so that
    input order and name order disagree (names n10, n11 also sort before
    n2)."""
    order = list(inst.vertices)
    rng.shuffle(order)
    return dataclasses.replace(inst, vertices=tuple(order))


def tie_break_digest():
    """sha256 over every closure path, on each input's own frames, and the
    union solutions on a seeded corpus of random monotonic and random
    instances whose few distinct weights make equal-cost paths common."""
    rng = random.Random(5813)
    h = hashlib.sha256()
    for n in range(240):
        if n % 2:
            inst = rand_monotonic_single_source(
                rng, max_vertices=12, max_edges=20, max_times=3, max_demands=4,
                require_feasible=False, weights=TIED_WEIGHTS,
            )
        else:
            inst = rand_instance(
                rng, max_vertices=12, max_edges=20, max_times=3, max_demands=4,
                weights=TIED_WEIGHTS,
            )
        inst = _shuffled_vertices(rng, inst)
        closure = metric_closure(inst)
        paths = [
            (u, v, t, closure.path_edges(u, v, t))
            for t in range(1, closure.num_times + 1)
            for u in sorted(closure.vertices)
            for v in sorted(closure.vertices)
            if u != v and closure.distance(u, v, t) is not None
        ]
        h.update(repr(paths).encode() + b"\n")
        try:
            sol = shortest_paths_union(inst)
        except InfeasibleInstanceError as exc:
            h.update(f"infeasible {exc.demand}\n".encode())
        else:
            h.update(f"{sol.edges} {sol.cost}\n".encode())
    return h.hexdigest()


class TestTieBreaks:
    """Equal-cost paths are resolved by vertex name, never by the order of
    the `vertices` list: the shortest-path heap pops the smaller name first
    and a vertex's last hop changes only for a strictly shorter path."""

    def test_paths_and_union_are_pinned_on_tied_weight_corpus(self):
        # re-taken when the union moved from the edge image to the input's
        # own frames (one node_and_edge union, draw n = 172, took other tied
        # paths, cost 10 -> 8), and again when the closure half moved there
        # too: it hashed the edge image's closure, which no program path
        # builds, and now hashes the closure `approx` walks
        assert tie_break_digest() == "4d67beb5e1ea2fcf5db5a5605720f849844ebf8a2780291fdd23082734119999"

    @pytest.mark.parametrize("variant", ["edge", "node", "node_and_edge"])
    def test_union_on_the_input_matches_the_edge_image_union(self, variant):
        # edge input has no image step and node input keeps its vertices and
        # the order of its edges, so the union picks the same tied paths;
        # the midpoints of node_and_edge input may shift a tie, and the
        # union stays feasible
        rng = random.Random(1016)
        for _ in range(300):
            inst = _shuffled_vertices(rng, rand_instance(
                rng, variant=variant, max_vertices=8, max_edges=12, max_demands=4,
                weights=TIED_WEIGHTS,
            ))
            image, steps = normalize(inst, "edge")
            try:
                sol = shortest_paths_union(inst)
            except InfeasibleInstanceError as exc:
                with pytest.raises(InfeasibleInstanceError) as image_exc:
                    shortest_paths_union(image)
                assert image_exc.value.demand == exc.demand
                continue
            assert is_feasible(inst, sol)
            if variant != "node_and_edge":
                assert sol == lift_chain(steps, shortest_paths_union(image), inst)

    def test_equal_cost_paths_break_by_name_not_input_order(self):
        # s->y->t and s->x->t both cost 2; x < y by name, but the vertex
        # list and the edge ids both put y first
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["t", "y", "x", "s"],
            edges=[("s", "y", 1, (1,)), ("y", "t", 1, (1,)),
                   ("s", "x", 1, (1,)), ("x", "t", 1, (1,))],
            demands=[("s", "t", 1)],
        )
        closure = metric_closure(inst)
        assert closure.path_edges("s", "t", 1) == [2, 3]
        assert shortest_paths_union(inst).edges == (2, 3)
