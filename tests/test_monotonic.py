import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsn.approx import shortest_paths_union
from tsn.core import (
    InputError,
    effective_times,
    first_unsatisfiable_demand,
    is_feasible,
    is_monotonic,
    make_instance,
    solution_from_edges,
)
from tsn.exact import brute_force
from tsn.monotonic import (
    PriorityDemand,
    PriorityEdge,
    PriorityInstance,
    dst_to_dict,
    normalize_to_time_layered_tree,
    priority_to_dict,
    priority_to_tsn,
    single_source_to_dst,
    tsn_to_priority,
)
from tsn.variants import normalize

from helpers import (
    dst_brute,
    dst_brute_literal,
    dst_solution_to_tsn,
    earliest_necessary_times,
    priority_brute,
    priority_feasible,
    priority_solution_from_tsn,
    rand_monotonic_frames,
    rand_monotonic_single_source,
    rand_priority_instance,
)


def rand_monotonic_undirected(rng, max_edges=6):
    n = rng.randint(2, 5)
    T = rng.randint(1, 3)
    names = [f"n{i}" for i in range(n)]
    edges = []
    seen = set()
    attempts = 0
    m = rng.randint(1, max_edges)
    while len(edges) < m and attempts < 50:
        attempts += 1
        u, v = rng.sample(names, 2)
        if frozenset((u, v)) in seen:
            continue
        seen.add(frozenset((u, v)))
        first = rng.randint(1, T)
        edges.append((u, v, rng.randint(0, 8), frozenset(range(first, T + 1))))
    demands = [
        (rng.choice(names), rng.choice(names), rng.randint(1, T))
        for _ in range(rng.randint(1, 3))
    ]
    return make_instance(
        directed=False, variant="edge", num_times=T,
        vertices=names, edges=edges, demands=demands,
    )


def normalize_corpus_digest():
    """sha256 over `normalize_to_time_layered_tree` on 1,500 seeded feasible
    monotonic single-source instances, run twice per instance: from the full
    edge set and from `shortest_paths_union`.  Any change to which edges the
    pruning keeps changes the digest."""
    rng = random.Random(8191)
    h = hashlib.sha256()
    for _ in range(1500):
        inst = rand_monotonic_single_source(
            rng, max_vertices=7, max_edges=14, max_times=3, max_demands=5
        )
        for start in (range(len(inst.edges)), shortest_paths_union(inst).edges):
            sol = normalize_to_time_layered_tree(inst, solution_from_edges(inst, start))
            h.update(f"{sol.edges} {sol.cost}\n".encode())
    return h.hexdigest()


class TestTsnToPriority:
    def test_priority_is_first_active_time(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=3,
            vertices=["a", "b"], edges=[("a", "b", 1, (2, 3))],
            demands=[("a", "b", 3)],
        )
        p = tsn_to_priority(inst)
        assert p.edges[0].priority == 2
        assert p.demands[0].priority == 3

    def test_optimum_preserved(self):
        rng = random.Random(51)
        done = 0
        while done < 60:
            inst = rand_monotonic_undirected(rng)
            p = tsn_to_priority(inst)
            p_opt = priority_brute(p)
            try:
                t_opt = brute_force(inst).cost
            except Exception:
                assert p_opt is None
                continue
            assert p_opt == t_opt
            done += 1

    def test_rejects_non_monotonic(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=3,
            vertices=["a", "b"], edges=[("a", "b", 1, (1, 3))], demands=[],
        )
        with pytest.raises(InputError):
            tsn_to_priority(inst)


class TestPriorityToTsn:
    def test_parallel_edges_split_in_half(self):
        p = PriorityInstance(
            vertices=("u", "v"),
            edges=(
                PriorityEdge("u", "v", Fraction(4), 1),
                PriorityEdge("u", "v", Fraction(6), 2),
            ),
            max_priority=2,
            demands=(PriorityDemand("u", "v", 2),),
        )
        image, rmap = priority_to_tsn(p)
        assert len(image.edges) == 4
        halves0 = [image.edges[i].w for i in dict(rmap.forward_edge_map)[0]]
        halves1 = [image.edges[i].w for i in dict(rmap.forward_edge_map)[1]]
        assert halves0 == [2, 2] and halves1 == [3, 3]
        assert len(rmap.added_vertices) == 2

    def test_single_edge_times(self):
        p = PriorityInstance(
            vertices=("u", "v"),
            edges=(PriorityEdge("u", "v", Fraction(1), 1),),
            max_priority=3,
            demands=(),
        )
        image, _ = priority_to_tsn(p)
        assert image.edges[0].times == frozenset({1, 2, 3})

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_output_always_monotonic(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        P = data.draw(st.integers(min_value=1, max_value=4))
        names = tuple(f"n{i}" for i in range(n))
        m = data.draw(st.integers(min_value=0, max_value=6))
        edges = []
        for _ in range(m):
            u = data.draw(st.sampled_from(names))
            v = data.draw(st.sampled_from([x for x in names if x != u]))
            w = data.draw(st.integers(min_value=0, max_value=9))
            pr = data.draw(st.integers(min_value=1, max_value=P))
            edges.append(PriorityEdge(u, v, Fraction(w), pr))
        from tsn.core import validate

        p = PriorityInstance(vertices=names, edges=tuple(edges), max_priority=P, demands=())
        image, _ = priority_to_tsn(p)
        assert is_monotonic(image)
        assert validate(image) == []

    def test_optimum_preserved_and_liftable(self):
        rng = random.Random(52)
        done = 0
        while done < 60:
            p = rand_priority_instance(rng)
            image, rmap = priority_to_tsn(p)
            p_opt = priority_brute(p)
            try:
                img = brute_force(image, cap=len(image.edges))
            except Exception:
                assert p_opt is None
                continue
            assert p_opt == img.cost
            ids, cost = priority_solution_from_tsn(rmap, img, p)
            assert cost <= img.cost
            assert priority_feasible(p, ids)
            done += 1

    def test_round_trip_with_tsn_to_priority(self):
        rng = random.Random(53)
        done = 0
        while done < 40:
            inst = rand_monotonic_undirected(rng)
            p = tsn_to_priority(inst)
            image, _ = priority_to_tsn(p)
            try:
                a = brute_force(inst).cost
            except Exception:
                continue
            b = brute_force(image, cap=len(image.edges)).cost
            assert a == b
            done += 1


class TestSingleSourceToDst:
    def test_single_demand_single_level(self):
        inst = rand_monotonic_single_source(random.Random(1), max_demands=1)
        dst = single_source_to_dst(inst)
        assert all(e.level == 1 for e in dst.edges)
        assert dst.root.endswith("#1")
        assert len(dst.terminals) == 1

    def test_edge_count_two_levels(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1, 2)), ("x", "b", 1, (1, 2)), ("a", "b", 5, (2,))],
            demands=[("a", "b", 1), ("a", "b", 2)],
        )
        dst = single_source_to_dst(inst)
        # one copy of each frame's edges per level, one advance edge per vertex
        expected = (
            sum(len(effective_times(inst, i)) for i in range(len(inst.edges)))
            + len(inst.vertices)
        )
        assert len(dst.edges) == expected

    def test_layered_structure(self):
        rng = random.Random(55)
        for _ in range(20):
            inst = rand_monotonic_single_source(rng)
            dst = single_source_to_dst(inst)
            for e in dst.edges:
                lu = int(e.u.rsplit("#", 1)[1])
                lv = int(e.v.rsplit("#", 1)[1])
                if e.orig_edge is None:
                    assert lv == lu + 1
                else:
                    assert lv == lu

    def test_dag_preserved(self):
        # topologically constructed source instance stays acyclic as a
        # level graph
        rng = random.Random(56)
        names = ["a", "b", "c", "d"]
        edges = []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if rng.random() < 0.7:
                    edges.append((names[i], names[j], 1, (1, 2)))
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=names, edges=edges,
            demands=[("a", "d", 1), ("a", "c", 2)],
        )
        dst = single_source_to_dst(inst)
        indeg = {v: 0 for v in dst.vertices}
        adj = {v: [] for v in dst.vertices}
        for e in dst.edges:
            adj[e.u].append(e.v)
            indeg[e.v] += 1
        from collections import deque

        q = deque(v for v in dst.vertices if indeg[v] == 0)
        seen = 0
        while q:
            x = q.popleft()
            seen += 1
            for y in adj[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    q.append(y)
        assert seen == len(dst.vertices)

    def test_optimum_equality_both_sides(self):
        rng = random.Random(57)
        done = 0
        while done < 50:
            inst = rand_monotonic_single_source(rng, max_edges=6)
            dst = single_source_to_dst(inst)
            assert dst_brute(dst)[0] == brute_force(inst).cost
            done += 1

    def test_dst_oracle_matches_literal_enumeration_on_tiny_cases(self):
        rng = random.Random(58)
        done = 0
        while done < 10:
            inst = rand_monotonic_single_source(
                rng, max_vertices=3, max_edges=3, max_demands=2
            )
            dst = single_source_to_dst(inst)
            if len(dst.edges) > 12:
                continue
            assert dst_brute(dst)[0] == dst_brute_literal(dst)
            done += 1


class TestOwnFrames:
    """Both reductions read each edge's `effective_times`, so node activity
    needs no edge image: on `node` input they build what they build on the
    `node_to_edge` image, and on every variant they keep the optimum."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_node_input_matches_its_edge_image(self, directed):
        reduce, to_dict = (
            (single_source_to_dst, dst_to_dict) if directed
            else (tsn_to_priority, priority_to_dict)
        )
        rng = random.Random(59 + directed)
        for _ in range(150):
            inst = rand_monotonic_frames(rng, "node", directed)
            image = normalize(inst, "edge")[0]
            assert to_dict(reduce(inst)) == to_dict(reduce(image))

    @pytest.mark.parametrize("variant", ["node", "node_and_edge"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_optimum_preserved_on_own_frames(self, variant, directed):
        rng = random.Random(61 + 2 * directed + (variant == "node"))
        done = 0
        while done < 150:
            inst = rand_monotonic_frames(rng, variant, directed)
            if first_unsatisfiable_demand(inst) is not None:
                continue
            if directed:
                cost = dst_brute(single_source_to_dst(inst))[0]
            else:
                cost = priority_brute(tsn_to_priority(inst))
            assert cost == brute_force(inst).cost
            done += 1


class TestDstSolutionToTsn:
    def test_projection_collapses_level_copies(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "x", "b1", "b2"],
            edges=[
                ("a", "x", 4, (1, 2)),
                ("x", "b1", 1, (1, 2)),
                ("x", "b2", 1, (2,)),
            ],
            demands=[("a", "b1", 1), ("a", "b2", 2)],
        )
        dst = single_source_to_dst(inst)
        by = {}
        for i, e in enumerate(dst.edges):
            by[(e.u, e.v)] = i
        # deliberately buy (a, x) at both levels
        tree = [
            by[("a#1", "x#1")],
            by[("x#1", "b1#1")],
            by[("a#1", "a#2")],
            by[("a#2", "x#2")],
            by[("x#2", "b2#2")],
        ]
        tree_cost = sum((dst.edges[i].w for i in tree), Fraction(0))
        sol = dst_solution_to_tsn(dst, tree)
        assert is_feasible(inst, sol)
        assert sol.cost < tree_cost  # the duplicated copy collapses
        assert sol.cost == 6

    def test_infeasible_input_rejected(self):
        inst = rand_monotonic_single_source(random.Random(5))
        dst = single_source_to_dst(inst)
        with pytest.raises(InputError):
            dst_solution_to_tsn(dst, [])

    def test_round_trip_matches_oracle(self):
        rng = random.Random(59)
        done = 0
        while done < 30:
            inst = rand_monotonic_single_source(rng, max_edges=5)
            dst = single_source_to_dst(inst)
            # cheapest DST edge set via the underlying-subset oracle,
            # re-materialised as level edges
            best_cost, _ = dst_brute(dst)
            opt = brute_force(inst)
            assert best_cost == opt.cost
            done += 1


class TestNormalizeToTimeLayeredTree:
    def check_tree_and_times(self, inst, sol):
        source = inst.demands[0].a
        indeg = {}
        for i in sol.edges:
            e = inst.edges[i]
            indeg[e.v] = indeg.get(e.v, 0) + 1
            assert indeg[e.v] <= 1, "vertex with two in-edges"
        ent = earliest_necessary_times(inst, sol.edges)
        assert all(t is not None for t in ent.values())
        # walk root paths; times must never decrease
        out_by = {}
        for i in sol.edges:
            out_by.setdefault(inst.edges[i].u, []).append(i)

        def walk(v, floor):
            for i in out_by.get(v, ()):
                assert ent[i] >= floor
                walk(inst.edges[i].v, ent[i])

        walk(source, 0)
        # connectivity: every chosen edge reachable from the source
        reach = {source}
        frontier = [source]
        while frontier:
            x = frontier.pop()
            for i in out_by.get(x, ()):
                y = inst.edges[i].v
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        for i in sol.edges:
            assert inst.edges[i].u in reach

    def test_shortest_path_tree_unchanged(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1,)), ("x", "b", 1, (1,))],
            demands=[("a", "b", 1)],
        )
        sol = solution_from_edges(inst, (0, 1))
        out = normalize_to_time_layered_tree(inst, sol)
        assert out == sol

    def test_redundant_parallel_path_removed(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "x", "y", "b"],
            edges=[
                ("a", "x", 1, (1,)),
                ("x", "b", 1, (1,)),
                ("a", "y", 1, (1,)),
                ("y", "b", 1, (1,)),
            ],
            demands=[("a", "b", 1)],
        )
        sol = solution_from_edges(inst, (0, 1, 2, 3))
        out = normalize_to_time_layered_tree(inst, sol)
        assert out.cost < sol.cost
        assert out.edges == (0, 1)
        self.check_tree_and_times(inst, out)

    def test_property_over_random_feasible_solutions(self):
        rng = random.Random(61)
        done = 0
        while done < 60:
            inst = rand_monotonic_single_source(rng)
            # random feasible superset: everything, or optimum plus noise
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
            self.check_tree_and_times(inst, out)
            done += 1

    def test_corpus_digest_pinned(self):
        assert normalize_corpus_digest() == "c951b7b8c679113e6517fa8fea728a6bfbfa963eae0e967902b46c9838945bd4"
