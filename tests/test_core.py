import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tsn.core import (
    VARIANTS,
    Demand,
    FrameIndex,
    InputError,
    effective_times,
    first_unsatisfiable_demand,
    instance_from_dict,
    instance_to_dict,
    is_acyclic,
    is_feasible,
    is_monotonic,
    make_instance,
    satisfies,
    solution_cost,
    validate,
)
from tsn.hardness import example1_label_cover, phlc_to_kdtsn

from helpers import rand_instance


def single_edge_instance(weight=1, times=(1,), T=1):
    return make_instance(
        directed=False,
        variant="edge",
        num_times=T,
        vertices=["a", "b"],
        edges=[("a", "b", weight, times)],
        demands=[("a", "b", 1)],
    )


class TestValidate:
    def test_minimal_well_formed(self):
        assert validate(single_edge_instance()) == []

    def test_negative_weight_names_edge(self):
        bad = single_edge_instance(weight=-1)
        violations = validate(bad)
        assert len(violations) == 1
        assert "edge 0" in violations[0]
        assert "negative" in violations[0]

    def test_out_of_range_time(self):
        bad = make_instance(
            directed=False,
            variant="edge",
            num_times=2,
            vertices=["a", "b"],
            edges=[("a", "b", 1, (3,))],
            demands=[],
        )
        violations = validate(bad)
        assert len(violations) == 1
        assert "time 3" in violations[0]

    def test_parallel_edges_rejected_unless_flagged(self):
        inst = make_instance(
            directed=True,
            variant="edge",
            num_times=1,
            vertices=["a", "b"],
            edges=[("a", "b", 1, (1,)), ("a", "b", 2, (1,))],
            demands=[],
        )
        assert any("parallel" in v for v in validate(inst))
        flagged = make_instance(
            directed=True,
            variant="edge",
            num_times=1,
            vertices=["a", "b"],
            edges=[("a", "b", 1, (1,)), ("a", "b", 2, (1,))],
            demands=[],
            allow_parallel=True,
        )
        assert validate(flagged) == []

    def test_edge_variant_must_not_carry_node_activity(self):
        inst = make_instance(
            directed=False,
            variant="edge",
            num_times=1,
            vertices=["a"],
            edges=[],
            demands=[],
            node_activity={"a": (1,)},
        )
        assert any("node_activity" in v for v in validate(inst))

    @pytest.mark.parametrize("change, message", [
        ({"num_times": 0, "edges": (), "demands": ()}, "num_times must be positive, got 0"),
        ({"vertices": ("a", "b", "a")}, "duplicate vertex identifiers"),
        ({"variant": "node"}, "node variant requires node_activity"),
        ({"variant": "node", "node_activity": {"a": frozenset({1}), "b": frozenset({2})}},
         "node_activity['b']: time 2 outside range"),
        ({"demands": (Demand("a", "b", 2),)}, "demand 0: time 2 outside [1..1]"),
    ], ids=["horizon", "duplicate-vertex", "node-without-activity", "activity-time",
            "demand-time"])
    def test_each_rule_names_its_violation(self, change, message):
        assert validate(replace(single_edge_instance(), **change)) == [message]

    def test_shared_weight_and_times_are_reported_on_every_edge(self):
        # the reader gives equal weights and time lists one object, so
        # edges 0, 2 and 3 share the -1 and edges 1, 2 and 4 the {3}
        data = {
            "directed": True, "variant": "edge", "T": 2, "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "w": -1, "times": [1]},
                {"u": "b", "v": "c", "w": 1, "times": [3]},
                {"u": "a", "v": "c", "w": -1, "times": [3]},
                {"u": "c", "v": "a", "w": -1, "times": [1]},
                {"u": "b", "v": "a", "w": 2, "times": [3]},
                {"u": "c", "v": "b", "w": 2, "times": [1]},
            ],
            "demands": [],
        }
        inst = instance_from_dict(data)
        assert validate(inst) == [
            "edge 0: negative weight -1",
            "edge 1: active time 3 outside [1..2]",
            "edge 2: negative weight -1",
            "edge 2: active time 3 outside [1..2]",
            "edge 3: negative weight -1",
            "edge 4: active time 3 outside [1..2]",
        ]
        # the same objects built by hand give the same list
        w, ts = inst.edges[0].w, inst.edges[1].times
        same = replace(inst, edges=tuple(
            replace(e, w=w if e.w < 0 else e.w, times=ts if 3 in e.times else e.times)
            for e in inst.edges))
        assert validate(same) == validate(inst)


class TestFrame:
    """Frame t holds the edges whose effective times contain t."""

    def test_edge_variant(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=2,
            vertices=["a", "b"], edges=[("a", "b", 1, (1, 2))], demands=[],
        )
        assert effective_times(inst, 0) == {1, 2}

    def test_node_variant_requires_both_endpoints(self):
        inst = make_instance(
            directed=False, variant="node", num_times=2,
            vertices=["u", "v"], edges=[("u", "v", 1)], demands=[],
            node_activity={"u": (1,), "v": (2,)},
        )
        assert effective_times(inst, 0) == frozenset()

    def test_node_and_edge_needs_edge_and_endpoints(self):
        inst = make_instance(
            directed=False, variant="node_and_edge", num_times=2,
            vertices=["u", "v"], edges=[("u", "v", 1, (2,))], demands=[],
            node_activity={"u": (1, 2), "v": (1, 2)},
        )
        assert effective_times(inst, 0) == {2}


class TestReverseFrame:
    """`FrameIndex.reverse_frame(t)` is `frame(t)` with its arcs turned round."""

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_lists_the_frame_turned_round(self, directed):
        rng = random.Random(41 + directed)
        for _ in range(80):
            inst = rand_instance(rng, directed=directed, max_vertices=6, max_edges=10)
            index = FrameIndex(inst)
            for t in range(1, inst.num_times + 1):
                frame = index.frame(t)
                if not directed:
                    # both directions are listed: the frame is its own reverse
                    assert index.reverse_frame(t) is frame
                    continue
                turned = [[] for _ in frame]
                for x, arcs in enumerate(frame):
                    for y, i in arcs:
                        turned[y].append((x, i))
                # per vertex, in edge-id order
                assert index.reverse_frame(t) == [sorted(arcs, key=lambda a: a[1])
                                                  for arcs in turned]

    def test_built_once_per_demand_time(self, monkeypatch):
        # the dual ascent asks for each demand's reverse frame; the index
        # builds it on the first request for its time and serves it after
        built = []
        real = FrameIndex.reverse_frame

        def counting(index, t):
            if t not in index._reverse_frames:
                built.append(t)
            return real(index, t)

        monkeypatch.setattr(FrameIndex, "reverse_frame", counting)
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "b", "c", "d"],
            edges=[("a", "b", 1, (1, 2)), ("b", "c", 1, (1, 2)), ("a", "d", 2, (1, 2))],
            demands=[("a", "b", 1), ("a", "c", 1), ("a", "d", 1), ("b", "c", 2), ("a", "c", 2)],
        )
        index = FrameIndex(inst)
        everything = list(range(len(index.demands)))
        for _ in range(2):
            bound, _ = index.dual_ascent(bytearray(3), bytearray(3), everything)
            assert bound == 4  # every edge is needed
        assert sorted(built) == [1, 2]


class TestFrameIndexPath:
    """`FrameIndex.path` walks the path that `shortest_paths` picks."""

    def test_edge_ids_in_path_order(self):
        # the cheap route a->c->b->d uses edges 2, 1, 3, listed out of order
        inst = make_instance(
            directed=True, variant="edge", num_times=2, vertices=["a", "b", "c", "d"],
            edges=[("a", "b", 5, (1, 2)), ("c", "b", 1, (1, 2)), ("a", "c", 1, (1, 2)),
                   ("b", "d", 1, (2,))],
            demands=[],
        )
        index = FrameIndex(inst)
        a, b, d = index.ids["a"], index.ids["b"], index.ids["d"]
        assert index.path(1, a, b) == [2, 1]
        assert index.path(2, a, d) == [2, 1, 3]
        assert index.path(1, a, a) == []

    def test_unreachable_is_none(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=2, vertices=["a", "b"],
            edges=[("a", "b", 1, (2,))], demands=[],
        )
        index = FrameIndex(inst)
        a, b = index.ids["a"], index.ids["b"]
        assert index.path(1, a, b) is None
        assert index.path(2, b, a) is None
        assert index.path(2, a, b) == [0]

    def test_equal_cost_paths_break_by_name(self):
        # s->y->t and s->x->t both cost 2; x < y by name, but the vertex
        # list and the edge ids both put y first
        inst = make_instance(
            directed=True, variant="edge", num_times=1, vertices=["t", "y", "x", "s"],
            edges=[("s", "y", 1, (1,)), ("y", "t", 1, (1,)),
                   ("s", "x", 1, (1,)), ("x", "t", 1, (1,))],
            demands=[],
        )
        index = FrameIndex(inst)
        assert index.path(1, index.ids["s"], index.ids["t"]) == [2, 3]

    def test_weight_list_and_forbidden_edge(self):
        # a->b directly (5) or through c (1 + 1); a caller's weights make
        # the direct edge free, and a forbidden edge is never crossed
        inst = make_instance(
            directed=True, variant="edge", num_times=1, vertices=["a", "b", "c"],
            edges=[("a", "b", 5, (1,)), ("a", "c", 1, (1,)), ("c", "b", 1, (1,))],
            demands=[],
        )
        index = FrameIndex(inst)
        a, b = index.ids["a"], index.ids["b"]
        assert index.path(1, a, b) == [1, 2]
        assert index.path(1, a, b, [0, 1, 1]) == [0]
        assert index.path(1, a, b, [0, 1, 1], forbidden=0) == [1, 2]
        assert index.path(1, a, b, forbidden=2) == [0]
        assert index.path(1, a, index.ids["c"], forbidden=1) is None
        assert index.shortest_paths(1, a, [0, 1, 1], 1)[0] == [0, 0, None]


class TestSatisfies:
    def path_instance(self, middle_times):
        return make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1,)), ("x", "b", 1, middle_times)],
            demands=[("a", "b", 1)],
        )

    def test_two_hop_path(self):
        inst = self.path_instance((1,))
        assert satisfies(inst, (0, 1), Demand("a", "b", 1))

    def test_inactive_middle_edge(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=2,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1, 2)), ("x", "b", 1, (2,))],
            demands=[("a", "b", 1)],
        )
        assert not satisfies(inst, (0, 1), Demand("a", "b", 1))

    def test_self_demand_vacuous(self):
        inst = single_edge_instance()
        assert satisfies(inst, (), Demand("a", "a", 1))

    def test_example1_merged_contact_with_access_edges(self):
        # selecting one shared contact path plus its free access edges
        # satisfies both demands at total cost 1
        inst, trace = phlc_to_kdtsn(example1_label_cover())
        merged = [
            i for i, info in trace.contacts.items() if info.labels == (1, 1)
        ]
        assert len(merged) == 1
        contact = merged[0]
        c1, c2 = inst.edges[contact].u, inst.edges[contact].v
        access = [
            i
            for i, e in enumerate(inst.edges)
            if e.w == 0 and (e.v == c1 or e.u == c2)
        ]
        chosen = [contact] + access
        assert is_feasible(inst, chosen)
        assert solution_cost(inst, chosen) == 1

    def test_directed_orientation_respected(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("b", "a", 1, (1,))],
            demands=[("a", "b", 1)],
        )
        assert not satisfies(inst, (0,), Demand("a", "b", 1))


class TestMonotonicAcyclic:
    def test_upward_closed(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=3,
            vertices=["a", "b"], edges=[("a", "b", 1, (2, 3))], demands=[],
        )
        assert is_monotonic(inst)

    def test_gap_breaks_monotonicity(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=3,
            vertices=["a", "b"], edges=[("a", "b", 1, (1, 3))], demands=[],
        )
        assert not is_monotonic(inst)

    def test_two_cycle_not_acyclic(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"],
            edges=[("a", "b", 1, (1,)), ("b", "a", 1, (1,))],
            demands=[],
        )
        assert not is_acyclic(inst)

    def test_random_topological_dag(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 6)
            names = [f"n{i}" for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        edges.append((names[i], names[j], 1, (1,)))
            if not edges:
                continue
            inst = make_instance(
                directed=True, variant="edge", num_times=1,
                vertices=names, edges=edges, demands=[],
            )
            assert is_acyclic(inst)

    def test_acyclic_undefined_for_undirected(self):
        with pytest.raises(InputError):
            is_acyclic(single_edge_instance())


class TestSolutionCost:
    def test_empty_solution(self):
        inst = single_edge_instance()
        assert solution_cost(inst, ()) == 0

    def test_random_subsets_match_naive_sum(self):
        rng = random.Random(3)
        for _ in range(30):
            inst = rand_instance(rng)
            ids = [i for i in range(len(inst.edges)) if rng.random() < 0.5]
            expected = Fraction(0)
            for i in set(ids):
                expected += inst.edges[i].w
            assert solution_cost(inst, ids) == expected

    def test_cost_monotone_under_inclusion(self):
        rng = random.Random(4)
        for _ in range(30):
            inst = rand_instance(rng)
            n = len(inst.edges)
            small = {i for i in range(n) if rng.random() < 0.4}
            big = small | {i for i in range(n) if rng.random() < 0.4}
            assert solution_cost(inst, small) <= solution_cost(inst, big)


def transitive_closure_reaches(inst, t, a, b):
    """Independent reachability check: boolean Floyd-Warshall over frame t."""
    if a == b:
        return True
    names = list(inst.vertices)
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, e in enumerate(inst.edges):
        if t in effective_times(inst, i):
            reach[idx[e.u]][idx[e.v]] = True
            if not inst.directed:
                reach[idx[e.v]][idx[e.u]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach[idx[a]][idx[b]]


class TestInvariants:
    def test_full_solution_feasibility_matches_reachability(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = rand_instance(rng)
            every = tuple(range(len(inst.edges)))
            expected = all(
                transitive_closure_reaches(inst, d.t, d.a, d.b) for d in inst.demands
            )
            assert is_feasible(inst, every) == expected

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("directed", [True, False])
    def test_demand_checks_on_edge_subsets_match_reachability(self, directed, variant):
        # the index's demand loop and the name-keyed checker must both
        # agree with Floyd-Warshall on every subset, not only the full set
        rng = random.Random(13)
        for _ in range(30):
            inst = rand_instance(rng, directed=directed, variant=variant, max_demands=4)
            index = FrameIndex(inst)
            for _ in range(4):
                chosen = [i for i in range(len(inst.edges)) if rng.random() < 0.6]
                sub = replace(inst, edges=tuple(inst.edges[i] for i in chosen))
                expected = next(
                    (d for d in inst.demands
                     if not transitive_closure_reaches(sub, d.t, d.a, d.b)),
                    None,
                )
                member = bytearray(len(inst.edges))
                for i in chosen:
                    member[i] = 1
                assert index.first_unmet(member) == expected
                assert first_unsatisfiable_demand(sub) == expected
                assert is_feasible(inst, chosen) == (expected is None)

    def test_monotonic_frames_nested(self):
        rng = random.Random(12)
        found = 0
        while found < 15:
            inst = rand_instance(rng)
            if not is_monotonic(inst):
                continue
            found += 1
            for i in range(len(inst.edges)):
                eff = effective_times(inst, i)
                assert all(t + 1 in eff for t in eff if t < inst.num_times)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = rand_instance(rng)
            again = instance_from_dict(instance_to_dict(inst))
            assert again == inst

    def test_fractional_weights_survive(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", Fraction(3, 7), (1,))],
            demands=[],
        )
        again = instance_from_dict(instance_to_dict(inst))
        assert again.edges[0].w == Fraction(3, 7)

    def test_first_time_shorthand_expands(self):
        data = {
            "directed": False,
            "variant": "edge",
            "T": 3,
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "w": 1, "first_time": 2}],
            "demands": [],
        }
        inst = instance_from_dict(data)
        assert inst.edges[0].times == frozenset({2, 3})


# weights as a file may spell them: integers, integral and decimal floats,
# "p/q" and decimal strings, negatives; then values the reader refuses,
# several equal in Python to a valid one (True == 1 == 1.0)
GOOD_WEIGHTS = [0, 1, 2, 3, 0.5, 0.1, 2.0, 0.0, "1/3", "3/7", "2/4", "0.25", "7"]
NEGATIVE_WEIGHTS = [-1, -0.5, "-1/2"]
BAD_WEIGHTS = [True, False, "abc", "1e5", "1/0", [1], {"n": 1}, None, float("nan"), 1.5e300]
BAD_TIMES = [[True, 1], [1.0], [1, "2"], "12", None, {"1": 1}, [[1]]]
BAD_NAMES = [1, None, True, ["n0"]]
BAD_RECORDS = ["x", 1, None, {"v": "n0", "w": 1, "times": [1]}]


def interchange_corpus(seed: int = 33, count: int = 700) -> list:
    """Seeded instance files, each round-tripped through JSON text, over all
    three variants, directed and undirected, with `first_time` edges,
    fractional and decimal weights and time lists that repeat within a
    file.  About one field in eighty is malformed, so most files read, and
    some that read break `validate`'s rules (negative weights, times
    outside [1..T], unknown names, parallel edges)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        variant = rng.choice(VARIANTS)
        T = rng.randint(1, 4)
        names = [f"n{i}" for i in range(rng.randint(1, 5))]
        # a few time lists shared by the whole file, as gadgets have
        pool = [sorted(rng.sample(range(1, T + 1), rng.randint(1, T))) for _ in range(3)]
        pool.append(pool[0][::-1])
        if rng.random() < 0.1:
            pool.append([T + 1])
        if rng.random() < 0.05:
            pool.append([])
        weights = rng.sample(GOOD_WEIGHTS, 3)
        if rng.random() < 0.1:
            weights.append(rng.choice(NEGATIVE_WEIGHTS))

        def bad(share=0.012):
            return rng.random() < share

        def name():
            if bad(0.01):
                return rng.choice(BAD_NAMES)
            return rng.choice(names) if not bad(0.01) else "zz"

        def times():
            return rng.choice(BAD_TIMES) if bad() else list(rng.choice(pool))

        directed = rng.random() < 0.5
        edges, pairs = [], set()
        for _ in range(rng.randint(0, 8)):
            if bad(0.01):
                edges.append(rng.choice(BAD_RECORDS))
                continue
            u, v = rng.sample(names * 2, 2)
            pair = (u, v) if directed else frozenset((u, v))
            if pair in pairs and not bad(0.1):
                continue
            pairs.add(pair)
            rec = {"u": name() if bad(0.05) else u, "v": v,
                   "w": rng.choice(BAD_WEIGHTS) if bad() else rng.choice(weights)}
            if rng.random() < 0.2:
                rec["first_time"] = (rng.choice([1.5, True, "1"]) if bad()
                                     else rng.randint(0, T + 1) if bad(0.1)
                                     else rng.randint(1, T))
            elif variant != "node" or rng.random() < 0.3:
                rec["times"] = times()
            edges.append(rec)
        data = {
            "directed": directed if not bad(0.01) else "true",
            "variant": variant if not bad(0.01) else "simple",
            "T": T if not bad(0.01) else float(T),
            "vertices": list(names),
            "edges": edges,
            "demands": [
                {"a": name(), "b": name(),
                 "t": True if bad() else rng.randint(1, T + 1) if bad(0.1) else rng.randint(1, T)}
                for _ in range(rng.randint(0, 3))
            ],
        }
        if variant != "edge" or bad(0.05):
            data["node_activity"] = {
                ("zz" if bad(0.05) else v): times() for v in names if rng.random() < 0.9
            }
        if rng.random() < 0.05:
            data["allow_parallel"] = rng.choice([True, False, 0])
        if bad(0.01):
            del data[rng.choice(sorted(data))]
        out.append(json.loads(json.dumps(data)))
    return out


def interchange_digest(corpus) -> str:
    """sha256 over each file's reader error, or else its `instance_to_dict`
    JSON, `validate` list and `is_monotonic`."""
    h = hashlib.sha256()
    for data in corpus:
        try:
            inst = instance_from_dict(data)
        except InputError as exc:
            h.update(f"error {exc}\n".encode())
            continue
        h.update(json.dumps(instance_to_dict(inst)).encode())
        h.update(f"\n{validate(inst)} {is_monotonic(inst)}\n".encode())
    return h.hexdigest()


class TestInterchangeParity:
    def test_corpus_mixes_valid_and_malformed_files(self):
        results = []
        for data in interchange_corpus():
            try:
                results.append(validate(instance_from_dict(data)) == [])
            except InputError:
                results.append(None)
        assert results.count(True) > len(results) // 3
        assert results.count(False) > 50
        assert results.count(None) > 50

    def test_reader_checker_and_writer_are_pinned(self):
        # digest taken before the reader, `validate` and `instance_to_dict`
        # shared one object per distinct weight, time set and name
        assert interchange_digest(interchange_corpus()) == (
            "825bc448fc6784299fc6f210fd9ffb9586b03efd2a8d75e9fb1e5d218968e83e")
