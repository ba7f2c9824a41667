import random

import pytest

from tsn.core import (
    Demand,
    InfeasibleInstanceError,
    InputError,
    effective_times,
    is_feasible,
    make_instance,
)
from tsn.exact import brute_force
from tsn.hardness import example1_label_cover, phlc_to_kdtsn
from tsn.variants import (
    node_edge_to_node,
    node_to_edge,
    normalize,
    to_simple,
)

from helpers import lift_chain, rand_instance, reduction_map_from_dict


def image_opt(instance):
    return brute_force(instance)


class TestNodeEdgeToNode:
    def test_direct_construction(self):
        inst = make_instance(
            directed=False, variant="node_and_edge", num_times=2,
            vertices=["u", "v"], edges=[("u", "v", 3, (2,))], demands=[],
            node_activity={"u": (1, 2), "v": (1, 2)},
        )
        image, rmap = node_edge_to_node(inst)
        assert image.variant == "node"
        assert len(image.vertices) == len(inst.vertices) + len(inst.edges)
        assert len(image.edges) == 2 * len(inst.edges)
        (x,) = rmap.added_vertices
        assert image.node_activity[x] == frozenset({2})
        heavy, zero = dict(rmap.forward_edge_map)[0]
        assert image.edges[heavy].w == 3 and image.edges[zero].w == 0

    def test_counts_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = rand_instance(rng, variant="node_and_edge")
            image, _ = node_edge_to_node(inst)
            assert len(image.vertices) == len(inst.vertices) + len(inst.edges)
            assert len(image.edges) == 2 * len(inst.edges)

    def test_effective_times_preserved_through_split(self):
        rng = random.Random(8)
        for _ in range(20):
            inst = rand_instance(rng, variant="node_and_edge")
            image, rmap = node_edge_to_node(inst)
            for i in range(len(inst.edges)):
                heavy, zero = dict(rmap.forward_edge_map)[i]
                assert effective_times(inst, i) == (
                    effective_times(image, heavy) & effective_times(image, zero)
                )

    def test_optimum_preserved(self):
        rng = random.Random(3)
        done = 0
        while done < 60:
            inst = rand_instance(rng, variant="node_and_edge", max_edges=6)
            image, rmap = node_edge_to_node(inst)
            try:
                orig_opt = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    image_opt(image)
                continue
            img_sol = image_opt(image)
            assert img_sol.cost == orig_opt.cost
            lifted = lift_chain([rmap], img_sol, inst)
            assert is_feasible(inst, lifted)
            assert lifted.cost == orig_opt.cost
            done += 1

    def test_wrong_variant_rejected(self):
        with pytest.raises(InputError):
            node_edge_to_node(rand_instance(random.Random(0), variant="edge"))


class TestNodeToEdge:
    def test_edge_input_is_refused(self):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["u", "v"], edges=[("u", "v", 1, (1,))], demands=[],
        )
        with pytest.raises(InputError, match="expects a node instance"):
            node_to_edge(inst)

    def test_intersection(self):
        inst = make_instance(
            directed=False, variant="node", num_times=3,
            vertices=["u", "v"], edges=[("u", "v", 1)], demands=[],
            node_activity={"u": (1, 2), "v": (2, 3)},
        )
        image, _ = node_to_edge(inst)
        assert image.variant == "edge"
        assert image.edges[0].times == frozenset({2})

    def test_empty_intersection_drops_edge(self):
        inst = make_instance(
            directed=False, variant="node", num_times=2,
            vertices=["u", "v"], edges=[("u", "v", 1)], demands=[],
            node_activity={"u": (1,), "v": (2,)},
        )
        image, rmap = node_to_edge(inst)
        assert len(image.edges) == 0
        assert rmap.dropped_edges == (0,)

    def test_frames_coincide_with_original(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = rand_instance(rng, variant="node")
            image, rmap = node_to_edge(inst)
            back = {imgs[0]: o for o, imgs in rmap.forward_edge_map}
            assert len(back) == len(image.edges)
            for i, o in back.items():
                assert effective_times(image, i) == effective_times(inst, o)
            for o in set(range(len(inst.edges))) - set(back.values()):
                assert not effective_times(inst, o)

    def test_optimum_preserved(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            inst = rand_instance(rng, variant="node", max_edges=6)
            image, rmap = node_to_edge(inst)
            try:
                orig_opt = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    image_opt(image)
                continue
            img_sol = image_opt(image)
            assert img_sol.cost == orig_opt.cost
            lifted = lift_chain([rmap], img_sol, inst)
            assert is_feasible(inst, lifted)
            assert lifted.cost == orig_opt.cost
            done += 1


class TestToSimple:
    def test_edge_input_is_refused(self):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["s", "d"], edges=[("s", "d", 1, (1,))], demands=[("s", "d", 1)],
        )
        with pytest.raises(InputError, match="node-variant"):
            to_simple(inst)

    @pytest.mark.parametrize("extra, refused", [(0, False), (1, True)], ids=["at-cap", "over"])
    def test_size_budget_counts_the_listed_entries(self, extra, refused):
        # 500 demands at each of times 1 and 2: a vertex active at {1, 2}
        # lists 1,000 new times and one at {1} or {2} lists 500; with the
        # source and sink at all 1,000 and the 2,000 gates at one, the image
        # lists exactly 10^6 entries, and one more {2} vertex is over
        activity = {f"p{i}": (1, 2) for i in range(400)}
        activity.update({f"q{i}": (1,) for i in range(600)})
        activity.update({f"r{i}": (2,) for i in range(592 + extra)})
        inst = make_instance(
            directed=True, variant="node", num_times=2,
            vertices=list(activity), edges=[("p0", "p1", 1)],
            demands=[("p0", "p1", 1 + j % 2) for j in range(1000)],
            node_activity=activity,
        )
        if refused:
            with pytest.raises(InputError, match="would list 1000500 "):
                to_simple(inst)
        else:
            image, _ = to_simple(inst)
            assert sum(len(image.activity(v)) for v in image.vertices) == 10**6

    def test_single_demand_shape(self):
        inst = make_instance(
            directed=True, variant="node", num_times=1,
            vertices=["s", "d"], edges=[("s", "d", 2)], demands=[("s", "d", 1)],
            node_activity={"s": (1,), "d": (1,)},
        )
        image, rmap = to_simple(inst)
        assert image.demands == (Demand("a", "b", 1),)
        assert image.num_times == 1
        # zero-weight wrapper path a -> x1 -> s and d -> y1 -> b
        zero_edges = [(image.edges[i].u, image.edges[i].v) for i in rmap.aux_edges]
        assert ("a", "x1") in zero_edges and ("x1", "s") in zero_edges
        assert ("d", "y1") in zero_edges and ("y1", "b") in zero_edges

    def test_time_horizon_is_demand_count(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = rand_instance(rng, directed=True, variant="node", max_times=3)
            image, _ = to_simple(inst)
            assert image.num_times == max(1, len(inst.demands))
            ts = sorted(d.t for d in image.demands)
            assert ts == list(range(1, len(inst.demands) + 1))

    def test_vertex_and_edge_counts(self):
        rng = random.Random(19)
        for _ in range(20):
            inst = rand_instance(rng, directed=True, variant="node")
            image, _ = to_simple(inst)
            k = len(inst.demands)
            assert len(image.vertices) == len(inst.vertices) + 2 * k + 2
            plain = sum(1 for d in inst.demands if d.a != d.b)
            selfloops = k - plain
            assert len(image.edges) == len(inst.edges) + 4 * plain + 3 * selfloops

    def test_optimum_preserved(self):
        rng = random.Random(29)
        done = 0
        while done < 60:
            inst = rand_instance(rng, directed=True, variant="node", max_edges=6)
            image, rmap = to_simple(inst)
            try:
                orig_opt = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    image_opt(image)
                continue
            img_sol = image_opt(image)
            assert img_sol.cost == orig_opt.cost
            lifted = lift_chain([rmap], img_sol, inst)
            assert is_feasible(inst, lifted)
            assert lifted.cost == orig_opt.cost
            done += 1

    def test_taken_names_get_primes(self):
        # the source, sink and gate names of the image avoid the original's
        inst = make_instance(
            directed=True, variant="node", num_times=2,
            vertices=["a", "b", "x1", "y1"],
            edges=[("a", "x1", 1), ("x1", "b", 1), ("a", "y1", 3), ("y1", "b", 1)],
            demands=[("a", "b", 1), ("x1", "b", 2)],
            node_activity={"a": (1, 2), "b": (1, 2), "x1": (1, 2), "y1": (1,)},
        )
        image, rmap = to_simple(inst)
        assert rmap.added_vertices == ("a'", "b'", "x1'", "y1'", "x2", "y2")
        assert image.demands == (Demand("a'", "b'", 1), Demand("a'", "b'", 2))
        assert image_opt(image).cost == brute_force(inst).cost == 2

    def test_undirected_rejected(self):
        inst = rand_instance(random.Random(1), directed=False, variant="node")
        with pytest.raises(InputError):
            to_simple(inst)


class TestLift:
    def test_zero_demand_lift_is_empty(self):
        inst = make_instance(
            directed=True, variant="node", num_times=1,
            vertices=["s", "d"], edges=[("s", "d", 2)], demands=[],
            node_activity={"s": (1,), "d": (1,)},
        )
        image, rmap = to_simple(inst)
        lifted = lift_chain([rmap], image_opt(image), inst)
        assert lifted.edges == () and lifted.cost == 0

    def test_example1_sized_node_and_edge_round_trip(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        act = {v: frozenset(range(1, inst.num_times + 1)) for v in inst.vertices}
        ne = make_instance(
            directed=True, variant="node_and_edge", num_times=inst.num_times,
            vertices=inst.vertices,
            edges=[(e.u, e.v, e.w, tuple(e.times)) for e in inst.edges],
            demands=[(d.a, d.b, d.t) for d in inst.demands],
            node_activity=act,
        )
        image, rmap = node_edge_to_node(ne)
        img_sol = image_opt(image)
        lifted = lift_chain([rmap], img_sol, ne)
        assert lifted.cost == img_sol.cost == 1
        assert is_feasible(ne, lifted)


class TestReductionMapInvariants:
    @pytest.mark.parametrize("builder,variant", [
        (node_edge_to_node, "node_and_edge"),
        (node_to_edge, "node"),
        (to_simple, "node"),
    ])
    def test_every_image_edge_owned_once_or_auxiliary(self, builder, variant):
        rng = random.Random(71)
        for _ in range(20):
            directed = True if builder is to_simple else None
            inst = rand_instance(rng, directed=directed, variant=variant)
            image, rmap = builder(inst)
            owners = {}
            for o, imgs in rmap.forward_edge_map:
                for i in imgs:
                    assert i not in owners, "image edge owned twice"
                    owners[i] = o
            for i in range(len(image.edges)):
                if i in owners:
                    continue
                assert i in set(rmap.aux_edges), f"orphan image edge {i}"
                assert image.edges[i].w == 0
            # demand map is a bijection onto the image demands
            srcs = [a for a, _ in rmap.demand_map]
            dsts = [b for _, b in rmap.demand_map]
            assert sorted(srcs) == list(range(len(inst.demands)))
            assert sorted(dsts) == list(range(len(image.demands)))

    def test_serialization_round_trip(self):
        from tsn.variants import reduction_map_to_dict

        rng = random.Random(72)
        inst = rand_instance(rng, directed=True, variant="node")
        _, rmap = to_simple(inst)
        assert reduction_map_from_dict(reduction_map_to_dict(rmap)) == rmap


class TestNormalize:
    @pytest.mark.parametrize("target", ["edge", "node", "node_and_edge"])
    def test_chain_reaches_target_and_preserves_optimum(self, target):
        rng = random.Random(43)
        done = 0
        while done < 30:
            inst = rand_instance(rng, max_edges=5)
            image, steps = normalize(inst, target)
            assert image.variant == target
            try:
                orig_opt = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    image_opt(image)
                continue
            img_sol = image_opt(image)
            assert img_sol.cost == orig_opt.cost
            lifted = lift_chain(steps, img_sol, inst)
            assert is_feasible(inst, lifted)
            assert lifted.cost == orig_opt.cost
            done += 1

    def test_unknown_target_is_refused(self):
        inst = rand_instance(random.Random(3), variant="edge")
        with pytest.raises(InputError, match="unknown target variant 'bogus'"):
            normalize(inst, "bogus")

    def test_identity_when_already_target(self):
        inst = rand_instance(random.Random(3), variant="edge")
        image, steps = normalize(inst, "edge")
        assert image is inst and steps == []
