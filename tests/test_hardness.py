import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest

from tsn.approx import metric_closure
from tsn.core import (
    MAX_FIRST_TIME_ENTRIES,
    InputError,
    TemporalInstance,
    instance_to_dict,
    is_acyclic,
    validate,
)
from tsn.exact import brute_force, solve_bb
from tsn.hardness import (
    GadgetTrace,
    KphlcInstance,
    example1_label_cover,
    gen_nosat_phlc,
    gen_yes_lc,
    gen_yes_phlc,
    phlc_to_kdtsn,
    trace_to_dict,
)
from tsn.hardness import _color_buckets, _gadget_edges, _incidence, _tuples


# Reference checks on constraint graphs and gadgets


def phlc_strongly_satisfies(h: KphlcInstance, labeling: Sequence[Sequence[int]], m: int) -> bool:
    e = h.edges[m]
    colors = {h.projections[m][t][labeling[t][e[t]]] for t in range(h.k)}
    return len(colors) == 1


def phlc_has_strong_labeling(h: KphlcInstance) -> bool:
    """Whether one labeling strongly satisfies every hyperedge (exhaustive)."""
    labelings = product(*[product(range(h.num_labels), repeat=len(p)) for p in h.parts])
    return any(
        all(phlc_strongly_satisfies(h, lab, m) for m in range(len(h.edges))) for lab in labelings
    )


def phlc_weakly_satisfies(h: KphlcInstance, labeling: Sequence[Sequence[int]], m: int) -> bool:
    e = h.edges[m]
    cols = [h.projections[m][t][labeling[t][e[t]]] for t in range(h.k)]
    return len(set(cols)) < len(cols)


def canonical_signature(instance: TemporalInstance, trace: GadgetTrace) -> str:
    """Hash of the gadget structure that is invariant under relabelling.

    Per hyperedge it records the merged-tuple count and, per part, the
    sorted multiset of per-strand path counts, so permuting the label set
    leaves the signature unchanged.
    """
    per_edge: dict[int, dict] = {}
    for b in trace.bundles:
        for lab, chain in b.strands:
            for m, ids in chain:
                rec = per_edge.setdefault(m, {"parts": {}, "merged": set(), "fallback": 0})
                rec["parts"].setdefault(b.part, []).append(len(ids))
                for eid in ids:
                    info = trace.contacts[eid]
                    if info.labels is not None:
                        rec["merged"].add(info.labels)
                    else:
                        rec["fallback"] += 1
    payload = {
        "vertices": len(instance.vertices),
        "edges": len(instance.edges),
        "T": instance.num_times,
        "demands": len(instance.demands),
        "weight": str(sum((e.w for e in instance.edges), Fraction(0))),
        "per_edge": [
            {
                "edge": m,
                "merged": len(rec["merged"]),
                "fallback": rec["fallback"],
                "strand_profile": sorted(
                    (part, tuple(sorted(counts))) for part, counts in rec["parts"].items()
                ),
            }
            for m, rec in sorted(per_edge.items())
        ],
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()


def _buckets(h):
    return [_color_buckets(h, m) for m in range(len(h.edges))]


def opt(instance):
    return brute_force(instance).cost


def gadget_wellformed(instance, trace):
    assert validate(instance) == []
    assert is_acyclic(instance)
    for i, e in enumerate(instance.edges):
        if i in trace.contacts:
            assert e.w == 1
        else:
            assert e.w == 0


class TestExample1:
    def test_optimum_is_one(self):
        inst, trace = phlc_to_kdtsn(example1_label_cover())
        gadget_wellformed(inst, trace)
        assert opt(inst) == 1
        assert solve_bb(inst).cost == 1

    def test_merged_contacts_span_both_frames(self):
        inst, trace = phlc_to_kdtsn(example1_label_cover())
        merged = [i for i, c in trace.contacts.items() if c.labels is not None]
        fallback = [i for i, c in trace.contacts.items() if c.labels is None]
        assert len(merged) == 2 and len(fallback) == 1
        for i in merged:
            assert inst.edges[i].times == frozenset({1, 2})
        for i in fallback:
            assert len(inst.edges[i].times) == 1

    def test_label_cover_side_is_yes_instance(self):
        lc = example1_label_cover()
        assert phlc_has_strong_labeling(lc)
        # both left labels agree with the second right label only
        assert _tuples(_color_buckets(lc, 0)) == [(0, 1), (1, 1)]


class TestLcGadget:
    def test_unsatisfiable_edge_gives_single_unmerged_strand(self):
        lc = KphlcInstance(
            parts=(("u",), ("v",)), edges=((0, 0),),
            num_labels=1, num_colors=2,
            projections=(((0,), (1,)),),
        )
        inst, trace = phlc_to_kdtsn(lc)
        gadget_wellformed(inst, trace)
        assert all(c.labels is None for c in trace.contacts.values())
        # one fallback strand per side
        assert len(trace.contacts) == 2
        assert opt(inst) == 2  # no overlap possible

    def test_totally_satisfiable_costs_edge_count(self):
        rng = random.Random(0)
        for (num_left, degree) in [(1, 1), (1, 2), (2, 1), (3, 1)]:
            lc = gen_yes_lc(num_left, max(1, degree), degree, 2, seed=rng.randint(0, 99))
            inst, trace = phlc_to_kdtsn(lc)
            gadget_wellformed(inst, trace)
            assert opt(inst) == len(lc.edges)

    def test_minimal_frame1_paths_cost_edge_count(self):
        lc = gen_yes_lc(2, 2, 1, 2, seed=3)
        inst, _ = phlc_to_kdtsn(lc)
        closure = metric_closure(inst)
        src = "P1.1S"
        snk = f"P1.{len(lc.parts[0]) + 1}S"
        assert closure.distance(src, snk, 1) == len(lc.edges)
        # every frame-1 source->sink path pays one contact per edge
        adj = {}
        for i, e in enumerate(inst.edges):
            if 1 in e.times:
                adj.setdefault(e.u, []).append((e.v, e.w))

        def walk(x, cost, seen):
            if x == snk:
                yield cost
                return
            for y, w in adj.get(x, ()):
                if y not in seen:
                    yield from walk(y, cost + w, seen | {y})

        costs = set(walk(src, Fraction(0), {src}))
        assert costs == {Fraction(len(lc.edges))}


class TestPhlcGadget:
    @pytest.mark.parametrize(
        "shape, digest",
        [
            ((2, 2, 1, 2), "4bf07be4b258246c3f8666217d8281856d44596992f80d8fb2e63bbb64c6828f"),
            ((1, 3, 3, 2), "d6793838e494823f132edc8f175db0f2666761688c6c4534dbedd5112080e0d1"),
            ((3, 3, 1, 3), "440be5975425b682187230cdfc92ca8184d7362d5f54fb7702862e458fa3e4f5"),
            ((1, 1, 1, 3), "c1d490a074d6665f1b3311e4cb8d9aa0c07d163aae6adebba6357cb3f4dece57"),
            ((2, 3, 2, 2), "15eccc692381eb0660789f81c8601418c9006a651b6f970588d9afadb3491e35"),
            ((1, 2, 2, 1), "4cbbda187369c29885df744be04559361a1575eac3dabcb91315d02536f24e89"),
        ],
        ids=[f"shape{i}" for i in range(6)],
    )
    def test_k2_matches_bipartite_construction(self, shape, digest):
        # the digests were taken from the dedicated bipartite compiler that
        # the k = 2 hypergraph compiler replaced: the instance and trace it
        # builds must stay equal to that compiler's.  They hash an in-memory
        # `indent=2` rendering of the two values, not the files `gen` writes
        # (tests/test_golden.py pins those)
        u, v, deg, sigma = shape
        h = hashlib.sha256()
        for seed in (0, 1, 2):
            lc = gen_yes_lc(u, v, deg, sigma, seed=seed)
            inst, trace = phlc_to_kdtsn(lc)
            assert inst.num_times == 2
            h.update(json.dumps(instance_to_dict(inst), indent=2).encode())
            h.update(json.dumps(trace_to_dict(trace), indent=2).encode())
        assert h.hexdigest() == digest

    def test_strongly_satisfiable_costs_edge_count(self):
        h = gen_yes_phlc(3, [1, 1, 1], 1, 2, seed=4)
        inst, trace = phlc_to_kdtsn(h)
        gadget_wellformed(inst, trace)
        assert opt(inst) == 1

    def test_fully_unsatisfiable_costs_k_times_edges(self):
        h = gen_nosat_phlc(3, [1, 1, 1], 1, 2)
        inst, trace = phlc_to_kdtsn(h)
        gadget_wellformed(inst, trace)
        # nothing merges: every contact exists in exactly one frame
        assert all(len(inst.edges[i].times) == 1 for i in trace.contacts)
        assert opt(inst) == 3

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["yes", "nosat"])
    def test_factor_k_gap_closes_at_the_root(self, k, m, kind):
        # the paper's gap: a strongly satisfiable graph costs one per
        # hyperedge, one with no weakly satisfiable hyperedge k per hyperedge;
        # B&B proves either at the root
        if kind == "yes":
            h, cost = gen_yes_phlc(k, [2] * k, m, 2, seed=0), m
        else:
            h, cost = gen_nosat_phlc(k, [2] * k, m, 2, seed=0), k * m
        inst, _ = phlc_to_kdtsn(h)
        stats = {}
        assert solve_bb(inst, stats).cost == cost
        assert stats["nodes"] == 1
        assert stats["root_lower_bound"] == cost

    def test_nosat_never_weakly_satisfiable(self):
        h = gen_nosat_phlc(3, [2, 1, 2], 2, 2)
        labelings = product(
            *[product(range(h.num_labels), repeat=len(h.parts[t])) for t in range(h.k)]
        )
        for lab in labelings:
            for m in range(len(h.edges)):
                assert not phlc_weakly_satisfies(h, lab, m)


class TestUndirect:
    def test_example1_retains_optimum(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        und = replace(inst, directed=False)
        assert not und.directed
        assert opt(und) == 1

    def test_phlc_yes_retains_optimum(self):
        h = gen_yes_phlc(3, [1, 1, 1], 1, 2, seed=4)
        inst, _ = phlc_to_kdtsn(h)
        assert opt(replace(inst, directed=False)) == 1

    def test_weights_times_and_demands_unchanged(self):
        inst, _ = phlc_to_kdtsn(example1_label_cover())
        und = replace(inst, directed=False)
        assert und.edges == inst.edges
        assert und.demands == inst.demands

    def test_empty_instance_stays_empty(self):
        from tsn.core import TemporalInstance

        empty = TemporalInstance(
            directed=True, variant="edge", num_times=1,
            vertices=(), edges=(), demands=(),
        )
        und = replace(empty, directed=False)
        assert und.edges == () and und.vertices == () and not und.directed


class TestGenerators:
    def test_planted_labeling_is_total(self):
        for seed in range(6):
            lc = gen_yes_lc(3, 3, 1, 3, seed=seed)
            assert phlc_has_strong_labeling(lc)

    def test_single_label_trivially_total(self):
        lc = gen_yes_lc(2, 2, 1, 1, seed=9)
        assert phlc_has_strong_labeling(lc)

    def test_phlc_hidden_labeling_strongly_satisfies(self):
        for seed in range(4):
            h = gen_yes_phlc(3, [2, 2, 2], 2, 2, seed=seed)
            found = False
            for lab in product(
                *[product(range(h.num_labels), repeat=len(h.parts[t])) for t in range(h.k)]
            ):
                if all(phlc_strongly_satisfies(h, lab, m) for m in range(len(h.edges))):
                    found = True
                    break
            assert found

    def test_deterministic_per_seed(self):
        assert gen_yes_lc(2, 3, 2, 2, seed=7) == gen_yes_lc(2, 3, 2, 2, seed=7)
        assert gen_yes_phlc(3, [1, 2, 1], 2, 2, seed=7) == gen_yes_phlc(3, [1, 2, 1], 2, 2, seed=7)

    def test_generated_instances_validate_and_are_acyclic(self):
        for seed in range(3):
            lc = gen_yes_lc(2, 3, 2, 2, seed=seed)
            inst, trace = phlc_to_kdtsn(lc)
            gadget_wellformed(inst, trace)
            h = gen_yes_phlc(3, [2, 1, 2], 2, 2, seed=seed)
            inst2, trace2 = phlc_to_kdtsn(h)
            gadget_wellformed(inst2, trace2)

    @pytest.mark.parametrize("h", [
        example1_label_cover(),
        gen_yes_lc(3, 3, 2, 3, seed=1),
        gen_yes_lc(2, 2, 0, 2, seed=0),
        gen_yes_lc(1, 30, 30, 8, seed=2),
        gen_yes_phlc(4, [2, 3, 1, 4], 5, 4, seed=7),
        gen_nosat_phlc(3, [1, 2, 1], 2, 2),
    ], ids=["example1", "lc-yes", "lc-no-edges", "lc-wide", "phlc-yes", "phlc-nosat"])
    def test_size_guard_counts_the_compiled_edges(self, h):
        inst, _ = phlc_to_kdtsn(h)
        assert _gadget_edges(h, _incidence(h), _buckets(h)) == len(inst.edges)

    def test_gadget_over_the_cap_is_refused(self):
        # one hyperedge whose 1001 x 1001 label pairs all agree: about
        # 5 million edges from a constraint graph of 2002 table entries
        labels = (0,) * 1001
        h = KphlcInstance(parts=(("u",), ("v",)), edges=((0, 0),), num_labels=1001,
                          num_colors=1, projections=((labels, labels),))
        assert _gadget_edges(h, _incidence(h), _buckets(h)) > MAX_FIRST_TIME_ENTRIES
        with pytest.raises(InputError, match="gadget would need"):
            phlc_to_kdtsn(h)

    @pytest.mark.parametrize("h", [
        gen_yes_lc(3, 3, 2, 4, seed=5),
        gen_yes_phlc(3, [2, 1, 2], 3, 3, seed=4),
        gen_nosat_phlc(3, [1, 2, 1], 2, 2),
    ], ids=["lc-yes", "phlc-yes", "phlc-nosat"])
    def test_agreeing_tuples_match_literal_enumeration(self, h):
        for m, tables in enumerate(h.projections):
            literal = [
                tup for tup in product(range(h.num_labels), repeat=h.k)
                if len({tables[t][l] for t, l in enumerate(tup)}) == 1
            ]
            assert _tuples(_color_buckets(h, m)) == literal


class TestCanonicalSignature:
    def permute_lc(self, lc: KphlcInstance, perm):
        projections = []
        for pl, pr in lc.projections:
            projections.append(
                (
                    tuple(pl[perm[l]] for l in range(lc.num_labels)),
                    tuple(pr[perm[l]] for l in range(lc.num_labels)),
                )
            )
        return KphlcInstance(
            parts=lc.parts, edges=lc.edges,
            num_labels=lc.num_labels, num_colors=lc.num_colors,
            projections=tuple(projections),
        )

    def test_label_permutation_preserves_signature(self):
        lc = gen_yes_lc(2, 2, 1, 3, seed=11)
        base_inst, base_trace = phlc_to_kdtsn(lc)
        base_sig = canonical_signature(base_inst, base_trace)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            other = self.permute_lc(lc, perm)
            inst, trace = phlc_to_kdtsn(other)
            assert canonical_signature(inst, trace) == base_sig
            assert opt(inst) == opt(base_inst)

    def test_different_structure_changes_signature(self):
        a_inst, a_trace = phlc_to_kdtsn(gen_yes_lc(2, 2, 1, 2, seed=1))
        b_inst, b_trace = phlc_to_kdtsn(gen_yes_lc(3, 3, 1, 2, seed=1))
        assert canonical_signature(a_inst, a_trace) != canonical_signature(
            b_inst, b_trace
        )
