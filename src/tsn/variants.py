"""Strict reductions among the edge-, node- and node-and-edge variants, and
the reduction of an arbitrary directed instance to the simple single-source
single-sink form (one demand per time).

Every reduction preserves the optimum exactly and returns a ReductionMap that
lets solutions of the image be pulled back at equal (or lower, when the image
solution carries unusable fragments) cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    MAX_FIRST_TIME_ENTRIES,
    Demand,
    Edge,
    InputError,
    TemporalInstance,
    effective_times,
)

@dataclass(frozen=True)
class ReductionMap:
    kind: str
    # original edge index -> image edge indices (every non-auxiliary image
    # edge appears in exactly one entry)
    forward_edge_map: tuple[tuple[int, tuple[int, ...]], ...]
    demand_map: tuple[tuple[int, int], ...]
    added_vertices: tuple[str, ...] = ()
    aux_edges: tuple[int, ...] = ()  # zero-weight image-only edges
    dropped_edges: tuple[int, ...] = ()  # originals with no usable image


def reduction_map_to_dict(rmap: ReductionMap) -> dict:
    return {
        "kind": rmap.kind,
        "forward_edge_map": [[o, list(imgs)] for o, imgs in rmap.forward_edge_map],
        "demand_map": [list(p) for p in rmap.demand_map],
        "added_vertices": list(rmap.added_vertices),
        "aux_edges": list(rmap.aux_edges),
        "dropped_edges": list(rmap.dropped_edges),
    }


def fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "'"
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# Appendix-style variant reductions


def node_edge_to_node(instance: TemporalInstance) -> tuple[TemporalInstance, ReductionMap]:
    """Split every edge through a midpoint node active exactly when the edge
    was, turning a node-and-edge instance into a node instance of equal
    optimum.  |V'| = |V| + |E|, |E'| = 2|E|."""
    if instance.variant != "node_and_edge":
        raise InputError("node_edge_to_node expects a node_and_edge instance")
    taken = set(instance.vertices)
    vertices = list(instance.vertices)
    activity = dict(instance.node_activity or {})
    edges: list[Edge] = []
    fwd: list[tuple[int, tuple[int, ...]]] = []
    added: list[str] = []
    for i, e in enumerate(instance.edges):
        x = fresh_name(f"x({e.u},{e.v})#{i}", taken)
        vertices.append(x)
        added.append(x)
        activity[x] = e.times
        heavy = len(edges)
        edges.append(Edge(e.u, x, e.w, frozenset()))
        edges.append(Edge(x, e.v, Fraction(0), frozenset()))
        fwd.append((i, (heavy, heavy + 1)))
    image = replace(
        instance, variant="node", vertices=tuple(vertices), edges=tuple(edges),
        node_activity=activity, allow_parallel=True,
    )
    rmap = ReductionMap(
        kind="node_edge_to_node",
        forward_edge_map=tuple(fwd),
        demand_map=tuple((j, j) for j in range(len(instance.demands))),
        added_vertices=tuple(added),
    )
    return image, rmap


def node_to_edge(instance: TemporalInstance) -> tuple[TemporalInstance, ReductionMap]:
    """Push node activity onto the edges: each edge becomes active at the
    intersection of its endpoints' activity; edges with an empty
    intersection are dropped (they can never be used)."""
    if instance.variant != "node":
        raise InputError("node_to_edge expects a node instance")
    edges: list[Edge] = []
    fwd: list[tuple[int, tuple[int, ...]]] = []
    dropped: list[int] = []
    for i, e in enumerate(instance.edges):
        times = effective_times(instance, i)
        if not times:
            dropped.append(i)
            continue
        fwd.append((i, (len(edges),)))
        edges.append(Edge(e.u, e.v, e.w, times))
    image = replace(instance, variant="edge", edges=tuple(edges), node_activity=None)
    rmap = ReductionMap(
        kind="node_to_edge",
        forward_edge_map=tuple(fwd),
        demand_map=tuple((j, j) for j in range(len(instance.demands))),
        dropped_edges=tuple(dropped),
    )
    return image, rmap


def _embed(instance: TemporalInstance) -> tuple[TemporalInstance, ReductionMap]:
    """Identity embeddings into the node_and_edge variant, which list the
    times 1..T per vertex (edge input) or per edge (node input)."""
    if instance.variant not in ("edge", "node"):
        raise InputError(f"no embedding from {instance.variant} to node_and_edge")
    owners = instance.vertices if instance.variant == "edge" else instance.edges
    if instance.num_times * len(owners) > MAX_FIRST_TIME_ENTRIES:
        raise InputError(f"embedding into node_and_edge would list T * {len(owners)} times, "
                         f"more than {MAX_FIRST_TIME_ENTRIES}")
    full = frozenset(range(1, instance.num_times + 1))
    if instance.variant == "edge":
        image = replace(
            instance, variant="node_and_edge", node_activity={v: full for v in instance.vertices}
        )
    else:
        image = replace(
            instance, variant="node_and_edge",
            edges=tuple(Edge(e.u, e.v, e.w, full) for e in instance.edges),
            node_activity=dict(instance.node_activity or {}),
        )
    rmap = ReductionMap(
        kind="embed",
        forward_edge_map=tuple((i, (i,)) for i in range(len(instance.edges))),
        demand_map=tuple((j, j) for j in range(len(instance.demands))),
    )
    return image, rmap


def normalize(
    instance: TemporalInstance, target_variant: str
) -> tuple[TemporalInstance, list[ReductionMap]]:
    """Chain reductions until the instance has the requested variant, or,
    for "simple", reduce to the node variant and then `to_simple`.

    Returns the image and the list of per-step maps, outermost first;
    `lift_chain` in tests/helpers.py undoes them.
    """
    if target_variant == "simple":
        image, steps = normalize(instance, "node")
        image, last = to_simple(image)
        return image, steps + [last]
    if target_variant not in ("edge", "node", "node_and_edge"):
        raise InputError(f"unknown target variant {target_variant!r}")
    steps: list[ReductionMap] = []
    cur = instance
    while cur.variant != target_variant:
        if target_variant == "edge":
            if cur.variant == "node_and_edge":
                cur, m = node_edge_to_node(cur)
            else:
                cur, m = node_to_edge(cur)
        elif target_variant == "node":
            if cur.variant == "edge":
                cur, m = _embed(cur)
            else:
                cur, m = node_edge_to_node(cur)
        else:
            cur, m = _embed(cur)
        steps.append(m)
    return cur, steps


# ---------------------------------------------------------------------------
# Reduction to the simple form


def to_simple(instance: TemporalInstance) -> tuple[TemporalInstance, ReductionMap]:
    """Rewrite a directed node-variant instance so all demands share one
    source and one sink, one demand per time.

    New nodes: a global source and sink active at every new time, plus a
    gate pair x_i, y_i per demand that exists only at the demand's own time,
    wired in with four zero-weight edges.  The time horizon becomes [1..k];
    an original node is active at new time i iff it was active at t_i.
    """
    if not instance.directed:
        raise InputError("to_simple expects a directed instance")
    if instance.variant != "node":
        raise InputError("to_simple expects a node-variant instance (normalize first)")
    k = len(instance.demands)
    horizon = max(1, k)
    taken = set(instance.vertices)
    src = fresh_name("a", taken)
    snk = fresh_name("b", taken)
    vertices = list(instance.vertices) + [src, snk]
    added = [src, snk]
    all_new_times = frozenset(range(1, horizon + 1))
    activity: dict[str, frozenset[int]] = {}
    for v in instance.vertices:
        act = instance.activity(v)
        activity[v] = frozenset(i + 1 for i, d in enumerate(instance.demands) if d.t in act)
    activity[src] = all_new_times
    activity[snk] = all_new_times

    edges: list[Edge] = [Edge(e.u, e.v, e.w, frozenset()) for e in instance.edges]
    fwd = tuple((i, (i,)) for i in range(len(instance.edges)))
    aux: list[int] = []
    demands: list[Demand] = []
    for i, d in enumerate(instance.demands, start=1):
        x = fresh_name(f"x{i}", taken)
        y = fresh_name(f"y{i}", taken)
        vertices.extend((x, y))
        added.extend((x, y))
        activity[x] = frozenset((i,))
        activity[y] = frozenset((i,))
        if d.a == d.b:
            # vacuously satisfied demand: keep it vacuous in the image by
            # bypassing the (possibly inactive) original endpoint
            wiring = ((src, x), (x, y), (y, snk))
        else:
            wiring = ((src, x), (x, d.a), (d.b, y), (y, snk))
        for u, v in wiring:
            aux.append(len(edges))
            edges.append(Edge(u, v, Fraction(0), frozenset()))
        demands.append(Demand(src, snk, i))
    image = TemporalInstance(
        directed=True,
        variant="node",
        num_times=horizon,
        vertices=tuple(vertices),
        edges=tuple(edges),
        demands=tuple(demands),
        node_activity=activity,
        allow_parallel=True,
    )
    rmap = ReductionMap(
        kind="to_simple",
        forward_edge_map=fwd,
        demand_map=tuple((j, j) for j in range(len(instance.demands))),
        added_vertices=tuple(added),
        aux_edges=tuple(aux),
    )
    return image, rmap

