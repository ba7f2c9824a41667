"""Reductions for monotonic instances.

Both reductions accept every variant and read each edge's frames through
`effective_times`, so node activity needs no edge image.  Undirected
monotonic instances are interchangeable with priority-constrained
Steiner forests (priority = first active time).  Directed monotonic
single-source instances reduce to a rooted Steiner tree problem over a level
graph: one copy of the graph per sorted demand time, zero-weight edges
advancing copies.  `normalize_to_time_layered_tree` is the solution
normalisation underlying that reduction: prune a feasible solution until
every edge is necessary, which provably leaves a directed tree whose
earliest necessary times never decrease away from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Demand,
    Edge,
    FrameIndex,
    InputError,
    Solution,
    TemporalInstance,
    check_budget,
    effective_times,
    is_monotonic,
    solution_from_edges,
    weight_to_json,
)
from .variants import ReductionMap, fresh_name


def single_source(instance: TemporalInstance, what: str) -> Optional[str]:
    """The one source of a directed monotonic instance's demands, None when
    it has no demands; an input error naming `what` otherwise."""
    if not instance.directed:
        raise InputError(f"{what} expects a directed instance")
    if not is_monotonic(instance):
        raise InputError(f"{what} expects a monotonic instance")
    sources = {d.a for d in instance.demands}
    if len(sources) > 1:
        raise InputError("all demands must share a single source")
    return next(iter(sources), None)


# ---------------------------------------------------------------------------
# Priority formulation


@dataclass(frozen=True)
class PriorityEdge:
    u: str
    v: str
    w: Fraction
    priority: int


@dataclass(frozen=True)
class PriorityDemand:
    a: str
    b: str
    priority: int


@dataclass(frozen=True)
class PriorityInstance:
    """Undirected multigraph with priority levels; a demand may only use
    edges of priority at most its own."""

    vertices: tuple[str, ...]
    edges: tuple[PriorityEdge, ...]
    max_priority: int
    demands: tuple[PriorityDemand, ...]


def tsn_to_priority(instance: TemporalInstance) -> PriorityInstance:
    """Edge priority = earliest effective time; demand priority = demand
    time.  Any variant; an edge active at no time is left out."""
    if instance.directed:
        raise InputError("priority reduction expects an undirected instance")
    if not is_monotonic(instance):
        raise InputError("priority reduction expects a monotonic instance")
    edges = []
    for i, e in enumerate(instance.edges):
        ts = effective_times(instance, i)
        if ts:
            edges.append(PriorityEdge(e.u, e.v, e.w, min(ts)))
    return PriorityInstance(
        vertices=instance.vertices,
        edges=tuple(edges),
        max_priority=instance.num_times,
        demands=tuple(PriorityDemand(d.a, d.b, d.t) for d in instance.demands),
    )


def priority_to_tsn(p: PriorityInstance) -> tuple[TemporalInstance, ReductionMap]:
    """Priorities become times: an edge of priority q exists at {q..P}.

    Parallel multiedges are split through a fresh midpoint into two edges of
    half the original weight, so the image is a simple graph.
    """
    counts: dict[frozenset, int] = {}
    for e in p.edges:
        key = frozenset((e.u, e.v))
        counts[key] = counts.get(key, 0) + 1
    taken = set(p.vertices)
    vertices = list(p.vertices)
    added: list[str] = []
    edges: list[Edge] = []
    fwd: list[tuple[int, tuple[int, ...]]] = []
    for i, e in enumerate(p.edges):
        times = frozenset(range(e.priority, p.max_priority + 1))
        if counts[frozenset((e.u, e.v))] > 1:
            mid = fresh_name(f"m({e.u},{e.v})#{i}", taken)
            vertices.append(mid)
            added.append(mid)
            half = e.w / 2
            fwd.append((i, (len(edges), len(edges) + 1)))
            edges.append(Edge(e.u, mid, half, times))
            edges.append(Edge(mid, e.v, half, times))
        else:
            fwd.append((i, (len(edges),)))
            edges.append(Edge(e.u, e.v, e.w, times))
    image = TemporalInstance(
        directed=False,
        variant="edge",
        num_times=p.max_priority,
        vertices=tuple(vertices),
        edges=tuple(edges),
        demands=tuple(Demand(d.a, d.b, d.priority) for d in p.demands),
        allow_parallel=False,
    )
    rmap = ReductionMap(
        kind="priority_to_tsn",
        forward_edge_map=tuple(fwd),
        demand_map=tuple((j, j) for j in range(len(p.demands))),
        added_vertices=tuple(added),
    )
    return image, rmap


# ---------------------------------------------------------------------------
# Level-graph formulation


@dataclass(frozen=True)
class DstEdge:
    u: str
    v: str
    w: Fraction
    level: int
    orig_edge: Optional[int]  # None for zero-weight level-advance edges


@dataclass(frozen=True)
class DstInstance:
    """Rooted directed Steiner instance over the level graph."""

    vertices: tuple[str, ...]
    edges: tuple[DstEdge, ...]
    root: str
    terminals: tuple[str, ...]
    source_instance: TemporalInstance


def _copy_name(v: str, level: int) -> str:
    return f"{v}#{level}"


def single_source_to_dst(instance: TemporalInstance) -> DstInstance:
    """Levels follow the sorted demand times; level i holds a copy of frame
    t_i, and each vertex gets a free edge to its next-level copy.  The root
    is the source's level-1 copy, terminal i the target's level-i copy.
    Any variant: an edge's copy sits on the levels whose time is among its
    `effective_times`.  The image holds k * (|V| + |E|) items at most; more
    than MAX_FIRST_TIME_ENTRIES is an input error."""
    source = single_source(instance, "level-graph reduction")
    if source is None:
        raise InputError("level-graph reduction needs at least one demand")
    size = len(instance.demands) * (len(instance.vertices) + len(instance.edges))
    check_budget(size, "level graph would hold up to {} vertices and edges", size)
    order = sorted(range(len(instance.demands)), key=lambda j: (instance.demands[j].t, instance.demands[j].b, j))
    k = len(order)
    vertices = [
        _copy_name(v, i) for i in range(1, k + 1) for v in instance.vertices
    ]
    frames = [effective_times(instance, i) for i in range(len(instance.edges))]
    edges: list[DstEdge] = []
    for lvl, j in enumerate(order, start=1):
        t = instance.demands[j].t
        for i, e in enumerate(instance.edges):
            if t in frames[i]:
                edges.append(
                    DstEdge(_copy_name(e.u, lvl), _copy_name(e.v, lvl), e.w, lvl, i)
                )
    for lvl in range(1, k):
        for v in instance.vertices:
            edges.append(
                DstEdge(_copy_name(v, lvl), _copy_name(v, lvl + 1), Fraction(0), lvl, None)
            )
    terminals = tuple(
        _copy_name(instance.demands[j].b, lvl) for lvl, j in enumerate(order, start=1)
    )
    return DstInstance(
        vertices=tuple(vertices),
        edges=tuple(edges),
        root=_copy_name(source, 1),
        terminals=terminals,
        source_instance=instance,
    )


def priority_to_dict(p: PriorityInstance) -> dict:
    return {
        "vertices": list(p.vertices),
        "edges": [
            {"u": e.u, "v": e.v, "w": str(e.w), "priority": e.priority} for e in p.edges
        ],
        "max_priority": p.max_priority,
        "demands": [{"a": d.a, "b": d.b, "priority": d.priority} for d in p.demands],
    }


def dst_to_dict(dst: DstInstance) -> dict:
    levels = list(range(1, len(dst.terminals) + 1))
    return {
        "vertices": list(dst.vertices),
        "edges": [{"u": e.u, "v": e.v, "w": weight_to_json(e.w)} for e in dst.edges],
        "root": dst.root,
        "terminals": list(dst.terminals),
        # every vertex has a copy on every level
        "levels": {v: levels for v in dst.source_instance.vertices},
    }


# ---------------------------------------------------------------------------
# Solution normalisation


def normalize_to_time_layered_tree(
    instance: TemporalInstance, solution: Solution
) -> Solution:
    """Prune a feasible solution down to a directed tree rooted at the
    source whose earliest necessary times are non-decreasing along every
    root path.

    One reverse delete, highest index first, leaves every remaining edge
    necessary, and that achieves this: in a monotonic single-source instance
    a minimal solution has in-degree at most one everywhere (an earlier-frame
    entry path into a vertex also works in every later frame), so it is a
    tree, and on a tree each edge's necessity set contains its parent's,
    which orders the earliest necessary times.
    """
    single_source(instance, "normalisation")
    index = FrameIndex(instance)
    member = bytearray(len(instance.edges))
    for i in solution.edges:
        member[i] = 1
    if index.first_unmet(member) is not None:
        raise InputError("solution is not feasible")
    # from the highest index down, so the retained tree prefers low edge
    # indices like the other solvers
    index.reverse_delete(member, sorted(set(solution.edges), reverse=True))
    return solution_from_edges(instance, [i for i, m in enumerate(member) if m])
