"""Approximation algorithms over the per-time metric closure.

`shortest_paths_union` is the trivial k-approximation: one shortest path per
demand inside its own frame.  `charikar_level` is the recursive density
greedy for the monotonic single-source directed case: level 1 is a star of
closure edges, level i repeatedly grabs the minimum-density level-(i-1)
subtree hanging off one closure edge.  A demand (b, t) counts as covered
only when some tree edge lands on the pair (b, t) exactly -- intermediate
hops may use any non-decreasing times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    InfeasibleInstanceError,
    InputError,
    Solution,
    TemporalInstance,
    is_monotonic,
    solution_from_edges,
)
from .variants import lift_chain, normalize_with_instances

Pair = tuple[str, int]  # (vertex, time)


class NoSolutionError(Exception):
    """Fewer reachable residual demands than the requested budget."""


# ---------------------------------------------------------------------------
# Metric closure


@dataclass(frozen=True)
class MetricClosure:
    """Per-time all-pairs shortest-path table with path reconstruction.

    dist[(u, v, t)] is the exact length of the shortest u->v path inside
    frame t; unreachable pairs are absent.  pred[(u, v, t)] = (w, edge_id)
    gives the last hop of one such path.
    """

    num_times: int
    vertices: tuple[str, ...]
    dist: dict[tuple[str, str, int], Fraction]
    pred: dict[tuple[str, str, int], tuple[str, int]]

    def distance(self, u: str, v: str, t: int) -> Optional[Fraction]:
        if u == v:
            return Fraction(0)
        return self.dist.get((u, v, t))

    def path_edges(self, u: str, v: str, t: int) -> list[int]:
        if u == v:
            return []
        if (u, v, t) not in self.dist:
            raise InputError(f"no {u}->{v} path in frame {t}")
        out: list[int] = []
        cur = v
        while cur != u:
            prev, eid = self.pred[(u, cur, t)]
            out.append(eid)
            cur = prev
        out.reverse()
        return out


def _frame_adjacency(instance: TemporalInstance, t: int):
    adj: dict[str, list[tuple[str, Fraction, int]]] = {}
    for i, e in enumerate(instance.edges):
        if t not in e.times:
            continue
        adj.setdefault(e.u, []).append((e.v, e.w, i))
        if not instance.directed:
            adj.setdefault(e.v, []).append((e.u, e.w, i))
    for lst in adj.values():
        lst.sort(key=lambda rec: (rec[0], rec[2]))
    return adj


def _dijkstra(adj, source: str):
    """Exact shortest paths from `source` over `_frame_adjacency` lists.

    Returns (dist, pred): dist[v] is the length of a shortest path,
    pred[v] = (previous vertex, edge id) its last hop.  Heap ties go to the
    smaller vertex name, and pred[v] changes only for a strictly shorter path.
    """
    dist: dict[str, Fraction] = {source: Fraction(0)}
    pred: dict[str, tuple[str, int]] = {}
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    while heap:
        du, x = heapq.heappop(heap)
        if du > dist[x]:
            continue
        for y, w, eid in adj.get(x, ()):
            nd = du + w
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                pred[y] = (x, eid)
                heapq.heappush(heap, (nd, y))
    return dist, pred


def metric_closure(instance: TemporalInstance) -> MetricClosure:
    """Dijkstra from every vertex in every frame (edge-variant instances)."""
    if instance.variant != "edge":
        raise InputError("metric_closure expects an edge-variant instance")
    dist: dict[tuple[str, str, int], Fraction] = {}
    pred: dict[tuple[str, str, int], tuple[str, int]] = {}
    for t in range(1, instance.num_times + 1):
        adj = _frame_adjacency(instance, t)
        for s in instance.vertices:
            d, p = _dijkstra(adj, s)
            for v, dv in d.items():
                dist[(s, v, t)] = dv
            for v, hop in p.items():
                pred[(s, v, t)] = hop
    return MetricClosure(
        num_times=instance.num_times,
        vertices=tuple(instance.vertices),
        dist=dist,
        pred=pred,
    )


# ---------------------------------------------------------------------------
# Trivial k-approximation


def shortest_paths_union(instance: TemporalInstance) -> Solution:
    """Union over demands of one shortest path inside the demand's frame.

    Feasible exactly when the instance is; cost is at most k times the
    optimum.  Raises InfeasibleInstanceError for the first demand whose
    frame has no connecting path.
    """
    edge_inst, steps, pres = normalize_with_instances(instance, "edge")
    closure_cache: dict[int, dict] = {}
    union: set[int] = set()
    for d in edge_inst.demands:
        if d.a == d.b:
            continue
        adj = closure_cache.setdefault(d.t, _frame_adjacency(edge_inst, d.t))
        dist, pred = _dijkstra(adj, d.a)
        if d.b not in dist:
            raise InfeasibleInstanceError(d)
        cur = d.b
        while cur != d.a:
            prev, eid = pred[cur]
            union.add(eid)
            cur = prev
    image_sol = solution_from_edges(edge_inst, union)
    return lift_chain(steps, image_sol, pres)


# ---------------------------------------------------------------------------
# Recursive density greedy


@dataclass(frozen=True)
class ClosureTree:
    """Tree over (vertex, time) pairs built from closure edges.

    Edge times never decrease from root to leaf.  `covered` lists the
    residual demand pairs this tree satisfies under the exact-final-hop
    rule (the root pair itself counts when it coincides with a demand).
    """

    root: Pair
    nodes: frozenset[Pair]
    edges: tuple[tuple[Pair, Pair, Fraction], ...]
    covered: tuple[Pair, ...]

    @property
    def cost(self) -> Fraction:
        return sum((c for _, _, c in self.edges), Fraction(0))


def covered_pairs(root: Pair, edges: Iterable[tuple[Pair, Pair, Fraction]], residual: Iterable[Pair]) -> tuple[Pair, ...]:
    pairs = set(residual)
    hit = {child for _, child, _ in edges if child in pairs}
    if root in pairs:
        hit.add(root)
    return tuple(sorted(hit))


def density(tree: ClosureTree, residual: Iterable[Pair]):
    """Tree cost divided by the number of residual demand entries it newly
    covers; +inf when it covers none."""
    res = list(residual)
    newly = sum(1 for p in res if p in set(tree.covered))
    if newly == 0:
        return float("inf")
    return tree.cost / newly


def _merge(base_edges: list, base_nodes: set, extra: ClosureTree, root: Pair) -> None:
    """Union a greedy pick into the running tree, keeping one in-edge per
    node (first round wins) and none into the root, so the result stays a
    tree: a pick may route through the root pair as an intermediate, but
    the root needs no parent and its onward edges keep everything reachable."""
    have_child = {child for _, child, _ in base_edges}
    for parent, child, cost in extra.edges:
        if child == root or child in have_child:
            continue
        base_edges.append((parent, child, cost))
        have_child.add(child)
        base_nodes.add(parent)
        base_nodes.add(child)


def charikar_level(
    i: int,
    closure: MetricClosure,
    root: Pair,
    k: int,
    demands: Sequence[Pair],
    _cache: Optional[dict] = None,
    _stats: Optional[dict] = None,
) -> ClosureTree:
    """Level-i recursive greedy over the closure.

    demands is the residual multiset of (target, time) pairs; k is how many
    entries must be covered.  Level 1 stars the k cheapest reachable pairs;
    level i scans every intermediate (v, t') with t' at least the root time
    and every sub-budget, recursing at level i-1, and repeatedly keeps the
    candidate of minimum density (ties: fewer nodes, then smallest (v, t')).
    """
    if i < 1:
        raise InputError("level must be a positive integer")
    if _cache is None:
        _cache = {}
    if _stats is not None:
        _stats["calls"] = _stats.get("calls", 0) + 1

    root_v, root_t = root
    residual = list(demands)
    counts: dict[Pair, int] = {}
    for p in residual:
        counts[p] = counts.get(p, 0) + 1

    def reachable(p: Pair) -> bool:
        return p[1] >= root_t and closure.distance(root_v, p[0], p[1]) is not None

    reachable_entries = sum(c for p, c in counts.items() if reachable(p))
    if reachable_entries < k:
        raise NoSolutionError(
            f"only {reachable_entries} residual demands reachable from {root}, need {k}"
        )

    if i == 1:
        edges: list[tuple[Pair, Pair, Fraction]] = []
        nodes = {root}
        covered_count = counts.get(root, 0)
        ranked = sorted(
            (closure.distance(root_v, p[0], p[1]), p)
            for p in counts
            if p != root and reachable(p)
        )
        for dcost, p in ranked:
            if covered_count >= k:
                break
            edges.append((root, p, dcost))
            nodes.add(p)
            covered_count += counts[p]
        return ClosureTree(
            root=root,
            nodes=frozenset(nodes),
            edges=tuple(edges),
            covered=covered_pairs(root, edges, counts),
        )

    tree_edges: list[tuple[Pair, Pair, Fraction]] = []
    tree_nodes: set[Pair] = {root}
    remaining = k
    if root in counts:
        # the root pair satisfies its own demand without any edge; do not
        # let candidate subtrees claim that credit again
        remaining -= counts.pop(root)
    while remaining > 0:
        best_key = None
        best_tree: Optional[ClosureTree] = None
        best_newly = 0
        candidates = sorted(
            (v, t)
            for v in closure.vertices
            for t in range(max(root_t, 1), closure.num_times + 1)
            if (v, t) != root
        )
        for pair in candidates:
            hop = closure.distance(root_v, pair[0], pair[1])
            if hop is None:
                continue
            for sub_k in range(remaining, 0, -1):
                key = (i - 1, pair, sub_k, tuple(sorted(counts.items())))
                if key in _cache:
                    sub = _cache[key]
                else:
                    try:
                        sub = charikar_level(
                            i - 1, closure, pair, sub_k, _expand(counts), _cache, _stats
                        )
                    except NoSolutionError:
                        sub = None
                    _cache[key] = sub
                if sub is None:
                    continue
                cand_edges = list(sub.edges) + [(root, pair, hop)]
                cand_nodes = sub.nodes | {root, pair}
                covered = covered_pairs(root, cand_edges, counts)
                newly = sum(counts[p] for p in covered)
                cost = sub.cost + hop
                dens = float("inf") if newly == 0 else cost / newly
                cand_key = (dens, len(cand_nodes), pair)
                if best_key is None or cand_key < best_key:
                    best_key = cand_key
                    best_tree = ClosureTree(
                        root=root,
                        nodes=frozenset(cand_nodes),
                        edges=tuple(cand_edges),
                        covered=covered,
                    )
                    best_newly = newly
        if best_tree is None or best_newly == 0:
            raise NoSolutionError(f"no progress possible from {root}")
        _merge(tree_edges, tree_nodes, best_tree, root)
        remaining -= best_newly
        for p in best_tree.covered:
            counts.pop(p, None)
    return ClosureTree(
        root=root,
        nodes=frozenset(tree_nodes),
        edges=tuple(tree_edges),
        covered=covered_pairs(root, tree_edges, demands),
    )


def _expand(counts: dict[Pair, int]) -> list[Pair]:
    out: list[Pair] = []
    for p in sorted(counts):
        out.extend([p] * counts[p])
    return out


def expand_tree(
    instance: TemporalInstance, closure: MetricClosure, tree: ClosureTree
) -> Solution:
    """Replace each closure edge ((u,t),(v,t')) by a concrete shortest
    u->v path in frame t'; the union never costs more than the tree."""
    if instance.variant != "edge":
        raise InputError("expand_tree expects the edge-variant instance of the closure")
    union: set[int] = set()
    for (u, _), (v, t2), _cost in tree.edges:
        try:
            union.update(closure.path_edges(u, v, t2))
        except InputError as exc:
            raise InputError(f"inconsistent tree: {exc}") from None
    return solution_from_edges(instance, union)


# ---------------------------------------------------------------------------
# End-to-end pipeline


def charikar(
    instance: TemporalInstance, level: int, stats: Optional[dict] = None
) -> Solution:
    """Run the level-`level` greedy on a monotonic single-source directed
    instance and expand the resulting closure tree to real edges."""
    if not instance.directed:
        raise InputError("the recursive greedy requires a directed instance")
    if not is_monotonic(instance):
        raise InputError("the recursive greedy requires a monotonic instance")
    if not instance.demands:
        return solution_from_edges(instance, ())
    sources = {d.a for d in instance.demands}
    if len(sources) != 1:
        raise InputError("all demands must share a single source")
    (source,) = sources
    edge_inst, steps, pres = normalize_with_instances(instance, "edge")
    closure = metric_closure(edge_inst)
    pairs = [(d.b, d.t) for d in edge_inst.demands]
    tree = charikar_level(
        level, closure, (source, 0), len(pairs), pairs, _cache={}, _stats=stats
    )
    image_sol = expand_tree(edge_inst, closure, tree)
    return lift_chain(steps, image_sol, pres)
