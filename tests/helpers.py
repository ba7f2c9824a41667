"""Shared test fixtures: every reference checker and solution lift that no
program path reads (the constraint-graph checks sit in test_hardness.py,
their one reader), literal reference oracles and random instance
generators.  The reference brute force here deliberately stays a plain
2^|E| loop so it can cross-check the packaged solver's faster strategy."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from tsn.core import (
    InputError,
    InternalError,
    Solution,
    TemporalInstance,
    _reachable,
    is_feasible,
    make_instance,
    satisfies,
    solution_from_edges,
)
from tsn.exact import IlpModel
from tsn.monotonic import DstInstance, PriorityInstance
from tsn.variants import ReductionMap

# ---------------------------------------------------------------------------
# Reference checkers and lifts


def priority_feasible(p: PriorityInstance, edge_ids: Iterable[int]) -> bool:
    ids = set(edge_ids)
    for d in p.demands:
        if d.a == d.b:
            continue
        adj: dict[str, list[str]] = {}
        for i in ids:
            e = p.edges[i]
            if e.priority > d.priority:
                continue
            adj.setdefault(e.u, []).append(e.v)
            adj.setdefault(e.v, []).append(e.u)
        if d.b not in _reachable(adj, d.a):
            return False
    return True


def _lift_ids(rmap: ReductionMap, image_ids: Iterable[int]) -> list[int]:
    """Original edges all of whose image edges are in `image_ids`."""
    chosen = set(image_ids)
    return [o for o, imgs in rmap.forward_edge_map if imgs and all(i in chosen for i in imgs)]


def lift_chain(
    steps: Sequence[ReductionMap], image_solution: Solution, original: TemporalInstance
) -> Solution:
    """Pull an image solution back through `steps` (outermost first, as
    normalize() returns them) to `original`, the instance of the first step.

    An original edge is selected iff all of its image edges are present
    (auxiliary zero-weight edges are discarded).  For feasible image
    solutions this yields a feasible original solution of the same cost;
    fragments of split edges that cannot be traversed are dropped, which can
    only lower the cost.
    """
    if not steps:
        return image_solution  # already priced on `original`, its own image
    ids: Iterable[int] = image_solution.edges
    for rmap in reversed(steps):
        ids = _lift_ids(rmap, ids)
    return solution_from_edges(original, ids)


def priority_solution_from_tsn(
    rmap: ReductionMap, image_solution: Solution, p: PriorityInstance
) -> tuple[tuple[int, ...], Fraction]:
    """Contract split edges back: a priority edge is used iff both halves
    are.  Returns (edge indices, cost)."""
    ids = tuple(_lift_ids(rmap, image_solution.edges))
    cost = sum((p.edges[i].w for i in ids), Fraction(0))
    return ids, cost


def dst_feasible(dst: DstInstance, edge_ids: Iterable[int]) -> bool:
    adj: dict[str, list[str]] = {}
    for i in set(edge_ids):
        e = dst.edges[i]
        adj.setdefault(e.u, []).append(e.v)
    seen = _reachable(adj, dst.root)
    return all(t in seen for t in dst.terminals)


def dst_solution_to_tsn(dst: DstInstance, edge_ids: Iterable[int]) -> Solution:
    """Project level edges back to underlying edges (free level-advance
    edges vanish, duplicates collapse), never increasing the cost."""
    ids = list(edge_ids)
    if not dst_feasible(dst, ids):
        raise InputError("edge set does not connect the root to every terminal")
    orig = {dst.edges[i].orig_edge for i in ids if dst.edges[i].orig_edge is not None}
    sol = solution_from_edges(dst.source_instance, orig)
    if not is_feasible(dst.source_instance, sol):
        raise InternalError("projected level-graph solution is infeasible")
    return sol


def earliest_necessary_times(
    instance: TemporalInstance, edge_ids: Sequence[int]
) -> dict[int, Optional[int]]:
    """Per edge, the smallest demand time whose satisfaction breaks when the
    edge is removed from the given solution; None if removal breaks nothing."""
    ids = set(edge_ids)
    out: dict[int, Optional[int]] = {}
    for e in ids:
        rest = ids - {e}
        broken = [d.t for d in instance.demands if not satisfies(instance, rest, d)]
        out[e] = min(broken) if broken else None
    return out


def assignment_satisfies(model: IlpModel, values: dict[str, int]) -> bool:
    for con in model.constraints:
        total = sum(coef * values[var] for coef, var in con.terms)
        if con.sense == ">=" and total < con.rhs:
            return False
        if con.sense == "=" and total != con.rhs:
            return False
    return True


def assignment_objective(model: IlpModel, values: dict[str, int]) -> Fraction:
    return sum((c * values[var] for c, var in model.objective), Fraction(0))


def reduction_map_from_dict(data: dict) -> ReductionMap:
    return ReductionMap(
        kind=data["kind"],
        forward_edge_map=tuple((o, tuple(imgs)) for o, imgs in data["forward_edge_map"]),
        demand_map=tuple((a, b) for a, b in data["demand_map"]),
        added_vertices=tuple(data.get("added_vertices", ())),
        aux_edges=tuple(data.get("aux_edges", ())),
        dropped_edges=tuple(data.get("dropped_edges", ())),
    )


# ---------------------------------------------------------------------------
# Reference oracles


def naive_brute(instance: TemporalInstance):
    """Literal enumeration of every edge subset; returns the cheapest
    feasible Solution with ties broken by the lexicographically smallest
    sorted index tuple, or None when infeasible."""
    n = len(instance.edges)
    best = None
    for mask in range(1 << n):
        ids = tuple(i for i in range(n) if mask >> i & 1)
        cost = sum((instance.edges[i].w for i in ids), Fraction(0))
        key = (cost, ids)
        if best is not None and key >= best:
            continue
        if is_feasible(instance, ids):
            best = key
    if best is None:
        return None
    return Solution(edges=best[1], cost=best[0])


def priority_brute(p: PriorityInstance):
    """Optimal cost of a priority instance by subset enumeration."""
    n = len(p.edges)
    best = None
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        cost = sum((p.edges[i].w for i in ids), Fraction(0))
        if best is not None and cost >= best:
            continue
        if priority_feasible(p, ids):
            best = cost
    return best


def dst_brute(dst: DstInstance):
    """Optimal cost of a level-graph instance and a cheapest level-edge set
    reaching it, (None, None) when no edge set connects every terminal.

    Enumerates subsets of the source instance's edges rather than raw level
    edges: a solution never benefits from paying for two level copies of
    one edge (the lower copy plus free level advances dominates), so each
    underlying edge is either bought once -- enabling all its copies -- or
    not at all.
    """
    src = dst.source_instance
    by_orig: dict[int, list[int]] = {}
    free = []
    for i, e in enumerate(dst.edges):
        if e.orig_edge is None:
            free.append(i)
        else:
            by_orig.setdefault(e.orig_edge, []).append(i)
    n = len(src.edges)
    best = None
    best_ids = None
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        cost = sum((src.edges[i].w for i in ids), Fraction(0))
        if best is not None and cost >= best:
            continue
        level_ids = list(free)
        for o in ids:
            level_ids.extend(by_orig.get(o, ()))
        if dst_feasible(dst, level_ids):
            best = cost
            best_ids = level_ids
    return best, best_ids


def dst_brute_literal(dst: DstInstance):
    """Enumeration over raw level edges (exponential in their count); used
    only to validate dst_brute on tiny cases."""
    n = len(dst.edges)
    best = None
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        cost = sum((dst.edges[i].w for i in ids), Fraction(0))
        if best is not None and cost >= best:
            continue
        if dst_feasible(dst, ids):
            best = cost
    return best


# ---------------------------------------------------------------------------
# Random instances


def rand_instance(
    rng: random.Random,
    directed: bool | None = None,
    variant: str | None = None,
    max_vertices: int = 5,
    max_edges: int = 6,
    max_times: int = 3,
    max_demands: int = 3,
    zero_weight_share: float = 0.3,
    weights: Sequence[Fraction] | None = None,
) -> TemporalInstance:
    """Small random instance; edge weights are drawn from `weights` when
    given, otherwise zero with `zero_weight_share` and 1..9 the rest."""
    if directed is None:
        directed = rng.random() < 0.5
    if variant is None:
        variant = rng.choice(("edge", "node", "node_and_edge"))
    n = rng.randint(2, max_vertices)
    T = rng.randint(1, max_times)
    names = [f"n{i}" for i in range(n)]
    m = rng.randint(1, max_edges)
    edges = []
    seen = set()
    attempts = 0
    while len(edges) < m and attempts < 60:
        attempts += 1
        u, v = rng.sample(names, 2)
        key = (u, v) if directed else frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        if weights is not None:
            w = rng.choice(weights)
        else:
            w = Fraction(0) if rng.random() < zero_weight_share else Fraction(rng.randint(1, 9))
        times = frozenset(rng.sample(range(1, T + 1), rng.randint(1, T)))
        edges.append((u, v, w, times))
    k = rng.randint(0, max_demands)
    demands = [
        (rng.choice(names), rng.choice(names), rng.randint(1, T)) for _ in range(k)
    ]
    activity = None
    if variant != "edge":
        activity = {
            v: frozenset(rng.sample(range(1, T + 1), rng.randint(1, T))) for v in names
        }
    return make_instance(
        directed=directed,
        variant=variant,
        num_times=T,
        vertices=names,
        edges=edges if variant != "node" else [(u, v, w) for u, v, w, _ in edges],
        demands=demands,
        node_activity=activity,
    )


def rand_feasible_instance(rng: random.Random, **kwargs) -> TemporalInstance:
    from tsn.core import first_unsatisfiable_demand

    while True:
        inst = rand_instance(rng, **kwargs)
        if first_unsatisfiable_demand(inst) is None:
            return inst


def rand_monotonic_single_source(
    rng: random.Random,
    max_vertices: int = 5,
    max_edges: int = 6,
    max_times: int = 3,
    max_demands: int = 3,
    require_feasible: bool = True,
    weights: Sequence[Fraction] | None = None,
) -> TemporalInstance:
    """Directed edge-variant instance with upward-closed times and all
    demands rooted at one source; edge weights are drawn from `weights`
    when given, otherwise zero with share 0.2 and 1..9 the rest."""
    from tsn.core import first_unsatisfiable_demand

    while True:
        n = rng.randint(2, max_vertices)
        T = rng.randint(1, max_times)
        names = [f"n{i}" for i in range(n)]
        source = names[0]
        m = rng.randint(1, max_edges)
        edges = []
        seen = set()
        attempts = 0
        while len(edges) < m and attempts < 60:
            attempts += 1
            u, v = rng.sample(names, 2)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            if weights is not None:
                w = rng.choice(weights)
            else:
                w = Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(1, 9))
            first = rng.randint(1, T)
            edges.append((u, v, w, frozenset(range(first, T + 1))))
        k = rng.randint(1, max_demands)
        demands = [(source, rng.choice(names[1:]), rng.randint(1, T)) for _ in range(k)]
        inst = make_instance(
            directed=True,
            variant="edge",
            num_times=T,
            vertices=names,
            edges=edges,
            demands=demands,
        )
        if not require_feasible or first_unsatisfiable_demand(inst) is None:
            return inst


def rand_priority_instance(rng: random.Random, max_edges: int = 6) -> PriorityInstance:
    from tsn.monotonic import PriorityDemand, PriorityEdge

    n = rng.randint(2, 5)
    P = rng.randint(1, 3)
    names = [f"n{i}" for i in range(n)]
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        u, v = rng.sample(names, 2)
        edges.append(
            PriorityEdge(u, v, Fraction(rng.randint(0, 8)), rng.randint(1, P))
        )
    k = rng.randint(1, 3)
    demands = [
        PriorityDemand(rng.choice(names), rng.choice(names), rng.randint(1, P))
        for _ in range(k)
    ]
    return PriorityInstance(
        vertices=tuple(names), edges=tuple(edges), max_priority=P, demands=tuple(demands)
    )


def hub_instance(C: int = 10, eps: int = 1, k: int = 3) -> TemporalInstance:
    """Direct edges of cost C - eps to each of k targets, plus a hub at
    distance C from the source with free edges to every target.  The
    shortest-path union pays k(C - eps) while the optimum routes through
    the hub for C."""
    names = ["a", "hub"] + [f"b{j}" for j in range(1, k + 1)]
    edges = [("a", "hub", Fraction(C), frozenset({1}))]
    for j in range(1, k + 1):
        edges.append(("a", f"b{j}", Fraction(C - eps), frozenset({1})))
        edges.append(("hub", f"b{j}", Fraction(0), frozenset({1})))
    demands = [("a", f"b{j}", 1) for j in range(1, k + 1)]
    return make_instance(
        directed=True,
        variant="edge",
        num_times=1,
        vertices=names,
        edges=edges,
        demands=demands,
    )
