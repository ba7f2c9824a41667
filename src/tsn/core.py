"""Temporal graph instances, demands, solutions and the predicates on them.

An instance is a sequence of frames G_1..G_T over one vertex set.  Depending
on the variant, what changes over time is the edge set ("edge"), the vertex
set ("node", edge presence derived from endpoint activity), or both
("node_and_edge").  A demand (a, b, t) asks for an a-b path whose edges all
exist in frame t.  Weights are exact rationals throughout: reductions halve
and re-add weights, and the test suite compares optima exactly, so floats
are never used.

`FrameIndex` is the integer view of the frames that every solver shares:
vertices interned to ints in name order, effective times computed once,
weights scaled to ints by the LCM of their denominators, one adjacency list
per frame and its reverse, each cached per time, one reachability test and
one demand loop over it (`first_unmet`) behind the exact solvers'
infeasibility check, every feasibility check and the reverse delete, one
shortest-path search, on the scaled weights or on a caller's weight list
and around one forbidden edge, with one walk along the path it picks
(`path`), and Wong's dual ascent, the branch and bound's lower bound, which
grows each demand's cut with one routine.  Every method that reads an edge
set takes it as a 0/1 mask indexed by edge id, with no exception.
"""

from __future__ import annotations

import contextlib
import errno
import heapq
import json
import math
import os
import stat
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

Vertex = str

VARIANTS = ("edge", "node", "node_and_edge")


class InputError(ValueError):
    """Malformed instance/solution data (maps to CLI exit code 2)."""


class InternalError(Exception):
    """An internal invariant failed (maps to CLI exit code 3)."""


class InfeasibleInstanceError(Exception):
    """A demand cannot be satisfied even by the full underlying graph (maps
    to CLI exit code 1).  `demand` is that demand, or None where no single
    demand is at fault (`approx.NoSolutionError`)."""

    def __init__(self, demand: "Demand | None", message: str | None = None):
        self.demand = demand
        super().__init__(message or f"demand {demand} is unsatisfiable")


@dataclass(frozen=True, init=False)
class Edge:
    """One underlying edge.  `times` is the stored activity set; for the
    node variant it is ignored (activity is derived from the endpoints).

    Edges may share their weight and time-set objects, as the edges of a
    file that `instance_from_dict` reads do.  The constructor fills the
    fields with one `__dict__.update`: the one a frozen dataclass generates
    makes an `object.__setattr__` call per field and takes about 1.6 times
    as long, and the reader, the gadget compiler and the reductions build
    edges by the thousand.  (Four `__dict__` item stores build faster
    still, but on CPython 3.11 and 3.12 they leave every later attribute
    read about three times as slow.)  Equality, hashing, `repr`,
    `dataclasses.replace` and immutability are the dataclass's own."""

    u: Vertex
    v: Vertex
    w: Fraction
    times: frozenset[int] = frozenset()

    def __init__(self, u: Vertex, v: Vertex, w: Fraction, times: frozenset[int] = frozenset()):
        self.__dict__.update(u=u, v=v, w=w, times=times)


@dataclass(frozen=True)
class Demand:
    a: Vertex
    b: Vertex
    t: int


@dataclass(frozen=True)
class TemporalInstance:
    directed: bool
    variant: str
    num_times: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    demands: tuple[Demand, ...]
    node_activity: Optional[Mapping[Vertex, frozenset[int]]] = None
    # Reductions may legitimately produce parallel edges; user input may not.
    allow_parallel: bool = False

    def activity(self, v: Vertex) -> frozenset[int]:
        if self.node_activity is None:
            return frozenset(range(1, self.num_times + 1))
        return self.node_activity.get(v, frozenset())


def make_instance(
    directed: bool,
    variant: str,
    num_times: int,
    vertices: Iterable[Vertex],
    edges: Iterable[tuple],
    demands: Iterable[tuple],
    node_activity: Mapping[Vertex, Iterable[int]] | None = None,
    allow_parallel: bool = False,
) -> TemporalInstance:
    """Convenience constructor taking plain tuples.

    Edges are (u, v, w, times); for the node variant `times` may be omitted.
    Demands are (a, b, t).
    """
    es = []
    for e in edges:
        if len(e) == 3:
            u, v, w = e
            times: Iterable[int] = ()
        else:
            u, v, w, times = e
        es.append(Edge(u, v, Fraction(w), frozenset(times)))
    act = None
    if node_activity is not None:
        act = {v: frozenset(ts) for v, ts in node_activity.items()}
    return TemporalInstance(
        directed=directed,
        variant=variant,
        num_times=num_times,
        vertices=tuple(vertices),
        edges=tuple(es),
        demands=tuple(Demand(a, b, t) for a, b, t in demands),
        node_activity=act,
        allow_parallel=allow_parallel,
    )


@dataclass(frozen=True)
class Solution:
    """A subgraph given as a sorted tuple of edge indices plus its cost."""

    edges: tuple[int, ...]
    cost: Fraction


def _price(instance: TemporalInstance, ids: Iterable[int]) -> Fraction:
    """Exact total weight of distinct edge ids; zero weights (most of a
    gadget's wiring) are skipped rather than added."""
    edges = instance.edges
    return sum((w for w in (edges[i].w for i in ids) if w), Fraction(0))


def solution_from_edges(instance: TemporalInstance, edge_ids: Iterable[int]) -> Solution:
    ids = tuple(sorted(set(edge_ids)))
    return Solution(edges=ids, cost=_price(instance, ids))


# ---------------------------------------------------------------------------
# Validity


def validate(instance: TemporalInstance) -> list[str]:
    """Return a list of invariant violations (empty iff well formed).

    Edges may share weight and time-set objects (see `instance_from_dict`),
    so the sign of a weight and the times of a set outside [1..T] are found
    once per object, keyed by `id()`, and told on every edge that holds it.
    An identity key is sound only for objects the instance holds for the
    whole call: a freed temporary's id can be taken by the next one."""
    out: list[str] = []
    if instance.variant not in VARIANTS:
        out.append(f"unknown variant {instance.variant!r}")
        return out
    if instance.num_times < 1:
        out.append(f"num_times must be positive, got {instance.num_times}")
    vset = set(instance.vertices)
    if len(vset) != len(instance.vertices):
        out.append("duplicate vertex identifiers")
    trange = range(1, instance.num_times + 1)

    seen_pairs: dict[tuple, int] = {}
    negative: dict[int, bool] = {}  # id(weight) -> below 0
    outside: dict[int, list[int]] = {}  # id(times) -> its times outside trange
    # a node-variant edge's activity comes from its endpoints: its stored
    # times are ignored
    check_times = instance.variant != "node"
    for i, e in enumerate(instance.edges):
        if e.u not in vset:
            out.append(f"edge {i}: endpoint {e.u!r} not a vertex")
        if e.v not in vset:
            out.append(f"edge {i}: endpoint {e.v!r} not a vertex")
        below = negative.get(id(e.w))
        if below is None:
            below = negative[id(e.w)] = e.w < 0
        if below:
            out.append(f"edge {i}: negative weight {e.w}")
        if check_times:
            if not e.times:
                out.append(f"edge {i}: empty active-time set")
            late = outside.get(id(e.times))
            if late is None:
                late = outside[id(e.times)] = [t for t in e.times if t not in trange]
            for t in late:
                out.append(f"edge {i}: active time {t} outside [1..{instance.num_times}]")
        key = (e.u, e.v) if instance.directed else (frozenset((e.u, e.v)),)
        first = seen_pairs.setdefault(key, i)
        if first != i and not instance.allow_parallel:
            out.append(f"edge {i}: parallel to edge {first} (not flagged)")

    if instance.variant == "edge":
        if instance.node_activity is not None:
            out.append("edge variant must not carry node_activity")
    else:
        if instance.node_activity is None:
            out.append(f"{instance.variant} variant requires node_activity")
        else:
            for v, ts in instance.node_activity.items():
                if v not in vset:
                    out.append(f"node_activity: unknown vertex {v!r}")
                for t in ts:
                    if t not in trange:
                        out.append(f"node_activity[{v!r}]: time {t} outside range")

    for j, d in enumerate(instance.demands):
        if d.a not in vset:
            out.append(f"demand {j}: endpoint {d.a!r} not a vertex")
        if d.b not in vset:
            out.append(f"demand {j}: endpoint {d.b!r} not a vertex")
        if d.t not in trange:
            out.append(f"demand {j}: time {d.t} outside [1..{instance.num_times}]")
    return out


# ---------------------------------------------------------------------------
# Frames and reachability


def effective_times(instance: TemporalInstance, edge_id: int) -> frozenset[int]:
    """Times at which the edge actually exists, per variant semantics."""
    e = instance.edges[edge_id]
    if instance.variant == "edge":
        return e.times
    both = instance.activity(e.u) & instance.activity(e.v)
    if instance.variant == "node":
        return both
    return both & e.times


def _reachable(adj: Mapping[Vertex, Iterable[Vertex]], source: Vertex) -> set[Vertex]:
    """Vertices reachable from `source` along the adjacency lists."""
    seen = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def satisfies(
    instance: TemporalInstance, solution: Solution | Iterable[int], demand: Demand
) -> bool:
    """True iff the chosen edges contain an a-b path inside frame t.

    A demand with a == b is vacuously satisfied by the empty path.
    """
    if demand.a == demand.b:
        return True
    ids = solution.edges if isinstance(solution, Solution) else tuple(solution)
    adj: dict[Vertex, list[Vertex]] = {}
    for i in ids:
        if demand.t in effective_times(instance, i):
            e = instance.edges[i]
            adj.setdefault(e.u, []).append(e.v)
            if not instance.directed:
                adj.setdefault(e.v, []).append(e.u)
    return demand.b in _reachable(adj, demand.a)


class FrameIndex:
    """Integer view of an instance's frames, built once per instance.

    Vertex names are interned to ints in sorted-name order: `names[id]` and
    `ids[name]`.  Shortest-path ties go to the smaller id, so they break by
    name and not by the order of the `vertices` list.  `eff[i]` is edge i's
    effective time set and `weight[i]` its weight times `scale`, the least
    common multiple of all weight denominators, so costs add and compare as
    ints.  `frame(t)` gives, per vertex, the `(head, edge id)` pairs leaving
    it at time t in edge-id order, both directions when the instance is
    undirected; each frame is built on first use and cached.  `demands` keeps
    the demands whose endpoints differ, in input order, as `(tail, head,
    frame, demand)`; demands with equal endpoints are met by the empty path.
    `reverse_frame(t)` is frame t with its arcs turned round, cached the same
    way, and `dual_ascent` bounds the cost of meeting a set of demands from
    below.
    """

    def __init__(self, instance: TemporalInstance):
        names = set(instance.vertices)
        for e in instance.edges:
            names.update((e.u, e.v))
        for d in instance.demands:
            names.update((d.a, d.b))
        self.names = sorted(names)
        self.ids = {v: i for i, v in enumerate(self.names)}
        self.num_vertices = len(self.names)
        self.directed = instance.directed
        self.ends = [(self.ids[e.u], self.ids[e.v]) for e in instance.edges]
        self.eff = [effective_times(instance, i) for i in range(len(instance.edges))]
        self.scale = math.lcm(1, *(e.w.denominator for e in instance.edges))
        self.weight = [e.w.numerator * (self.scale // e.w.denominator) for e in instance.edges]
        self._frames: dict[int, list[list[tuple[int, int]]]] = {}
        self._reverse_frames: dict[int, list[list[tuple[int, int]]]] = {}
        self.demands = [
            (self.ids[d.a], self.ids[d.b], self.frame(d.t), d)
            for d in instance.demands if d.a != d.b
        ]

    def frame(self, t: int) -> list[list[tuple[int, int]]]:
        adj = self._frames.get(t)
        if adj is None:
            adj = [[] for _ in range(self.num_vertices)]
            for i, (u, v) in enumerate(self.ends):
                if t in self.eff[i]:
                    adj[u].append((v, i))
                    if not self.directed:
                        adj[v].append((u, i))
            self._frames[t] = adj
        return adj

    def reaches(self, j: int, member) -> bool:
        """Does demand j have a path in its frame over the edges i with
        `member[i]` set?"""
        a, b, frame, _ = self.demands[j]
        seen = {a}
        stack = [a]
        while stack:
            for y, i in frame[stack.pop()]:
                if member[i] and y not in seen:
                    if y == b:
                        return True
                    seen.add(y)
                    stack.append(y)
        return False

    def first_unmet(self, member) -> Optional[Demand]:
        """The first demand, in input order, that the edges i with
        `member[i]` set leave unmet; None when they meet every demand."""
        for j in range(len(self.demands)):
            if not self.reaches(j, member):
                return self.demands[j][3]
        return None

    def reverse_delete(self, member: bytearray, candidates: Iterable[int]) -> None:
        """Drop from `member`, in the order of `candidates`, each edge whose
        removal leaves every demand met.  Removals only take paths away, so
        every candidate kept stays necessary."""
        for e in candidates:
            member[e] = 0
            if self.first_unmet(member) is not None:
                member[e] = 1

    def reverse_frame(self, t: int) -> list[list[tuple[int, int]]]:
        """Per vertex, the `(tail, edge id)` arcs entering it at time t in
        edge-id order: `frame(t)` turned round.  An undirected frame lists
        both directions, so it is its own reverse."""
        if not self.directed:
            return self.frame(t)
        radj = self._reverse_frames.get(t)
        if radj is None:
            radj = [[] for _ in range(self.num_vertices)]
            for i, (u, v) in enumerate(self.ends):
                if t in self.eff[i]:
                    radj[v].append((u, i))
            self._reverse_frames[t] = radj
        return radj

    def dual_ascent(
        self, included: bytearray, excluded: bytearray, unmet: list[int],
        budget: Optional[int] = None,
    ) -> tuple[Optional[int], list[int]]:
        """Wong's dual ascent on the cut relaxation of the demands in `unmet`.

        `included` and `excluded` mask the edges a search has decided on.
        Every (demand, vertex set S) with the demand's head in S and its tail
        outside is a cut that any completion must cross with an undecided
        edge.  Reduced costs start at the scaled weights, 0 for included
        edges; excluded edges are absent.  Each demand's S is the set of
        vertices that reach its head in its frame over arcs of reduced cost
        0, found on `reverse_frame`.  While some demand's tail is outside its
        S, the demand whose cut has the fewest arcs is raised: the smallest
        reduced cost on its cut is added to the bound and taken off every
        cut arc.  Reduced costs are shared by all demands, so each edge pays
        at most its weight and the bound never exceeds the scaled cost of the
        cheapest completion.

        Returns (bound, reduced costs).  Stops as soon as the bound reaches
        `budget`.  With a budget, a demand in `unmet` that has no completion
        makes the bound None; without one, it is an internal error.
        """
        reduced = self.weight.copy()
        i = included.find(1)
        while i >= 0:
            reduced[i] = 0
            i = included.find(1, i + 1)

        def grow(inside, radj, grown, cut):
            """Add to S every vertex that reaches `grown` over tight arcs and
            return the new cut: the arcs of `cut`, and the positive arcs
            found entering S, whose tails stay outside S.  A tight arc of
            `cut` has its tail in S already, so it is dropped."""
            while grown:
                for x, i in radj[grown.pop()]:
                    if inside[x] or excluded[i]:
                        continue
                    if reduced[i]:
                        cut.append((x, i))
                    else:
                        inside[x] = 1
                        grown.append(x)
            return [(x, i) for x, i in cut if not inside[x]]

        # per demand: [tail, S as a vertex bytearray, reverse frame, cut arcs]
        active = []
        for j in unmet:
            a, b, _, demand = self.demands[j]
            inside = bytearray(self.num_vertices)
            inside[b] = 1
            radj = self.reverse_frame(demand.t)
            active.append([a, inside, radj, grow(inside, radj, [b], [])])
        bound = 0
        while True:
            pick = None
            still = []
            for rec in active:
                # S takes in the tails of the arcs the last raise made tight
                inside = rec[1]
                grown = []
                for x, i in rec[3]:
                    if not reduced[i] and not inside[x]:
                        inside[x] = 1
                        grown.append(x)
                if grown:
                    rec[3] = grow(inside, rec[2], grown, rec[3])
                if inside[rec[0]]:
                    continue
                still.append(rec)
                if pick is None or len(rec[3]) < len(pick[3]):
                    pick = rec
            if pick is None:
                break
            active = still
            cut = pick[3]
            if not cut:
                if budget is not None:
                    return None, reduced
                raise InternalError("dual ascent met a demand without a completion")
            delta = min(reduced[i] for _, i in cut)
            for _, i in cut:
                reduced[i] -= delta
            bound += delta
            if budget is not None and bound >= budget:
                break
        return bound, reduced

    def shortest_paths(
        self, t: int, source: int, weight: Optional[list[int]] = None, forbidden: int = -1
    ) -> tuple[list, list]:
        """Dijkstra from `source` in frame t on the scaled weights, or on
        `weight` when given (one int per edge id), never crossing edge
        `forbidden`.

        Returns (dist, pred) indexed by vertex id: dist[v] is the scaled
        length of a shortest path, None when v is unreachable, and pred[v]
        = (previous vertex, edge id) its last hop.  Heap ties go to the
        smaller id and pred[v] changes only for a strictly shorter path, so
        among equal-cost paths the choice depends on names and edge ids only.
        """
        frame = self.frame(t)
        if weight is None:
            weight = self.weight
        dist: list[Optional[int]] = [None] * self.num_vertices
        pred: list[Optional[tuple[int, int]]] = [None] * self.num_vertices
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            du, x = heapq.heappop(heap)
            if du > dist[x]:
                continue
            for y, i in frame[x]:
                if i == forbidden:
                    continue
                nd = du + weight[i]
                dy = dist[y]
                if dy is None or nd < dy:
                    dist[y] = nd
                    pred[y] = (x, i)
                    heapq.heappush(heap, (nd, y))
        return dist, pred

    def path(
        self, t: int, a: int, b: int, weight: Optional[list[int]] = None, forbidden: int = -1
    ) -> Optional[list[int]]:
        """The edge ids, in order, of the a->b path in frame t that
        `shortest_paths(t, a, weight, forbidden)` picks; None when b is
        unreachable."""
        dist, pred = self.shortest_paths(t, a, weight, forbidden)
        if dist[b] is None:
            return None
        out: list[int] = []
        while b != a:
            b, i = pred[b]
            out.append(i)
        out.reverse()
        return out


def is_feasible(instance: TemporalInstance, solution: Solution | Iterable[int]) -> bool:
    ids = solution.edges if isinstance(solution, Solution) else tuple(solution)
    return all(satisfies(instance, ids, d) for d in instance.demands)


def first_unsatisfiable_demand(instance: TemporalInstance) -> Optional[Demand]:
    """First demand (in input order) not satisfiable even with every edge."""
    all_edges = range(len(instance.edges))
    for d in instance.demands:
        if not satisfies(instance, all_edges, d):
            return d
    return None


def is_monotonic(instance: TemporalInstance) -> bool:
    """True iff every effective active-time set is upward closed."""
    T = instance.num_times
    for i in range(len(instance.edges)):
        ts = effective_times(instance, i)
        # distinct ints in [min, T] that number T - min + 1 fill it
        if ts and (max(ts) != T or len(ts) != T - min(ts) + 1):
            return False
    return True


def is_acyclic(instance: TemporalInstance) -> bool:
    """DAG check on the underlying directed graph (all frames united)."""
    if not instance.directed:
        raise InputError("is_acyclic is defined for directed instances only")
    indeg = {v: 0 for v in instance.vertices}
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in instance.vertices}
    for e in instance.edges:
        adj[e.u].append(e.v)
        indeg[e.v] += 1
    queue = deque(v for v in instance.vertices if indeg[v] == 0)
    seen = 0
    while queue:
        x = queue.popleft()
        seen += 1
        for y in adj[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    return seen == len(instance.vertices)


def solution_cost(instance: TemporalInstance, solution: Solution | Iterable[int]) -> Fraction:
    """Total weight of the distinct edges of a solution or an id iterable."""
    ids = solution.edges if isinstance(solution, Solution) else solution
    return _price(instance, set(ids))


# ---------------------------------------------------------------------------
# JSON interchange
#
# Instance files:
#   {"directed": bool, "variant": "edge"|"node"|"node_and_edge", "T": int,
#    "vertices": [str], "edges": [{"u","v","w","times"}],
#    "node_activity": {v: [int]} (node variants only),
#    "demands": [{"a","b","t"}]}
# Weights are JSON numbers when integral, otherwise "p/q" strings (decimals
# are read exactly; a string with an exponent is an input error).  Times,
# "T" and solution edge indices must be JSON integers, the flags JSON
# booleans and vertex names (in "vertices", edge and demand endpoints and
# "node_activity") JSON strings; reading never converts, so 2.5, "1",
# "false" or a vertex 1 is an input error.
# For monotonic instances an edge may carry "first_time": t instead of
# "times", meaning {t..T}.  Reading a file expands these sets, at most
# MAX_FIRST_TIME_ENTRIES time entries summed over all such edges; a file
# that would expand to more is an input error.
# A gadget's thousand edges carry a handful of distinct weights and time
# lists, so the reader, `validate` and the writer do their work once per
# distinct value: equal weights, time sets and names read from one file
# are one object.  The reader's memo keys carry the JSON type, since 1,
# 1.0 and true are one dict key and only the first is a valid weight or
# time.  `validate` and the writer key their memos by `id()`, which is
# sound only for objects the instance holds while they run: a temporary's
# id can be reused once it is freed.

MAX_FIRST_TIME_ENTRIES = 1_000_000


def check_budget(count: int, what: str, *args: object) -> None:
    """InputError when `count` items would exceed the size budget of one
    command, MAX_FIRST_TIME_ENTRIES.  `what` says what would be built and
    how many, with `args` in its `{}` fields; it is formatted only then,
    so a guard inside a loop costs one comparison.  The error appends the
    cap.  Every size guard is one call, made before the structure it counts
    is built, or for a running total, before each part of it is kept."""
    if count > MAX_FIRST_TIME_ENTRIES:
        raise InputError(f"{what.format(*args)}, more than {MAX_FIRST_TIME_ENTRIES}")


def weight_to_json(w: Fraction):
    if w.denominator == 1:
        return int(w)
    return f"{w.numerator}/{w.denominator}"


def _weight_from_json(raw) -> Fraction:
    if isinstance(raw, bool):
        raise InputError(f"bad weight {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        # decimal-exact reading: 0.1 means 1/10
        return Fraction(repr(raw))
    if isinstance(raw, str) and "e" not in raw.lower():
        # no exponents: "1e99999999" would ask for a 10^8-digit numerator
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad weight {raw!r}: {exc}") from None
    raise InputError(f"bad weight {raw!r}")


def instance_to_dict(instance: TemporalInstance) -> dict:
    """The instance as a file's dict.  Each weight object is formatted, and
    each time set sorted, once, keyed by `id()` (sound because the instance
    holds them all), so records that share an object share its JSON value:
    the returned lists may be shared and are read-only."""
    weights: dict[int, object] = {}
    times: dict[int, list[int]] = {}

    def sorted_times(ts):
        out = times.get(id(ts))
        if out is None:
            out = times[id(ts)] = sorted(ts)
        return out

    node = instance.variant == "node"
    edges = []
    for e in instance.edges:
        w = weights.get(id(e.w))
        if w is None:
            w = weights[id(e.w)] = weight_to_json(e.w)
        rec: dict = {"u": e.u, "v": e.v, "w": w}
        if not node:
            rec["times"] = sorted_times(e.times)
        edges.append(rec)
    out: dict = {
        "directed": instance.directed,
        "variant": instance.variant,
        "T": instance.num_times,
        "vertices": list(instance.vertices),
        "edges": edges,
        "demands": [{"a": d.a, "b": d.b, "t": d.t} for d in instance.demands],
    }
    if instance.node_activity is not None:
        # the sorted item list holds every set while the ids are read
        out["node_activity"] = {
            v: sorted_times(ts) for v, ts in sorted(instance.node_activity.items())
        }
    if instance.allow_parallel:
        out["allow_parallel"] = True
    return out


def _scalar_from_json(raw, kind: type, what: str):
    """`raw` unchanged when its type is exactly `kind` (so True is no int)."""
    if type(raw) is not kind:
        raise InputError(f"{what} must be a JSON {kind.__name__}, got {raw!r}")
    return raw


def _times_from_json(raw) -> frozenset[int]:
    if not isinstance(raw, list):
        raise InputError(f"bad time list {raw!r}")
    return frozenset(_scalar_from_json(t, int, "time") for t in raw)


def _require_object(data, what: str) -> None:
    """InputError unless `data` is a JSON object: the readers below index it
    by key, and a list or string would fail with an unrelated message."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")


def instance_from_dict(data: dict) -> TemporalInstance:
    """Read an instance file's dict.  Each distinct weight and time list is
    parsed once, and the edges (and `node_activity`) that repeat it share
    the one `Fraction` or `frozenset`; endpoints share the vertex list's
    `str` objects.  The memo keys are typed so that a value the file spells
    differently never stands for a checked one: a weight is keyed on its
    JSON type and value, as 1, 1.0 and true are one dict key, and a time
    list only when every entry is exactly an int.  Any other value goes to
    the checking reader, which raises.  Each edge record is checked in the
    order times (or `first_time`), u, v, w, so its first fault is the one
    told."""
    _require_object(data, "instance")
    try:
        directed = _scalar_from_json(data["directed"], bool, "directed")
        variant = data["variant"]
        T = _scalar_from_json(data["T"], int, "T")
        if not isinstance(data["vertices"], list):
            raise InputError(f"bad vertex list {data['vertices']!r}")
        vertices = tuple(_scalar_from_json(v, str, "vertex name") for v in data["vertices"])
        names = {v: v for v in vertices}
        weights: dict[tuple, Fraction] = {}
        # keyed by a time list's tuple of ints, or by a first_time's int
        time_sets: dict = {}

        def name(raw, what):
            if type(raw) is not str:
                _scalar_from_json(raw, str, what)
            return names.get(raw, raw)

        def times_of(raw):
            if type(raw) is list:
                key = tuple(raw)
                for t in key:
                    if type(t) is not int:
                        break
                else:
                    times = time_sets.get(key)
                    if times is None:
                        times = time_sets[key] = frozenset(key)
                    return times
            return _times_from_json(raw)

        edges = []
        expanded = 0
        for rec in data["edges"]:
            if "first_time" in rec and "times" not in rec:
                first = _scalar_from_json(rec["first_time"], int, "first_time")
                expanded += max(0, T - first + 1)
                check_budget(expanded, "first_time edges expand to {} time entries", expanded)
                times = time_sets.get(first)
                if times is None:
                    times = time_sets[first] = frozenset(range(first, T + 1))
            else:
                times = times_of(rec.get("times", []))
            # endpoints are checked inline: this loop runs once per edge
            u = rec["u"]
            if type(u) is not str:
                _scalar_from_json(u, str, "edge endpoint")
            u = names.get(u, u)
            v = rec["v"]
            if type(v) is not str:
                _scalar_from_json(v, str, "edge endpoint")
            v = names.get(v, v)
            raw = rec["w"]
            kind = type(raw)
            if kind is int or kind is float or kind is str:
                w = weights.get((kind, raw))
                if w is None:
                    w = weights[kind, raw] = _weight_from_json(raw)
            else:
                w = _weight_from_json(raw)
            edges.append(Edge(u, v, w, times))
        demands = tuple(
            Demand(
                name(d["a"], "demand endpoint"),
                name(d["b"], "demand endpoint"),
                _scalar_from_json(d["t"], int, "demand time"),
            )
            for d in data["demands"]
        )
        act = None
        if "node_activity" in data:
            act = {
                name(v, "vertex name"): times_of(ts) for v, ts in data["node_activity"].items()
            }
        allow_parallel = data.get("allow_parallel", False)
        _scalar_from_json(allow_parallel, bool, "allow_parallel")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from None
    return TemporalInstance(
        directed=directed,
        variant=variant,
        num_times=T,
        vertices=vertices,
        edges=tuple(edges),
        demands=demands,
        node_activity=act,
        allow_parallel=allow_parallel,
    )


def solution_to_dict(solution: Solution, feasible: bool) -> dict:
    """`feasible` is the caller's check of the solution."""
    return {"edges": list(solution.edges), "cost": str(solution.cost), "feasible": feasible}


def solution_from_dict(data: dict) -> tuple[Solution | None, bool]:
    """Returns (solution, claimed_feasible); solution is None for the
    infeasibility marker `{"edges": [], "cost": null, "feasible": false}`."""
    _require_object(data, "solution")
    try:
        feasible = _scalar_from_json(data["feasible"], bool, "feasible")
        if data.get("cost") is None and not feasible:
            if "cost" not in data or data.get("edges") != []:
                raise InputError('an infeasibility marker has "edges": [] and "cost": null')
            return None, False
        ids = tuple(sorted(_scalar_from_json(i, int, "edge index") for i in data["edges"]))
        cost = _weight_from_json(data["cost"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed solution: {exc}") from None
    return Solution(edges=ids, cost=cost), feasible


def write_text(text: str, path: str) -> None:
    """Write `text` to `path` as ASCII, newlines as given; a path that
    cannot be opened or written is an input error.  A regular file that is
    there already, and is no symlink, is replaced whole: the text goes to a
    temporary file in its directory, which takes the old file's permission
    bits and is then renamed over it, so a failed write keeps the old
    content and removes the temporary file.  Any other path (a new file, a
    symlink, a device such as /dev/stdout), or a directory that takes no
    new file, is written in place, and a failed write removes the file only
    when this call created it."""
    if os.path.isfile(path) and not os.path.islink(path):
        # named by hand: `tempfile` would add about 7 ms to every start-up
        tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        except OSError:
            pass  # the directory takes no new file, or the name is taken
        else:
            try:
                with open(fd, "w", encoding="ascii", newline="") as fh:
                    os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
                    fh.write(text)
                os.replace(tmp, path)
            except BaseException as exc:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                if isinstance(exc, OSError):
                    raise InputError(f"cannot write {path}: {exc}") from None
                raise
            return
    existed = os.path.lexists(path)
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise InputError(f"cannot write {path}: {exc}") from None


def dump_json(data: dict, path: str) -> None:
    """Write `data` to `path` as one line of JSON and a newline.  Without
    `indent`, `json.dumps` runs its C encoder; any `indent` sends it to the
    pure-Python one, which takes about twice as long on a large reduction.
    `python -m json.tool PATH` prints a file indented."""
    write_text(json.dumps(data) + "\n", path)


def dump_jsons(outputs: Mapping[str, dict]) -> None:
    """`dump_json` each document to its path, or none: a path that names a
    directory or lies in a missing one is an input error before any write,
    and a document that fails later (out of memory while encoding, or a
    write error) takes back the files written before it that this call
    created.  A file that was there before stays: with its old content if
    its own write failed (see `write_text`), with the new one if a later
    document did."""
    for path in outputs:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            err = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
            raise InputError(f"cannot write {path}: {OSError(err, os.strerror(err), path)}")
    created = [path for path in outputs if not os.path.lexists(path)]
    written = []
    try:
        for path, data in outputs.items():
            dump_json(data, path)
            written.append(path)
    except BaseException:
        for path in written:
            if path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, arrays or objects nested too deep to decode
        raise InputError(f"cannot read {path}: {exc}") from None
