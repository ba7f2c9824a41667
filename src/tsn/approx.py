"""Approximation algorithms over the per-time metric closure.

`shortest_paths_union` is the trivial k-approximation: one shortest path per
demand inside its own frame.  `charikar_level` is the recursive density
greedy of Charikar et al. ("Approximation algorithms for directed Steiner
problems", J. Algorithms 1999) for the monotonic single-source directed
case: level 1 is a star of closure edges, level i repeatedly grabs the
minimum-density level-(i-1) subtree hanging off one closure edge.  A demand
(b, t) counts as covered only when some tree edge lands on the pair (b, t)
exactly -- intermediate hops may use any non-decreasing times.

Both run on the input's own frames, with no reduction: the union and
`metric_closure` run Dijkstra on `core.FrameIndex`, which reads node
activity through `effective_times` and scales the weights to ints by the
LCM of their denominators; `metric_closure` keeps the index and the scaled
`dist` list of each (source, time), and every concrete path, in the union
and in the tree expansion, is one `FrameIndex.path` walk.  The greedy
searches on the scaled ints: densities are compared by cross-multiplication,
and `Fraction` appears only in the returned `ClosureTree` edges and cost,
one cached `Fraction` per closure distance.  It relies on the instance being
monotonic (frames nest, so closure reachability is transitive): each
sub-call receives only the residual pairs reachable from its sub-root at or
after its time.  The closure numbers the (vertex, time) pairs as bits and
keeps, per sub-root, its sorted successor pairs with their hops and reach
masks, built on first use; the memo is keyed on the ints (level, sub-root
bit, sub-budget, live pairs & reach mask).  The mask is exact because,
within one top-level call, a demand pair sits in every residual either with
its full multiplicity or not at all.  For the same reason a round's pick
depends only on (level, root, live pairs) and on how many entries remain,
so one pick table per such context serves every round and sibling sub-call
that meets it again: a round reads its pick from the table and scans only
sub-budgets the table has not reached.  Likewise a level-1 star's order
depends only on (sub-root, live pairs), so one sorted list per such context
serves the star of every sub-budget as a prefix, and the pairs a prefix
covers fix its tree, so one tree per (sub-root, covered pairs) serves every
level-1 memo entry that covers them.  A sub-residual depends only on its
live pairs mask, so one tuple per mask serves every sub-call that receives
it, and a table growth derives its candidates inside its one scan of the
successor list per sub-budget.  Each tree carries its scaled cost and the
residual entries it covers, so no memoised subtree is walked again to rank
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import (
    FrameIndex,
    InfeasibleInstanceError,
    InputError,
    InternalError,
    Solution,
    TemporalInstance,
    check_budget,
    solution_from_edges,
)
from .monotonic import single_source

Pair = tuple[str, int]  # (vertex, time)

_ZERO = Fraction(0)

# Deepest greedy level `charikar` accepts.  A level-i call recurses i deep,
# and a tracer that wraps each call doubles the frames per level, so the cap
# stays far below Python's default recursion limit of 1000.
MAX_LEVEL = 100


class NoSolutionError(InfeasibleInstanceError):
    """Fewer reachable residual demands than the requested budget.  No single
    demand is at fault, so `demand` is None."""

    def __init__(self, message: str):
        super().__init__(None, message)


# ---------------------------------------------------------------------------
# Metric closure


@dataclass(frozen=True)
class MetricClosure:
    """Per-time all-pairs shortest-path table over a frame index.

    dist[(u, t)] is the list `index.shortest_paths(t, index.ids[u])`
    returns for each vertex u and time t in 1..T: by vertex id, the length
    of the shortest u->v path inside frame t times `index.scale`, the LCM
    of the edge-weight denominators, or None when v is unreachable.
    `distance` gives the exact length and `path_edges` the edges of that
    path.  The distance `Fraction`s and the greedy's pair bits, reach masks
    and successor lists are cached on the object, each built on first use.
    """

    num_times: int
    vertices: tuple[str, ...]
    index: FrameIndex
    dist: dict[tuple[str, int], list[Optional[int]]]
    _distances: dict[tuple[str, str, int], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _reach: dict[Pair, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _successors: dict[Pair, list[tuple[Pair, int, int, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def distance(self, u: str, v: str, t: int) -> Optional[Fraction]:
        if u == v:
            return _ZERO
        key = (u, v, t)
        d = self._distances.get(key)
        if d is None:
            s = _hop(self, u, (v, t))
            if s is None:
                return None
            d = self._distances[key] = Fraction(s, self.index.scale)
        return d

    @cached_property
    def bits(self) -> dict[Pair, int]:
        """Bit index of each (vertex, time) pair, time 0 included:
        vertex index * (T + 1) + time."""
        width = self.num_times + 1
        return {(v, t): n * width + t for n, v in enumerate(self.vertices) for t in range(width)}

    def reach(self, pair: Pair) -> int:
        """Bit mask of what pair (v, t) reaches: itself and every (w, t')
        with t' >= max(t, 1) and w == v or a v->w path in frame t'.  So
        (v, 0) reaches itself and everything (v, 1) reaches, and a pair
        outside the closure reaches nothing.  The masks of all of v's pairs
        are built on the first request for one of them."""
        v = pair[0]
        reach = self._reach
        if (v, 0) not in reach and v in self.index.ids:
            ids, bits = self.index.ids, self.bits
            mask = 0
            for t in range(self.num_times, 0, -1):
                row = self.dist[(v, t)]
                for w in self.vertices:
                    if w == v or row[ids[w]] is not None:
                        mask |= 1 << bits[(w, t)]
                reach[(v, t)] = mask
            reach[(v, 0)] = mask | 1 << bits[(v, 0)]
        return reach.get(pair, 0)

    def successors(self, root: Pair) -> list[tuple[Pair, int, int, int]]:
        """The pairs (v, t) other than root with t >= max(root's time, 1)
        that root's vertex reaches in frame t, in sorted order, each as
        (pair, scaled hop from root's vertex, reach mask, bit index); built
        on the first request for root."""
        out = self._successors.get(root)
        if out is None:
            u, t0 = root
            out = []
            for v in self.vertices:
                for t in range(max(t0, 1), self.num_times + 1):
                    hop = _hop(self, u, (v, t))
                    if hop is not None and (v, t) != root:
                        out.append(((v, t), hop, self.reach((v, t)), self.bits[(v, t)]))
            out.sort()
            self._successors[root] = out
        return out

    def path_edges(self, u: str, v: str, t: int) -> list[int]:
        if u == v:
            return []
        if _hop(self, u, (v, t)) is None:
            raise InputError(f"no {u}->{v} path in frame {t}")
        ids = self.index.ids
        return self.index.path(t, ids[u], ids[v])


def metric_closure(instance: TemporalInstance) -> MetricClosure:
    """Dijkstra from every vertex in every frame, on the frame index's
    scaled int weights; the table holds |V| * T lists of |V| entries."""
    check_budget(len(instance.vertices) ** 2 * instance.num_times,
                 "the metric closure would hold |V|^2 * T entries")
    index = FrameIndex(instance)
    dist = {
        (s, t): index.shortest_paths(t, index.ids[s])[0]
        for t in range(1, instance.num_times + 1)
        for s in instance.vertices
    }
    return MetricClosure(
        num_times=instance.num_times,
        vertices=tuple(instance.vertices),
        index=index,
        dist=dist,
    )


# ---------------------------------------------------------------------------
# Trivial k-approximation


def shortest_paths_union(instance: TemporalInstance) -> Solution:
    """Union over demands of one shortest path inside the demand's frame.

    Feasible exactly when the instance is; cost is at most k times the
    optimum.  Raises InfeasibleInstanceError for the first demand whose
    frame has no connecting path.
    """
    index = FrameIndex(instance)
    union: set[int] = set()
    for a, b, _, d in index.demands:
        path = index.path(d.t, a, b)
        if path is None:
            raise InfeasibleInstanceError(d)
        union.update(path)
    return solution_from_edges(instance, union)


# ---------------------------------------------------------------------------
# Recursive density greedy


@dataclass(frozen=True, slots=True)
class ClosureTree:
    """Tree over (vertex, time) pairs built from closure edges.

    Edge times never decrease from root to leaf.  `covered` lists the
    residual demand pairs this tree satisfies under the exact-final-hop
    rule (the root pair itself counts when it coincides with a demand).
    `charikar_level` also records the tree's cost times the closure's scale
    (`scaled_cost`) and the entries of its residual multiset that `covered`
    accounts for (`covered_entries`), so a memoised subtree is ranked without
    walking it again; neither takes part in comparison, hashing or repr, and
    a tree built by hand carries 0 for both.
    """

    root: Pair
    nodes: frozenset[Pair]
    edges: tuple[tuple[Pair, Pair, Fraction], ...]
    covered: tuple[Pair, ...]
    scaled_cost: int = field(default=0, compare=False, repr=False)
    covered_entries: int = field(default=0, compare=False, repr=False)

    @property
    def cost(self) -> Fraction:
        return sum((c for _, _, c in self.edges), Fraction(0))


def covered_pairs(root: Pair, edges: Iterable[tuple[Pair, Pair, Fraction]], residual: Iterable[Pair]) -> tuple[Pair, ...]:
    pairs = set(residual)
    hit = {child for _, child, _ in edges if child in pairs}
    if root in pairs:
        hit.add(root)
    return tuple(sorted(hit))


def _merge(base_edges: list, children: set, extra: Iterable, root: Pair) -> list:
    """Union the edges of a greedy pick into the running tree, keeping one
    in-edge per node (first round wins) and none into the root, so the
    result stays a tree: a pick may route through the root pair as an
    intermediate, but the root needs no parent and its onward edges keep
    everything reachable.  `children` is the set of the children of
    `base_edges`, kept beside them across rounds.  Returns the edges of
    `extra` it leaves out."""
    skipped = []
    for edge in extra:
        child = edge[1]
        if child == root or child in children:
            skipped.append(edge)
            continue
        base_edges.append(edge)
        children.add(child)
    return skipped


def _hop(closure: MetricClosure, u: str, pair: Pair) -> Optional[int]:
    """Scaled closure distance from u to pair's vertex in pair's frame: 0
    when the vertices agree, None when there is no path or u, the vertex
    or the time is outside the closure."""
    v, t = pair
    if u == v:
        return 0
    row = closure.dist.get((u, t))
    i = closure.index.ids.get(v)
    return None if row is None or i is None else row[i]


class _Memo(dict):
    """The memo of one top-level `charikar_level` call: one entry per
    sub-call, keyed (level, sub-root bit, sub-budget, live pairs & reach
    mask), holding the subtree, which carries its scaled cost and the
    residual entries it covers.  `rounds` keeps the pick tables beside it,
    keyed (level, root, live pairs): entry r of a table is (the pick of a
    round with r entries still to cover, the memo look-ups that round ranks
    over).  `stars` keeps the level-1 star orders, keyed (root, live pairs):
    the (scaled hop, closure edge) list of every live pair the root reaches
    other than itself, sorted by (hop, pair).  `prefixes` keeps the level-1
    trees, keyed (root, mask of the pairs the tree covers): the covered
    pairs other than the root are a prefix of the root's (hop, pair) order
    over whichever pairs are live, so they fix the edges, the cost and the
    cover, and every level-1 memo entry that covers the same pairs from
    the same root holds one shared tree.  `residuals` keeps the
    sub-residual of each live pairs mask a sub-call receives: the mask's
    pairs, each with its full multiplicity, in sorted order, which is the
    sorted residual of any caller filtered by the mask.  None of them adds
    a memo entry."""

    __slots__ = ("rounds", "stars", "prefixes", "residuals")

    def __init__(self):
        super().__init__()
        self.rounds: dict[tuple[int, Pair, int], list] = {}
        self.stars: dict[tuple[Pair, int], list[tuple[int, tuple[Pair, Pair, Fraction]]]] = {}
        self.prefixes: dict[tuple[Pair, int], ClosureTree] = {}
        self.residuals: dict[int, tuple[Pair, ...]] = {}


def charikar_level(
    i: int,
    closure: MetricClosure,
    root: Pair,
    k: int,
    demands: Sequence[Pair],
    _cache: Optional[_Memo] = None,
    _stats: Optional[dict] = None,
) -> ClosureTree:
    """Level-i recursive greedy over the closure.

    demands is the residual multiset of (target, time) pairs; k is how many
    entries must be covered.  Level 1 stars the k cheapest reachable pairs;
    level i scans every intermediate (v, t') with t' at least the root time
    and every sub-budget, recursing at level i-1, and repeatedly keeps the
    candidate of minimum density (ties: fewer nodes, then smallest (v, t')).

    Precondition: the closure comes from a monotonic instance, so frame t
    is contained in frame t' for t <= t' and closure reachability between
    pairs is transitive.  A level-(i-1) sub-call at pair p can then only
    see the residual pairs at time >= p's time reachable from p; it gets
    just those, and every call counts the demand pairs that
    `closure.reach(root)` holds.  Each candidate comes from `closure.successors(root)` with
    the bit mask of the pairs it reaches, and the memo `_cache` is keyed on
    the ints (i-1, p's bit, sub-budget, live pairs & p's reach mask).  The
    mask stands for the whole restricted residual because, inside one
    top-level call tree, a demand pair is in a residual either with its
    full top-level multiplicity or not at all: a round removes whole pairs
    and a sub-residual keeps or drops whole pairs.  So `_cache` must serve
    one top-level call only; each sub-call adds one entry.  Costs are
    compared as scaled ints by cross-multiplication; each memo entry is a
    tree that carries its scaled cost and the number of residual entries it
    covers (`ClosureTree.scaled_cost` and `covered_entries`), so ranking it
    walks nothing.  A level-i tree's scaled cost is the sum of its picks'
    less the hops of the edges `_merge` leaves out.  A round compares
    densities first and counts a candidate's nodes only on a density tie.

    A level-1 call covers the k cheapest live pairs, which depend only on
    the root and on which pairs are live, not on k: so `_cache.stars` keeps
    one sorted (hop, edge) list per (root, live pairs mask), and the call
    for each sub-budget takes its shortest prefix that covers k entries.
    The pairs that prefix covers fix the tree whatever else is live, so
    `_cache.prefixes` keeps one tree per (root, covered pairs mask), and
    every level-1 memo entry with the same root and cover holds that one
    tree.  Neither the star orders, the shared trees nor the pick tables
    add memo entries.

    A round's candidates and their memo keys depend only on (i, root, live
    pairs), and the round with r entries to cover ranks every candidate
    with sub-budget <= r.  So `_cache.rounds` keeps one pick table per
    (i, root, live pairs), shared by the later rounds and the sibling
    sub-calls (one pair, budgets 1..cap, one residual) that meet the same
    context: entry r holds the minimum of (density, nodes, pair,
    -sub-budget) over sub-budgets <= r, which is exactly the pick of a full
    scan, and the number of memo look-ups that scan makes.  A round reads
    `table[remaining]` and grows the table, one sub-budget at a time, only
    past its end; each step is one scan of `closure.successors(root)` that
    derives each candidate's sub-residual mask and reachable entries
    inline, so nothing is kept between steps.  A miss there makes one
    sub-call through the module name.  Its sub-residual depends only on
    the mask, since multiplicities are the top-level ones: the mask's
    pairs in sorted order, each as often as in the top-level demands.  So
    `_cache.residuals` builds it once per mask, from the first caller's
    sorted residual, and the caller builds that tuple only when a step
    meets a mask the cache lacks.
    `_stats` counts "calls" (invocations) and "memo_hits": every
    already-built (candidate, sub-budget) entry a round ranks over, that is
    the round's look-ups less the sub-calls it made.  Each memo key misses
    once, so both totals equal those of a full scan in every round.
    """
    if i < 1:
        raise InputError("level must be a positive integer")
    if k < 0:
        raise InputError(f"the budget k must be non-negative, got {k}")
    if _cache is None:
        _cache = _Memo()
    if _stats is not None:
        _stats["calls"] = _stats.get("calls", 0) + 1
        _stats.setdefault("memo_hits", 0)

    root_v = root[0]
    bits = closure.bits
    root_reach = closure.reach(root)
    counts: dict[Pair, int] = {}
    live = 0  # bit mask of the pairs in counts
    for p in demands:
        bit = bits.get(p)
        if bit is None:
            raise InputError(f"demand pair {p} is no (vertex, time) pair of the closure")
        if root_reach >> bit & 1:
            counts[p] = counts.get(p, 0) + 1
            live |= 1 << bit
    reachable_entries = sum(counts.values())
    if reachable_entries < k:
        raise NoSolutionError(
            f"only {reachable_entries} residual demands reachable from {root}, need {k}"
        )

    if i == 1:
        star = _cache.stars.get((root, live))
        if star is None:
            # the order depends on (root, live) alone: the calls for every
            # sub-budget take a prefix of it
            star = _cache.stars[(root, live)] = [
                (hop, (root, p, closure.distance(root_v, p[0], p[1])))
                for hop, p in sorted((_hop(closure, root_v, p), p) for p in counts if p != root)
            ]
        covered_count = counts.get(root, 0)
        covered_bits = live & 1 << bits[root]  # the pairs the star covers
        n = 0
        for _, edge in star:
            if covered_count >= k:
                break
            covered_count += counts[edge[1]]
            covered_bits |= 1 << bits[edge[1]]
            n += 1
        tree = _cache.prefixes.get((root, covered_bits))
        if tree is None:
            # the covered pairs fix the tree: its edges are their prefix of
            # the (hop, pair) order, whatever else is live; every head is a
            # live pair, so they and a live root are the whole cover
            edges = tuple(edge for _, edge in star[:n])
            heads = [p for _, p, _ in edges]
            tree = _cache.prefixes[(root, covered_bits)] = ClosureTree(
                root=root,
                nodes=frozenset((root, *heads)),
                edges=edges,
                covered=tuple(sorted([*heads, root] if root in counts else heads)),
                scaled_cost=sum(hop for hop, _ in star[:n]),
                covered_entries=covered_count,
            )
        return tree

    level = i - 1
    tree_edges: list[tuple[Pair, Pair, Fraction]] = []
    tree_children: set[Pair] = set()
    scaled = 0
    remaining = k
    if root in counts:
        # the root pair satisfies its own demand without any edge; do not
        # let candidate subtrees claim that credit again
        remaining -= counts.pop(root)
        live &= ~(1 << bits[root])
    rounds, residuals = _cache.rounds, _cache.residuals
    while remaining > 0:
        table = rounds.get((i, root, live))
        if table is None:
            table = rounds[(i, root, live)] = [(None, 0)]
        calls = 0
        if remaining >= len(table):
            # grow the table one sub-budget at a time, each step one scan of
            # the successors; a growth seldom takes more than one step
            successors = closure.successors(root)
            repeats = [(1 << bits[p], c - 1) for p, c in counts.items() if c > 1]
            residual = None
            best, lookups = table[-1]  # (scaled cost, newly covered, |nodes|, pair, subtree)
            for sub_k in range(len(table), remaining + 1):
                for pair, hop, reach, bit in successors:
                    sub_mask = live & reach
                    if not sub_mask:
                        continue
                    # residual entries the sub-call at pair can reach
                    cap = sub_mask.bit_count()
                    for b, extra in repeats:
                        if sub_mask & b:
                            cap += extra
                    if cap < sub_k:
                        continue
                    lookups += 1
                    key = (level, bit, sub_k, sub_mask)
                    sub = _cache.get(key)
                    if sub is None:
                        # exactly what the sub-call can reach, so its count
                        # check holds; the whole pairs of the mask, so one
                        # tuple serves every caller that meets the mask
                        sub_residual = residuals.get(sub_mask)
                        if sub_residual is None:
                            if residual is None:
                                residual = tuple(p for p in sorted(counts) for _ in range(counts[p]))
                            sub_residual = residuals[sub_mask] = tuple(
                                q for q in residual if sub_mask >> bits[q] & 1)
                        sub = _cache[key] = charikar_level(
                            level, closure, pair, sub_k, sub_residual, _cache, _stats)
                        calls += 1
                    cost = sub.scaled_cost + hop
                    newly = sub.covered_entries
                    if best is not None:
                        # density cost/newly against the best's, exactly; only
                        # a density tie needs the node count, and a full tie
                        # goes to this larger sub-budget
                        lhs, rhs = cost * best[1], best[0] * newly
                        if lhs > rhs or (lhs == rhs and (
                                len(sub.nodes) + (root not in sub.nodes), pair) > best[2:4]):
                            continue
                    best = (cost, newly, len(sub.nodes) + (root not in sub.nodes), pair, sub)
                table.append((best, lookups))
        best, lookups = table[remaining]
        if _stats is not None:
            _stats["memo_hits"] += lookups - calls
        if best is None:
            # every residual pair is a candidate whose subtree covers it
            raise InternalError(f"no greedy pick from {root} covers a residual pair")
        cost, newly, _, pair, sub = best
        skipped = _merge(tree_edges, tree_children,
                         (*sub.edges, (root, pair, closure.distance(root_v, pair[0], pair[1]))), root)
        scaled += cost - sum(_hop(closure, parent[0], child) for parent, child, _ in skipped)
        remaining -= newly
        for p in sub.covered:
            counts.pop(p, None)
            live &= ~(1 << bits[p])
    covered = covered_pairs(root, tree_edges, demands)
    hit = set(covered)
    return ClosureTree(
        root=root,
        # a pick's parents are the root or children in the pick, and the
        # merge leaves each child in the pick root or in tree_children, so
        # these are all the nodes
        nodes=frozenset((root, *tree_children)),
        edges=tuple(tree_edges),
        covered=covered,
        scaled_cost=scaled,
        covered_entries=sum(p in hit for p in demands),
    )


def expand_tree(
    instance: TemporalInstance, closure: MetricClosure, tree: ClosureTree
) -> Solution:
    """Replace each closure edge ((u,t),(v,t')) by a concrete shortest
    u->v path in frame t'; the union never costs more than the tree."""
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
    """Run the level-`level` greedy (1 <= level <= MAX_LEVEL) on a monotonic
    single-source directed instance and expand the resulting closure tree to
    real edges.

    `FrameIndex` reads effective times, and on a monotonic input every
    effective set is upward closed, so the frames nest.
    """
    if not 1 <= level <= MAX_LEVEL:
        raise InputError(f"level must be an integer from 1 to {MAX_LEVEL}, got {level}")
    source = single_source(instance, "the recursive greedy")
    if source is None:
        return solution_from_edges(instance, ())
    closure = metric_closure(instance)
    pairs = [(d.b, d.t) for d in instance.demands]
    tree = charikar_level(
        level, closure, (source, 0), len(pairs), pairs, _cache=_Memo(), _stats=stats
    )
    return expand_tree(instance, closure, tree)
