"""Exact solving: exhaustive oracle, branch and bound, and the flow ILP.

`brute_force` is the reference oracle used throughout the test suite.  Its
contract is the naive one -- consider all 2^|E| edge subsets, return the
cheapest feasible one, break ties by the lexicographically smallest sorted
index tuple -- but it enumerates only the positive-weight edges, since
zero-weight edges never change a cost, in one iterative include-first search
pruned by cost and by completion: a subtree whose edges, taken all together
with the chosen ones and every zero edge, leave a demand unmet holds no
feasible leaf and is skipped.  Each node carries that completion set as a
0/1 edge mask, which `FrameIndex.first_unmet` tests; an include child
shares its parent's mask.  That keeps it fast on gadget instances that
are mostly zero-weight wiring; its docstring says why the result is the
naive scan's, and the test suite cross-checks it against a literal
enumeration.

`solve_bb` is an independent branch-and-bound over the same search space.
Both run on `core.FrameIndex`, built once per instance: vertices interned to
ints, one adjacency list of `(head, edge id)` pairs per frame and its
reverse, each cached per time, weights scaled to ints by the least common
multiple of their denominators, and Wong's dual ascent on the cut relaxation
(a lower bound and reduced costs).  Each builds its index first and names an
infeasible instance by `FrameIndex.first_unmet` over every edge: the first
demand in input order that no edge set meets.  At the root, the dual ascent
gives a lower bound; the edges of reduced cost 0, thinned by
`FrameIndex.reverse_delete` and improved by a local search that drops one
edge and reconnects by shortest paths, give an incumbent, which is returned
when it meets the bound.  Otherwise every edge whose reduced cost lifts the
bound to that incumbent is excluded (reduced-cost fixing), and an iterative
depth-first search sets and resets two 0/1 edge masks, `included` and
`excluded`, in place.  Below the root, `FrameIndex.reaches` over `included`
finds the demands a node's included edges leave unmet, and one dual ascent
over them, reading both masks, prunes it.  Costs return to `Fraction` only
through `solution_from_edges`, so results stay exact and no float is ever
used.

Ties: every exact method returns an optimum that is fixed by its input, so
one input gives the same bytes on every run.  `brute_force` alone defines
which of tied optima that is (the lexicographic rule above); the other
methods agree with it on cost, not on edges.

`build_ilp`/`emit_lp`/`parse_lp` realise the per-time unit-flow integer
program over simple single-source/single-sink instances.  An `IlpModel`
holds exactly what its LP text holds: the objective, whose variables are the
per-edge decision variables in edge order (`edge_var`); the rows, each a
`Constraint` named tuple (name, terms, sense, rhs) whose kind is read from
the tag that starts its name; and the binaries.  So
`parse_lp(emit_lp(m)) == m` for every model.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    Demand,
    FrameIndex,
    InfeasibleInstanceError,
    InputError,
    InternalError,
    Solution,
    TemporalInstance,
    check_budget,
    effective_times,
    solution_from_edges,
)

# the most positive-weight edges `brute_force` enumerates
BRUTE_CAP = 20


class BruteForceCapError(InputError):
    """Instance exceeds the subset-enumeration cap."""


# ---------------------------------------------------------------------------
# Brute force


def brute_force(instance: TemporalInstance, stats: Optional[dict] = None) -> Solution:
    """Cheapest feasible edge subset; ties go to the lexicographically
    smallest sorted index tuple.

    Zero-weight edges never change a cost, so one include-first search over
    the positive edges in index order, each leaf completed with every zero
    edge, finds the optimum.  It keeps the leaf of each strict improvement,
    so it keeps the first optimal leaf it reaches.  Leaves come in
    lexicographic order of their index tuples, except that a tuple comes
    after the tuples that extend it; no optimal positive set extends
    another, since every weight in it is positive, so that leaf is the
    lexicographically smallest optimal positive set.  The answer is that set
    plus the zero edges below the first index at which the whole set is
    taken and the edges taken so far meet every demand, which is where the
    naive scan's smallest optimal tuple ends.

    A node whose cost reaches the best found is cut, and so is a node whose
    completion set -- the edges chosen, every zero edge and the positive
    edges from its depth on -- leaves a demand unmet: feasibility is
    monotone under adding edges, so no leaf below it is feasible.  Each
    node carries its completion set as a 0/1 mask: an include child shares
    its parent's, and an exclude child copies it and clears the edge it
    leaves out, so only the exclude children are tested.  The root's set is
    every edge, which the infeasibility check tests, and that check counts
    as the first completion test.  So a leaf the search reaches is feasible,
    and cutting subtrees without a feasible leaf keeps every strict
    improvement, so the answer is the one above.  `stats`, when given,
    receives the number of `completion_tests` and of `improvements`.

    Raises InfeasibleInstanceError when some demand cannot be met even by
    the full edge set, and BruteForceCapError when more than `BRUTE_CAP`
    edges have positive weight.
    """
    positive = sum(1 for e in instance.edges if e.w > 0)
    if positive > BRUTE_CAP:
        raise BruteForceCapError(
            f"instance has {positive} positive-weight edges, brute-force cap is {BRUTE_CAP}"
        )
    index = FrameIndex(instance)
    weight = index.weight
    everything = bytearray(b"\x01" * len(weight))
    bad = index.first_unmet(everything)
    if bad is not None:
        raise InfeasibleInstanceError(bad)
    pos = [i for i, w in enumerate(weight) if w > 0]

    # Each stack entry is (depth, cost, completion set, dropped): an exclude
    # child holds its parent's set and the edge it clears from a copy, an
    # include child its parent's set and -1.
    best, best_set = sum(weight) + 1, None
    tests, improvements = 1, 0
    stack = [(0, 0, everything, -1)]
    while stack:
        depth, cost, complete, dropped = stack.pop()
        if cost >= best:
            continue  # weights are nonnegative, no improvement below
        if dropped >= 0:
            complete = complete.copy()
            complete[dropped] = 0
            tests += 1
            if index.first_unmet(complete) is not None:
                continue  # no feasible leaf below
        if depth == len(pos):
            best, best_set = cost, complete
            improvements += 1
            continue
        e = pos[depth]
        stack.append((depth + 1, cost, complete, e))
        stack.append((depth + 1, cost + weight[e], complete, -1))
    if stats is not None:
        stats.update(completion_tests=tests, improvements=improvements)

    # the leaf's set up to its last positive edge, then its zero edges above
    # that one by one until every demand is met
    last = max((i for i in pos if best_set[i]), default=-1)
    taken = best_set[:last + 1] + bytearray(len(weight) - last - 1)
    tail = (i for i in range(last + 1, len(weight)) if best_set[i])
    while index.first_unmet(taken) is not None:
        i = next(tail, None)
        if i is None:
            raise InternalError("brute force's optimum leaves a demand unmet")
        taken[i] = 1
    return solution_from_edges(instance, [i for i, m in enumerate(taken) if m])


# ---------------------------------------------------------------------------
# Branch and bound


def _thin(fidx: FrameIndex, member: bytearray) -> None:
    """`FrameIndex.reverse_delete` over the positive edges of `member` by
    falling weight; among equal weights, the edges active in the fewest
    frames go first: they can serve the fewest demands."""
    weight = fidx.weight
    fidx.reverse_delete(member, sorted(
        (i for i, w in enumerate(weight) if w and member[i]),
        key=lambda i: (-weight[i], len(fidx.eff[i]), i),
    ))


def _reconnect(fidx: FrameIndex, member: bytearray, e: int) -> Optional[bytearray]:
    """`member` without edge e, each demand this leaves unmet joined again,
    in input order, by the shortest path in its frame on which the edges
    held so far cost 0 and e is forbidden; None when a demand has no such
    path."""
    trial = bytearray(member)
    trial[e] = 0
    cost = [0 if m else w for w, m in zip(fidx.weight, trial)]
    for j, (a, b, _, demand) in enumerate(fidx.demands):
        if fidx.reaches(j, trial):
            continue
        path = fidx.path(demand.t, a, b, cost, e)
        if path is None:
            return None
        for i in path:
            trial[i] = 1
            cost[i] = 0
    return trial


def _local_search(fidx: FrameIndex, member: bytearray, upper: int, lower: int) -> tuple[int, int]:
    """Improve the incumbent `member` of scaled cost `upper` in place, after
    Uchoa and Werneck's key-path exchange (ALENEX 2010): drop one positive
    edge, by falling weight and then index, reconnect the demands it served
    (`_reconnect`), thin the result (`_thin`) and keep it when it is strictly
    cheaper; start again after each improvement, until no drop helps or the
    incumbent costs `lower`.  Returns the new cost and the number of
    improvements."""
    weight = fidx.weight
    improvements = 0
    improved = True
    while improved and upper > lower:
        improved = False
        for e in sorted((i for i, w in enumerate(weight) if w and member[i]),
                        key=lambda i: (-weight[i], i)):
            trial = _reconnect(fidx, member, e)
            if trial is None:
                continue  # some demand has no path without e
            _thin(fidx, trial)
            cost = sum(w for w, m in zip(weight, trial) if m)
            if cost < upper:
                if fidx.first_unmet(trial) is not None:
                    raise InternalError("local search built a trial that leaves a demand unmet")
                member[:] = trial
                upper = cost
                improvements += 1
                improved = True
                break
    return upper, improvements


def solve_bb(instance: TemporalInstance, stats: Optional[dict] = None) -> Solution:
    """Provably optimal solution by depth-first branch and bound on edges.

    At the root, a full dual ascent gives a lower bound LB and reduced
    costs.  The edges of reduced cost 0 meet every demand; dropping them by
    falling weight while the rest stays feasible (`FrameIndex.reverse_delete`)
    gives an incumbent.  While it costs more than LB, a local search
    (`_local_search`) drops one of its positive edges at a time, reconnects
    the demands that edge served by shortest paths and keeps each strictly
    cheaper result; its cost is UB.  An incumbent that costs LB is optimal
    and the root returns it.  Otherwise each edge with LB + reduced cost >=
    UB is excluded before the search: any solution through it costs at
    least UB, and the search takes only strictly cheaper solutions.

    Branch order: undecided edge of largest weight appearing in the most
    frames (ties by index), include branch first.  At each node,
    `FrameIndex.reaches` over the included edges finds the pending demands
    they leave unmet.  A node is pruned when its included edges alone reach
    the incumbent, or when a dual ascent over the unmet demands, budgeted at
    the gap to the incumbent, reaches that gap or finds an unmet demand with
    no completion left.  For a single demand the ascent is a shortest-path
    search.  The search stops at an incumbent of cost LB, since nothing
    after it can be strictly cheaper.  It is iterative, so its depth is not
    bounded by the interpreter's recursion limit.

    Which optimum comes back is fixed by the input alone: every order above
    breaks its ties by edge index or vertex name, so one input gives the
    same edges on every run.  It need not be `brute_force`'s optimum, but it
    costs the same.

    `stats`, when given, receives the number of `nodes` visited, the root
    included; of nodes pruned because the included edges alone reach the
    incumbent or leave a demand with no completion (`completion_prunes`)
    and by the dual-ascent bound (`dual_ascent_prunes`); of
    `incumbent_updates`, the root's incumbent included; of
    `local_search_improvements`; and the root's `root_lower_bound` and
    `root_upper_bound` (after the local search) as exact costs.
    """
    fidx = FrameIndex(instance)
    weight = fidx.weight
    bad = fidx.first_unmet(b"\x01" * len(weight))
    if bad is not None:
        raise InfeasibleInstanceError(bad)
    included = bytearray(len(weight))
    excluded = bytearray(len(weight))
    pending = list(range(len(fidx.demands)))

    lower, reduced = fidx.dual_ascent(included, excluded, pending)
    member = bytearray(r == 0 for r in reduced)
    _thin(fidx, member)
    upper = sum(w for w, m in zip(weight, member) if m)
    upper, improvements = _local_search(fidx, member, upper, lower)
    best_cost, best = upper, bytes(member)
    for i, r in enumerate(reduced):
        if lower + r >= upper:
            excluded[i] = 1
    order = sorted(
        (i for i, x in enumerate(excluded) if not x),
        key=lambda i: (-weight[i], -len(fidx.eff[i]), i),
    )
    # the root is a node and its incumbent an update; nodes counts each
    # child the search enters
    nodes = incumbent_updates = 1
    completion_prunes = dual_ascent_prunes = 0

    # One entry per node whose children are being searched: its depth and
    # the demands its included edges leave unmet.  Both children start from
    # those: excluding an edge meets no new demand.
    stack: list[tuple[int, list[int]]] = []
    depth, cost = 0, 0
    while best_cost > lower:
        budget = best_cost - cost
        if budget <= 0:
            completion_prunes += 1
        else:
            unmet = [j for j in pending if not fidx.reaches(j, included)]
            if not unmet:
                # every demand met below the budget: strictly cheaper than the incumbent
                best_cost, best = cost, bytes(included)
                incumbent_updates += 1
            else:
                bound = fidx.dual_ascent(included, excluded, unmet, budget)[0]
                if bound is None:
                    completion_prunes += 1
                elif bound >= budget:
                    dual_ascent_prunes += 1
                else:
                    e = order[depth]
                    included[e] = 1
                    cost += weight[e]
                    stack.append((depth, unmet))
                    depth += 1
                    pending = unmet
                    nodes += 1
                    continue
        # backtrack to the deepest node whose exclude branch is still open
        while stack:
            branched, pending = stack[-1]
            e = order[branched]
            if included[e]:
                included[e] = 0
                excluded[e] = 1
                cost -= weight[e]
                depth = branched + 1
                nodes += 1
                break
            excluded[e] = 0
            stack.pop()
        else:
            break
    if fidx.first_unmet(best) is not None:
        raise InternalError("branch and bound returned edges that leave a demand unmet")
    if stats is not None:
        stats.update(
            nodes=nodes,
            completion_prunes=completion_prunes,
            dual_ascent_prunes=dual_ascent_prunes,
            incumbent_updates=incumbent_updates,
            local_search_improvements=improvements,
            root_lower_bound=Fraction(lower, fidx.scale),
            root_upper_bound=Fraction(upper, fidx.scale),
        )
    return solution_from_edges(instance, [i for i, m in enumerate(best) if m])


# ---------------------------------------------------------------------------
# Flow ILP over simple instances (single source a, single sink b, one demand
# per time 1..k).  Soundness of the feasibility <-> satisfying-assignment
# correspondence needs a to have no in-arcs and b no out-arcs, which holds
# for every image of the simplifying reduction.


# row kind per name tag: every row name is "<tag>_..."
_ROW_KINDS = {"cpl": "coupling", "cons": "conservation", "src": "source", "snk": "sink"}


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, str], ...]  # (coefficient, variable)
    sense: str  # ">=" | "="
    rhs: int

    @property
    def kind(self) -> Optional[str]:
        """The row kind ("coupling", "conservation", "source" or "sink"),
        read from the tag that starts the name; None for a name without one."""
        return _ROW_KINDS.get(self.name.split("_", 1)[0])


@dataclass(frozen=True)
class IlpModel:
    """Exactly what the LP text holds, so `parse_lp(emit_lp(m)) == m`."""

    objective: tuple[tuple[Fraction, str], ...]
    constraints: tuple[Constraint, ...]
    binaries: tuple[str, ...]

    @property
    def edge_var(self) -> tuple[str, ...]:
        """The decision variable of each arc of the model, in edge order."""
        return tuple(var for _, var in self.objective)


class _LpNames:
    """LP-safe identifier factory.

    Raw vertex names may contain characters the LP format forbids, and
    joining tokens with underscores can fuse distinct vertex pairs into one
    string, so every vertex gets a memoised sanitised token and every
    composed identifier is uniquified against the ones already issued.
    """

    _ALLOWED = re.compile(r"[^A-Za-z0-9_.]")

    def __init__(self):
        self._issued: set[str] = set()
        self._token: dict[str, str] = {}
        self._token_values: set[str] = set()

    def token(self, raw: str) -> str:
        hit = self._token.get(raw)
        if hit is not None:
            return hit
        safe = self._ALLOWED.sub("_", raw) or "v"
        candidate, n = safe, 2
        while candidate in self._token_values:
            candidate = f"{safe}__{n}"
            n += 1
        self._token[raw] = candidate
        self._token_values.add(candidate)
        return candidate

    def claim(self, name: str) -> str:
        if name not in self._issued:
            self._issued.add(name)
            return name
        candidate, n = name, 2
        while candidate in self._issued:
            candidate = f"{name}__{n}"
            n += 1
        self._issued.add(candidate)
        return candidate


def _simple_shape(instance: TemporalInstance) -> tuple[str, str]:
    ds = instance.demands
    if not ds:
        raise InputError("simple instance requires at least one demand")
    a, b = ds[0].a, ds[0].b
    times = sorted(d.t for d in ds)
    if any(d.a != a or d.b != b for d in ds) or times != list(range(1, len(ds) + 1)):
        raise InputError(
            "demands must be exactly (a, b, 1..k) for a common source and sink"
        )
    if instance.num_times != len(ds):
        raise InputError("time horizon must equal the number of demands")
    return a, b


def build_ilp(instance: TemporalInstance) -> IlpModel:
    """Unit-flow integer program for a simple directed instance.

    Each arc is active at its `effective_times`, so node activity is read
    directly; an arc active at no time is left out, as
    `variants.node_to_edge` drops it.  Objective: sum of d_{u}_{v} * w.
    Constraints: coupling d_uv >= d_uvt per active time, flow conservation
    per (time, interior vertex), unit outflow at the source and unit inflow
    at the sink per time.  One pass over the (arc, active time) pairs claims
    the names and files each flow variable under the (time, vertex) it
    enters and leaves; every flow row is read from those two maps, in-terms
    then out-terms, each in arc order.  The pairs grow with the demand
    count, so their running count is checked against the size budget
    before each arc's active times are kept.
    """
    if not instance.directed:
        raise InputError("the flow ILP is defined for directed instances")
    a, b = _simple_shape(instance)
    # (edge id, edge, active times) of every arc the model holds
    arcs = []
    pairs = 0
    for i, e in enumerate(instance.edges):
        if times := effective_times(instance, i):
            pairs += len(times)
            check_budget(pairs, "the flow ILP would hold at least {} (arc, time) flow variables",
                         pairs)
            arcs.append((i, e, times))

    seen = {}
    for i, e, _ in arcs:
        if (e.u, e.v) in seen:
            raise InputError(f"parallel arcs {seen[(e.u, e.v)]} and {i} not supported")
        seen[(e.u, e.v)] = i

    names = _LpNames()
    token, claim = names.token, names.claim
    # each arc's sanitised endpoints, in the order the tokens are handed out
    ends = [(token(e.u), token(e.v)) for _, e, _ in arcs]
    edge_var = tuple(claim(f"d_{tu}_{tv}") for tu, tv in ends)
    flow_vars: list[str] = []
    # flow variables into and out of each (time, vertex), in arc order
    ins: defaultdict[int, dict[str, list[str]]] = defaultdict(dict)
    outs: defaultdict[int, dict[str, list[str]]] = defaultdict(dict)
    objective = []
    constraints: list[Constraint] = []
    for var, (tu, tv), (_, e, times) in zip(edge_var, ends, arcs):
        objective.append((e.w, var))
        for t in sorted(times):
            fv = claim(f"{var}_{t}")
            flow_vars.append(fv)
            ins[t].setdefault(e.v, []).append(fv)
            outs[t].setdefault(e.u, []).append(fv)
            cpl = claim(f"cpl_{tu}_{tv}_{t}")
            constraints.append(Constraint(cpl, ((1, var), (-1, fv)), ">=", 0))

    for t in range(1, instance.num_times + 1):
        into, out = ins[t], outs[t]
        for v in instance.vertices:
            if (v in into or v in out) and v != a and v != b:
                terms = [(1, fv) for fv in into.get(v, ())]
                terms += [(-1, fv) for fv in out.get(v, ())]
                constraints.append(Constraint(claim(f"cons_{t}_{token(v)}"), tuple(terms), "=", 0))
    # the rows go in kind order: coupling, conservation, source, sink
    sink_rows: list[Constraint] = []
    for t in range(1, instance.num_times + 1):
        if a not in outs[t] or b not in ins[t]:
            raise InfeasibleInstanceError(Demand(a, b, t), f"no flow possible at time {t}")
        src, snk = claim(f"src_{t}"), claim(f"snk_{t}")
        constraints.append(Constraint(src, tuple((1, fv) for fv in outs[t][a]), "=", 1))
        sink_rows.append(Constraint(snk, tuple((1, fv) for fv in ins[t][b]), "=", 1))
    constraints += sink_rows

    # every name is claimed once, so the binaries need no dedup
    binaries = tuple(sorted([*edge_var, *flow_vars]))
    return IlpModel(objective=tuple(objective), constraints=tuple(constraints), binaries=binaries)


# ---------------------------------------------------------------------------
# LP text format


def _decimal_exact(f: Fraction) -> Optional[str]:
    """Exact decimal string for a non-integral fraction whose denominator is
    2^a 5^b; `emit_lp` writes integral coefficients itself."""
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def emit_lp(model: IlpModel) -> str:
    """Deterministic LP text (Minimize / Subject To / Binary / End).

    Objective coefficients are written as exact decimals when possible;
    otherwise every coefficient is scaled by the least common multiple of
    the denominators and the scale is recorded in a leading comment.
    """
    coefs = [c for c, _ in model.objective]
    txts = [str(c.numerator) if c.denominator == 1 else _decimal_exact(c) for c in coefs]
    lines: list[str] = []
    if None in txts:
        scale = math.lcm(*(c.denominator for c in coefs))
        lines.append(f"\\ objective-scale: {scale}")
        txts = []
        for c in coefs:
            val = c * scale
            if val.denominator != 1:
                raise InternalError(f"objective coefficient {c} is not integral at scale {scale}")
            txts.append(str(val.numerator))
    lines.append("Minimize")
    terms = " + ".join([f"{txt} {var}" for txt, (_, var) in zip(txts, model.objective)])
    lines.append(f" obj: {terms or '0'}")
    lines.append("Subject To")
    for name, row, sense, rhs in model.constraints:
        # every term is signed; the first drops a leading "+ "
        body = " ".join([f"+ {c} {var}" if c >= 0 else f"- {-c} {var}" for c, var in row])
        if body.startswith("+"):
            body = body[2:]
        lines.append(f" {name}: {body} {sense} {rhs}")
    lines.append("Binary")
    lines.extend([f" {var}" for var in model.binaries])
    lines.append("End")
    return "\n".join(lines) + "\n"


def _lp_number(txt: str, kind, row: str):
    """`kind(txt)` for kind int or Fraction; InputError naming the row otherwise."""
    try:
        return kind(txt)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed number {txt!r} in LP row {row!r}") from None


def parse_lp(text: str) -> IlpModel:
    """Parse text produced by emit_lp back into the model it was written from.

    Text that emit_lp cannot have written raises InputError.
    """
    scale = 1
    lines = [ln.strip() for ln in text.splitlines()]
    idx = 0
    while idx < len(lines) and lines[idx].startswith("\\"):
        if "objective-scale:" in lines[idx]:
            scale = _lp_number(lines[idx].split(":", 1)[1].strip(), int, lines[idx])
            if scale < 1:
                raise InputError(f"objective scale must be positive, got {scale}")
        idx += 1
    head = lines[idx:idx + 3]
    if head[:1] != ["Minimize"]:
        raise InputError("LP text must start with Minimize")
    if len(head) < 2 or not head[1].startswith("obj:"):
        raise InputError("missing objective row")
    if head[2:] != ["Subject To"]:
        raise InputError("missing Subject To section")
    obj_line = head[1]
    idx += 3
    objective: list[tuple[Fraction, str]] = []
    body = obj_line[len("obj:"):].strip()
    if body != "0":
        for chunk in body.split(" + "):
            coef_txt, _, var = chunk.rpartition(" ")
            if not coef_txt:
                raise InputError(f"objective term {chunk!r} is not 'coefficient variable'")
            objective.append((_lp_number(coef_txt, Fraction, obj_line) / scale, var))
    constraints: list[Constraint] = []
    while idx < len(lines) and lines[idx] != "Binary":
        row = lines[idx]
        idx += 1
        name, colon, rest = row.partition(":")
        tokens = rest.split()
        if not colon or len(tokens) < 2 or tokens[-2] not in (">=", "="):
            raise InputError(f"LP row {row!r} is not 'name: terms sense rhs'")
        sense, rhs = tokens[-2], _lp_number(tokens[-1], int, row)
        terms: list[tuple[int, str]] = []
        j = 0
        sign = 1
        while j < len(tokens) - 2:
            tok = tokens[j]
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
                j += 1
                continue
            if j + 1 >= len(tokens) - 2:
                raise InputError(f"LP row {row!r} ends in a coefficient without a variable")
            terms.append((sign * _lp_number(tok, int, row), tokens[j + 1]))
            sign = 1
            j += 2
        constraints.append(Constraint(name.strip(), tuple(terms), sense, rhs))
    if idx >= len(lines):
        raise InputError("missing Binary section")
    idx += 1
    binaries: list[str] = []
    while idx < len(lines) and lines[idx] != "End":
        binaries.append(lines[idx])
        idx += 1
    return IlpModel(
        objective=tuple(objective),
        constraints=tuple(constraints),
        binaries=tuple(binaries),
    )


def models_equivalent(a: IlpModel, b: IlpModel) -> bool:
    """Equality of objective, constraints and binaries: all a model holds."""
    return a == b
