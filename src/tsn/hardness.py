"""Benchmark-instance generators built from constraint-graph gadgets.

One constraint-graph type, `KphlcInstance`, and one compiler,
`phlc_to_kdtsn`, which turns a k-partite constraint hypergraph into a
k-frame temporal instance.  Bipartite label cover is the k = 2 case:
`parts=(left, right)` with one `(left table, right table)` pair per edge,
the left side compiled into frame 1 and the right into frame 2.

The instance is made of chained bundles: per hypergraph part (frame) and
per vertex, one bundle whose strands enumerate that vertex's candidate
labels; each strand chains one sub-bundle per incident constraint edge,
holding a unit-weight contact edge per consistent labelling of the far
endpoint(s).  Contact edges whose label tuples agree are shared between
frames, so a satisfiable constraint graph admits a solution that pays each
constraint edge once, while an unsatisfiable one forces one payment per
frame.  All wiring other than the contact edges is free.

Vertex names are structured (part.position.strand...) so the gadget
structure is recoverable from names alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .core import MAX_FIRST_TIME_ENTRIES, Demand, Edge, InputError, TemporalInstance, check_budget

# the two gadget weights, shared by every wire and every contact edge
_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# Constraint-graph inputs (labels and colors are 0-based indices)


@dataclass(frozen=True)
class KphlcInstance:
    """k-partite constraint hypergraph; k = 2 is bipartite label cover."""

    parts: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, ...], ...]  # one vertex index per part
    num_labels: int
    num_colors: int
    projections: tuple[tuple[tuple[int, ...], ...], ...]  # per edge, per part

    @property
    def k(self) -> int:
        return len(self.parts)


def _color_buckets(h: KphlcInstance, m: int) -> list[list[list[int]]]:
    """One bucket per color that every part's table of hyperedge m uses:
    each part's labels of that color, in label order."""
    by_color: dict[int, list[list[int]]] = {}
    for t, table in enumerate(h.projections[m]):
        for l in range(h.num_labels):
            parts = by_color.get(table[l])
            if parts is None:
                parts = by_color[table[l]] = [[] for _ in range(h.k)]
            parts[t].append(l)
    return [parts for c, parts in by_color.items() if 0 <= c < h.num_colors and all(parts)]


def _tuples(buckets: list[list[list[int]]]) -> list[tuple[int, ...]]:
    return sorted(tup for parts in buckets for tup in product(*parts))


# ---------------------------------------------------------------------------
# Gadget trace


@dataclass(frozen=True)
class ContactInfo:
    hyperedge: int
    labels: Optional[tuple[int, ...]]  # None for an unmergeable fallback strand
    part: Optional[int] = None  # fallback strands record their location
    vertex: Optional[int] = None
    strand_label: Optional[int] = None


@dataclass(frozen=True)
class BundleInfo:
    part: int
    vertex: int
    source: str
    sink: str
    # per strand label: tuple of (hyperedge, contact edge ids in this strand)
    strands: tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]


@dataclass(frozen=True)
class GadgetTrace:
    contacts: dict[int, ContactInfo]
    bundles: tuple[BundleInfo, ...]


def trace_to_dict(trace: GadgetTrace) -> dict:
    return {
        "contacts": {
            str(i): {
                "hyperedge": c.hyperedge,
                "labels": list(c.labels) if c.labels is not None else None,
                "part": c.part,
                "vertex": c.vertex,
                "strand_label": c.strand_label,
            }
            for i, c in sorted(trace.contacts.items())
        },
        "bundles": [
            {
                "part": b.part,
                "vertex": b.vertex,
                "source": b.source,
                "sink": b.sink,
                "strands": [
                    {"label": lab, "chain": [{"hyperedge": m, "contacts": list(ids)} for m, ids in chain]}
                    for lab, chain in b.strands
                ],
            }
            for b in trace.bundles
        ],
    }


# ---------------------------------------------------------------------------
# Low-level builder


class _Builder:
    def __init__(self):
        self.vertices: dict[str, None] = {}
        self.edges: list[list] = []  # [u, v, w, set of times]
        self._by_pair: dict[tuple[str, str], int] = {}
        self.contacts: dict[int, ContactInfo] = {}

    def vertex(self, name: str) -> str:
        self.vertices.setdefault(name, None)
        return name

    def wire(self, u: str, v: str, t: int) -> int:
        """Zero-weight edge existing in frame t."""
        self.vertex(u)
        self.vertex(v)
        self.edges.append([u, v, _ZERO, {t}])
        return len(self.edges) - 1

    def contact(self, c1: str, c2: str, t: int, info: ContactInfo) -> int:
        """Unit-weight contact edge; repeated (c1, c2) pairs are merged and
        accumulate frame memberships."""
        self.vertex(c1)
        self.vertex(c2)
        key = (c1, c2)
        if key in self._by_pair:
            idx = self._by_pair[key]
            self.edges[idx][3].add(t)
            return idx
        self.edges.append([c1, c2, _ONE, {t}])
        idx = len(self.edges) - 1
        self._by_pair[key] = idx
        self.contacts[idx] = info
        return idx

    def finish(self, num_times: int, demands: Sequence[Demand]) -> TemporalInstance:
        # one frozenset per distinct time set, as `instance_from_dict` reads
        # them back, so the writer's per-object memo hits
        shared: dict[frozenset[int], frozenset[int]] = {}
        edges = []
        for u, v, w, ts in self.edges:
            ts = frozenset(ts)
            edges.append(Edge(u, v, w, shared.setdefault(ts, ts)))
        return TemporalInstance(
            directed=True,
            variant="edge",
            num_times=num_times,
            vertices=tuple(self.vertices),
            edges=tuple(edges),
            demands=tuple(demands),
        )


def _endpoint(part: int, pos: int) -> str:
    return f"P{part}.{pos}S"


def _junction(part: int, pos: int, label: int, slot: int) -> str:
    return f"P{part}.{pos}.L{label}.J{slot}"


def _merged_contact(m: int, labels: Sequence[int]) -> tuple[str, str]:
    tag = f"E{m}.T{'_'.join(str(l) for l in labels)}"
    return f"{tag}.c1", f"{tag}.c2"


def _fallback_contact(part: int, pos: int, label: int, m: int) -> tuple[str, str]:
    tag = f"P{part}.{pos}.L{label}.E{m}"
    return f"{tag}.c1", f"{tag}.c2"


# ---------------------------------------------------------------------------
# Hypergraph construction (k demands)


def _incidence(h: KphlcInstance) -> list[list[list[int]]]:
    """Per part and vertex, the hyperedges through that vertex, in edge order."""
    incident: list[list[list[int]]] = [[[] for _ in part] for part in h.parts]
    for m, e in enumerate(h.edges):
        for t, i in enumerate(e):
            incident[t][i].append(m)
    return incident


def _gadget_edges(
    h: KphlcInstance, incident: list[list[list[int]]], buckets: list[list[list[list[int]]]]
) -> int:
    """Edge count of the compiled gadget, from the color buckets alone.

    A vertex without hyperedges is one wire.  Otherwise each (vertex,
    label, incident hyperedge) holds one contact path per agreeing tuple
    through that label, or one fallback path: two wires and a contact each,
    where a tuple's contact is shared by all k frames.  So a bucket gives
    the product of its part sizes in tuples, each with k paths and one
    contact, and a label in no bucket gives a fallback path.  Products
    saturate just above MAX_FIRST_TIME_ENTRIES: the count is exact up to
    that cap and stays above it past it.
    """
    cap = MAX_FIRST_TIME_ENTRIES + 1
    edges = sum(1 for part in incident for through in part if not through)
    for edge_buckets in buckets:
        agreeing = 0
        fallback = h.k * h.num_labels
        for parts in edge_buckets:
            n = 1
            for labels in parts:
                n = min(n * len(labels), cap)
                fallback -= len(labels)
            agreeing += n
        edges += (2 * h.k + 1) * agreeing + 3 * fallback
    return edges


def phlc_to_kdtsn(h: KphlcInstance) -> tuple[TemporalInstance, GadgetTrace]:
    """Compile a k-partite constraint hypergraph into a k-frame instance.

    Frame t chains one bundle per part-t vertex; a strand exists per label,
    chaining one sub-bundle per incident hyperedge with one contact path per
    agreeing label k-tuple.  Tuple paths are shared across all k frames.
    A gadget of more than MAX_FIRST_TIME_ENTRIES edges is refused before
    anything is built.
    """
    incidence = _incidence(h)
    buckets = [_color_buckets(h, m) for m in range(len(h.edges))]
    size = _gadget_edges(h, incidence, buckets)
    check_budget(size, "gadget would need at least {} edges", size)
    b = _Builder()
    bundles: list[BundleInfo] = []
    agreeing = [_tuples(edge_buckets) for edge_buckets in buckets]
    for t in range(h.k):
        part_no = t + 1
        for i, incident in enumerate(incidence[t]):
            src = b.vertex(_endpoint(part_no, i + 1))
            snk = b.vertex(_endpoint(part_no, i + 2))
            if not incident:
                b.wire(src, snk, part_no)
                bundles.append(BundleInfo(part_no, i, src, snk, ()))
                continue
            strands = []
            for l in range(h.num_labels):
                chain = []
                prev = src
                for pos, m in enumerate(incident):
                    nxt = (
                        snk
                        if pos == len(incident) - 1
                        else b.vertex(_junction(part_no, i + 1, l, pos + 1))
                    )
                    # one contact path per agreeing tuple through label l,
                    # or a single unshared fallback path when there is none
                    paths = [
                        (*_merged_contact(m, tup), ContactInfo(hyperedge=m, labels=tup))
                        for tup in agreeing[m]
                        if tup[t] == l
                    ] or [
                        (
                            *_fallback_contact(part_no, i + 1, l, m),
                            ContactInfo(
                                hyperedge=m, labels=None, part=part_no, vertex=i, strand_label=l
                            ),
                        )
                    ]
                    ids = []
                    for c1, c2, info in paths:
                        ids.append(b.contact(c1, c2, part_no, info))
                        b.wire(prev, c1, part_no)
                        b.wire(c2, nxt, part_no)
                    chain.append((m, tuple(ids)))
                    prev = nxt
                strands.append((l, tuple(chain)))
            bundles.append(BundleInfo(part_no, i, src, snk, tuple(strands)))
    demands = tuple(
        Demand(_endpoint(t + 1, 1), _endpoint(t + 1, len(h.parts[t]) + 1), t + 1)
        for t in range(h.k)
    )
    instance = b.finish(h.k, demands)
    return instance, GadgetTrace(contacts=b.contacts, bundles=tuple(bundles))


# ---------------------------------------------------------------------------
# Instance generators
#
# Incidence skeletons are "staircases": consecutive vertices get consecutive,
# monotonically advancing blocks of constraint edges.  With every part
# ordered the same way no two contact paths can appear in opposite orders in
# two frames, which keeps the merged underlying graph acyclic.  (Crossing
# incidence patterns, e.g. a four-cycle, can make the union of frames cyclic
# even though each individual frame is always a DAG.)


def example1_label_cover() -> KphlcInstance:
    """Single-edge toy instance: both left labels and the second right label
    share a color, the first right label is alone (so the optimum selects
    either merged contact path, at total cost 1)."""
    return KphlcInstance(
        parts=(("u",), ("v",)),
        edges=((0, 0),),
        num_labels=2,
        num_colors=2,
        projections=(((0, 0), (1, 0)),),
    )


def _planted(parts: tuple, edges: tuple, num_labels: int, seed: int) -> KphlcInstance:
    """Constraint graph with a planted strongly-satisfying labeling.

    The hidden labels are drawn part by part, then one table per part per
    edge: the hidden label maps to the reserved color 0, every other label
    to a random color (which may create extra agreements but never destroys
    satisfiability).
    """
    rng = random.Random(seed)
    hidden = [[rng.randrange(num_labels) for _ in part] for part in parts]
    num_colors = 2 * num_labels + 1
    projections = []
    for e in edges:
        tables = []
        for t, v in enumerate(e):
            tab = [rng.randrange(1, num_colors) for _ in range(num_labels)]
            tab[hidden[t][v]] = 0
            tables.append(tuple(tab))
        projections.append(tuple(tables))
    return KphlcInstance(
        parts=parts,
        edges=edges,
        num_labels=num_labels,
        num_colors=num_colors,
        projections=tuple(projections),
    )


def _check_size(part_sizes: Sequence[int], num_edges: int, num_labels: int) -> None:
    """Refuse, before anything is built, a constraint graph whose strands
    (one per vertex and label) or projection tables (one entry per edge,
    part and label) would exceed MAX_FIRST_TIME_ENTRIES."""
    strands = sum(part_sizes) * num_labels
    entries = num_edges * len(part_sizes) * num_labels
    check_budget(max(strands, entries),
                 "constraint graph would need {} strands and {} table entries", strands, entries)


def _staircase_blocks(n_sources: int, n_targets: int, degree: int) -> list[list[int]]:
    blocks = []
    for i in range(n_sources):
        if n_sources == 1:
            start = 0
        else:
            start = round(i * (n_targets - degree) / (n_sources - 1))
        blocks.append(list(range(start, start + degree)))
    return blocks


def gen_yes_lc(
    num_left: int, num_right: int, degree: int, num_labels: int, seed: int
) -> KphlcInstance:
    """Bipartite (k = 2) instance with a planted total labeling."""
    if num_left < 1 or num_right < 1:
        raise InputError("need at least one left and one right vertex")
    if degree < 0:
        raise InputError("degree cannot be negative")
    if num_labels < 1:
        raise InputError("need at least one label")
    if degree > num_right:
        raise InputError("degree cannot exceed the number of right vertices")
    _check_size((num_left, num_right), num_left * degree, num_labels)
    blocks = _staircase_blocks(num_left, num_right, degree)
    parts = (
        tuple(f"u{i+1}" for i in range(num_left)),
        tuple(f"v{j+1}" for j in range(num_right)),
    )
    edges = tuple((i, j) for i in range(num_left) for j in blocks[i])
    return _planted(parts, edges, num_labels, seed)


def _staircase_hyperedges(part_sizes: Sequence[int], num_edges: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for j in range(num_edges):
        out.append(tuple(j * size // num_edges for size in part_sizes))
    return tuple(out)


def _check_phlc_args(k: int, part_sizes: Sequence[int], num_edges: int, num_labels: int) -> None:
    if k < 2 or len(part_sizes) != k:
        raise InputError("need k >= 2 and one size per part")
    if min(part_sizes) < 1:
        raise InputError("every part needs at least one vertex")
    if num_edges < 0:
        raise InputError("hyperedge count cannot be negative")
    if num_labels < 1:
        raise InputError("need at least one label")
    _check_size(part_sizes, num_edges, num_labels)


def _phlc_parts(part_sizes: Sequence[int]) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(f"p{t+1}.{i+1}" for i in range(n)) for t, n in enumerate(part_sizes))


def gen_yes_phlc(
    k: int, part_sizes: Sequence[int], num_edges: int, num_labels: int, seed: int
) -> KphlcInstance:
    """k-partite hypergraph with a planted strongly-satisfying labeling."""
    _check_phlc_args(k, part_sizes, num_edges, num_labels)
    edges = _staircase_hyperedges(part_sizes, num_edges)
    return _planted(_phlc_parts(part_sizes), edges, num_labels, seed)


def gen_nosat_phlc(
    k: int, part_sizes: Sequence[int], num_edges: int, num_labels: int, seed: int = 0
) -> KphlcInstance:
    """k-partite hypergraph in which no hyperedge is even weakly
    satisfiable: on every edge, each (part, label) slot gets its own color."""
    _check_phlc_args(k, part_sizes, num_edges, num_labels)
    edges = _staircase_hyperedges(part_sizes, num_edges)
    tables = tuple(tuple(1 + t * num_labels + l for l in range(num_labels)) for t in range(k))
    return KphlcInstance(
        parts=_phlc_parts(part_sizes),
        edges=edges,
        num_labels=num_labels,
        num_colors=1 + k * num_labels,
        projections=tuple(tables for _ in edges),
    )


# ---------------------------------------------------------------------------
# JSON forms for the CLI


def lc_to_dict(lc: KphlcInstance) -> dict:
    """Bipartite form of a k = 2 constraint graph: parts as left and right."""
    left, right = lc.parts
    return {
        "left": list(left),
        "right": list(right),
        "edges": [list(e) for e in lc.edges],
        "num_labels": lc.num_labels,
        "num_colors": lc.num_colors,
        "projections": [[list(pl), list(pr)] for pl, pr in lc.projections],
    }


def phlc_to_dict(h: KphlcInstance) -> dict:
    return {
        "parts": [list(p) for p in h.parts],
        "edges": [list(e) for e in h.edges],
        "num_labels": h.num_labels,
        "num_colors": h.num_colors,
        "projections": [[list(t) for t in tabs] for tabs in h.projections],
    }
