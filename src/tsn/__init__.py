"""Temporal Steiner network toolkit: instances, reductions, approximation
algorithms, exact solvers and hardness-gadget generators."""

from .core import (
    Demand,
    Edge,
    InfeasibleInstanceError,
    InputError,
    InternalError,
    Solution,
    TemporalInstance,
    is_acyclic,
    is_feasible,
    is_monotonic,
    make_instance,
    satisfies,
    solution_cost,
    solution_from_edges,
    validate,
)
from .exact import brute_force, build_ilp, emit_lp, parse_lp, solve_bb
from .approx import charikar, charikar_level, expand_tree, metric_closure, shortest_paths_union
from .variants import (
    ReductionMap,
    node_edge_to_node,
    node_to_edge,
    normalize,
    to_simple,
)
from .monotonic import (
    DstInstance,
    PriorityInstance,
    normalize_to_time_layered_tree,
    priority_to_tsn,
    single_source_to_dst,
    tsn_to_priority,
)
from .hardness import (
    KphlcInstance,
    gen_nosat_phlc,
    gen_yes_lc,
    gen_yes_phlc,
    phlc_to_kdtsn,
)

__all__ = [name for name in dir() if not name.startswith("_")]
