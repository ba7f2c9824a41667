"""Temporal Steiner network toolkit: instances, reductions, approximation
algorithms, exact solvers and hardness-gadget generators.

`import tsn` imports no submodule.  Each name of `__all__` is looked up in
its module on access (PEP 562), and that module is imported the first time,
so `from tsn import make_instance` loads `tsn.core` alone.
"""

import importlib

# every public name -> the submodule that defines it; a submodule's own name
# maps to itself
_SOURCE = {
    name: module
    for module, names in {
        "core": (
            "Demand", "Edge", "InfeasibleInstanceError", "InputError", "InternalError",
            "Solution", "TemporalInstance", "is_acyclic", "is_feasible", "is_monotonic",
            "make_instance", "satisfies", "solution_cost", "solution_from_edges", "validate",
        ),
        "exact": ("brute_force", "build_ilp", "emit_lp", "parse_lp", "solve_bb"),
        "approx": (
            "charikar", "charikar_level", "expand_tree", "metric_closure",
            "shortest_paths_union",
        ),
        "variants": ("ReductionMap", "node_edge_to_node", "node_to_edge", "normalize", "to_simple"),
        "monotonic": (
            "DstInstance", "PriorityInstance", "normalize_to_time_layered_tree",
            "priority_to_tsn", "single_source_to_dst", "tsn_to_priority",
        ),
        "hardness": (
            "KphlcInstance", "gen_nosat_phlc", "gen_yes_lc", "gen_yes_phlc", "phlc_to_kdtsn",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *__all__})
