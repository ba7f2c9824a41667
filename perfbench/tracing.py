"""In-memory spans around the public functions of every `tsn` module.

`Tracer.install()` replaces each public function of the traced modules by a
wrapper that records a span: function, start, end and parent span.  Where a
module imported a function by name (`tsn.exact.first_unsatisfiable_demand`,
`tsn.cli.is_feasible`, ...) the wrapper replaces that name too, so calls
through either name are seen.  `uninstall()` puts the originals back.  The
program's sources are not touched.

A layer's self time is the summed duration of its spans minus the part of
each covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("cli", "core", "variants", "exact", "approx", "monotonic", "hardness")

# Leaf helpers called once per edge or per greedy candidate inside the
# kernels' inner loops.  A span costs about a microsecond, so wrapping these
# would multiply the traced run's time; their time stays in the caller's
# self time.
UNWRAPPED = {"core.effective_times", "approx.covered_pairs", "variants.fresh_name"}

# Self-time layers named in the benchmark's per-layer metrics.
LAYERS = {
    "core.check_s": ("core.is_feasible", "core.satisfies", "core.first_unsatisfiable_demand"),
    "core.load_s": ("core.load_json", "core.instance_from_dict", "core.solution_from_dict"),
    "core.validate_s": ("core.validate", "core.check_valid"),
    "core.digest_s": ("core.is_monotonic", "core.is_acyclic"),
    "core.dump_s": ("core.dump_json", "core.instance_to_dict", "core.solution_to_dict"),
    "exact.bb_s": ("exact.solve_bb",),
    "exact.brute_s": ("exact.brute_force",),
    "exact.build_ilp_s": ("exact.build_ilp",),
    "exact.emit_lp_s": ("exact.emit_lp",),
    "approx.greedy_s": ("approx.charikar_level",),
    "approx.closure_s": ("approx.metric_closure",),
    "approx.expand_s": ("approx.expand_tree",),
    "approx.union_s": ("approx.shortest_paths_union",),
    "monotonic.dst_s": ("monotonic.single_source_to_dst", "monotonic.dst_to_dict"),
    "variants.normalize_s": ("variants.normalize", "variants.normalize_with_instances",
                             "variants.node_to_edge", "variants.node_edge_to_node"),
    "variants.to_simple_s": ("variants.to_simple",),
    "variants.lift_s": ("variants.lift_solution", "variants.lift_chain"),
}
# every other function of these modules counts toward the module's layer
MODULE_LAYERS = {"cli": "cli.self_s", "hardness": "hardness.gen_s"}
OTHER = "trace.other_s"

GREEDY = "approx.charikar_level"


def layer_of(name: str) -> str:
    for layer, names in LAYERS.items():
        if name in names:
            return layer
    return MODULE_LAYERS.get(name.split(".", 1)[0], OTHER)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (function id, start, end, parent span index or -1)
        self.spans: list = []
        self.memo_entries = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        greedy = name == GREEDY
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((fid, 0.0, 0.0, parent))  # completed on return
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
                # memo size after each outermost greedy call
                if greedy and (parent < 0 or tracer.names[spans[parent][0]] != GREEDY):
                    cache = kwargs.get("_cache", args[5] if len(args) > 5 else None)
                    tracer.memo_entries += len(cache or ())

        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = {name: importlib.import_module(f"tsn.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(obj, name)
        for mod in (importlib.import_module("tsn"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict:
        """Self time per layer, and call counts per function, over the spans
        with index in [first, last)."""
        spans = self.spans
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            _, start, end, parent = spans[i]
            if parent >= first:
                child_time[parent - first] += end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_cache: dict[int, str] = {}
        for i in range(first, last):
            fid, start, end, _ = spans[i]
            layer = layer_cache.get(fid)
            if layer is None:
                layer = layer_cache[fid] = layer_of(self.names[fid])
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i - first]
            name = self.names[fid]
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_time, "calls": calls}

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, function, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tfunction\tstart_s\tend_s\tparent\n")
            for i, (fid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
