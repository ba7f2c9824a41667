"""Which `tsn` modules a process loads: `import tsn` loads none, and each
command loads only the modules it runs.  Every check starts a fresh
interpreter, since this one has loaded the whole package."""

import json
import os
import subprocess
import sys

import pytest

import tsn
from tsn.cli import main

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsn.__file__)))

# prints the sorted `tsn.*` modules loaded after `code` runs, as a JSON list
LOADED = ("import json, sys\n{code}\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tsn.'))))")

# `sorted(tsn.__all__)` as it read when `__init__` imported every module,
# the submodules' own names included, less `priority_to_tsn`: no program
# reads the converse priority reduction, so it lives in tests/helpers.py
ALL = [
    "Demand", "DstInstance", "Edge", "InfeasibleInstanceError", "InputError", "InternalError",
    "KphlcInstance", "PriorityInstance", "ReductionMap", "Solution", "TemporalInstance",
    "approx", "brute_force", "build_ilp", "charikar", "charikar_level", "core", "emit_lp",
    "exact", "expand_tree", "gen_nosat_phlc", "gen_yes_lc", "gen_yes_phlc", "hardness",
    "is_acyclic", "is_feasible", "is_monotonic", "make_instance", "metric_closure",
    "monotonic", "node_edge_to_node", "node_to_edge", "normalize",
    "normalize_to_time_layered_tree", "parse_lp", "phlc_to_kdtsn", "satisfies",
    "shortest_paths_union", "single_source_to_dst", "solution_cost",
    "solution_from_edges", "solve_bb", "to_simple", "tsn_to_priority", "validate", "variants",
]

GREEDY = ["approx", "cli", "core"]  # every library module imports `core` alone

# each command's argv, and the `tsn` modules loaded once it has run
FOOTPRINT = [
    (["validate", "-i", "ex1.json"], ["cli", "core"]),
    (["verify", "-i", "ex1.json", "-s", "sol.json"], ["cli", "core"]),
    (["gen", "--kind", "example1", "-o", "out.json"], ["cli", "core", "hardness"]),
    (["reduce", "--to", "simple", "-i", "ex1.json", "-o", "out.json"], ["cli", "core", "variants"]),
    (["reduce", "--to", "dst", "-i", "mono.json", "-o", "out.json"],
     ["cli", "core", "monotonic"]),
    (["solve", "-i", "ex1.json", "--method", "bb"], ["cli", "core", "exact"]),
    (["solve", "-i", "ex1.json", "--method", "ilp-export", "--lp", "out.lp"],
     ["cli", "core", "exact", "variants"]),
    (["approx", "-i", "mono.json", "--method", "charikar"], GREEDY),
    (["approx", "-i", "ex1.json", "--method", "union"], GREEDY),
    (["bench", "--kind", "example1", "--methods", "bb"], ["cli", "core", "exact", "hardness"]),
    (["bench", "--kind", "example1", "--methods", "bb,charikar"],
     sorted(GREEDY + ["exact", "hardness"])),
    # the full parser: the approx subparser's help names core.MAX_LEVEL
    (["-h"], ["cli", "core"]),
]


# runs `tsn` with the script's arguments and asserts it exits 0
RUN = "from tsn import cli\ncode = cli.main(sys.argv[1:])\nassert code == 0, code"


def loaded(code, *argv, cwd=None):
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code), *argv], cwd=cwd,
                          env=ENV, capture_output=True, text=True, timeout=60)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_import_tsn_loads_no_submodule():
    assert loaded("import tsn") == (0, [])


def test_import_cli_loads_core_alone():
    assert loaded("import tsn.cli") == (0, ["tsn.cli", "tsn.core"])


def test_library_import_loads_its_modules_alone():
    assert loaded("from tsn import make_instance, brute_force") == (0, ["tsn.core", "tsn.exact"])
    assert loaded("from tsn import charikar") == (0, ["tsn.approx", "tsn.core"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """ex1.json with its bb solution sol.json, and a monotonic single-source
    mono.json, in one directory."""
    from helpers import hub_instance
    from tsn.core import dump_json, instance_to_dict

    work = tmp_path_factory.mktemp("inputs")
    dump_json(instance_to_dict(hub_instance()), str(work / "mono.json"))
    ex1, sol = str(work / "ex1.json"), str(work / "sol.json")
    assert main(["gen", "--kind", "example1", "-o", ex1]) == 0
    assert main(["solve", "-i", ex1, "--method", "bb", "-o", sol]) == 0
    return work


@pytest.mark.parametrize("argv, modules", FOOTPRINT, ids=[" ".join(a) for a, _ in FOOTPRINT])
def test_command_loads_only_its_modules(inputs, argv, modules):
    assert loaded(RUN, *argv, cwd=inputs) == (0, [f"tsn.{m}" for m in modules])


def test_reduce_to_dst_writes_its_empty_map_without_variants(inputs):
    # the level graph reads the input's own frames, so its map holds no
    # step and needs no `variants` to write
    argv = ["reduce", "--to", "dst", "-i", "mono.json", "-o", "out.json",
            "--map", "dst-map.json"]
    assert loaded(RUN, *argv, cwd=inputs) == (0, ["tsn.cli", "tsn.core", "tsn.monotonic"])
    assert json.loads((inputs / "dst-map.json").read_text(encoding="utf-8")) == {"steps": []}


def test_all_keeps_every_name():
    assert sorted(tsn.__all__) == ALL


@pytest.mark.parametrize("name", ALL)
def test_every_name_resolves_from_its_module(name):
    namespace = {}
    exec(f"from tsn import {name}", namespace)
    obj = namespace[name]
    if name in ("core", "exact", "approx", "variants", "monotonic", "hardness"):
        assert obj is sys.modules[f"tsn.{name}"]
    else:
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert obj.__module__.startswith("tsn.")
    assert name in dir(tsn)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tsn.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from tsn import no_such_name", {})
