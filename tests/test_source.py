"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import tsn

SOURCE = Path(tsn.__file__).parent


def test_package_has_no_assert_statements():
    # internal invariants must be explicit checks raising InternalError:
    # `python -O` strips `assert` statements
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _catches_import_error(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(k, ast.Name) and k.id in ("ImportError", "ModuleNotFoundError")
               for k in kinds)


def _guarded(tree):
    """Ids of the nodes in the body of a `try` that catches ImportError."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers))
        for stmt in node.body
        for inner in ast.walk(stmt)
    }


def test_package_imports_only_stdlib():
    # the runtime is stdlib-only; an optional extra must sit in a `try`
    # that catches ImportError
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        guarded = _guarded(tree)
        for node in ast.walk(tree):
            if id(node) in guarded:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(SOURCE.parent)}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def _importers(module):
    """The package files that import `module`, by `import` or `from`."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if module in names:
                found.append(path.relative_to(SOURCE).as_posix())
    return found


def test_no_module_imports_a_private_name():
    # a name one module shares with another is public: `from .x import _y`
    # would tie a module to another's internals
    found = [
        f"{path.relative_to(SOURCE).as_posix()}:{node.lineno} imports {alias.name}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def test_only_core_imports_heapq():
    # one Dijkstra: every shortest path comes from core.FrameIndex
    assert _importers("heapq") == ["core.py"]


def test_only_cli_imports_gc():
    # the collector is paused once, around a whole command in cli.main;
    # test_cli checks that no command leaves a tsn object in cyclic garbage
    assert _importers("gc") == ["cli.py"]


def _names_read(node):
    """Names that `node` reads: loaded names, attributes and imported names."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in inner.names)


def test_name_keyed_bfs_stays_in_core():
    # `_reachable` serves `satisfies`, the independent name-keyed checker;
    # the solvers and reductions decide reachability on core.FrameIndex
    found = [
        path.relative_to(SOURCE).as_posix()
        for path in sorted(SOURCE.rglob("*.py"))
        if "_reachable" in _names_read(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == ["core.py"]


def test_every_public_function_has_a_program_reader():
    # a public function or class of the package is read by program code:
    # another top-level statement of src/tsn (re-exports in __init__ do not
    # count) or the benchmark under perfbench/.  Checkers, lifts and
    # reductions that only tests read live in tests/.
    modules = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    programs = modules + sorted((SOURCE.parent.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in programs}
    readers: dict[str, list] = {}
    for tree in trees.values():
        for stmt in tree.body:
            for name in _names_read(stmt):
                readers.setdefault(name, []).append(stmt)
    unread = [
        f"{path.stem}.{stmt.name}"
        for path in modules
        for stmt in trees[path].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and all(reader is stmt for reader in readers.get(stmt.name, ()))
    ]
    assert unread == []


def test_cli_runs_each_solver_in_one_place():
    # `_solve` maps a method name to its solver for solve, approx and bench,
    # bench's optimum column included
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    readers = {
        solver: sorted(getattr(stmt, "name", f"line {stmt.lineno}") for stmt in tree.body
                       if solver in set(_names_read(stmt)))
        for solver in ("brute_force", "solve_bb", "shortest_paths_union", "charikar")
    }
    assert readers == {
        "brute_force": ["_solve"],
        "solve_bb": ["_solve"],
        "shortest_paths_union": ["_solve"],
        "charikar": ["_solve"],
    }


def test_benchmark_imports_resolve():
    # the benchmark under perfbench/ imports program names by hand; a rename
    # in src/tsn must not leave it importing a name that is gone
    files = sorted((SOURCE.parent.parent / "perfbench").glob("*.py"))
    assert files
    missing = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {}  # local name -> module, for `from tsn import mod`
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module == "tsn":
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"tsn.{alias.name}")
            elif (node.module or "").startswith("tsn."):
                mod = importlib.import_module(node.module)
                missing += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(mod, alias.name)]
        missing += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)
        ]
    assert missing == []


def test_frame_index_reads_edge_sets_as_masks():
    # every FrameIndex method that reads an edge set takes it as a 0/1 mask
    # indexed by edge id, under one of three names; every other parameter
    # is listed here with what it is, so a new one must be placed
    masks = {"member", "included", "excluded"}
    others = {
        "self", "instance",
        "t",  # a time
        "j",  # a demand's position in `demands`
        "source", "a", "b",  # vertex ids
        "unmet",  # demand positions
        "budget",  # a scaled cost
        "weight",  # one int per edge id: a weight list, not a set
        "forbidden",  # one edge id
        "candidates",  # the order `reverse_delete` tries edges in, not a set
    }
    tree = ast.parse((SOURCE / "core.py").read_text(encoding="utf-8"))
    (index,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FrameIndex"]
    found = [
        f"{method.name}({arg.arg})"
        for method in index.body if isinstance(method, ast.FunctionDef)
        for arg in method.args.posonlyargs + method.args.args + method.args.kwonlyargs
        if arg.arg not in masks | others
    ]
    assert found == []


def test_exact_decides_on_its_index():
    # the solvers decide feasibility on core.FrameIndex; the name-keyed
    # checks stay the independent checker the tests and `verify` hold them to
    checker = {"satisfies", "is_feasible", "first_unsatisfiable_demand"}
    tree = ast.parse((SOURCE / "exact.py").read_text(encoding="utf-8"))
    found = [
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in checker
    ]
    found += [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in checker
    ]
    assert found == []


@pytest.mark.parametrize("module", ["exact.py", "approx.py"])
def test_exact_imports_no_variant_reduction(module):
    # `build_ilp`, the union and the greedy's closure read node activity
    # through `effective_times`; the reductions to the simple form are the
    # caller's
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from .variants import x` and `from . import variants` alike
            modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        if any("variants" in m.split(".") for m in modules):
            found.append(node.lineno)
    assert found == []


def test_library_modules_import_core_alone():
    # the package is star-shaped: each library module reads what it shares
    # from `core`, and only `cli` composes modules; imports inside
    # functions count too
    found = []
    for module in ("exact", "approx", "variants", "monotonic", "hardness"):
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.split(".")[0] == "tsn"]
            elif isinstance(node, ast.ImportFrom) and node.level:
                # `from .x import y` names x; `from . import x` names x
                names = [node.module] if node.module else [a.name for a in node.names]
                names = [name for name in names if name != "core"]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module.split(".")[0] == "tsn" else []
            else:
                continue
            found += [f"{module}.py:{node.lineno} imports {name}" for name in names]
    assert found == []


def test_cli_binds_no_module_level_container():
    # per-call state lives on the parsed arguments, so one parser can serve
    # every `main` call
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    containers = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    found = [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (isinstance(node.value, containers) or (
            isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("list", "dict", "set")
        ))
    ]
    assert found == []


def test_only_core_and_variants_branch_on_the_variant():
    # `core.effective_times` decides each edge's frames per variant and
    # `variants` holds the reductions between variants; every other module
    # reads frames through them
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in ("core.py", "variants.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Compare)
        and any(isinstance(x, ast.Attribute) and x.attr == "variant"
                for x in [node.left, *node.comparators])
    ]
    assert found == []


def test_only_core_compares_with_the_size_budget():
    # one size policy: every guard is a call to core.check_budget, the one
    # comparison with MAX_FIRST_TIME_ENTRIES
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = {
            id(inner)
            for node in tree.body
            if path.name == "core.py" and isinstance(node, ast.FunctionDef)
            and node.name == "check_budget"
            for inner in ast.walk(node)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in allowed
            and "MAX_FIRST_TIME_ENTRIES" in _names_read(node)
        ]
    assert found == []


def _calls(tree):
    """(name of the top-level function or class it lies in, or None; call)
    for every call in a module."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, node


def test_only_dump_json_encodes_json_for_a_file():
    # one writer of JSON files, `core.dump_json`, in the layout the C
    # encoder writes; every other `json.dumps` is printed to stdout
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        printed = {
            id(arg)
            for _, node in _calls(tree)
            if isinstance(node.func, ast.Name) and node.func.id == "print"
            for arg in node.args
        }
        found += [
            f"{path.name}:{owner}"
            for owner, node in _calls(tree)
            if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json" and node.func.attr in ("dump", "dumps", "JSONEncoder")
            and id(node) not in printed
        ]
    assert found == ["core.py:dump_json"]


def test_only_the_stdout_report_is_indented():
    # output files are one line (`core.dump_json`); `cli._report` prints the
    # run report indented for a reader at the terminal
    found = [
        f"{path.name}:{owner}"
        for path in sorted(SOURCE.glob("*.py"))
        for owner, node in _calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == ["cli.py:_report"]
