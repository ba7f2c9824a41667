import argparse
import csv
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import tsn
from helpers import hub_instance, rand_feasible_instance, rand_monotonic_single_source
from tsn.approx import MAX_LEVEL
from tsn.cli import OUT_OF_MEMORY, main
from tsn.core import (
    InputError,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_json,
    make_instance,
)


def write_instance(path, instance):
    dump_json(instance_to_dict(instance), str(path))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


# a malformed field: (id, patch, twin, detail).  `twin` is None or, per
# key, a well-formed record of equal Python value (1 == 1.0 == True) that
# the reader meets first in the same list or object, since a reader that
# shares one parsed value per distinct raw value must not let the twin's
# value stand for the malformed one.  `detail`, when given, is the error.
GOOD_EDGE = {"edges": {"u": "b", "v": "a", "w": 1, "times": [1, 2]}}
GOOD_ACTIVITY = {"node_activity": {"a": [1, 2]}}
MALFORMED = [
    ("node_activity_list", {"node_activity": [1]}, None, None),
    ("edges_object", {"edges": {"x": 1}}, None, None),
    ("times_string", {"edges": [{"u": "a", "v": "b", "w": 1, "times": "12"}]}, None, None),
    ("vertices_string", {"vertices": "ab"}, None, None),
    ("T_float", {"T": 2.5}, None, None),
    ("T_bool", {"T": True}, None, None),
    ("demand_time_float", {"demands": [{"a": "a", "b": "b", "t": 1.9}]}, None, None),
    ("demand_time_string", {"demands": [{"a": "a", "b": "b", "t": "1"}]}, None, None),
    ("edge_time_float", {"edges": [{"u": "a", "v": "b", "w": 1, "times": [1.0, 2]}]},
     GOOD_EDGE, "time must be a JSON int, got 1.0"),
    ("edge_time_bool", {"edges": [{"u": "a", "v": "b", "w": 1, "times": [True, 2]}]},
     GOOD_EDGE, "time must be a JSON int, got True"),
    ("first_time_float", {"edges": [{"u": "a", "v": "b", "w": 1, "first_time": 1.5}]},
     None, None),
    ("directed_string", {"directed": "false"}, None, None),
    ("allow_parallel_string", {"allow_parallel": "false"}, None, None),
    ("weight_exponent", {"edges": [{"u": "a", "v": "b", "w": "1e999999", "times": [1, 2]}]},
     None, None),
    ("vertex_int", {"vertices": ["a", "b", 1]}, None, None),
    ("vertex_null", {"vertices": ["a", "b", None]}, None, None),
    ("vertices_object", {"vertices": {"a": 1, "b": 2}}, None, None),
    ("edge_endpoint_int", {"edges": [{"u": "a", "v": 1, "w": 1, "times": [1, 2]}]}, None, None),
    ("edge_endpoint_null", {"edges": [{"u": None, "v": "b", "w": 1, "times": [1, 2]}]},
     None, None),
    ("demand_endpoint_null", {"demands": [{"a": "a", "b": None, "t": 1}]}, None, None),
    ("demand_endpoint_list", {"demands": [{"a": ["a"], "b": "b", "t": 1}]}, None, None),
    ("weight_bool", {"edges": [{"u": "a", "v": "b", "w": True, "times": [1, 2]}]},
     GOOD_EDGE, "bad weight True"),
    ("weight_word", {"edges": [{"u": "a", "v": "b", "w": "abc", "times": [1, 2]}]}, None, None),
    ("weight_zero_denominator", {"edges": [{"u": "a", "v": "b", "w": "1/0", "times": [1, 2]}]},
     None, None),
    ("weight_nan", {"edges": [{"u": "a", "v": "b", "w": float("nan"), "times": [1, 2]}]},
     None, None),
    ("weight_list", {"edges": [{"u": "a", "v": "b", "w": [1], "times": [1, 2]}]},
     GOOD_EDGE, "bad weight [1]"),
    ("weight_object", {"edges": [{"u": "a", "v": "b", "w": {"n": 1}, "times": [1, 2]}]},
     GOOD_EDGE, "bad weight {'n': 1}"),
    # the time list is read before the endpoints, so its error is the one told
    ("times_and_endpoint", {"edges": [{"u": 1, "v": "b", "w": 1, "times": [1.0, 2]}]},
     GOOD_EDGE, "time must be a JSON int, got 1.0"),
    ("activity_time_bool", {"variant": "node", "node_activity": {"b": [True, 2]}},
     GOOD_ACTIVITY, "time must be a JSON int, got True"),
    ("activity_time_float", {"variant": "node", "node_activity": {"b": [1.0, 2]}},
     GOOD_ACTIVITY, "time must be a JSON int, got 1.0"),
]
# each case alone, and those with a twin once more after it
MALFORMED_CASES = [
    pytest.param(patch, twin if suffix else None, detail, id=f"{name}{suffix}")
    for name, patch, twin, detail in MALFORMED
    for suffix in ("", "-after_twin") if twin is not None or not suffix
]


def huge_horizon(t):
    """Edge instance over T = 10^12 with one edge a->b active at time t
    only and one demand a->b at time t."""
    return {
        "directed": True, "variant": "edge", "T": 10**12, "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "w": 1, "times": [t]}],
        "demands": [{"a": "a", "b": "b", "t": t}],
    }


def run_capped(*argv, cwd=None):
    """`python -m tsn.cli argv` under a 1 GiB address-space cap, so a
    command that materialises a huge horizon fails here instead of
    exhausting host memory."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsn.__file__)))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "tsn.cli", *map(str, argv)], cwd=cwd,
        env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=60,
    )


def run_write_capped(*argv, cwd=None):
    """`python -m tsn.cli argv` allowed files of at most 200 bytes, so a
    longer output fails part way through its write (`File too large`)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsn.__file__)),
               PYTHONDONTWRITEBYTECODE="1")

    def cap_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))

    return subprocess.run(
        [sys.executable, "-m", "tsn.cli", *map(str, argv)], cwd=cwd,
        env=env, preexec_fn=cap_file_size, capture_output=True, text=True, timeout=60,
    )


def assert_one_input_error(proc):
    """One JSON line, exit 2, from a check: under `run_capped` a guard that
    gives way runs out of memory, whose exit-2 line fails here."""
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == "input"
    assert report["detail"] != OUT_OF_MEMORY


@pytest.fixture
def example1_file(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    code, _ = run(capsys, "gen", "--kind", "example1", "-o", path)
    assert code == 0
    return path


class TestValidate:
    def test_well_formed_exits_zero(self, tmp_path, capsys, example1_file):
        code, out = run(capsys, "validate", "-i", example1_file)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        digest = report["digest"]
        assert digest["directed"] is True
        assert digest["acyclic"] is True
        assert digest["T"] == 2
        assert digest["demands"] == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "validate", "-i", bad)
        assert code == 2

    def test_invariant_violation_exits_two(self, tmp_path, capsys):
        inst = make_instance(
            directed=False, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("a", "b", -1, (1,))], demands=[],
        )
        path = tmp_path / "neg.json"
        write_instance(path, inst)
        code, out = run(capsys, "validate", "-i", path)
        assert code == 2
        assert json.loads(out)["violations"]

    @pytest.mark.parametrize("patch, twin, detail", MALFORMED_CASES)
    def test_malformed_shape_is_an_input_error(self, tmp_path, capsys, patch, twin, detail):
        data = {
            "directed": True, "variant": "edge", "T": 2, "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "w": 1, "times": [1, 2]}],
            "demands": [{"a": "a", "b": "b", "t": 1}],
        }
        data.update(patch)
        for key, good in (twin or {}).items():
            # the well-formed twin is read first, in the same list or object
            data[key] = [good, *data[key]] if isinstance(data[key], list) else {**good, **data[key]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "validate", "-i", path)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"
        if detail is not None:
            assert json.loads(lines[0])["detail"] == f"malformed instance: {detail}"

    @pytest.mark.parametrize(
        "raw", [b"[" * 100_000, b'{"T": "\xff"}'], ids=["nested_too_deep", "not_utf8"]
    )
    def test_undecodable_file_is_an_input_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out = run(capsys, "validate", "-i", path)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    @pytest.mark.parametrize("raw, kind", [("[1, 2]", "list"), ('"x"', "str")],
                             ids=["array", "string"])
    def test_non_object_document_is_an_input_error(self, tmp_path, capsys, raw, kind):
        path = tmp_path / "bad.json"
        path.write_text(raw)
        code, out = run(capsys, "validate", "-i", path)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["detail"] == f"instance must be a JSON object, got {kind}"

    def test_huge_time_horizon_stays_small(self, tmp_path):
        # one edge active at time 1 out of 10^12: the monotonicity check
        # must not materialise the horizon
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_horizon(1)))
        proc = run_capped("validate", "-i", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["digest"]["monotonic"] is False

    @pytest.mark.parametrize("argv", [
        ["reduce", "--to", "node", "-o", "out.json"],
        ["reduce", "--to", "node_and_edge", "-o", "out.json"],
        ["reduce", "--to", "simple", "-o", "out.json"],
        ["solve", "--method", "ilp-export", "--lp", "out.lp"],
    ], ids=["node", "node_and_edge", "simple", "ilp_export"])
    def test_huge_time_horizon_embedding_is_an_input_error(self, tmp_path, argv):
        # the node_and_edge embedding would list all 10^12 times per vertex
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_horizon(1)))
        proc = run_capped(*argv, "-i", path, cwd=tmp_path)
        assert_one_input_error(proc)

    def test_huge_time_horizon_closure_is_an_input_error(self, tmp_path):
        # monotonic: the one edge and the one demand are both at time 10^12,
        # but the closure would hold |V|^2 * 10^12 entries
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_horizon(10**12)))
        proc = run_capped("approx", "--method", "charikar", "--level", "1", "-i", path)
        assert_one_input_error(proc)

    def test_huge_first_time_expansion_is_an_input_error(self, tmp_path):
        # "first_time": 1 with T = 10^12 would expand to 10^12 times; the
        # reader must refuse it (exit 2) before building the set, under the
        # same 1 GiB address-space cap as above
        data = {
            "directed": True, "variant": "edge", "T": 10**12, "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "w": 1, "first_time": 1}],
            "demands": [{"a": "a", "b": "b", "t": 1}],
        }
        path = tmp_path / "huge_first_time.json"
        path.write_text(json.dumps(data))
        assert_one_input_error(run_capped("validate", "-i", path))

    def test_first_time_expansion_up_to_the_cap_is_read(self):
        from tsn.core import MAX_FIRST_TIME_ENTRIES

        data = {
            "directed": True, "variant": "edge", "T": 10, "vertices": ["a", "b", "c"],
            "edges": [{"u": "a", "v": "b", "w": 1, "first_time": 3},
                      {"u": "b", "v": "c", "w": 1, "first_time": 11}],
            "demands": [],
        }
        inst = instance_from_dict(data)
        assert inst.edges[0].times == frozenset(range(3, 11))
        assert inst.edges[1].times == frozenset()
        data["T"] = MAX_FIRST_TIME_ENTRIES
        data["edges"][0]["first_time"] = 1
        data["edges"][1]["first_time"] = MAX_FIRST_TIME_ENTRIES + 1
        assert len(instance_from_dict(data).edges[0].times) == MAX_FIRST_TIME_ENTRIES
        data["edges"][1]["first_time"] = MAX_FIRST_TIME_ENTRIES
        with pytest.raises(InputError):
            instance_from_dict(data)


class TestSolve:
    def test_brute_on_example1(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "brute", "-o", sol)
        assert code == 0
        assert json.loads(out)["cost"] == "1"
        data = load_json(str(sol))
        assert data["cost"] == "1" and data["feasible"] is True

    def test_brute_reports_its_search(self, capsys, example1_file):
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "brute")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert set(stats) == {"completion_tests", "improvements"}
        assert stats["completion_tests"] >= stats["improvements"] >= 1

    def test_brute_cap_counts_positive_edges(self, tmp_path, capsys):
        # the zero-weight wiring is never branched on, so a gadget of 21
        # edges, 5 of them positive, is within the default cap of 20
        path = tmp_path / "lc.json"
        code, _ = run(capsys, "gen", "--kind", "lc-yes", "--u", "2", "--v", "2",
                      "--degree", "1", "--sigma", "2", "--seed", "0", "-o", path)
        assert code == 0
        edges = load_json(str(path))["edges"]
        assert len(edges) == 21 and sum(Fraction(e["w"]) > 0 for e in edges) == 5
        costs = {}
        for method in ("brute", "bb"):
            code, out = run(capsys, "solve", "-i", path, "--method", method)
            assert code == 0
            costs[method] = json.loads(out)["cost"]
        assert costs["brute"] == costs["bb"]

    def test_brute_cap_refuses_21_positive_edges(self, tmp_path, capsys):
        path = tmp_path / "path21.json"
        write_instance(path, make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=[f"v{i}" for i in range(22)],
            edges=[(f"v{i}", f"v{i + 1}", 1, (1,)) for i in range(21)],
            demands=[("v0", "v21", 1)],
        ))
        code, out = run(capsys, "solve", "-i", path, "--method", "brute")
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "input"
        assert report["detail"] == "instance has 21 positive-weight edges, brute-force cap is 20"

    def test_bb_reports_nodes(self, tmp_path, capsys, example1_file):
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "bb")
        assert code == 0
        assert json.loads(out)["stats"]["nodes"] > 0

    @pytest.mark.parametrize(
        "gen_args",
        [
            ["--kind", "example1"],
            ["--kind", "phlc-nosat", "--k", "3", "--part-sizes", "2,2,2", "--edges", "3"],
        ],
        ids=["example1", "phlc-nosat-k3"],
    )
    def test_bb_reports_bounds_and_prunes(self, tmp_path, capsys, gen_args):
        inst = tmp_path / "inst.json"
        assert run(capsys, "gen", *gen_args, "-o", inst)[0] == 0
        code, out = run(capsys, "solve", "-i", inst, "--method", "bb")
        assert code == 0
        report = json.loads(out)
        stats = report["stats"]
        assert set(stats) == {
            "nodes", "completion_prunes", "dual_ascent_prunes", "incumbent_updates",
            "local_search_improvements", "root_lower_bound", "root_upper_bound",
        }
        lower, upper = Fraction(stats["root_lower_bound"]), Fraction(stats["root_upper_bound"])
        assert lower <= Fraction(report["cost"]) <= upper
        assert stats["incumbent_updates"] >= 1
        assert stats["completion_prunes"] + stats["dual_ascent_prunes"] < stats["nodes"]

    def test_bb_writes_the_same_bytes_on_every_run(self, tmp_path):
        # a draw where the local search improves the root incumbent and the
        # search goes past the root; two processes with different string
        # hash seeds must still pick the same optimum
        inst = rand_feasible_instance(
            random.Random(56), max_vertices=8, max_edges=16, max_times=3, max_demands=5
        )
        write_instance(tmp_path / "inst.json", inst)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsn.__file__)))
        written = []
        for seed in ("0", "1"):
            out = tmp_path / f"bb{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "tsn.cli", "solve", "-i", str(tmp_path / "inst.json"),
                 "--method", "bb", "-o", str(out)],
                env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            stats = json.loads(proc.stdout)["stats"]
            assert stats["local_search_improvements"] >= 1 and stats["nodes"] > 1
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_infeasible_exits_one(self, tmp_path, capsys):
        inst = make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("b", "a", 1, (1,))],
            demands=[("a", "b", 1)],
        )
        path = tmp_path / "inf.json"
        write_instance(path, inst)
        code, out = run(capsys, "solve", "-i", path, "--method", "brute")
        assert code == 1
        assert json.loads(out)["error"] == "infeasible"

    def test_ilp_export(self, tmp_path, capsys, example1_file):
        lp = tmp_path / "model.lp"
        code, out = run(
            capsys, "solve", "-i", example1_file, "--method", "ilp-export", "--lp", lp
        )
        assert code == 0
        text = lp.read_text()
        assert text.startswith("Minimize") or text.startswith("\\")
        assert "Binary" in text and text.rstrip().endswith("End")

    def test_ilp_export_without_lp_builds_nothing(self, capsys, example1_file, monkeypatch):
        from tsn import cli, exact

        def fail(*_):
            raise AssertionError("the input was loaded or the model built before --lp was checked")

        monkeypatch.setattr(exact, "build_ilp", fail)
        monkeypatch.setattr(cli, "_load_instance", fail)
        code = main(["solve", "-i", str(example1_file), "--method", "ilp-export"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "input"
        assert captured.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["--method", "ilp-export", "--lp", "m.lp", "-o", "sol.json"], "-o is for bb and brute"),
        (["--method", "bb", "--lp", "m.lp"], "not by bb"),
        (["--method", "brute", "--lp", "m.lp", "-o", "sol.json"], "not by brute"),
    ], ids=["ilp-export-with-output", "bb-with-lp", "brute-with-lp"])
    def test_misplaced_flag_is_refused_before_loading(
        self, tmp_path, capsys, example1_file, monkeypatch, argv, message
    ):
        # each flag used to be ignored without a word, so the file it names
        # was never written
        from tsn import cli

        def fail(*_):
            raise AssertionError("the input was loaded before the flags were checked")

        monkeypatch.setattr(cli, "_load_instance", fail)
        monkeypatch.chdir(tmp_path)
        code = main(["solve", "-i", str(example1_file), *argv])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "input" and message in report["detail"]
        assert captured.err == ""
        assert sorted(os.listdir(tmp_path)) == ["ex1.json"]

    def test_report_checks_feasibility(self, tmp_path, capsys, example1_file, monkeypatch):
        # a solver that returns an infeasible solution must not be reported
        # feasible, with or without -o
        from tsn import exact
        from tsn.core import Solution

        monkeypatch.setattr(exact, "solve_bb", lambda *_: Solution((), Fraction(0)))
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "bb")
        assert code == 0 and json.loads(out)["feasible"] is False
        sol = tmp_path / "sol.json"
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "bb", "-o", sol)
        assert code == 0 and json.loads(out)["feasible"] is False
        assert load_json(str(sol))["feasible"] is False

    def test_failed_invariant_exits_three(self, tmp_path, capsys, example1_file, monkeypatch):
        # a demand check that passes the whole edge set and rejects every
        # other set breaks brute force's invariant that its optimum meets
        # every demand; the explicit check survives `python -O` and maps to
        # exit 3
        from tsn import exact

        first_unmet = exact.FrameIndex.first_unmet
        checked = []

        def rejecting(self, member):
            if checked:
                return self.demands[0][3]
            checked.append(member)
            return first_unmet(self, member)

        monkeypatch.setattr(exact.FrameIndex, "first_unmet", rejecting)
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "brute")
        assert code == 3
        report = json.loads(out)
        assert report["error"] == "internal"
        assert "brute force's optimum leaves a demand unmet" in report["detail"]


class TestVerify:
    def test_accepts_emitted_solutions(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "-i", example1_file, "--method", "brute", "-o", sol)
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_rejects_cost_mismatch(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "-i", example1_file, "--method", "brute", "-o", sol)
        data = load_json(str(sol))
        data["cost"] = "99"
        dump_json(data, str(sol))
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 2
        assert any("cost mismatch" in p for p in json.loads(out)["problems"])

    def test_rejects_an_edge_listed_twice(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "-i", example1_file, "--method", "bb", "-o", sol)
        data = load_json(str(sol))
        data["edges"].append(data["edges"][0])
        dump_json(data, str(sol))
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 2
        report = json.loads(out)
        assert report["ok"] is False
        assert report["problems"] == ["edge index listed twice"]

    @pytest.mark.parametrize("index", [99, -1])
    def test_rejects_an_edge_index_out_of_range(self, tmp_path, capsys, example1_file, index):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "-i", example1_file, "--method", "bb", "-o", sol)
        data = load_json(str(sol))
        data["edges"].append(index)
        dump_json(data, str(sol))
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 2
        report = json.loads(out)
        assert report["ok"] is False
        assert report["problems"] == ["edge index out of range"]

    @pytest.mark.parametrize(
        "patch",
        [{"edges": [0.7]}, {"edges": ["0"]}, {"feasible": "false"}],
        ids=["edge_index_float", "edge_index_string", "feasible_string"],
    )
    def test_non_json_scalar_is_an_input_error(self, tmp_path, capsys, example1_file, patch):
        # a float index used to be truncated and a string flag read as true,
        # so `verify` reported ok for a solution it never checked
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "-i", example1_file, "--method", "brute", "-o", sol)
        data = load_json(str(sol))
        data.update(patch)
        dump_json(data, str(sol))
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    def test_non_object_solution_is_an_input_error(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        sol.write_text("[1, 2]")
        code, out = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["detail"] == "solution must be a JSON object, got list"

    def test_accepts_approx_solutions(self, tmp_path, capsys, example1_file):
        sol = tmp_path / "sol.json"
        code, _ = run(
            capsys, "approx", "-i", example1_file, "--method", "union", "-o", sol
        )
        assert code == 0
        code, _ = run(capsys, "verify", "-i", example1_file, "-s", sol)
        assert code == 0

    @pytest.fixture
    def unmet_file(self, tmp_path):
        path = tmp_path / "unmet.json"
        write_instance(path, make_instance(
            directed=True, variant="edge", num_times=1,
            vertices=["a", "b"], edges=[("b", "a", 1, (1,))],
            demands=[("a", "b", 1)],
        ))
        return path

    @pytest.mark.parametrize("marker", [
        {"edges": [0, 99, -4], "cost": None, "feasible": False},
        {"feasible": False},
    ], ids=["edges-listed", "cost-missing"])
    def test_malformed_marker_is_an_input_error(self, tmp_path, capsys, unmet_file, marker):
        # on an instance with an unmet demand these used to verify ok
        sol = tmp_path / "sol.json"
        dump_json(marker, str(sol))
        code, out = run(capsys, "verify", "-i", unmet_file, "-s", sol)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    @pytest.mark.parametrize("unmet, code, ok", [(True, 0, True), (False, 2, False)],
                             ids=["infeasible-instance", "feasible-instance"])
    def test_exact_marker_holds_only_on_an_infeasible_instance(
        self, tmp_path, capsys, unmet_file, example1_file, unmet, code, ok
    ):
        sol = tmp_path / "sol.json"
        dump_json({"edges": [], "cost": None, "feasible": False}, str(sol))
        instance = unmet_file if unmet else example1_file
        got, out = run(capsys, "verify", "-i", instance, "-s", sol)
        assert got == code
        report = json.loads(out)
        assert report["ok"] is ok
        assert report["note"] == "infeasibility marker"


class TestApprox:
    def test_charikar_reports_calls_and_memo_hits(self, tmp_path, capsys):
        path = tmp_path / "hub.json"
        write_instance(path, hub_instance(C=10, eps=1, k=3))
        code, out = run(capsys, "approx", "-i", path, "--method", "charikar", "--level", "3")
        assert code == 0
        report = json.loads(out)
        assert report["cost"] == "10"
        assert report["stats"] == {"calls": 16, "memo_hits": 23}

    @pytest.fixture
    def cyclic_file(self, tmp_path):
        # s <-> a <-> b in one frame: each greedy level recurses one call deeper
        path = tmp_path / "cyclic.json"
        write_instance(path, make_instance(
            directed=True, variant="edge", num_times=1, vertices=["s", "a", "b"],
            edges=[(u, v, 1, (1,)) for u, v in (("s", "a"), ("a", "s"), ("a", "b"), ("b", "a"))],
            demands=[("s", "a", 1), ("s", "b", 1)],
        ))
        return path

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 1200], ids=["above-cap", "deep"])
    def test_level_above_cap_is_an_input_error(self, capsys, cyclic_file, level):
        code = main(["approx", "-i", str(cyclic_file), "--method", "charikar",
                     "--level", str(level)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "input"
        assert captured.err == ""

    def test_level_at_cap_runs(self, capsys, cyclic_file):
        code, out = run(capsys, "approx", "-i", cyclic_file, "--method", "charikar",
                        "--level", MAX_LEVEL)
        assert code == 0
        assert json.loads(out)["cost"] == "2"

    def test_level_zero_without_demands_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        write_instance(path, make_instance(
            directed=True, variant="edge", num_times=1, vertices=["s"], edges=[], demands=[],
        ))
        code, out = run(capsys, "approx", "-i", path, "--method", "charikar", "--level", 0)
        assert code == 2
        assert json.loads(out)["error"] == "input"

    def test_closure_guard_counts_the_input_vertices(self, tmp_path, capsys):
        # monotonic single-source node_and_edge input: the closure over its
        # 30 vertices holds 30^2 * 19 = 17,100 entries, where an edge image
        # with one midpoint per arc would hold (30 + 200)^2 * 19 > 10^6
        from tsn.core import MAX_FIRST_TIME_ENTRIES

        rng = random.Random(30)
        T, names = 19, [f"v{i}" for i in range(30)]
        chain = [(names[i], names[i + 1]) for i in range(29)]
        arcs = chain + rng.sample(
            [(u, v) for u in names for v in names if u != v and (u, v) not in chain], 171)
        inst = make_instance(
            directed=True, variant="node_and_edge", num_times=T, vertices=names,
            edges=[(u, v, rng.randint(1, 9), range(rng.randint(1, 3), T + 1)) for u, v in arcs],
            demands=[("v0", "v29", 19), ("v0", "v15", 10), ("v0", "v7", 5), ("v0", "v22", 14)],
            node_activity={v: range(1, T + 1) for v in names},
        )
        assert len(names) ** 2 * T <= MAX_FIRST_TIME_ENTRIES < (len(names) + len(arcs)) ** 2 * T
        path = tmp_path / "wide.json"
        write_instance(path, inst)
        code, out = run(capsys, "approx", "-i", path, "--method", "charikar", "--level", 2)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_level_with_union_is_refused_before_loading(
        self, tmp_path, capsys, example1_file, monkeypatch
    ):
        # --level belongs to charikar; union used to ignore it and exit 0
        from tsn import cli

        def fail(*_):
            raise AssertionError("the input was loaded before the flags were checked")

        monkeypatch.setattr(cli, "_load_instance", fail)
        code = main(["approx", "-i", str(example1_file), "--method", "union", "--level", "5"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "input" and "--level" in report["detail"]
        assert captured.err == ""

    def test_charikar_level_defaults_to_two(self, capsys, cyclic_file):
        code, out = run(capsys, "approx", "-i", cyclic_file, "--method", "charikar")
        assert code == 0
        assert json.loads(out)["level"] == 2

    def test_no_solution_error_exits_one(self, capsys, example1_file, monkeypatch):
        # the greedy's budget error is an infeasibility, caught with the rest
        from tsn import approx
        from tsn.core import InfeasibleInstanceError

        def fail(*_):
            raise approx.NoSolutionError("only 1 residual demands reachable from s, need 2")

        assert issubclass(approx.NoSolutionError, InfeasibleInstanceError)
        monkeypatch.setattr(approx, "charikar", fail)
        code = main(["approx", "-i", str(example1_file), "--method", "charikar"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out == json.dumps({
            "command": "approx", "error": "infeasible",
            "detail": "only 1 residual demands reachable from s, need 2",
        }) + "\n"

    @pytest.mark.parametrize("method", ["charikar", "union"])
    def test_no_demands_needs_no_edges(self, tmp_path, capsys, method):
        path, sol = tmp_path / "free.json", tmp_path / "sol.json"
        write_instance(path, make_instance(
            directed=True, variant="edge", num_times=1, vertices=["s", "a"],
            edges=[("s", "a", 1, (1,))], demands=[],
        ))
        code, out = run(capsys, "approx", "-i", path, "--method", method, "-o", sol)
        assert code == 0
        assert json.loads(out)["cost"] == "0"
        data = load_json(str(sol))
        assert data["edges"] == [] and data["cost"] == "0"


class TestReduce:
    def test_to_simple_writes_image_and_map(self, tmp_path, capsys, example1_file):
        out = tmp_path / "simple.json"
        map_path = tmp_path / "map.json"
        code, _ = run(
            capsys, "reduce", "--to", "simple", "-i", example1_file,
            "-o", out, "--map", map_path,
        )
        assert code == 0
        image = instance_from_dict(load_json(str(out)))
        assert image.num_times == 2
        assert [d.t for d in image.demands] == [1, 2]
        assert {d.a for d in image.demands} == {"a"}
        steps = load_json(str(map_path))["steps"]
        assert steps[-1]["kind"] == "to_simple"

    def test_to_dst_on_monotonic_single_source(self, tmp_path, capsys):
        inst = make_instance(
            directed=True, variant="edge", num_times=2,
            vertices=["a", "x", "b"],
            edges=[("a", "x", 1, (1, 2)), ("x", "b", 2, (1, 2))],
            demands=[("a", "b", 1), ("a", "b", 2)],
        )
        path = tmp_path / "mono.json"
        write_instance(path, inst)
        out = tmp_path / "dst.json"
        code, _ = run(capsys, "reduce", "--to", "dst", "-i", path, "-o", out)
        assert code == 0
        data = load_json(str(out))
        assert set(data) == {"vertices", "edges", "root", "terminals", "levels"}
        assert data["root"] == "a#1"
        assert data["levels"]["x"] == [1, 2]

    def test_huge_level_graph_is_an_input_error(self, tmp_path):
        # a 3,000-vertex path with 3,000 demands: the level graph would hold
        # 3,000 * (3,000 + 2,999) vertices and edges
        n = 3000
        names = [f"v{i}" for i in range(n)]
        data = {
            "directed": True, "variant": "edge", "T": 1, "vertices": names,
            "edges": [{"u": u, "v": v, "w": 1, "times": [1]} for u, v in zip(names, names[1:])],
            "demands": [{"a": "v0", "b": b, "t": 1} for b in names],
        }
        path = tmp_path / "path.json"
        path.write_text(json.dumps(data))
        proc = run_capped("reduce", "--to", "dst", "-i", path, "-o", "dst.json", cwd=tmp_path)
        assert_one_input_error(proc)
        assert not (tmp_path / "dst.json").exists()

    @pytest.mark.parametrize("directed", [True, False])
    def test_own_frames_of_node_and_edge_input(self, tmp_path, capsys, directed):
        # the frames are monotonic, but u's activity {1, 3} makes the edge
        # image's midpoint edge u->x(u,v) active at {1, 3}: the reduction
        # reads the input's own frames and adds no midpoint vertex
        inst = make_instance(
            directed=directed, variant="node_and_edge", num_times=3,
            vertices=["s", "u", "v"],
            edges=[("s", "u", 1, (3,)), ("u", "v", 2, (1, 2, 3))],
            demands=[("s", "v", 3)],
            node_activity={"s": {1, 2, 3}, "u": {1, 3}, "v": {3}},
        )
        path = tmp_path / "ne.json"
        write_instance(path, inst)
        out, map_path = tmp_path / "image.json", tmp_path / "map.json"
        target = "dst" if directed else "priority-st"
        code, _ = run(capsys, "reduce", "--to", target, "-i", path, "-o", out, "--map", map_path)
        assert code == 0
        data = load_json(str(out))
        if directed:
            assert data["vertices"] == ["s#1", "u#1", "v#1"]
            assert data["edges"] == [{"u": "s#1", "v": "u#1", "w": 1},
                                     {"u": "u#1", "v": "v#1", "w": 2}]
        else:
            assert data["vertices"] == ["s", "u", "v"]
            assert [e["priority"] for e in data["edges"]] == [3, 3]
        assert load_json(str(map_path)) == {"steps": []}

    def test_to_priority_requires_undirected_monotonic(self, tmp_path, capsys):
        inst = make_instance(
            directed=False, variant="edge", num_times=2,
            vertices=["a", "b"], edges=[("a", "b", 1, (2,))],
            demands=[("a", "b", 2)],
        )
        path = tmp_path / "und.json"
        write_instance(path, inst)
        out = tmp_path / "prio.json"
        code, _ = run(capsys, "reduce", "--to", "priority-st", "-i", path, "-o", out)
        assert code == 0
        data = load_json(str(out))
        assert data["edges"][0]["priority"] == 2


class TestGen:
    def test_trace_written(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        trace = tmp_path / "t.json"
        code, _ = run(capsys, "gen", "--kind", "example1", "-o", out, "--trace", trace)
        assert code == 0
        data = load_json(str(trace))
        assert "contacts" in data and "bundles" in data

    def test_phlc_nosat(self, tmp_path, capsys):
        out = tmp_path / "nosat.json"
        code, _ = run(
            capsys, "gen", "--kind", "phlc-nosat", "--k", "3",
            "--part-sizes", "1,1,1", "--edges", "1", "--sigma", "2", "-o", out,
        )
        assert code == 0
        inst = instance_from_dict(load_json(str(out)))
        assert inst.num_times == 3

    @pytest.mark.parametrize("argv", [
        ["--kind", "phlc-yes", "--part-sizes", "1,x"],
        ["--kind", "phlc-yes", "--part-sizes", "1,,1"],
        ["--kind", "phlc-yes", "--k", "2", "--part-sizes", "0,1", "--edges", "1"],
        ["--kind", "phlc-nosat", "--part-sizes", "1,-1,1"],
        ["--kind", "phlc-nosat", "--sigma", "0"],
        ["--kind", "lc-yes", "--sigma", "0"],
        ["--kind", "lc-yes", "--u", "0"],
        ["--kind", "lc-yes", "--u", "-1"],
        ["--kind", "lc-yes", "--v", "0", "--degree", "0"],
        ["--kind", "lc-yes", "--v", "-1"],
        ["--kind", "lc-yes", "--degree", "-1"],
        ["--kind", "phlc-yes", "--edges", "-1"],
    ], ids=["part-size-not-int", "part-size-empty", "part-size-zero",
            "part-size-negative", "phlc-no-labels", "lc-no-labels", "lc-left-zero",
            "lc-left-negative", "lc-right-zero", "lc-right-negative", "lc-degree-negative",
            "phlc-edges-negative"])
    def test_bad_generator_argument_rejected(self, tmp_path, capsys, argv):
        code = main(["gen", *argv, "-o", str(tmp_path / "i.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "input"
        assert captured.err == ""
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--kind", "lc-yes", "--u", "100000000", "--v", "1"],
        ["--kind", "lc-yes", "--sigma", "300000000"],
        ["--kind", "phlc-yes", "--part-sizes", "100000000,1,1"],
    ], ids=["lc-many-left", "lc-many-labels", "phlc-huge-part"])
    def test_huge_constraint_graph_is_an_input_error(self, tmp_path, argv):
        # each would build 10^8 names or table entries before compiling
        proc = run_capped("gen", *argv, "-o", "i.json", cwd=tmp_path)
        assert_one_input_error(proc)
        assert not (tmp_path / "i.json").exists()

    def test_huge_compiled_gadget_is_an_input_error(self, tmp_path):
        # the constraint graph passes its own guard (600,000 table entries),
        # but the compiled gadget would hold about 1.8 million edges
        proc = run_capped("gen", "--kind", "lc-yes", "--u", "1", "--v", "1000",
                          "--degree", "1000", "--sigma", "300", "-o", "i.json", cwd=tmp_path)
        assert_one_input_error(proc)
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--kind", "lc-yes", "--u", "2", "--v", "2", "--degree", "0"],
        ["--kind", "phlc-yes", "--edges", "0"],
    ], ids=["lc-degree-zero", "phlc-no-edges"])
    def test_empty_constraint_graph_validates(self, tmp_path, capsys, argv):
        out = tmp_path / "i.json"
        assert run(capsys, "gen", *argv, "-o", out)[0] == 0
        assert run(capsys, "validate", "-i", out)[0] == 0

    def test_source_constraint_graph_written(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        source = tmp_path / "lc.json"
        code, _ = run(
            capsys, "gen", "--kind", "lc-yes", "--u", "2", "--v", "2",
            "--degree", "1", "--sigma", "2", "-o", out, "--source", source,
        )
        assert code == 0
        data = load_json(str(source))
        assert set(data) == {"left", "right", "edges", "num_labels", "num_colors", "projections"}
        assert len(data["projections"]) == len(data["edges"])


class TestDeterminism:
    def test_gen_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _ = run(
                capsys, "gen", "--kind", "lc-yes", "--u", "2", "--v", "2",
                "--degree", "1", "--sigma", "2", "--seed", "5", "-o", path,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_rerun_byte_identical(self, tmp_path, capsys, example1_file):
        a = tmp_path / "sa.json"
        b = tmp_path / "sb.json"
        for path in (a, b):
            run(capsys, "solve", "-i", example1_file, "--method", "bb", "-o", path)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method", [["charikar", "--level", "3"], ["union"]],
                             ids=["charikar-3", "union"])
    def test_approx_writes_the_same_bytes_under_any_hash_seed(self, tmp_path, method):
        # the greedy keeps its memo, pick tables, star orders, shared trees
        # and sub-residuals in dicts and sets; two processes with different
        # string hash seeds must write the same solution and report
        inst = rand_monotonic_single_source(
            random.Random(7), max_vertices=9, max_edges=24, max_times=4, max_demands=6
        )
        write_instance(tmp_path / "inst.json", inst)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsn.__file__)))
        written, reports = [], []
        for seed in ("0", "1"):
            out = tmp_path / f"approx{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "tsn.cli", "approx", "-i", str(tmp_path / "inst.json"),
                 "--method", *method, "-o", str(out)],
                env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            del report["argv"], report["wall_time_s"]
            written.append(out.read_bytes())
            reports.append(report)
        assert written[0] == written[1]
        assert reports[0] == reports[1]
        if method[0] == "charikar":
            assert reports[0]["stats"] == {"calls": 212, "memo_hits": 2072}


class TestBench:
    def test_empty_method_list_header_only(self, tmp_path, capsys, monkeypatch):
        # no row reads an optimum, so no oracle runs
        from tsn import exact

        def refuse(instance, stats=None):
            raise AssertionError("branch and bound run although no method was requested")

        monkeypatch.setattr(exact, "solve_bb", refuse)
        out = tmp_path / "bench.csv"
        code, _ = run(
            capsys, "bench", "--kind", "example1", "--methods", "", "--seeds", "0,1,2",
            "-o", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["kind,seed,method,cost,optimum,ratio"]

    def test_inapplicable_method_leaves_cost_empty(self, tmp_path, capsys):
        # gadget instances are not monotonic, so the recursive greedy does
        # not apply; the batch keeps running and records an empty cost
        out = tmp_path / "bench.csv"
        code, _ = run(
            capsys, "bench", "--kind", "example1",
            "--methods", "brute,charikar:2", "--seeds", "0", "-o", out,
        )
        assert code == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        by_method = {r["method"]: r for r in rows}
        assert by_method["brute"]["cost"] == "1"
        assert by_method["charikar:2"]["cost"] == ""

    def test_brute_runs_once_per_seed(self, tmp_path, capsys, monkeypatch):
        # the brute row runs brute force once per seed, through the same
        # dispatch as `solve --method brute`
        from tsn import exact

        calls = []
        original = exact.brute_force

        def counting(instance, **kwargs):
            calls.append(kwargs)
            return original(instance, **kwargs)

        monkeypatch.setattr(exact, "brute_force", counting)
        out = tmp_path / "bench.csv"
        code, _ = run(
            capsys, "bench", "--kind", "example1",
            "--methods", "brute,bb", "--seeds", "0,1", "-o", out,
        )
        assert code == 0
        assert len(calls) == 2
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [r["cost"] for r in rows] == ["1"] * 4

    def test_bb_is_the_oracle_without_brute(self, tmp_path, capsys, monkeypatch):
        # without `brute` among the methods the optimum column comes from
        # branch and bound, and brute force is never run
        from tsn import exact

        def refuse(instance, stats=None):
            raise AssertionError("brute force run although not requested")

        monkeypatch.setattr(exact, "brute_force", refuse)
        out = tmp_path / "bench.csv"
        code, _ = run(
            capsys, "bench", "--kind", "lc-yes", "--u", "2", "--v", "2",
            "--degree", "2", "--sigma", "2", "--methods", "bb,union",
            "--seeds", "0,1", "-o", out,
        )
        assert code == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["kind", "seed", "method", "cost", "optimum", "ratio"]
        assert [(r["seed"], r["method"]) for r in rows] == [
            ("0", "bb"), ("0", "union"), ("1", "bb"), ("1", "union"),
        ]
        for row in rows:
            assert row["optimum"] == "4"  # |E| of the planted label cover
            assert Fraction(row["ratio"]) == Fraction(row["cost"]) / 4
            if row["method"] == "bb":
                assert row["cost"] == "4"

    def test_unknown_method_rejected(self, tmp_path, capsys):
        code, out = run(
            capsys, "bench", "--kind", "example1", "--methods", "nonsense", "--seeds", "0"
        )
        assert code == 2
        assert "unknown method" in json.loads(out)["detail"]

    @pytest.mark.parametrize("argv", [
        ["--methods", "charikar:x"],
        ["--methods", "charikar:"],
        ["--methods", "charikar:0"],
        ["--methods", f"charikar:{MAX_LEVEL + 1}"],
        ["--methods", "charikarx"],
        ["--methods", "brute", "--seeds", "a"],
        ["--methods", "brute", "--seeds", "0,,x"],
        ["--kind", "lc-yes", "--u", "0", "--methods", "union"],
    ], ids=["level-not-int", "level-empty", "level-zero", "level-above-cap", "name-suffix",
            "seed-not-int", "seed-entry-not-int", "generator-count"])
    def test_malformed_argument_rejected(self, capsys, argv):
        code = main(["bench", "--kind", "example1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "input"
        assert captured.err == ""

    def test_csv_on_stdout_without_output(self, tmp_path, capsys):
        argv = ["bench", "--kind", "example1", "--methods", "brute,union", "--seeds", "0,1"]
        code, out = run(capsys, *argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["seed"], r["method"]) for r in rows] == [
            ("0", "brute"), ("0", "union"), ("1", "brute"), ("1", "union"),
        ]
        path = tmp_path / "bench.csv"
        code, written = run(capsys, *argv, "-o", path)
        assert code == 0 and written == ""
        assert out == path.read_bytes().decode("ascii")

    def test_costs_match_solve_and_approx(self, tmp_path, capsys):
        # one dispatch: a bench row costs what the single-instance command
        # reports for the same method on the same gadget, one small enough
        # for brute force's default subset cap
        gadget = ["--kind", "lc-yes", "--u", "2", "--v", "1", "--degree", "1", "--sigma", "2"]
        path = tmp_path / "lc.json"
        code, _ = run(capsys, "gen", *gadget, "--seed", "3", "-o", path)
        assert code == 0
        code, out = run(capsys, "bench", *gadget, "--methods", "brute,bb,union", "--seeds", "3")
        assert code == 0
        bench = {r["method"]: r["cost"] for r in csv.DictReader(io.StringIO(out))}
        single = {}
        for command, method in [("solve", "brute"), ("solve", "bb"), ("approx", "union")]:
            code, out = run(capsys, command, "-i", path, "--method", method)
            assert code == 0
            single[method] = json.loads(out)["cost"]
        assert bench == single

    def test_brute_row_past_the_cap_is_empty(self, tmp_path, capsys):
        # 54 positive-weight edges: `solve --method brute` refuses this
        # gadget, so its bench row has no cost, and the optimum column comes
        # from branch and bound, which closes it at the root
        gadget = ["--kind", "lc-yes", "--u", "4", "--v", "4", "--degree", "3", "--sigma", "3"]
        code, out = run(capsys, "bench", *gadget, "--methods", "brute,bb,union", "--seeds", "0")
        assert code == 0
        assert out.splitlines() == [
            "kind,seed,method,cost,optimum,ratio",
            "lc-yes,0,brute,,12,",
            "lc-yes,0,bb,12,12,1",
            "lc-yes,0,union,19,12,19/12",
        ]
        path = tmp_path / "lc.json"
        assert run(capsys, "gen", *gadget, "--seed", "0", "-o", path)[0] == 0
        code, out = run(capsys, "solve", "-i", path, "--method", "brute")
        assert code == 2
        assert json.loads(out)["error"] == "input"

    def test_yes_lc_batch_columns(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _ = run(
            capsys, "bench", "--kind", "lc-yes", "--u", "2", "--v", "2",
            "--degree", "1", "--sigma", "2", "--methods", "brute,bb,union",
            "--seeds", "0,1", "-o", out,
        )
        assert code == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        edge_count = 2  # two left vertices, degree one
        k = 2
        for row in rows:
            if row["method"] in ("brute", "bb"):
                assert row["cost"] == str(edge_count)
            assert Fraction(row["cost"]) <= k * Fraction(row["optimum"])


def edge_instance(vertices, T, edges, demands, directed=True):
    """Edge-variant instance JSON: `edges` are (u, v, times entry) with the
    entry `{"times": [...]}` or `{"first_time": t}`, weight 1 each."""
    return {
        "directed": directed, "variant": "edge", "T": T, "vertices": vertices,
        "edges": [{"u": u, "v": v, "w": 1, **times} for u, v, times in edges],
        "demands": [{"a": a, "b": b, "t": t} for a, b, t in demands],
    }


def dense_probe(num_arcs, num_demands, n=60):
    """The first `num_arcs` of the n * (n - 1) arcs among v0..v{n-1} (weight
    1, at time 1 of T = 1) with `num_demands` demands (v0, v{1 + j mod n-1}, 1)."""
    vertices = [f"v{i}" for i in range(n)]
    arcs = [(u, v, {"times": [1]}) for u in vertices for v in vertices if u != v]
    return edge_instance(vertices, 1, arcs[:num_arcs],
                         [("v0", f"v{1 + j % (n - 1)}", 1) for j in range(num_demands)])


def shared_activity_probe(num_arcs, num_demands, n):
    """`dense_probe` as a node-variant instance, every vertex active at time
    1: the simple image shares one activity set of k new times among its
    vertices, so it lists about n * k entries while the flow ILP would hold
    num_arcs * k (arc, time) pairs."""
    data = dense_probe(num_arcs, num_demands, n)
    return {**data, "variant": "node", "node_activity": {v: [1] for v in data["vertices"]}}


class TestInputGuards:
    # each guard prints one JSON line, exits 2 and writes no file
    @pytest.mark.parametrize("argv, data, detail", [
        (["approx", "--method", "charikar"],
         edge_instance([f"n{i}" for i in range(101)], 100, [("n0", "n1", {"first_time": 1})],
                       [("n0", "n1", 100)]),
         "|V|^2 * T"),
        (["reduce", "--to", "node_and_edge", "-o", "out.json"],
         edge_instance(["a", "b"], 600000, [("a", "b", {"first_time": 600000})], []),
         "T * 2 times"),
        (["reduce", "--to", "dst", "-o", "out.json"],
         edge_instance([f"n{i}" for i in range(1001)], 1, [("n0", "n1", {"times": [1]})],
                       [("n0", "n1", 1)] * 1000),
         "level graph would hold"),
        (["gen", "--kind", "lc-yes", "--u", "1000", "--v", "1000", "--degree", "1",
          "--sigma", "600", "-o", "out.json"], None, "strands"),
        (["solve", "--method", "ilp-export", "--lp", "out.lp"], dense_probe(3540, 200),
         "the flow ILP would hold at least"),
        (["reduce", "--to", "simple", "-o", "out.json"], dense_probe(3000, 8000),
         "the simple image would list"),
        # the simple image (972,000 entries) passes, its ILP's 30 million
        # pairs do not: the count must stop before their sets fill memory
        (["solve", "--method", "ilp-export", "--lp", "out.lp"],
         shared_activity_probe(10000, 3000, n=320), "the flow ILP would hold at least"),
    ], ids=["closure", "node-and-edge-embedding", "level-graph", "strands", "flow-ilp",
            "simple-image", "flow-ilp-shared-activity"])
    def test_size_guard(self, tmp_path, argv, data, detail):
        # run under the 1 GiB address-space cap, in case a guard gives way
        if data is not None:
            (tmp_path / "in.json").write_text(json.dumps(data))
            argv = [*argv, "-i", "in.json"]
        proc = run_capped(*argv, cwd=tmp_path)
        assert_one_input_error(proc)
        assert detail in json.loads(proc.stdout)["detail"]
        assert sorted(os.listdir(tmp_path)) == (["in.json"] if data is not None else [])

    @pytest.mark.parametrize("argv, data, detail", [
        (["gen", "--kind", "lc-yes", "--u", "2", "--v", "1", "--degree", "2"], None,
         "degree cannot exceed"),
        (["gen", "--kind", "phlc-yes", "--k", "3", "--part-sizes", "1,1"], None,
         "one size per part"),
        (["reduce", "--to", "dst"],
         edge_instance(["a", "b"], 1, [("a", "b", {"times": [1]})], [("a", "b", 1)],
                       directed=False),
         "expects a directed instance"),
        (["reduce", "--to", "dst"],
         edge_instance(["a", "b", "c"], 1,
                       [("a", "b", {"times": [1]}), ("c", "b", {"times": [1]})],
                       [("a", "b", 1), ("c", "b", 1)]),
         "single source"),
        (["reduce", "--to", "priority-st"],
         edge_instance(["a", "b"], 1, [("a", "b", {"times": [1]})], [("a", "b", 1)]),
         "expects an undirected instance"),
        (["reduce", "--to", "dst"],
         edge_instance(["a", "b"], 1, [("a", "b", {"times": [1]})], []),
         "at least one demand"),
    ], ids=["lc-degree-above-right", "phlc-part-count", "dst-undirected", "dst-two-sources",
            "priority-directed", "dst-no-demands"])
    def test_shape_guard(self, tmp_path, capsys, argv, data, detail):
        out = tmp_path / "out.json"
        if data is not None:
            (tmp_path / "in.json").write_text(json.dumps(data))
            argv = [*argv, "-i", tmp_path / "in.json"]
        code, stdout = run(capsys, *argv, "-o", out)
        assert code == 2
        lines = stdout.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "input" and detail in report["detail"]
        assert not out.exists()


class TestOutputPaths:
    # every output flag writes through one writer; a path it cannot open is
    # an input error, never a traceback with the "infeasible" exit code
    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "example1", "-o", "BAD"],
        ["gen", "--kind", "example1", "-o", "OK", "--trace", "BAD"],
        ["gen", "--kind", "example1", "-o", "OK", "--source", "BAD"],
        ["reduce", "--to", "edge", "-i", "IN", "-o", "BAD"],
        ["reduce", "--to", "edge", "-i", "IN", "-o", "OK", "--map", "BAD"],
        ["solve", "-i", "IN", "--method", "brute", "-o", "BAD"],
        ["solve", "-i", "IN", "--method", "ilp-export", "--lp", "BAD"],
        ["approx", "-i", "IN", "--method", "union", "-o", "BAD"],
        ["bench", "--kind", "example1", "--methods", "bb", "-o", "BAD"],
    ], ids=["gen-o", "gen-trace", "gen-source", "reduce-o", "reduce-map", "solve-o",
            "solve-lp", "approx-o", "bench-o"])
    @pytest.mark.parametrize("bad", ["missing/out", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_path_exits_two(self, tmp_path, capsys, example1_file, argv, bad):
        paths = {"IN": example1_file, "OK": tmp_path / "ok.json", "BAD": tmp_path / bad}
        code, out = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "input"
        assert report["detail"].startswith(f"cannot write {paths['BAD']}: ")

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "example1", "-o", "OK", "--trace", "MISSING"],
        ["reduce", "--to", "edge", "-i", "IN", "-o", "OK", "--map", "MISSING"],
        ["gen", "--kind", "example1", "-o", "OK", "--source", "DIR"],
    ], ids=["gen-trace", "reduce-map", "gen-source"])
    def test_bad_later_path_writes_no_file(self, tmp_path, capsys, example1_file, argv):
        # every output path is checked before the first file is written
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        paths = {"IN": example1_file, "OK": out_dir / "ok.json",
                 "MISSING": out_dir / "missing" / "out.json", "DIR": out_dir}
        code, out = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "example1", "-o", "OK", "--trace", "LATER"],
        ["reduce", "--to", "edge", "-i", "IN", "-o", "OK", "--map", "LATER"],
    ], ids=["gen-trace", "reduce-map"])
    def test_later_document_out_of_memory_writes_no_file(self, tmp_path, capsys, example1_file,
                                                         monkeypatch, argv):
        # the first document is written, the second runs out of memory while
        # it is encoded: the first file is taken back
        from tsn import core

        write = core.dump_json

        def write_first_only(data, path):
            if path.endswith("later.json"):
                raise MemoryError
            write(data, path)

        monkeypatch.setattr(core, "dump_json", write_first_only)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        paths = {"IN": example1_file, "OK": out_dir / "ok.json", "LATER": out_dir / "later.json"}
        code, out = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2
        assert [json.loads(line)["detail"] for line in out.strip().splitlines()] == [OUT_OF_MEMORY]
        assert list(out_dir.iterdir()) == []

    def test_later_document_failure_keeps_a_file_that_was_there(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the first path existed before the run, so taking back the first
        # document leaves it in place (it may be a link such as /dev/stdout)
        from tsn import core

        write = core.dump_json

        def write_first_only(data, path):
            if path.endswith("later.json"):
                raise MemoryError
            write(data, path)

        monkeypatch.setattr(core, "dump_json", write_first_only)
        first = tmp_path / "ok.json"
        first.write_text("old\n")
        code, out = run(capsys, "gen", "--kind", "example1", "-o", first,
                        "--trace", tmp_path / "later.json")
        assert code == 2
        assert [json.loads(line)["detail"] for line in out.strip().splitlines()] == [OUT_OF_MEMORY]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.json"]

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "lc-yes", "--u", "2", "--v", "2", "--degree", "2", "--sigma", "2",
         "-o", "out/i.json"],
        ["reduce", "--to", "simple", "-i", "in.json", "-o", "out/s.json"],
        ["solve", "--method", "ilp-export", "-i", "in.json", "--lp", "out/m.lp"],
        ["solve", "--method", "bb", "-i", "in.json", "-o", "out/sol.json"],
        ["bench", "--kind", "example1", "--methods", "bb,union", "--seeds", "0,1,2,3,4",
         "-o", "out/b.csv"],
    ], ids=["gen-o", "reduce-simple", "solve-lp", "solve-bb-o", "bench-o"])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, argv):
        # every output here is longer than the 200 bytes the child may
        # write (checked below, uncapped): the file the failed write created
        # is removed.  The input is lc-yes 3/3/2/3, whose one-line `bb`
        # solution is 347 bytes; the 2/2/2/2 one is 179.
        run(capsys, "gen", "--kind", "lc-yes", "--u", "3", "--v", "3", "--degree", "2",
            "--sigma", "3", "-o", tmp_path / "in.json")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        proc = run_write_capped(*argv, cwd=tmp_path)
        assert_one_input_error(proc)
        assert "File too large" in json.loads(proc.stdout)["detail"]
        assert list(out_dir.iterdir()) == []
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv)[0] == 0
        assert [p.stat().st_size > 200 for p in out_dir.iterdir()] == [True]

    def test_failed_write_keeps_a_file_that_was_there(self, tmp_path):
        # the new content goes to a temporary file that replaces the old
        # one only once it is whole: the failed write keeps "old" and
        # leaves no temporary file behind
        out = tmp_path / "i.json"
        out.write_text("old\n")
        proc = run_write_capped("gen", "--kind", "example1", "-o", out, cwd=tmp_path)
        assert_one_input_error(proc)
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["i.json"]

    def test_overwrite_keeps_the_mode_and_writes_through_a_link(self, tmp_path, capsys):
        # a regular file is replaced by a temporary file that takes its
        # permission bits; a symlink stays a link and its target is written
        out = tmp_path / "i.json"
        out.write_text("old\n")
        out.chmod(0o640)
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        inodes = out.stat().st_ino, target.stat().st_ino
        assert run(capsys, "gen", "--kind", "example1", "-o", out)[0] == 0
        assert run(capsys, "gen", "--kind", "example1", "-o", link)[0] == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert out.stat().st_ino != inodes[0] and target.stat().st_ino == inodes[1]
        assert link.is_symlink() and target.read_text() == out.read_text() != "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json", "link.json", "target.json"]

    def test_overwrite_writes_in_place_when_the_temporary_name_is_taken(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        out.write_text("old\n")
        taken = tmp_path / f".i.json.{os.getpid()}.tmp"
        taken.write_text("other\n")
        inode = out.stat().st_ino
        assert run(capsys, "gen", "--kind", "example1", "-o", out)[0] == 0
        assert out.read_text() != "old\n" and taken.read_text() == "other\n"
        assert out.stat().st_ino == inode


class TestOutputLayout:
    # every JSON output file is one line in `json.dumps`'s default layout,
    # which its C encoder writes (see `core.dump_json`); the stdout report
    # stays indented
    def test_every_json_file_is_one_ascii_line(self, tmp_path, capsys):
        # "xé" checks that a vertex name outside ASCII is escaped
        directed = make_instance(
            directed=True, variant="edge", num_times=3, vertices=["s", "xé", "y", "b"],
            edges=[("s", "xé", 1, (1, 2, 3)), ("xé", "b", 2, (2, 3)),
                   ("s", "y", 3, (1, 2, 3)), ("y", "b", "1/2", (3,))],
            demands=[("s", "b", 2), ("s", "y", 1), ("s", "b", 3)],
        )
        undirected = make_instance(
            directed=False, variant="edge", num_times=2, vertices=["a", "b", "c"],
            edges=[("a", "b", 1, (1, 2)), ("b", "c", 2, (2,)), ("a", "c", "5/2", (2,))],
            demands=[("a", "c", 2), ("a", "b", 1)],
        )
        p = lambda name: str(tmp_path / name)  # noqa: E731
        write_instance(p("d.json"), directed)
        write_instance(p("u.json"), undirected)
        commands = [
            ["gen", "--kind", "lc-yes", "--u", "2", "--v", "2", "--degree", "2", "--sigma", "2",
             "-o", p("g.json"), "--trace", p("tr.json"), "--source", p("src.json")],
            *(["reduce", "--to", to, "-i", p("d.json"), "-o", p(f"{to}.json"),
               "--map", p(f"{to}_map.json")]
              for to in ("edge", "node", "node_and_edge", "simple", "dst")),
            ["reduce", "--to", "priority-st", "-i", p("u.json"), "-o", p("priority.json"),
             "--map", p("priority_map.json")],
            ["solve", "-i", p("d.json"), "--method", "bb", "-o", p("bb.json")],
            ["solve", "-i", p("d.json"), "--method", "brute", "-o", p("brute.json")],
            ["approx", "-i", p("d.json"), "--method", "union", "-o", p("union.json")],
            ["approx", "-i", p("d.json"), "--method", "charikar", "--level", "2",
             "-o", p("charikar.json")],
        ]
        for argv in commands:
            code, out = run(capsys, *argv)
            assert code == 0, argv
            assert out.startswith('{\n  "command": '), argv
        files = sorted(tmp_path.iterdir())
        assert len(files) == 2 + 3 + 12 + 4
        for path in files:
            raw = path.read_bytes()
            assert raw.isascii(), path.name
            text = raw.decode("ascii")
            assert text == json.dumps(json.loads(text)) + "\n", path.name
        assert "x\\u00e9" in (tmp_path / "dst.json").read_text(encoding="ascii")


def _is_tsn_object(obj):
    """A `tsn` function, or an instance of a class defined in `tsn`."""
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("tsn")
    return type(obj).__module__.startswith("tsn")


class TestCollectorPause:
    # cli.main pauses the cyclic collector for the whole command: that is
    # safe only while no command leaves a tsn object in a reference cycle,
    # which these tests check, and only while the caller's setting comes back
    def test_commands_leave_no_tsn_object_in_cyclic_garbage(self, tmp_path, capsys):
        hub = tmp_path / "hub.json"
        write_instance(hub, hub_instance())
        p = lambda name: str(tmp_path / name)  # noqa: E731
        gadget = ["--kind", "lc-yes", "--u", "2", "--v", "2", "--degree", "2", "--sigma", "2"]
        commands = [
            ["gen", *gadget, "--seed", "1", "-o", p("g.json"), "--trace", p("tr.json"),
             "--source", p("src.json")],
            ["reduce", "--to", "simple", "-i", p("g.json"), "-o", p("s.json"),
             "--map", p("m.json")],
            ["solve", "-i", p("g.json"), "--method", "bb", "-o", p("bb.json")],
            ["solve", "-i", p("g.json"), "--method", "ilp-export", "--lp", p("g.lp")],
            ["approx", "-i", p("g.json"), "--method", "union", "-o", p("u.json")],
            ["approx", "-i", str(hub), "--method", "charikar", "--level", "3", "-o", p("c.json")],
            ["verify", "-i", p("g.json"), "-s", p("bb.json")],
            ["verify", "-i", str(hub), "-s", p("c.json")],
            ["bench", *gadget, "--methods", "brute,bb,union,charikar", "--seeds", "1,2",
             "-o", p("bench.csv")],
        ]
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            codes = [main(argv) for argv in commands]
            gc.collect()
            left = [repr(obj)[:80] for obj in gc.garbage if _is_tsn_object(obj)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert codes == [0] * len(commands)
        assert left == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code", [
        (["validate", "-i", "IN"], 0),
        (["solve", "-i", "IN", "--method", "nope"], 2),
        (["validate", "-i", "MISSING"], 2),
    ], ids=["ok", "argparse-rejection", "input-error"])
    def test_caller_setting_is_restored(self, tmp_path, capsys, example1_file, enabled, argv, code):
        paths = {"IN": str(example1_file), "MISSING": str(tmp_path / "missing.json")}
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            got = main([paths.get(a, a) for a in argv])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert got == code
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exc, code, error, detail", [
        (MemoryError(), 2, "input", OUT_OF_MEMORY),
        (RuntimeError("boom"), 3, "internal", "RuntimeError: boom"),
    ], ids=["out-of-memory", "unexpected"])
    def test_unexpected_error_is_one_json_line(self, capsys, example1_file, monkeypatch,
                                               enabled, exc, code, error, detail):
        # exit 1 stays the infeasible code: anything else a command raises
        # is one JSON line, with the caller's collector setting restored
        from tsn import exact

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(exact, "solve_bb", fail)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            got = main(["solve", "-i", str(example1_file), "--method", "bb"])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        out = capsys.readouterr()
        assert got == code and after is enabled
        assert out.err == ""
        assert [json.loads(line) for line in out.out.splitlines()] == [
            {"command": "solve", "error": error, "detail": detail}
        ]

    def test_collector_is_paused_inside_the_command(self, capsys, example1_file, monkeypatch):
        from tsn import cli

        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(gc.isenabled()) or 0)
        assert gc.isenabled()
        assert main(["validate", "-i", str(example1_file)]) == 0
        assert seen == [False] and gc.isenabled()


# per subcommand: an argv that parses, the flag of a `choices` option and
# the flag of an int option (None where the command has none)
PARSER_CASES = {
    "validate": (["-i", "in.json"], None, None),
    "reduce": (["--to", "edge", "-i", "in.json", "-o", "out.json"], "--to", None),
    "solve": (["-i", "in.json", "--method", "bb"], "--method", None),
    "approx": (["-i", "in.json", "--method", "union"], "--method", "--level"),
    "gen": (["--kind", "example1", "-o", "out.json"], "--kind", "--seed"),
    "verify": (["-i", "in.json", "-s", "sol.json"], None, None),
    "bench": (["--kind", "example1"], "--kind", "--u"),
}


def _argvs(command):
    valid, choice, number = PARSER_CASES[command]
    argvs = [[command, "-h"], [command], [command, *valid], [command, *valid, "--nope"],
             [command, *valid, "extra"]]
    if choice:
        argvs.append([command, *valid, choice, "zzz"])
    if number:
        argvs.append([command, *valid, number, "x"])
    return argvs


def _parse(parser, argv, capsys):
    """What `parser` makes of `argv`: the parsed arguments or the exit code,
    then stdout and stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParser:
    # `_run` builds only the subparser that argv[0] names; its help, usage
    # lines and errors must be the full parser's, byte for byte
    @pytest.mark.parametrize("argv", [argv for command in PARSER_CASES for argv in _argvs(command)],
                             ids=" ".join)
    def test_one_command_parser_reads_as_the_full_parser(self, capsys, argv):
        from tsn.cli import build_parser

        assert _parse(build_parser(argv[0]), argv, capsys) == _parse(build_parser(), argv, capsys)

    @pytest.mark.parametrize("argv, command", [
        (["validate", "-i", "in.json"], "validate"), ([], None), (["-h"], None),
        (["bogus"], None), (["-h", "reduce"], None),
    ], ids=["validate", "none", "-h", "bogus", "-h reduce"])
    def test_run_builds_the_full_parser_unless_argv_names_a_command(self, capsys, monkeypatch,
                                                                   argv, command):
        from tsn import cli

        build_parser, built = cli.build_parser, []

        def recording(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        monkeypatch.setattr(cli, "cmd_validate", lambda args: 0)
        code = main(argv)
        run_out = capsys.readouterr()
        full = _parse(build_parser(), argv, capsys)
        assert built == [command]
        assert (run_out.out, run_out.err) == full[1:]
        assert code == (0 if isinstance(full[0], dict) or full[0] == 0 else 2)

    def test_commands_are_the_full_parsers_subcommands(self):
        from tsn.cli import COMMANDS, build_parser

        def subcommands(parser):
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return tuple(action.choices)

        assert isinstance(COMMANDS, tuple)
        assert COMMANDS == subcommands(build_parser())
        assert set(PARSER_CASES) == set(COMMANDS)
        for command in COMMANDS:
            assert subcommands(build_parser(command)) == (command,)

    def test_level_cap_is_the_greedys(self):
        from tsn import cli

        assert cli.MAX_LEVEL == MAX_LEVEL

    def test_help_describes_the_commands_and_exit_codes_only(self, capsys):
        assert main(["-h"]) == 0
        out = capsys.readouterr().out
        assert "Exit codes: 0 success, 1 infeasible" in out
        # the maintainer notes stay in the docstring
        assert "garbage collector" not in out and "tests/test_cli.py" not in out
