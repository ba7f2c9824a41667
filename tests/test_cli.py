import csv
import io
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import tsn
from helpers import hub_instance, rand_feasible_instance
from tsn.approx import MAX_LEVEL
from tsn.cli import main
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


def assert_one_input_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "input"


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

    @pytest.mark.parametrize(
        "patch",
        [
            {"node_activity": [1]},
            {"edges": {"x": 1}},
            {"edges": [{"u": "a", "v": "b", "w": 1, "times": "12"}]},
            {"vertices": "ab"},
            {"T": 2.5},
            {"T": True},
            {"demands": [{"a": "a", "b": "b", "t": 1.9}]},
            {"demands": [{"a": "a", "b": "b", "t": "1"}]},
            {"edges": [{"u": "a", "v": "b", "w": 1, "times": [1.0, 2]}]},
            {"edges": [{"u": "a", "v": "b", "w": 1, "first_time": 1.5}]},
            {"directed": "false"},
            {"allow_parallel": "false"},
            {"edges": [{"u": "a", "v": "b", "w": "1e999999", "times": [1, 2]}]},
            {"vertices": ["a", "b", 1]},
            {"vertices": ["a", "b", None]},
            {"vertices": {"a": 1, "b": 2}},
            {"edges": [{"u": "a", "v": 1, "w": 1, "times": [1, 2]}]},
            {"edges": [{"u": None, "v": "b", "w": 1, "times": [1, 2]}]},
            {"demands": [{"a": "a", "b": None, "t": 1}]},
            {"demands": [{"a": ["a"], "b": "b", "t": 1}]},
        ],
        ids=["node_activity_list", "edges_object", "times_string", "vertices_string",
             "T_float", "T_bool", "demand_time_float", "demand_time_string",
             "edge_time_float", "first_time_float", "directed_string",
             "allow_parallel_string", "weight_exponent", "vertex_int", "vertex_null",
             "vertices_object", "edge_endpoint_int", "edge_endpoint_null",
             "demand_endpoint_null", "demand_endpoint_list"],
    )
    def test_malformed_shape_is_an_input_error(self, tmp_path, capsys, patch):
        data = {
            "directed": True, "variant": "edge", "T": 2, "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "w": 1, "times": [1, 2]}],
            "demands": [{"a": "a", "b": "b", "t": 1}],
        }
        data.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "validate", "-i", path)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

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
        from tsn import exact

        def fail(*_):
            raise AssertionError("build_ilp ran before --lp was checked")

        monkeypatch.setattr(exact, "build_ilp", fail)
        code = main(["solve", "-i", str(example1_file), "--method", "ilp-export"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "input"
        assert captured.err == ""

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
        # a feasibility check that rejects every subset breaks brute force's
        # invariant that a feasible instance has an optimum; the explicit
        # check survives `python -O` and maps to exit 3
        from tsn import exact

        monkeypatch.setattr(exact.FrameIndex, "feasible", lambda self, chosen: False)
        code, out = run(capsys, "solve", "-i", example1_file, "--method", "brute")
        assert code == 3
        assert json.loads(out)["error"] == "internal"


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
        # the brute row reuses the optimum column's brute-force result
        from tsn import exact

        calls = []
        original = exact.brute_force

        def counting(instance, cap=None):
            calls.append(cap)
            return original(instance, cap=cap)

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

        def refuse(instance, cap=None):
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
