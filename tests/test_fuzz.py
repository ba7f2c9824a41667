"""Fuzz the CLI's file readers with JSON-shaped values: every case must end
with exactly one JSON object on stdout and nothing on stderr, in exit 0 or 2
for `validate` and `verify` and in exit 0, 1 or 2 for the commands that
reduce or solve the instance.  Examples are derandomized, so the run is the
same every time."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from tsn.cli import main

VALID_INSTANCE = {
    "directed": True, "variant": "node_and_edge", "T": 2,
    "vertices": ["a", "b", "c"],
    "edges": [
        {"u": "a", "v": "b", "w": 1, "times": [1, 2]},
        {"u": "b", "v": "c", "w": "1/2", "first_time": 2},
    ],
    "node_activity": {"a": [1, 2], "b": [1, 2], "c": [2]},
    "demands": [{"a": "a", "b": "c", "t": 2}],
    "allow_parallel": False,
}
VALID_SOLUTION = {"edges": [0, 1], "cost": "3/2", "feasible": True}

# where one field of a valid file can be replaced: (file, path of keys)
FIELDS = [("instance", (key,)) for key in VALID_INSTANCE] + [
    ("instance", ("edges", 0, key)) for key in ("u", "v", "w", "times")
] + [
    ("instance", ("demands", 0, key)) for key in ("a", "b", "t")
] + [
    ("instance", ("node_activity", "c")),
    ("instance", ("edges", 0, "times", 0)),
    ("instance", ("edges", 1, "first_time")),
] + [("solution", (key,)) for key in VALID_SOLUTION] + [("solution", ("edges", 0))]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _run_cli(instance, solution):
    """Run `validate`, `verify`, `reduce --to edge`, `solve --method brute`,
    `solve --method bb` and `approx --method union` on the two values
    written as JSON files; returns [(command, exit code, stdout, stderr)]."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "instance.json")
        sol_path = os.path.join(tmp, "solution.json")
        out_path = os.path.join(tmp, "out.json")
        for path, value in ((inst_path, instance), (sol_path, solution)):
            with open(path, "w", encoding="ascii") as fh:
                json.dump(value, fh)
        for argv in (
            ["validate", "-i", inst_path],
            ["verify", "-i", inst_path, "-s", sol_path],
            ["reduce", "--to", "edge", "-i", inst_path, "-o", out_path],
            ["solve", "--method", "brute", "-i", inst_path],
            ["solve", "--method", "bb", "-i", inst_path],
            ["approx", "--method", "union", "-i", inst_path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append((argv[0], code, out.getvalue(), err.getvalue()))
    return results


def _assert_clean(results):
    for command, code, out, err in results:
        allowed = (0, 2) if command in ("validate", "verify") else (0, 1, 2)
        assert code in allowed, (command, code, out)
        assert isinstance(json.loads(out), dict), out
        assert err == ""


def test_valid_files_pass():
    assert [code for _, code, _, _ in _run_cli(VALID_INSTANCE, VALID_SOLUTION)] == [0] * 6


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(instance=json_values, solution=json_values)
def test_any_json_value_is_read_cleanly(instance, solution):
    _assert_clean(_run_cli(instance, solution))


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(field=st.sampled_from(FIELDS), value=json_values)
def test_valid_file_with_one_field_replaced_is_read_cleanly(field, value):
    which, path = field
    instance, solution = VALID_INSTANCE, VALID_SOLUTION
    if which == "instance":
        instance = _replaced(instance, path, value)
    else:
        solution = _replaced(solution, path, value)
    _assert_clean(_run_cli(instance, solution))
