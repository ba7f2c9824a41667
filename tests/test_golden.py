"""Golden corpus: sha256 of every CLI output file on a fixed set of inputs.

Each gadget case generates one gadget (instance, trace and constraint-graph
JSON) and pushes it through `reduce --to simple --map` (`--to node` for the
undirected case, which the simple form does not accept), `solve --method
ilp-export --lp` (directed only), `solve --method bb -o` and `approx
--method union -o`.  Two small monotonic instances cover the `priority-st`
and `dst` reductions.  Two large gadgets, the biggest of the export
benchmark, go through `gen` and `solve --method ilp-export` only, so the
LP writer is pinned on models of thousands of rows.  The pinned digests catch any byte-level change in
file output, so a refactor that claims to preserve behaviour can be checked
against them.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from tsn.cli import main
from tsn.core import dump_json, instance_to_dict, make_instance

CASES = {
    "example1": ["--kind", "example1"],
    "lc-yes": ["--kind", "lc-yes", "--u", "3", "--v", "3", "--degree", "2", "--sigma", "3", "--seed", "1"],
    "lc-yes-undirected": [
        "--kind", "lc-yes", "--u", "2", "--v", "3", "--degree", "2", "--sigma", "2", "--seed", "2",
        "--undirected",
    ],
    "phlc-yes": ["--kind", "phlc-yes", "--k", "3", "--part-sizes", "2,1,2", "--edges", "2", "--sigma", "2", "--seed", "3"],
    "phlc-nosat": ["--kind", "phlc-nosat", "--k", "3", "--part-sizes", "1,2,1", "--edges", "2", "--sigma", "2"],
}

EXPORT_CASES = {
    "lc-yes-12": ["--kind", "lc-yes", "--u", "12", "--v", "12", "--degree", "4", "--sigma", "4", "--seed", "0"],
    "phlc-yes-k5": [
        "--kind", "phlc-yes", "--k", "5", "--part-sizes", "3,3,3,3,3", "--edges", "6", "--sigma", "3",
        "--seed", "0",
    ],
}

GOLDEN: dict[str, dict[str, str]] = {
    "example1": {
        "bb.json": "25a27bab199071114ba14931575ee9f6f3d9733a70cc51e5f85ea6a0cfc8676a",
        "instance.json": "5c2fb4c360e7e9dfb0f1433d91876b1570cf461f4bc43f635fcf5b78217df764",
        "model.lp": "2eb8c6f3b52e22c5e10138e355e447b3be8f104cb34d2cf9dee94f68febf57ce",
        "simple.json": "0ab459a764a1c65b3f580a3101abd13cb6fc0f5cd6af3896dab5477c17acf3d5",
        "simple_map.json": "cb1b75109faf6c69ed18198dc2e918a1707bc6ec8c124668c0e00ca45424ee34",
        "source.json": "3a6edd5cc2a250c95e85ec740c06bf64782d3ba4b18cfdabef38ded7f1a7d1df",
        "trace.json": "95111ad5f7ca46a6dd1caca927564ef5ddeea21e42dc08e847175adbeda349de",
        "union.json": "bcb97e297d1823fa21b7ce0b8999ead66a5cadc13c47e4f250ee568150ef00aa",
    },
    "lc-yes": {
        "bb.json": "b33ea97275a65671b3e15fc72f68f3ee1ec56c0e73f318f0402c97150d21cce8",
        "instance.json": "cebac0cfbf07ed328481d80243cecc7feb689eb851d56ec67795348ceb32ba89",
        "model.lp": "b0d34b9795bdd8f2fbc682c0c7cff3cc6c31b1ae8773fff928ac12da01647dab",
        "simple.json": "2719da3d052082fa388a68f911e273ea977a726cf1d0814c8ac69ed80494e17a",
        "simple_map.json": "6e5f05f4a90702eb92bd14760da4bf1cf17218bbe8e93abf871a7fe2f091b7a9",
        "source.json": "efad7cbeff39376ca3d3fc38bbaefcca94e5479e0feee74b351ee0107ca18de6",
        "trace.json": "6ebfa7b9f6fd81742e36ad266971f9b795fe773dbb74ec1a019de6b3b2056b8e",
        "union.json": "b0c0f79bcfd3304118c7056bb6ff8883bd7eee08010de961c67cd75ea1cb6bcc",
    },
    "lc-yes-undirected": {
        "bb.json": "5d26d7d8886cc143648e55dd3d2678633000728a78f57d7ebdc9523d511213a0",
        "instance.json": "1fc65610062571685a71f0a8405a9d4bf054333c14b8147c66e472f6d4c3ecb6",
        "node.json": "91848f4122d0cbe5698f1ad20224911eefb94096c895c84e007e308849c6bcc4",
        "node_map.json": "4bf2f042b8660b04dcdd3d391f5f1972199ffe16e07c132e6155dea37016bd0d",
        "source.json": "c10bee66f694e12131f9cfe975434dfc34759d68ba4b4092b8d0dacb6dc8976a",
        "trace.json": "fe3ad6c101ef2539efdabc8769e011f330e4150ab12a74c1f3ebbffcdf4dc36b",
        "union.json": "55d639b4274fb781b1ffbe937d064c82b0fa0c83f95470f463bb63762e6a3228",
    },
    "phlc-nosat": {
        "bb.json": "1c1d0180d772a8147922ef3be76fcf03b4a62cb10d8ef146f05d2d7d67c503cc",
        "instance.json": "91cc7846b63599c24ff05d2e4f65e007608e68d7de7a9e7408b2499eabe55a3d",
        "model.lp": "512cf8b60cb3f54f27cf7c5491fee7e91857f4aec4f458a0529f4ec08342d013",
        "simple.json": "16d6191471384768b8178d33cc0a19235d4e567417d542af5fd437164206e7be",
        "simple_map.json": "b7f57312a9d34183613d01e9eabf489b68073a0c0f7f1827f10c9dfda3b1532b",
        "source.json": "1dbde311f121032cce34818e6a9897d3a863fbc2c0769e1983c04bb3f0df1682",
        "trace.json": "ac41dfc37af112e00d2de9ea24256e53b27e12671af6c6bdc9dddabc18c16fd3",
        "union.json": "2ec0fc30c42f8b4ffad278a01eefeeee69956385e08862485635e136d8a5daed",
    },
    "phlc-yes": {
        "bb.json": "c76a12721bb4102fca9e9fe7e8e56b26b452fe85543f11f398642b01d180dfae",
        "instance.json": "7185337818c74f058ea8ca62d587fbed46b18a1bf74a992df8d8cac19e672780",
        "model.lp": "270949236ed1a7b6cafd6136fffcd0565bb7cf7dcf0bcd43a2582d560878b91d",
        "simple.json": "40ae5133aeb4ffef25adc950109e7ec7a9c3a3b25eb6a4c08825588e5042d62c",
        "simple_map.json": "689403d99c337db889072f69b2dc9a65c9fa66a1e2d15aa6e51027e521ad3c98",
        "source.json": "b44baaa941e7b4e67d3e0a9951fb6c2fab65da7e2621cb3dde12c1e87f31e206",
        "trace.json": "a057f787b9610dfcc50903fc75763f335a3651ca44554864e552939b24a7d85d",
        "union.json": "ff4876f857fabef383a0930a1ddca78fc0c6e3663af558f906584c2ed1b4135a",
    },
    "lc-yes-12": {
        "instance.json": "c8ded202f5741bc1458f7d97081688052a4390ed77312d468fff46c7d7c04b46",
        "model.lp": "5b8b08df7e64bbaed25dd94faeda704758b24761fb2b2486447ab94eaf055607",
    },
    "phlc-yes-k5": {
        "instance.json": "5219a8b1e2be388b840dcb2bf3c31b7ab728e43febbf90af7944a804354c8ca2",
        "model.lp": "c14e486398c8888098b7f244e3bbcabe4b5499cc18a08dca4468293fa06ca207",
    },
    "monotonic": {
        "directed.json": "0f734482b1ed017645e1bf059870bb721d51c76c7bbf781503fa844510f17a7f",
        "dst.json": "a2a1bdc9eba51909ef26de13b819c9bc166ce2422830c2b18d9ed02c6b70d66d",
        "dst_map.json": "06a47cf1fb789f4455b297272f9ec7cf2fd1b612e10a35886ecdbce39669b6b4",
        "priority.json": "b9a1b4821ef57eecd5080d2d2ebb8bc06888d3ab7d11575982620c65d47bf398",
        "priority_map.json": "06a47cf1fb789f4455b297272f9ec7cf2fd1b612e10a35886ecdbce39669b6b4",
        "undirected.json": "70fc34ea7226389c49c3253af7c496379fffe795fe90495008d77d8b32279704",
    },
    "greedy": {
        "m12.json": "e805b4efe27acd8be326f5ad7862b00f5f31f5b59f0cbacff1af154f59dac256",
        "m12_level2.json": "5568d93a65f8b15868e7927115c3f244655d328d61165ac5eca24bc62669f184",
        "m12_level3.json": "fd2857822e55c519267f68fbc01f6671c1dd387d286bded0efe5f01c36134d35",
        "m9.json": "c414399016c4f4a16f6a87ddbb6d113346490bda2dba14343ff5fb6b0de48b8a",
        "m9_level2.json": "0417f7c9cfa6a8b8074730c61414bac3a9d4313e55a0b8dcb000143edc539fad",
        "m9_level3.json": "b7e02fdf5292a0e135722c58aa955d25a8a507a10c0c6aafbba1ba6a1e5935e5",
    },
}


def run_corpus_case(gen_args, workdir) -> dict[str, str]:
    """Run the CLI pipeline for one case; returns {file name: sha256}."""
    inst = workdir / "instance.json"
    commands = [
        ["gen", *gen_args, "-o", inst, "--trace", workdir / "trace.json",
         "--source", workdir / "source.json"],
        ["solve", "-i", inst, "--method", "bb", "-o", workdir / "bb.json"],
        ["approx", "-i", inst, "--method", "union", "-o", workdir / "union.json"],
    ]
    if "--undirected" in gen_args:
        commands.append(["reduce", "--to", "node", "-i", inst, "-o", workdir / "node.json",
                         "--map", workdir / "node_map.json"])
    else:
        commands.append(["reduce", "--to", "simple", "-i", inst, "-o", workdir / "simple.json",
                         "--map", workdir / "simple_map.json"])
        commands.append(["solve", "-i", inst, "--method", "ilp-export", "--lp", workdir / "model.lp"])
    return run_commands(commands, workdir)


def run_commands(commands, workdir) -> dict[str, str]:
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
    }


def run_monotonic_reductions(workdir) -> dict[str, str]:
    """`reduce --to dst` and `--to priority-st`, both with `--map`, on two
    small monotonic instances."""
    directed = make_instance(
        directed=True, variant="edge", num_times=3,
        vertices=["s", "x", "y", "b"],
        edges=[("s", "x", 1, (1, 2, 3)), ("x", "b", 2, (2, 3)),
               ("s", "y", 3, (1, 2, 3)), ("y", "b", "1/2", (3,))],
        demands=[("s", "b", 2), ("s", "y", 1), ("s", "b", 3)],
    )
    undirected = make_instance(
        directed=False, variant="edge", num_times=2,
        vertices=["a", "b", "c"],
        edges=[("a", "b", 1, (1, 2)), ("b", "c", 2, (2,)), ("a", "c", "5/2", (2,))],
        demands=[("a", "c", 2), ("a", "b", 1)],
    )
    dump_json(instance_to_dict(directed), str(workdir / "directed.json"))
    dump_json(instance_to_dict(undirected), str(workdir / "undirected.json"))
    return run_commands(
        [
            ["reduce", "--to", "dst", "-i", workdir / "directed.json",
             "-o", workdir / "dst.json", "--map", workdir / "dst_map.json"],
            ["reduce", "--to", "priority-st", "-i", workdir / "undirected.json",
             "-o", workdir / "priority.json", "--map", workdir / "priority_map.json"],
        ],
        workdir,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_files_are_pinned(case, tmp_path, capsys):
    digests = run_corpus_case(CASES[case], tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_large_ilp_exports_are_pinned(case, tmp_path, capsys):
    inst = tmp_path / "instance.json"
    digests = run_commands(
        [
            ["gen", *EXPORT_CASES[case], "-o", inst],
            ["solve", "-i", inst, "--method", "ilp-export", "--lp", tmp_path / "model.lp"],
        ],
        tmp_path,
    )
    capsys.readouterr()
    assert digests == GOLDEN[case]


def test_monotonic_reduction_files_are_pinned(tmp_path, capsys):
    digests = run_monotonic_reductions(tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN["monotonic"]


def monotonic_instance(seed: int, n: int, m: int, T: int, k: int):
    """Directed edge-variant instance with upward-closed activity, every
    demand rooted at v0, weights drawn from 0, 1/2, 1/3, 2/7, 5/6 and 1..9;
    redrawn until every demand is satisfiable."""
    from tsn.core import first_unsatisfiable_demand

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    weights = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 6),
               *(Fraction(w) for w in range(1, 10))]
    arcs = [(u, v) for u in names for v in names if u != v]
    while True:
        edges = [(u, v, rng.choice(weights), tuple(range(rng.randint(1, T), T + 1)))
                 for u, v in rng.sample(arcs, m)]
        demands = [("v0", rng.choice(names[1:]), rng.randint(1, T)) for _ in range(k)]
        inst = make_instance(directed=True, variant="edge", num_times=T, vertices=names,
                             edges=edges, demands=demands)
        if first_unsatisfiable_demand(inst) is None:
            return inst


def run_greedy(workdir) -> dict[str, str]:
    """`approx --method charikar` at levels 2 and 3 on two monotonic instances."""
    commands = []
    for name, shape in (("m9", (29, 9, 24, 3, 5)), ("m12", (12, 12, 36, 4, 6))):
        path = workdir / f"{name}.json"
        dump_json(instance_to_dict(monotonic_instance(*shape)), str(path))
        for level in (2, 3):
            commands.append(["approx", "-i", path, "--method", "charikar", "--level", str(level),
                             "-o", workdir / f"{name}_level{level}.json"])
    return run_commands(commands, workdir)


def test_greedy_files_are_pinned(tmp_path, capsys):
    digests = run_greedy(tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN["greedy"]
