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
against them.  A second pin on each JSON file hashes its parsed value, so a
change of layout that keeps every value shows as bytes moving alone.
"""

from __future__ import annotations

import hashlib
import json
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
        "bb.json": "04d47105a2cfd6dd086f3d62e7c45b2b4adacb68b1860f8ac626b932cb860a8b",
        "instance.json": "5d59d84e89bb205879a921329c0eae6cd41e6e55446e3faeca21535e22b3be0d",
        "model.lp": "2eb8c6f3b52e22c5e10138e355e447b3be8f104cb34d2cf9dee94f68febf57ce",
        "simple.json": "2ec12813305ec7eda5cfe1f2fde0b8e08a77d2d48d5e9f9e7dfae6ed05ca0309",
        "simple_map.json": "ad7184a36bd2b5d5633df3c92b412b3c957f8a586c6632b2da983cf616e33f30",
        "source.json": "543bde9222cd0240a9387d5ab2cc77cec942284cf630499337d8009c0209bfa1",
        "trace.json": "121551c7028be8845e1235d28b71346257a6f3e1a088f9c2dc47561636fe91f8",
        "union.json": "b379371e9fd1893e359a4b299f766acbfcf31776d69e6b5da06c9b16eec9f8a2",
    },
    "lc-yes": {
        "bb.json": "aed57cdf73e901cdefbb6ecdc350bb1fa29d46cf95066f9d09a9fb06f1ae4746",
        "instance.json": "04e0b927108fcdef6d80c1f714e550cb48740188649711e9b09c237f669d6ba0",
        "model.lp": "b0d34b9795bdd8f2fbc682c0c7cff3cc6c31b1ae8773fff928ac12da01647dab",
        "simple.json": "82ec35dd2c6611a611cb7292d437d5d50aaee39c9179ce94d6aaf8cdca5194e7",
        "simple_map.json": "5317ac3d5ed87013b17864efd544a511fe5f726fd986f8da6b05c077cb606589",
        "source.json": "2357ae9cdbca2ea44104f6c40dca3ebf8d2aa7a29acf088e3829ac51a2d9b066",
        "trace.json": "c322e1e0823f5964959d4469e9a328edffe1969c69ee6bb1b82ac142bb67c93d",
        "union.json": "cb83501b3af46da0eb5f5be514491888081c4f4e692692f2122bd255023ab65f",
    },
    "lc-yes-undirected": {
        "bb.json": "8578640b11910de1887ee21d3a4a52f641f856eee720dd3fe1bb51ca2115cc4c",
        "instance.json": "e0333a868f5f643f3be1a7f37c2da6460ddd057a0befb67b5ea97a1c9d101c1a",
        "node.json": "5a4d8815a1cb654fa8b74e5d998240811d52a85bfe9f350c7bee37ae6b23691a",
        "node_map.json": "230948c9f09cc382e1a498dc243a822d195dc390e9fbc9277317e40e21c58063",
        "source.json": "d49f4b8d1bbe1516b383e82761a920297b309b656565d75e85baacd03bc62305",
        "trace.json": "72503ee4c3f5a78a8de735ec3308d7ff6efa1f6cc6d3a1701c0415f9b05a78f2",
        "union.json": "0b257faab1fbf34507e0f961b5cd6539ca8a2c50350825c20fac9b5bceeeb2d7",
    },
    "phlc-nosat": {
        "bb.json": "c4b6acb78385a9c8f50199f27ad455955da3fd50b694ca2dcea9e50f74f81f49",
        "instance.json": "aad0a4a94c18cfd3fcf2834f2c428f2c00c820cab7ee71c13039894185691933",
        "model.lp": "512cf8b60cb3f54f27cf7c5491fee7e91857f4aec4f458a0529f4ec08342d013",
        "simple.json": "e608d14d9463f667308565bc2c743721b0c58b46f14e58a69a88c53470b96915",
        "simple_map.json": "b7b5e28834f7df01b64b2124e3601ce3cff69b7d3b65ee9ac9741caa6b519798",
        "source.json": "a4103f6aa15f127a62834121c252868062aad2fa6c79f201ae1664cf80632eeb",
        "trace.json": "b53a0b74a10f16969079a4f0001445cda256b3f7086dd1c8d59cfdd775da3ebb",
        "union.json": "6a302431d523c696162132328151c219dc138429288a9623019ecb1edd399dbd",
    },
    "phlc-yes": {
        "bb.json": "41c63993875d2c5e910b707522486f5b4eed98cd2d3c158640760d323b908331",
        "instance.json": "26a72837cb76588cd1cbb36549c8a0622b0fb1a913e3fdc10c1e2bba62ddb5c6",
        "model.lp": "270949236ed1a7b6cafd6136fffcd0565bb7cf7dcf0bcd43a2582d560878b91d",
        "simple.json": "14adb7e5a739f3c868a7a48bc72e211b090addc85a7e223810c1fbfa00322f4a",
        "simple_map.json": "0baf02708d852b58aed0150564863465402e6ea46de3ee4242a6dd1420402af1",
        "source.json": "1980ffbb8c2a2f25796d424dbe11226653fc98edaec0ca354357175baf23f3b9",
        "trace.json": "73528d4a2318eb63808a05dc92ef29272156981eb5f8de12e73c42a11f967b40",
        "union.json": "a795076c7d5100fa7a7cfdcb5bf0c3c195240014bb4677d4fe1e6bd5c8ba0b56",
    },
    "lc-yes-12": {
        "instance.json": "ffe8d5df1aebe138a652bcabc33d277d26b580ca74a66d26c21144c3a1b38e65",
        "model.lp": "5b8b08df7e64bbaed25dd94faeda704758b24761fb2b2486447ab94eaf055607",
    },
    "phlc-yes-k5": {
        "instance.json": "ea72f5471d1dafd1589c1c58575317ea66134e6afbe2fddd44ca141234b7a169",
        "model.lp": "c14e486398c8888098b7f244e3bbcabe4b5499cc18a08dca4468293fa06ca207",
    },
    "monotonic": {
        "directed.json": "3335cc4293424bf0308f0ebadadddde7be1515afc67c3e6b3c7867101f48bad4",
        "dst.json": "48da78f254d725846306bf55442c201154a320d6a1382f4263978344df889940",
        "dst_map.json": "2b30deaa41c87a3e8a1f997de832be868a297b780dbb3144359237f5f6d533df",
        "priority.json": "ae273905e4e0749dd71a12c39f4922fb871948a9c6a9da0314f7761137a20da6",
        "priority_map.json": "2b30deaa41c87a3e8a1f997de832be868a297b780dbb3144359237f5f6d533df",
        "undirected.json": "ef0e29ed52903a6be90d6e91872025827cbad14bcde8dab3769920b8e1284dd2",
    },
    "greedy": {
        "m12.json": "fb7c9a27bc276039002eaa6f653594b1b802b3a4bc3851e174370af9069c890b",
        "m12_level2.json": "68a2a71f78fad910dd127e1e9cb53c324c99c8807416ccee5f0375f0c0072ee7",
        "m12_level3.json": "c00adc87fbb1c9ab646b01a4c68cd8d0536790f579353df74bb6a35e027fa364",
        "m9.json": "862bf499402c756cb27b6ab0bf2df093e0fb5abac1b5f7c2c902707337f46af8",
        "m9_level2.json": "684e9c2ba3546f178a187c8f6e5445e1ac318880ade896a9c5519fcd5ff76490",
        "m9_level3.json": "37f7ebf9490697f19bab1f2f4a3eac75c78e73bece9c975c2d407a521df6188f",
    },
}

# The value of every JSON file above (`value_digests`): a change of file
# layout moves `GOLDEN` but must leave these.
VALUES: dict[str, dict[str, str]] = {
    "example1": {
        "bb.json": "c672544cad0dd825ce51c3d4e43040eb4f487107b10d849c44a1451feb97cbe3",
        "instance.json": "2da2fcb4152c406342e556092eb006b6e2678df7ef0132d14378ad27d7af3bef",
        "simple.json": "d30ed4a84e54a951f2ed58f919b140ca54e714be474eb242029c1fef6a4f9d75",
        "simple_map.json": "e26397f068cfe80e1e9dc732a4001670b8ee447d51597f2931cde7623d47eda8",
        "source.json": "934827e0f6ccc42e062bb6e1e294b016bd35cf3c0bdef0a38cf682b814cb889b",
        "trace.json": "f07e575be5aefc335af8df0551b8c03e09635b4d5089aedf8187b5bcd2e3703c",
        "union.json": "612a9805ca65dfbf1f103663eb5e3b57e84375f5ddc014ddd75a93e79027361b",
    },
    "lc-yes": {
        "bb.json": "4eb2f6a21a3f3fce346335f48d033ac9357e43c1249b9b0b0a22e6994d7923fc",
        "instance.json": "2ac9369d5897eb08be5a934bc6b2aab096d058466cc32ca64b6a71cb1727bca1",
        "simple.json": "52fa3ed398040b15dd0630f18d80042a4c369e32084acae6c9851d6fbcd9ccec",
        "simple_map.json": "5df234185e666babcbcb6410729c6da14fe5d2efddcd30dbb12df079d4e53f10",
        "source.json": "b1b54d8ec1584a6749476e76436f1f2bf824c2d7d215ab12139c91cbec76f25a",
        "trace.json": "4ed13a2240c29142939135481d520f7ae23534f9dbccc26287a701277da87ef6",
        "union.json": "49f358bfb5814d3c163be2cf37e2ae6dea34ee209d4911af50bad5ba8fde4994",
    },
    "lc-yes-undirected": {
        "bb.json": "865fe8f952e44efb0afbc085240f8f0a5f40f87f9391aac9a3ae4e0eefb24c78",
        "instance.json": "820f0e181ab2513b1ae4283ee044f5b70c80223dbb284cd407a646f89569a9a3",
        "node.json": "4eb61a739be070bafd7496f48dbdec4dc33d70bcecfdd03411028f8f7ecd5727",
        "node_map.json": "0cdf42e9e39e1c370bbd12c8d2dabe57d7d0ab9e5e06dcb7db5fab6fa4e18d9f",
        "source.json": "e999fefecc372abf0bf6860bf80d3d1c50283a46bbcde2c667834ec548c80423",
        "trace.json": "f3beb8da7908804fe8e43c5ccb3c6697f7f0aed81b43e356a187cb5078dc74f5",
        "union.json": "179269e5e06bc07176321d1487a547589a03254547fdcff724c20bd1f34337c3",
    },
    "phlc-nosat": {
        "bb.json": "26cacfad3f72664755ff2322c359c9dc55b2f68a20475b19a5c707fe2f253c68",
        "instance.json": "0c55532c5c21d02a2fb632e2839c0cf8e8247781a6298dc13060fec278e96827",
        "simple.json": "f61ffa9500c7551ad5ffb459269f22de0d8891a1716be9778d6b73a6825b7871",
        "simple_map.json": "4cb92672aa83d1410f3e5025342f39c84c89c4f3c7f31ed4a65ede66c3dc0e62",
        "source.json": "a05c20bf20e3d74b7493cdc0fb57210c8a17f98cadaa93d4b5e8171bee6029b5",
        "trace.json": "f2bae68cb467c83f601a37bafc38a8c763e970f28853c8eb8d65575d9e628e7e",
        "union.json": "598b0f8a991aa6a7ed8f129a004c868070383d4e669e969584108d8f08924253",
    },
    "phlc-yes": {
        "bb.json": "422256053f673ce736c0561e8d2378071f3cb0b35cd8982991ec021d0c7d976e",
        "instance.json": "ca93fb4e75d3636ce8c77deea1c9d577600509c19c43e6b888252a70bdb2b264",
        "simple.json": "cf30728e3eaf6b2e33961a17ada8d92651b973d9c6ba77152082b24dbef7220b",
        "simple_map.json": "07d713fb80caf4d487961d48cd49be4010e43e9521ce60545c1838eed890e3c5",
        "source.json": "5fdd6d9468ac7f53de67a085bc2e958e8b77aa62a518a8e30280b0383ecf763c",
        "trace.json": "191383db5dc36bbc27a99fd3acd771ccc623dcd8495f7ff268c1d5c466f05ca4",
        "union.json": "76b3874d16032a4f82f07f1b42d2e4b44b1eb439dc5a1ebb9c7426c64ef3da67",
    },
    "lc-yes-12": {
        "instance.json": "fb8b37c552cbc868fa7f4e2ce0c338028fc1b620c323d72bb205ca7cf0c7f8ef",
    },
    "phlc-yes-k5": {
        "instance.json": "d53ccbf1d76ab9108be9d986220888d42d0629282e5dd534f24bb97704a3635f",
    },
    "monotonic": {
        "directed.json": "4876b714fe4df1808c2b318215e9b28f79cf172290a333f7bce122cbd93b4e8c",
        "dst.json": "5a88c6bdca025f09f932680782c942be4c67a508bae5f7b26df239f8206b7294",
        "dst_map.json": "075620c2e2eadaa6db4721b3d90d34bde1a62657631f0be1f4fb712d4b5e3f35",
        "priority.json": "2004f6af817b9fb6ff000ea8c976c3078b4f8e2fa1fb5ec99b75949cbff348e3",
        "priority_map.json": "075620c2e2eadaa6db4721b3d90d34bde1a62657631f0be1f4fb712d4b5e3f35",
        "undirected.json": "d3bbb27295626ce3de8aef6f4e8889ec4f667d60a6692f69d105acdbb1a4c213",
    },
    "greedy": {
        "m12.json": "3e9761c8719e1fab955ee1038f2fd356412f9f4b8dbb3f35c2cb407d39a62a83",
        "m12_level2.json": "e103621d559655f0d01e3caf4deb5c3717b1614c075d4b0b5aa7d29a76963f45",
        "m12_level3.json": "eddcf27577a3dfd744c4fbe6e606bb8d792c585275f78db84552d6ed5aa0ed11",
        "m9.json": "c0cd8544cf245bf67508040137b7cacc2870ae9658a15d57793b9aa07ee6718f",
        "m9_level2.json": "637eac465fc8f496baca929e68616570c9bcef2707a234686ba9f725e1de11ef",
        "m9_level3.json": "08fffff8c47a7209e5a16cd43137bd804b0e8e106c786ed544fd1b73b6a2a200",
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


def value_digests(workdir) -> dict[str, str]:
    """{JSON file name: sha256 of its value}, the value written as one
    compact line with keys in file order, so a change of layout alone
    leaves it."""
    values = {p.name: json.loads(p.read_text(encoding="ascii"))
              for p in sorted(workdir.glob("*.json"))}
    return {name: hashlib.sha256(json.dumps(v).encode()).hexdigest() for name, v in values.items()}


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


def run_export_case(gen_args, workdir) -> dict[str, str]:
    inst = workdir / "instance.json"
    return run_commands(
        [
            ["gen", *gen_args, "-o", inst],
            ["solve", "-i", inst, "--method", "ilp-export", "--lp", workdir / "model.lp"],
        ],
        workdir,
    )


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_large_ilp_exports_are_pinned(case, tmp_path, capsys):
    digests = run_export_case(EXPORT_CASES[case], tmp_path)
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


def run_case(case, workdir) -> None:
    """Write the files of one `GOLDEN` entry into `workdir`."""
    if case in CASES:
        run_corpus_case(CASES[case], workdir)
    elif case in EXPORT_CASES:
        run_export_case(EXPORT_CASES[case], workdir)
    elif case == "monotonic":
        run_monotonic_reductions(workdir)
    else:
        run_greedy(workdir)


@pytest.mark.parametrize("case", sorted(VALUES))
def test_output_values_are_pinned(case, tmp_path, capsys):
    run_case(case, tmp_path)
    capsys.readouterr()
    assert value_digests(tmp_path) == VALUES[case]
