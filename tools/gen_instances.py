#!/usr/bin/env python3
"""Regenerate the shipped artifacts: transfer instances, corpus, golden files.

Everything written here is deterministic.  Each transfer instance is
validated against its expected verdict before being frozen; corpus findings
are selected from suite runs by shape and re-checked via replay; golden
reports are produced by running the CLI in-process and cross-checked against
brute-force recomputations by the test suite.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from redsep import serialize  # noqa: E402
from redsep.cli import _derived_class, main as cli_main  # noqa: E402
from redsep.spaces import components  # noqa: E402
from redsep.suites import replay_finding, run_suite  # noqa: E402
from redsep.transfer import transfer_property  # noqa: E402

SIERPINSKI = {"n": 2, "subbasis": [[1]]}
DISCRETE_2 = {"n": 2, "subbasis": [[0], [1]]}
DISCRETE_3 = {"n": 3, "subbasis": [[0], [1], [2]]}
INDISCRETE_3 = {"n": 3, "subbasis": []}
CHAIN_3 = {"n": 3, "subbasis": [[2], [1, 2]]}
FIVE_OPEN_3 = {"n": 3, "subbasis": [[1], [0, 1], [1, 2]]}
POINT = {"n": 1, "subbasis": [[0]]}

UNION_2 = {"alphabet": 2, "branches": [[0], [1]], "mode": "range"}
INTERSECTION_2 = {"alphabet": 2, "branches": [[0, 1]], "mode": "range"}
A_OP_2_2 = {"alphabet": 2, "branches": [[0, 0], [0, 1], [1, 0], [1, 1]], "mode": "range"}
A_OP_PREFIX = {"alphabet": 2, "branches": [[0, 0], [0, 1], [1, 0], [1, 1]], "mode": "prefix"}

POWER_1 = {"universe": 1, "members": [[], [0]]}
POWER_2 = {"universe": 2, "members": [[], [0], [1], [0, 1]]}
POWER_2_IN_3 = {"universe": 3, "members": [[], [0], [1], [0, 1]]}
MERGE_3_2_ALG = {"universe": 3, "members": [[], [0, 1], [2], [0, 1, 2]]}
MERGE_2_1_ALG = {"universe": 2, "members": [[], [0, 1]]}
PROJ_4_2_ALG = {"universe": 4, "members": [[], [0, 1], [2, 3], [0, 1, 2, 3]]}

SIERPINSKI_SQUARE = {
    "n": 4,
    "subbasis": [[1, 3], [2, 3]],
}


def identity_map(space_doc):
    return {"dom": space_doc, "cod": space_doc, "table": list(range(space_doc["n"]))}


def instance(name, map_doc, base, which, dom_gens, cod_gens, mode=None, expect=True):
    doc = {
        "map": map_doc,
        "base": base,
        "which": which,
        "dom_generators": dom_gens,
        "cod_generators": cod_gens,
    }
    if mode is not None:
        doc["mode"] = mode
    return name, doc, expect


def transfer_instances():
    ident_s = identity_map(SIERPINSKI)
    ident_d3 = identity_map(DISCRETE_3)
    ident_i3 = identity_map(INDISCRETE_3)
    ident_c3 = identity_map(CHAIN_3)
    ident_5 = identity_map(FIVE_OPEN_3)
    merge_3_2 = {"dom": DISCRETE_3, "cod": DISCRETE_2, "table": [0, 0, 1]}
    merge_2_1 = {"dom": DISCRETE_2, "cod": POINT, "table": [0, 0]}
    rotate_3 = {"dom": DISCRETE_3, "cod": DISCRETE_3, "table": [1, 2, 0]}
    embed_2_3 = {"dom": DISCRETE_2, "cod": DISCRETE_3, "table": [0, 1]}
    collapse_3_1 = {"dom": DISCRETE_3, "cod": POINT, "table": [0, 0, 0]}
    proj_sq = {"dom": SIERPINSKI_SQUARE, "cod": SIERPINSKI, "table": [0, 0, 1, 1]}

    return [
        instance("01-identity-sierpinski-union-reduction", ident_s, UNION_2, "reduction", "opens", "opens"),
        instance("02-identity-sierpinski-union-separation", ident_s, UNION_2, "separation", "opens", "opens"),
        instance("03-identity-sierpinski-intersection-reduction", ident_s, INTERSECTION_2, "reduction", "opens", "opens"),
        instance("04-identity-sierpinski-aop-reduction", ident_s, A_OP_2_2, "reduction", "opens", "opens"),
        instance("05-identity-sierpinski-aop-prefix-reduction", ident_s, A_OP_PREFIX, "reduction", "opens", "opens"),
        instance("06-identity-chain3-union-reduction", ident_c3, UNION_2, "reduction", "opens", "opens"),
        instance("07-identity-chain3-union-separation", ident_c3, UNION_2, "separation", "opens", "opens"),
        instance("08-identity-chain3-aop-separation", ident_c3, A_OP_2_2, "separation", "opens", "opens"),
        instance("09-identity-indiscrete3-union-reduction", ident_i3, UNION_2, "reduction", "opens", "opens"),
        instance("10-identity-discrete3-union-separation", ident_d3, UNION_2, "separation", "opens", "opens"),
        instance("11-identity-discrete3-intersection-separation", ident_d3, INTERSECTION_2, "separation", "opens", "opens"),
        instance("12-merge32-union-reduction", merge_3_2, UNION_2, "reduction", MERGE_3_2_ALG, POWER_2),
        instance("13-merge32-union-separation", merge_3_2, UNION_2, "separation", MERGE_3_2_ALG, POWER_2),
        instance("14-merge32-intersection-reduction", merge_3_2, INTERSECTION_2, "reduction", MERGE_3_2_ALG, POWER_2),
        instance("15-merge32-aop-reduction", merge_3_2, A_OP_2_2, "reduction", MERGE_3_2_ALG, POWER_2),
        instance("16-merge32-aop-prefix-separation", merge_3_2, A_OP_PREFIX, "separation", MERGE_3_2_ALG, POWER_2),
        instance("17-merge21-union-reduction", merge_2_1, UNION_2, "reduction", MERGE_2_1_ALG, POWER_1),
        instance("18-merge21-union-separation", merge_2_1, UNION_2, "separation", MERGE_2_1_ALG, POWER_1),
        instance("19-rotate3-union-reduction", rotate_3, UNION_2, "reduction", "opens", "opens"),
        instance("20-rotate3-aop-separation", rotate_3, A_OP_2_2, "separation", "opens", "opens"),
        instance("21-embed23-union-reduction", embed_2_3, UNION_2, "reduction", POWER_2, POWER_2_IN_3),
        instance("22-collapse31-union-separation", collapse_3_1, UNION_2, "separation", {"universe": 3, "members": [[], [0, 1, 2]]}, POWER_1),
        instance("23-projection-square-union-reduction", proj_sq, UNION_2, "reduction", PROJ_4_2_ALG, POWER_2),
        instance(
            "24-merge32-unsaturated-generators",
            merge_3_2,
            UNION_2,
            "reduction",
            {"universe": 3, "members": [[], [0], [2], [0, 1, 2]]},
            POWER_2,
            expect=False,
        ),
        instance(
            "25-identity-fiveopen-no-codomain-reduction",
            ident_5,
            UNION_2,
            "reduction",
            "opens",
            "opens",
            expect=False,
        ),
    ]


def check_transfer(doc, expect):
    pm = serialize.map_from_doc(doc["map"], "instance.map")
    base = serialize.base_from_doc(doc["base"], "instance.base")
    mode = doc.get("mode") or base.mode_hint

    def gens(val, space):
        if isinstance(val, str):
            return _derived_class(space, val, "instance")
        return serialize.class_from_doc(val, "instance")

    rep = transfer_property(
        pm, base, gens(doc["dom_generators"], pm.dom), gens(doc["cod_generators"], pm.cod),
        mode, doc["which"],
    )
    assert rep.verdict is expect, (doc, rep.verdict, rep.failure)
    # traces hold bits: each pair's images, and witness bits pulled back to a valid witness
    for trace in rep.pairs:
        assert (trace.fa, trace.fb) == (pm.image_bits(trace.a), pm.image_bits(trace.b)), (doc, trace)
        if trace.witness_dom is not None:
            assert trace.valid, (doc, trace)
    return rep


def write_instances():
    out_dir = ROOT / "instances" / "transfer"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, doc, expect in transfer_instances():
        check_transfer(doc, expect)
        path = out_dir / f"{name}.json"
        path.write_text(serialize.canonical_json(doc))
        names.append(path.name)
    print(f"instances/transfer: {len(names)} files")
    return names


def _finding_file(corpus, doc):
    payload = serialize.canonical_json(doc)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    name = f"{doc['suite']}-{digest}.json"
    (corpus / name).write_text(payload)
    return name


def write_corpus():
    corpus = ROOT / "corpus"
    corpus.mkdir(exist_ok=True)
    picked = []

    res = run_suite("intersection-image-necessity")
    assert res.passed
    # the two-point merge with the directed chain and a non-decreasing family
    chain = next(
        doc
        for doc in res.witnesses
        if doc["instance"]["map"]["table"] == [0, 0]
        and doc["instance"]["order"] == [[0, 1]]
        and doc["instance"]["family"] == [[0], [1]]
    )
    # the same family over the two-point antichain: F(A n B) != FA n FB
    antichain = next(
        doc
        for doc in res.witnesses
        if doc["instance"]["map"]["table"] == [0, 0]
        and doc["instance"]["order"] == []
        and doc["instance"]["family"] == [[0], [1]]
    )
    picked += [chain, antichain]

    res = run_suite("image-necessity")
    assert res.passed
    # the smallest non-injective map broken by a non-decreasing prefix family
    small = next(
        doc for doc in res.witnesses if doc["instance"]["map"]["table"] == [0, 0]
    )
    picked.append(small)

    res = run_suite("zero-trace-gap", keep=512)
    assert res.passed

    def connected_3pt(doc):
        if doc["instance"]["space"]["n"] != 3 or len(doc["instance"]["carrier"]) != 2:
            return False
        if len(doc["detail"]["gap"]) < 2:
            return False
        space = serialize.space_from_doc(doc["instance"]["space"])
        return len(components(space)) == 1

    # a connected 3-point space with a strict gap on a 2-point carrier
    picked.append(next(doc for doc in res.witnesses if connected_3pt(doc)))

    names = []
    for doc in picked:
        assert replay_finding(doc), doc
        names.append(_finding_file(corpus, doc))
    print(f"corpus: {len(names)} files")
    return names


GOLDEN = [
    (
        "reduction-five-opens",
        {"space": FIVE_OPEN_3, "class_from": "opens"},
        ["check-reduction"],
        1,
    ),
    (
        "sierpinski-zeros",
        {"space": SIERPINSKI},
        ["space"],
        0,
    ),
    (
        "sierpinski-square",
        {"product": [SIERPINSKI, SIERPINSKI]},
        ["space"],
        0,
    ),
]


def write_golden():
    golden = ROOT / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, doc, argv_prefix, expected_code in GOLDEN:
        inst = golden / f"{name}-instance.json"
        inst.write_text(serialize.canonical_json(doc))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main([*argv_prefix, str(inst)])
        assert code == expected_code, (name, code)
        (golden / f"{name}-report.json").write_text(buf.getvalue())
    print(f"tests/golden: {len(GOLDEN)} fixtures")


def main():
    write_instances()
    write_corpus()
    write_golden()


if __name__ == "__main__":
    main()
