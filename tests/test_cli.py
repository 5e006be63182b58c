"""Command-line front end: golden reports, exit codes, determinism."""

import copy
import hashlib
import importlib
import importlib.util
import io
import json
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redsep
from redsep import Bounds, FinSpace, PointMap, ResourceError, __version__, canonical_json, run_suite
from redsep import catalog, cli, hausdorff, maps, serialize, spaces, suites
from redsep.cli import main
from redsep.masks import replicate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
CORPUS = ROOT / "corpus"
INSTANCES = ROOT / "instances" / "transfer"

UNION2 = {"alphabet": 2, "branches": [[0], [1]], "mode": "range"}
AOP22 = {
    "alphabet": 2,
    "branches": [[0, 0], [0, 1], [1, 0], [1, 1]],
    "mode": "range",
}
CONNECTED3 = {"n": 3, "subbasis": [[1], [2], [1, 2]]}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "name, command, expected_code",
    [
        ("reduction-five-opens", "check-reduction", 1),
        ("sierpinski-zeros", "space", 0),
        ("sierpinski-square", "space", 0),
    ],
)
def test_golden_reports_are_reproduced_byte_for_byte(name, command, expected_code):
    code, out = run_cli([command, str(GOLDEN / f"{name}-instance.json")])
    assert code == expected_code
    assert out == (GOLDEN / f"{name}-report.json").read_text()


def test_eval_reports_the_value(tmp_path):
    inst = write_instance(
        tmp_path,
        {
            "base": UNION2,
            "family": {
                "universe": 2,
                "mode": "range",
                "assignments": {"0": [0], "1": [1]},
            },
        },
    )
    code, out = run_cli(["eval", inst])
    report = json.loads(out)
    assert code == 0
    assert report["command"] == "eval" and report["version"] == __version__
    assert report["value"] == [0, 1] and report["dual"] is False
    assert report["timing"] is None and report["seed"] == 0

    code, out = run_cli(["eval", "--seed", "7", "--timing", inst])
    report = json.loads(out)
    assert report["seed"] == 7 and isinstance(report["timing"], float)


def test_eval_dual_and_prefix_modes(tmp_path):
    inst = write_instance(
        tmp_path,
        {
            "base": AOP22,
            "family": {
                "universe": 2,
                "mode": "range",
                "assignments": {"0": [], "1": []},
            },
            "dual": True,
        },
    )
    code, out = run_cli(["eval", inst])
    assert code == 0 and json.loads(out)["value"] == []

    inst = write_instance(
        tmp_path,
        {
            "base": {"alphabet": 1, "branches": [[0, 0]], "mode": "prefix"},
            "family": {
                "universe": 2,
                "mode": "prefix",
                "assignments": {"0": [0, 1], "0,0": [1]},
            },
        },
        name="prefix.json",
    )
    code, out = run_cli(["eval", inst])
    assert code == 0 and json.loads(out)["value"] == [1]


def test_eval_dual_keeps_an_unassigned_empty_prefix_neutral(tmp_path):
    # the dual of one branch 00 over {"0": [1], "00": [1]} is their union {1}, as generate finds for generator [1]
    base = {"alphabet": 1, "branches": [[0, 0]], "mode": "prefix"}
    family = {"universe": 2, "mode": "prefix", "assignments": {"0": [1], "0,0": [1]}}
    code, out = run_cli(["eval", write_instance(tmp_path, {"base": base, "family": family, "dual": True})])
    assert code == 0 and json.loads(out)["value"] == [1]
    generators = {"universe": 2, "members": [[1]]}
    doc = {"base": base, "generators": generators, "dual": True}
    code, out = run_cli(["generate", write_instance(tmp_path, doc, name="generate.json")])
    assert code == 0 and json.loads(out)["members"] == [[1]]


def test_eval_reads_stdin(tmp_path, monkeypatch):
    doc = {
        "base": UNION2,
        "family": {"universe": 1, "mode": "range", "assignments": {"0": [], "1": [0]}},
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(["eval", "-"])
    assert code == 0 and json.loads(out)["value"] == [0]


def test_generate_lists_the_outcome_class(tmp_path):
    inst = write_instance(
        tmp_path,
        {
            "base": AOP22,
            "generators": {"universe": 3, "members": [[0, 1], [1, 2]]},
            "mode": "prefix",
        },
    )
    code, out = run_cli(["generate", inst])
    report = json.loads(out)
    assert code == 0 and report["count"] == 4
    assert report["members"] == [[1], [0, 1], [1, 2], [0, 1, 2]]

    inst = write_instance(tmp_path, {
        "base": AOP22,
        "generators": {"universe": 3, "members": [[0, 1], [1, 2]]},
    }, name="range.json")
    report = json.loads(run_cli(["generate", inst])[1])
    assert report["mode"] == "range" and report["count"] == 3


def test_check_reduction_on_an_inline_class(tmp_path):
    inst = write_instance(
        tmp_path,
        {"class": {"universe": 2, "members": [[], [0], [1], [0, 1]]}},
    )
    code, out = run_cli(["check-reduction", inst])
    report = json.loads(out)
    assert code == 0 and report["verdict"] is True
    assert report["witness_count"] == 16 and len(report["witnesses"]) == 16
    first = report["witnesses"][0]
    assert set(first) == {"a", "b", "c", "d"}


def test_an_oversized_class_exits_2_with_one_line(tmp_path, capsys):
    members = [[p for p in range(9) if b >> p & 1] for b in range(512)]
    inst = write_instance(tmp_path, {"class": {"universe": 9, "members": members}})
    for command in ("check-reduction", "check-separation"):
        code, out = run_cli([command, inst])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: class of 512 members exceeds the cap 256\n"


def test_check_separation_reports_the_failing_pair(tmp_path):
    inst = write_instance(
        tmp_path,
        {"class": {"universe": 3, "members": [[], [0], [1], [0, 1, 2]]}},
    )
    code, out = run_cli(["check-separation", inst])
    report = json.loads(out)
    assert code == 1
    assert report["verdict"] is False
    assert report["failing_pair"] == [[0], [1]]
    assert report["witnesses"] is None


def test_transfer_runs_the_shipped_instances():
    code, out = run_cli(["transfer", str(INSTANCES / "12-merge32-union-reduction.json")])
    report = json.loads(out)
    assert code == 0 and report["verdict"] is True
    assert report["pairs_checked"] == report["pairs_valid"] == 16
    assert all(h["holds"] for h in report["hypotheses"])
    assert all(t["valid"] for t in report["traces"])

    code, out = run_cli(
        ["transfer", str(INSTANCES / "24-merge32-unsaturated-generators.json")]
    )
    report = json.loads(out)
    assert code == 1 and "domain-generators-saturated" in report["failure"]

    code, out = run_cli(
        ["transfer", str(INSTANCES / "25-identity-fiveopen-no-codomain-reduction.json")]
    )
    report = json.loads(out)
    assert code == 1
    bad = {h["name"]: h for h in report["hypotheses"]}["codomain-class-has-reduction"]
    assert bad["offending"] == [[[0, 1], [1, 2]]]


# sha256 over name, exit code and report bytes of every shipped transfer instance
TRANSFER_REPORTS_SHA = "8077a042b9d9b1ceb30012164a19a744aaa2232782d277775344a648d8a11db5"


def test_transfer_reports_of_the_shipped_instances_are_pinned():
    digest, exits = hashlib.sha256(), []
    for path in sorted(INSTANCES.glob("*.json")):
        code, out = run_cli(["transfer", str(path)])
        exits.append(code)
        digest.update(path.name.encode() + b"\0" + str(code).encode() + b"\0" + out.encode())
    assert sorted(exits) == [0] * 23 + [1] * 2
    assert digest.hexdigest() == TRANSFER_REPORTS_SHA


def test_zero_gap_flags_the_connected_carrier(tmp_path):
    inst = write_instance(tmp_path, {"space": CONNECTED3, "carrier": [1, 2]})
    code, out = run_cli(["zero-gap", inst])
    report = json.loads(out)
    assert code == 1 and report["verdict"] is False
    assert report["gap"] == [[0], [1]]
    assert report["carrier"] == [1, 2] and "subspace_points" not in report

    inst = write_instance(tmp_path, {"space": CONNECTED3}, name="full.json")
    code, out = run_cli(["zero-gap", inst])
    report = json.loads(out)
    assert code == 0 and report["gap"] == []


ZERO_GAP_REPORTS_SHA = "f1dfa49445c0583383c2296942e47833f1e5f667499053390c6389ecf19bb81a"


def test_zero_gap_reports_up_to_3_points_are_pinned(tmp_path):
    """Every space on up to 3 points with every carrier: 251 reports, 6 of them with a gap."""
    digest, exits = hashlib.sha256(), []
    path = tmp_path / "instance.json"
    for n in range(4):
        for i, space in enumerate(catalog.all_topologies(n)):
            for carrier in range(1 << n):
                doc = {"space": serialize.space_to_doc(space), "carrier": [x for x in range(n) if carrier >> x & 1]}
                path.write_text(json.dumps(doc))
                code, out = run_cli(["zero-gap", str(path)])
                exits.append(code)
                digest.update(f"{n}-{i}-{carrier}".encode() + b"\0" + str(code).encode() + b"\0" + out.encode())
    assert sorted(exits) == [0] * 245 + [1] * 6
    assert digest.hexdigest() == ZERO_GAP_REPORTS_SHA


# sha256 over the label, exit code and report bytes of each check, per command
CHECK_REPORTS_SHA = {
    "check-reduction": "f8e414ef194ecbd6578eda456a2c20ba3a72ec2486512949452492b439707778",
    "check-separation": "83c8fdeae742445e63a0a9ebf7449980e28dbd000d6246d93a7d47fd603d184b",
}


@pytest.mark.parametrize("command", sorted(CHECK_REPORTS_SHA))
def test_check_reports_up_to_3_points_are_pinned(command, tmp_path):
    """The opens, closeds and zeros of every space on up to 3 points: 105 reports per command, 6 of them failing."""
    digest, exits = hashlib.sha256(), []
    path = tmp_path / "instance.json"
    for n in range(4):
        for i, space in enumerate(catalog.all_topologies(n)):
            for derived in ("opens", "closeds", "zeros"):
                path.write_text(json.dumps({"space": serialize.space_to_doc(space), "class_from": derived}))
                code, out = run_cli([command, str(path)])
                exits.append(code)
                digest.update(f"{n}-{i}-{derived}".encode() + b"\0" + str(code).encode() + b"\0" + out.encode())
    assert sorted(exits) == [0] * 99 + [1] * 6
    assert digest.hexdigest() == CHECK_REPORTS_SHA[command]


def test_space_respects_the_point_cap(tmp_path, capsys):
    inst = write_instance(tmp_path, {"product": [CONNECTED3, CONNECTED3, {"n": 2}]})
    code, out = run_cli(["space", inst])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: product has 18 points, cap is 12\n"
    code, out = run_cli(["space", write_instance(tmp_path, {"product": [CONNECTED3, CONNECTED3]})])
    assert code == 0 and json.loads(out)["n"] == 9


def test_spaces_and_products_of_6_to_12_points_run_with_no_flag(tmp_path):
    six = {"n": 6, "subbasis": [[0, 1], [2, 3, 4], [5]]}
    code, out = run_cli(["space", write_instance(tmp_path, {"space": six})])
    assert code == 0 and json.loads(out)["n"] == 6
    # a factor is read under the one ceiling too, not under a smaller default
    code, out = run_cli(["space", write_instance(tmp_path, {"product": [six, {"n": 2, "subbasis": [[1]]}]})])
    report = json.loads(out)
    assert code == 0 and report["n"] == 12 and report["counts"]["components"] == 3


def test_only_fuzz_takes_max_points(tmp_path, capsys):
    inst = write_instance(tmp_path, {"space": CONNECTED3})
    commands = ("eval", "generate", "check-reduction", "check-separation", "transfer", "zero-gap", "space")
    finding = str(CORPUS / "image-necessity-f638e7342c50.json")
    for command, arg in [*((c, inst) for c in commands), ("replay", finding)]:
        with pytest.raises(SystemExit) as exit_:
            run_cli([command, arg, "--max-points", "12"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --max-points 12" in capsys.readouterr().err
    code, out = run_cli(["fuzz", "diagonal-absorption", "--max-points", "1"])
    assert code == 0 and json.loads(out)["bounds"] == {"alphabet": 2, "depth": 2, "max_points": 1}


def test_the_instance_generator_writes_the_shipped_files_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gen_instances", ROOT / "tools" / "gen_instances.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the generator puts src/ on the path
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    shipped = sorted(p.relative_to(ROOT) for d in ("instances", "corpus", "tests/golden") for p in (ROOT / d).rglob("*.json"))
    assert len(written) == 35 and written == shipped
    for path in written:
        assert (tmp_path / path).read_bytes() == (ROOT / path).read_bytes(), path


def test_replay_accepts_the_shipped_corpus():
    code, out = run_cli(["replay", "--corpus-dir", str(CORPUS)])
    report = json.loads(out)
    assert code == 0 and report["verdict"] is True
    assert report["replayed"] == report["retriggered"] >= 4
    assert all(f["retriggered"] for f in report["findings"])


def test_replay_rejects_a_tampered_finding(tmp_path):
    doc = json.loads((CORPUS / "image-necessity-f638e7342c50.json").read_text())
    doc["instance"]["family"]["assignments"]["0,0"] = [0]
    path = tmp_path / "tampered.json"
    path.write_text(canonical_json(doc))
    code, out = run_cli(["replay", str(path)])
    report = json.loads(out)
    assert code == 1 and report["retriggered"] == 0

    code, out = run_cli(["replay", str(path), "--corpus-dir", str(CORPUS)])
    report = json.loads(out)
    assert code == 1 and report["retriggered"] == report["replayed"] - 1


@pytest.mark.parametrize("kind", ["bogus", None, 3])
def test_replay_of_an_unknown_kind_exits_2(tmp_path, capsys, kind):
    doc = json.loads((CORPUS / "intersection-image-necessity-d51ac2a0635a.json").read_text())
    path = write_instance(tmp_path, {**doc, "kind": kind})
    code, out = run_cli(["replay", path])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: kind must be one of violation, witness, got {kind!r}\n"


def test_replay_of_an_image_necessity_finding_of_the_wrong_kind_or_map_exits_1(tmp_path):
    witness = json.loads((CORPUS / "image-necessity-f638e7342c50.json").read_text())
    identity = serialize.map_to_doc(PointMap.identity(FinSpace.discrete(2)))
    missing = {"suite": "image-necessity", "kind": "violation", "instance": {"map": identity, "check": "missing-witness"}}
    for name, doc in (("relabelled.json", {**witness, "kind": "violation"}), ("identity.json", missing)):
        code, out = run_cli(["replay", write_instance(tmp_path, doc, name)])
        assert code == 1 and json.loads(out)["retriggered"] == 0


def test_replay_of_an_image_necessity_finding_on_a_9_point_map_exits_2(tmp_path, capsys):
    pm = PointMap(FinSpace.discrete(9), FinSpace.discrete(2), [0] * 9)
    instance = {"map": serialize.map_to_doc(pm), "check": "missing-witness"}
    code, out = run_cli(["replay", write_instance(tmp_path, {"suite": "image-necessity", "instance": instance})])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: a one-byte lane holds subsets of at most 8 points\n"


def test_replay_of_a_separation_verdict_finding_exits_2(tmp_path, capsys):
    instance = {"space": serialize.space_to_doc(FinSpace.discrete(2)), "check": "separation-verdict"}
    code, out = run_cli(["replay", write_instance(tmp_path, {"suite": "reduction-dual-separation", "instance": instance})])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: instance.check must be one of constructed-witness, got 'separation-verdict'\n"
    )


def test_replay_of_a_family_with_a_default_is_a_verdict_not_an_input_error(tmp_path, capsys):
    # symbol 1 takes the default: the pulled-back family must take its preimage, not lose it
    pm = PointMap(FinSpace.discrete(2), FinSpace.discrete(2), [1, 0])
    family = {"universe": 2, "mode": "range", "assignments": {"0": [0]}, "default": []}
    instance = {"map": serialize.map_to_doc(pm), "base": UNION2, "family": family, "mode": "range", "identity": "eval"}
    path = write_instance(tmp_path, {"suite": "preimage-commutes", "kind": "violation", "instance": instance})
    code, out = run_cli(["replay", path])
    assert capsys.readouterr().err == ""
    assert code == 1 and json.loads(out)["retriggered"] == 0


def test_fuzz_writes_a_deterministic_content_addressed_corpus(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    args = ["fuzz", "image-necessity", "--max-points", "2", "--budget", "8"]
    code1, out1 = run_cli([*args, "--corpus-dir", str(first)])
    code2, out2 = run_cli([*args, "--corpus-dir", str(second)])
    assert code1 == code2 == 0
    rep = json.loads(out1)
    assert rep["verdict"] is True and rep["witnesses"] > 0
    assert out1 == out2
    names1 = sorted(p.name for p in first.glob("*.json"))
    names2 = sorted(p.name for p in second.glob("*.json"))
    assert names1 == names2 == rep["written"]
    for name in names1:
        assert (first / name).read_text() == (second / name).read_text()

    code, out = run_cli(["replay", "--corpus-dir", str(first)])
    assert code == 0 and json.loads(out)["verdict"] is True


def test_fuzz_exit_reflects_the_suite_verdict(tmp_path):
    code, out = run_cli(["fuzz", "image-necessity", "--max-points", "1"])
    report = json.loads(out)
    assert code == 1 and report["verdict"] is False
    assert report["expects_witnesses"] is True and report["witnesses"] == 0
    # a suite that samples nothing runs at its default budget of 0
    code, out = run_cli(["fuzz", "diagonal-absorption", "--max-points", "1"])
    report = json.loads(out)
    assert code == 0 and report["verdict"] is True and report["budget"] == 0


def test_fuzz_refuses_a_corpus_dir_it_cannot_write(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for corpus in (blocker, blocker / "under"):
        code = main(["fuzz", "image-necessity", "--max-points", "2", "--corpus-dir", str(corpus)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write findings to --corpus-dir ") and err.count("\n") == 1


def test_malformed_input_exits_2_with_a_diagnostic(tmp_path, capsys):
    code, out = run_cli(["eval", str(tmp_path / "missing.json")])
    assert code == 2 and out == ""
    assert "error: cannot read instance" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run_cli(["eval", str(bad)])
    assert code == 2
    assert "is not valid JSON" in capsys.readouterr().err

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _ = run_cli(["eval", str(arr)])
    assert code == 2
    assert "must hold one JSON object" in capsys.readouterr().err

    negative = (("--max-points", "-1", "max_points"), ("--alphabet", "-1", "alphabet"), ("--depth", "-2", "depth"))
    for flag, value, field in negative:
        code, out = run_cli(["fuzz", "distributivity", flag, value])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: bounds.{field} must be nonnegative, got {value}\n"

    code, out = run_cli(["fuzz", "reduction-dual-separation", "--max-points", "6"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: topology enumeration stops at 5 points, asked for 6\n"

    huge = 2_000_000_000
    oversized = (
        ("check-separation", {"class": {"universe": huge, "members": [[], [0], [1], [0, 1]]}}, "instance.class"),
        ("eval", {"base": UNION2, "family": {"universe": huge, "mode": "range", "assignments": {"0": [0], "1": [1]}}}, "instance.family"),
    )
    for command, doc, path in oversized:
        code, out = run_cli([command, write_instance(tmp_path, doc)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {path}.universe = {huge} exceeds the cap 12\n"


def test_an_oversized_budget_is_refused_before_any_sweep_starts(capsys, monkeypatch):
    def sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setitem(suites._SUITES, "algebra-closure", suites._SUITES["algebra-closure"]._replace(run=sweep))
    code, out = run_cli(["fuzz", "algebra-closure", "--budget", str(10**12)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: budget {10**12} exceeds the cap 65536\n"
    code, _ = run_cli(["fuzz", "algebra-closure", "--budget", "65536", "--max-points", "0"])
    assert code == 3  # the largest budget is accepted and the sweep starts
    assert "the sweep started" in capsys.readouterr().err


def test_an_oversized_space_bound_is_refused_before_any_topology_is_enumerated(capsys, monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("a topology was enumerated")

    # every topology the enumeration returns is built as a FinSpace, so a stub that fails
    # when called shows that no space of any size was enumerated before the refusal
    monkeypatch.setattr(catalog, "FinSpace", enumerated)
    with pytest.raises(AssertionError):
        catalog.all_topologies(1)
    for bound in ("6", "7"):
        for suite in ("reduction-dual-separation", "zero-trace-gap"):
            code, out = run_cli(["fuzz", suite, "--max-points", bound])
            assert code == 2 and out == ""
            assert capsys.readouterr().err == f"error: topology enumeration stops at 5 points, asked for {bound}\n"
    with pytest.raises(ResourceError):
        catalog.all_topologies(6)


def test_instance_spaces_stop_at_12_points(tmp_path, capsys, monkeypatch):
    honest, built = spaces.FinSpace, []

    def recorded(n, *args, **kwargs):
        built.append(n)
        return honest(n, *args, **kwargs)

    # generate_topology and product build the space they return as a FinSpace, so the sizes
    # recorded are every space an instance command built
    monkeypatch.setattr(spaces, "FinSpace", recorded)
    discrete = [{"n": n, "subbasis": [[p] for p in range(n)]} for n in range(19)]
    for doc, factors, message in (
        ({"space": discrete[18]}, [], "18 points exceed the cap 12"),
        ({"space": discrete[13]}, [], "13 points exceed the cap 12"),
        ({"product": [discrete[4], discrete[4]]}, [4, 4], "product has 16 points, cap is 12"),
    ):
        built.clear()
        code, out = run_cli(["space", write_instance(tmp_path, doc)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == factors
    with pytest.raises(ResourceError, match="cap 12"):
        spaces.generate_topology(13, [])


def _long_family_finding(k):
    """An intersection-image witness over a k-member chain: {0}, {1}, then X, on a map merging both points."""
    discrete2 = {"n": 2, "subbasis": [[0], [1]]}
    point = {"n": 1, "subbasis": []}
    return {
        "suite": "intersection-image-necessity",
        "kind": "witness",
        "instance": {
            "map": {"dom": discrete2, "cod": point, "table": [0, 0]},
            "order": [[i, i + 1] for i in range(k - 1)],
            "family": [[0], [1]] + [[0, 1]] * (k - 2),
        },
    }


def test_replay_refuses_a_family_past_the_cap_without_a_traceback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "finding.json"
    path.write_text(json.dumps(_long_family_finding(64)))
    code, out = run_cli(["replay", str(path)])
    assert code == 0 and json.loads(out)["retriggered"] == 1

    path.write_text(json.dumps(_long_family_finding(65)))
    with monkeypatch.context() as patch:
        patch.setattr(maps, "_order_closure", lambda *args: pytest.fail("the order was closed"))
        code, out = run_cli(["replay", str(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: family of 65 sets exceeds the cap 64\n"
    proc = subprocess.run(
        [sys.executable, "-m", "redsep", "replay", str(path)],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: family of 65 sets exceeds the cap 64\n"


def test_missing_fields_name_their_instance_path(tmp_path, capsys):
    inst = write_instance(
        tmp_path,
        {
            "map": {"dom": CONNECTED3, "cod": CONNECTED3},
            "base": UNION2,
            "which": "reduction",
            "dom_generators": "opens",
            "cod_generators": "opens",
        },
    )
    code, _ = run_cli(["transfer", inst])
    assert code == 2
    assert capsys.readouterr().err == "error: missing field instance.map.table\n"


EVAL_DOC = {"base": UNION2, "family": {"universe": 2, "mode": "range", "assignments": {"0": [0], "1": [1]}}}
GENERATE_DOC = {"base": AOP22, "generators": {"universe": 3, "members": [[0, 1], [1, 2]]}, "mode": "prefix"}


def test_instance_fields_are_named_in_their_messages(tmp_path, capsys):
    transfer = json.loads((INSTANCES / "12-merge32-union-reduction.json").read_text())
    bad_symbol = {**UNION2, "branches": [[0], [-1]]}
    missing_index = {**EVAL_DOC["family"], "assignments": {"1": [1]}}
    finding = {"suite": "distributivity", "kind": "violation", "instance": {
        **EVAL_DOC, "mode": "range", "mask": [0], "identity": "union"
    }}
    cases = (
        ("eval", {**EVAL_DOC, "base": bad_symbol}, "instance.base.branches[1] has symbol -1 outside the alphabet 0..1"),
        ("replay", {**finding, "instance": {**finding["instance"], "base": bad_symbol}},
         "instance.base.branches[1] has symbol -1 outside the alphabet 0..1"),
        ("eval", {**EVAL_DOC, "family": missing_index},
         "instance.family.assignments has no value for index '0' and no default is set"),
        ("replay", {**finding, "instance": {**finding["instance"], "family": missing_index}},
         "instance.family.assignments has no value for index '0' and no default is set"),
        ("transfer", {**transfer, "which": 5}, "instance.which must be one of reduction, separation, got 5"),
        ("eval", {**EVAL_DOC, "base": []}, "instance.base must be an object"),
        ("generate", {**GENERATE_DOC, "base": {"alphabet": 0}}, "instance.base.alphabet must be an integer >= 1"),
        ("eval", {**EVAL_DOC, "family": "x"}, "instance.family must be an object"),
        ("eval", {**EVAL_DOC, "mode": 5}, "instance.mode must be one of prefix, range, got 5"),
        ("generate", {**GENERATE_DOC, "mode": ["range"]}, "instance.mode must be one of prefix, range, got ['range']"),
        ("transfer", {**transfer, "mode": ""}, "instance.mode must be one of prefix, range, got ''"),
        ("eval", {**EVAL_DOC, "dual": "no"}, "instance.dual must be true or false, got 'no'"),
        ("generate", {**GENERATE_DOC, "dual": 1}, "instance.dual must be true or false, got 1"),
    )
    point, pair = {"n": 1, "subbasis": []}, {"n": 2, "subbasis": [[0], [1]]}
    merge = {"dom": pair, "cod": point, "table": [0, 0]}
    prefix = {"base": {"alphabet": 1, "branches": [[0]], "mode": "prefix"},
              "family": {"universe": 1, "mode": "prefix", "assignments": {"0": [0]}}}
    replays = (
        ("zero-witness-certificate", {"space": {"n": 2, "subbasis": [[1]]}, "zeros": [[], [0]]},
         "instance.zeros[1] is not a zero set of instance.space"),
        ("diagonal-absorption", {"maps": [merge, {"dom": point, "cod": point, "table": [0]}], "member": [0]},
         "instance.maps[1].dom must equal instance.maps[0].dom"),
        ("intersection-image", {"map": merge, "order": [[0, 0], [0, 5]], "family": [[0]]},
         "instance.order[1] = [0, 5] is outside the family's indices 0..0"),
        ("intersection-image", {"map": merge, "order": [[0, 0]], "family": []},
         "instance.family must be a nonempty array of point arrays"),
        ("preimage-commutes", {**EVAL_DOC, "map": merge, "mode": "range", "identity": "eval"},
         "instance.family.universe must be 1, the points of instance.map.cod, got 2"),
        ("image-commutes", {**prefix, "map": merge, "check": "decreasing-image"},
         "instance.family.universe must be 2, the points of instance.map.dom, got 1"),
        ("image-necessity", {**prefix, "map": merge, "check": "non-decreasing-image"},
         "instance.family.universe must be 2, the points of instance.map.dom, got 1"),
    )
    cases += tuple(
        ("replay", {"suite": suite, "kind": "violation", "instance": instance}, message)
        for suite, instance, message in replays
    )
    for command, doc, message in cases:
        code, out = run_cli([command, write_instance(tmp_path, doc)])
        assert (code, out, capsys.readouterr().err) == (2, "", f"error: {message}\n")
    for dual in (False, True):
        code, out = run_cli(["eval", write_instance(tmp_path, {**EVAL_DOC, "dual": dual})])
        assert code == 0 and json.loads(out)["dual"] is dual
    code, out = run_cli(["replay", write_instance(tmp_path, finding)])
    assert code == 1 and json.loads(out)["retriggered"] == 0


def _instance_seeds():
    """(subcommand, instance) for every instance subcommand: the shipped transfer
    instances, the golden instances, and small inline ones."""
    golden = {name: json.loads((GOLDEN / f"{name}-instance.json").read_text()) for name in (
        "reduction-five-opens", "sierpinski-zeros", "sierpinski-square"
    )}
    return [
        *(("transfer", json.loads(p.read_text())) for p in sorted(INSTANCES.glob("*.json"))),
        ("check-reduction", golden["reduction-five-opens"]),
        ("check-separation", golden["reduction-five-opens"]),
        ("check-separation", {"class": {"universe": 3, "members": [[], [0], [1], [0, 1, 2]]}}),
        ("space", golden["sierpinski-zeros"]),
        ("space", golden["sierpinski-square"]),
        ("zero-gap", {"space": CONNECTED3, "carrier": [1, 2]}),
        ("eval", {**EVAL_DOC, "dual": True}),
        ("generate", GENERATE_DOC),
    ]


INSTANCE_SEEDS = _instance_seeds()
OTHER_JSON = (None, True, False, 0, 1, -1, 7, 2.5, "", "x", "opens", [], [0], [[0], [1]], {}, {"n": 1})


def _locations(doc, at=()):
    """The key path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield (*at, key)
        yield from _locations(val, (*at, key))


@st.composite
def mutated_instances(draw):
    """A seed instance with one value dropped or swapped for one of another JSON type."""
    command, doc = draw(st.sampled_from(INSTANCE_SEEDS))
    doc = copy.deepcopy(doc)
    *at, key = draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for step in at:
        parent = parent[step]
    old = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from([v for v in OTHER_JSON if type(v) is not type(old)]))
    return command, doc


def _assert_exits_0_1_or_2_cleanly(code, out, err):
    """Exit 0, 1 or 2 with no traceback, and on exit 2 one error line and no report."""
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "internal error" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=300)
@given(mutated_instances())
def test_mutated_instances_exit_0_1_or_2_without_a_traceback(case):
    command, doc = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), redirect_stdout(out), redirect_stderr(err):
        code = main([command, "-"])
    _assert_exits_0_1_or_2_cleanly(code, out.getvalue(), err.getvalue())


# the suites whose findings come from packed kernel calls
LANE_SUITES = (
    "distributivity", "restriction", "preimage-commutes", "algebra-closure", "image-commutes", "image-necessity"
)


@cache
def _finding_seeds():
    """Finding documents of all 13 suites: the corpus; violations of the lane suites
    under a kernel that flips point 0 of every lane; violations of
    reduction-dual-separation when each separator is built for the swapped pair;
    and one inline document for each suite left."""
    docs = [json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.json"))]
    honest_kernel, every_lane = hausdorff.eval_plan_bits, replicate(1, 1 << 12)
    with mock.patch.object(
        hausdorff, "eval_plan_bits", lambda plans, values: honest_kernel(plans, values) ^ every_lane
    ):
        for name in LANE_SUITES:
            docs += run_suite(name, bounds=Bounds(max_points=2, alphabet=1), seed=3, budget=2, keep=3).violations
    honest_separator = suites.reduction_to_separation
    with mock.patch.object(suites, "reduction_to_separation", lambda sc, a, b: honest_separator(sc, b, a)):
        docs += run_suite("reduction-dual-separation", bounds=Bounds(max_points=2), keep=3).violations
    square = serialize.space_to_doc(FinSpace.discrete(2))
    merge = serialize.map_to_doc(PointMap(FinSpace.discrete(2), FinSpace.discrete(1), [0, 0]))
    identity = serialize.map_to_doc(PointMap.identity(FinSpace.discrete(2)))
    inline = {
        "diagonal-absorption": {"maps": [merge, identity], "factor": "left", "member": [0, 1]},
        "zero-witness-certificate": {"space": square, "zeros": [[0], [1]]},
        "intersection-image": {"map": merge, "order": [[0, 1]], "family": [[0, 1], [0]]},
        "transfer-identity": {"space": square, "base": UNION2, "mode": "range", "which": "separation"},
    }
    docs += [{"suite": name, "kind": "violation", "instance": doc, "detail": {}} for name, doc in inline.items()]
    assert {doc["suite"] for doc in docs} == set(suites.suite_names())
    return [json.loads(canonical_json(doc)) for doc in docs]


@st.composite
def mutated_findings(draw):
    """A seed finding with one key dropped or renamed, or one value swapped for another JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(_finding_seeds())))
    *at, key = draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for step in at:
        parent = parent[step]
    old = parent.pop(key) if isinstance(parent, dict) else parent[key]
    how = draw(st.sampled_from(("drop", "rename", "swap") if isinstance(parent, dict) else ("drop", "swap")))
    if how == "rename":
        parent[key + "_"] = old
    elif how == "swap":
        parent[key] = draw(st.sampled_from([v for v in OTHER_JSON if v != old or type(v) is not type(old)]))
    elif isinstance(parent, list):
        del parent[key]
    return doc


@pytest.fixture(scope="module")
def finding_file(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "finding.json"


@settings(max_examples=400, deadline=None)
@given(doc=mutated_findings())
def test_mutated_findings_replay_with_exit_0_1_or_2_without_a_traceback(finding_file, doc):
    finding_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["replay", str(finding_file)])
    _assert_exits_0_1_or_2_cleanly(code, out.getvalue(), err.getvalue())


def test_mode_mismatch_and_bad_budget_exit_2(tmp_path, capsys):
    inst = write_instance(
        tmp_path,
        {
            "base": UNION2,
            "family": {"universe": 2, "mode": "range", "assignments": {"0": [], "1": []}},
            "mode": "prefix",
        },
    )
    code, _ = run_cli(["eval", inst])
    assert code == 2
    assert "prefix" in capsys.readouterr().err

    code, _ = run_cli(["fuzz", "image-necessity", "--budget", "0"])
    assert code == 2
    assert "--budget must be positive" in capsys.readouterr().err

    code, _ = run_cli(["fuzz", "no-such-suite"])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err

    code, _ = run_cli(["replay"])
    assert code == 2
    assert "nothing to replay" in capsys.readouterr().err


def test_an_unexpected_failure_exits_3_with_one_line(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_space", crash)
    code, out = run_cli(["space", str(GOLDEN / "sierpinski-zeros-instance.json")])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "internal error: RuntimeError('boom\\nsecond line')\n"


def test_replay_of_an_incomplete_instance_exits_2_without_a_traceback(tmp_path):
    path = tmp_path / "finding.json"
    path.write_text(json.dumps({"suite": "distributivity", "instance": {"mode": "range"}}))
    proc = subprocess.run(
        [sys.executable, "-m", "redsep", "replay", str(path)],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: missing field instance.base")


def test_text_format_renders_sorted_key_value_lines(tmp_path):
    inst = write_instance(
        tmp_path,
        {
            "base": UNION2,
            "family": {"universe": 1, "mode": "range", "assignments": {"0": [0], "1": []}},
        },
    )
    code, out = run_cli(["eval", "--format", "text", inst])
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert "command: eval" in lines
    assert "value: [0]" in lines


def test_module_entry_point_reports_the_version():
    proc = subprocess.run(
        [sys.executable, "-m", "redsep", "--version"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"redsep {__version__}"


# Prints as JSON the modules loaded since start-up: after `import redsep.cli`,
# then after each cli.main call, one per argv list in the JSON of argv[1].
_LOAD_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

before = set(sys.modules)
import redsep.cli

loaded = [sorted(set(sys.modules) - before)]
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        redsep.cli.main(argv)
    loaded.append(sorted(set(sys.modules) - before))
print(json.dumps(loaded))
"""


def test_instance_subcommands_start_without_the_suites():
    calls = [["check-reduction", str(GOLDEN / "reduction-five-opens-instance.json")], ["fuzz", "image-necessity"]]
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, json.dumps(calls)],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_check, after_fuzz = (set(mods) for mods in json.loads(proc.stdout))
    unused = {"redsep.suites", "redsep.catalog", "dataclasses", "hashlib"}
    assert "redsep.cli" in after_import and not unused & after_import
    assert not unused & after_check
    assert "redsep.suites" in after_fuzz


def test_every_exported_name_resolves_to_its_definition():
    modules = [
        importlib.import_module(f"redsep.{info.name}")
        for info in pkgutil.iter_modules(redsep.__path__)
        if info.name != "__main__"
    ]
    for name in redsep.__all__:
        obj = getattr(redsep, name)
        home = getattr(obj, "__module__", None)
        if home is not None and home.startswith("redsep."):
            assert obj is vars(sys.modules[home])[name], name
        else:  # a constant: every module that binds the name binds this object
            bound = [vars(mod)[name] for mod in modules if name in vars(mod)]
            assert bound and all(val is obj for val in bound), name
    with pytest.raises(AttributeError):
        getattr(redsep, "no_such_name")
