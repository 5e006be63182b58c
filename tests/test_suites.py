"""Suite runner: determinism, finding replay, pass/fail semantics."""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from redsep import (
    Bounds,
    IndexedFamily,
    InputError,
    canonical_base,
    canonical_json,
    replay_finding,
    run_suite,
    suite_defaults,
    suite_description,
    suite_names,
)
from redsep import FinSpace, PointMap, serialize, suites

from conftest import mask

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

TIGHT = Bounds(max_points=2, alphabet=2, depth=2, cap=512)


def test_the_registered_suites():
    assert suite_names() == (
        "algebra-closure",
        "diagonal-absorption",
        "distributivity",
        "image-commutes",
        "image-necessity",
        "intersection-image",
        "intersection-image-necessity",
        "preimage-commutes",
        "reduction-dual-separation",
        "restriction",
        "transfer-identity",
        "zero-trace-gap",
        "zero-witness-certificate",
    )
    for name in suite_names():
        assert suite_description(name)
        bounds, budget, expects = suite_defaults(name)
        assert isinstance(bounds, Bounds) and budget >= 0
    expecting = {name for name in suite_names() if suite_defaults(name)[2]}
    assert expecting == {
        "image-necessity",
        "intersection-image-necessity",
        "zero-trace-gap",
    }


def test_unknown_suite_names_are_rejected():
    with pytest.raises(InputError):
        run_suite("no-such-suite")
    with pytest.raises(InputError):
        suite_defaults("no-such-suite")
    with pytest.raises(InputError):
        suite_description("no-such-suite")


@pytest.mark.parametrize(
    "name", ["distributivity", "intersection-image-necessity", "transfer-identity"]
)
def test_runs_are_deterministic_for_a_fixed_seed(name):
    first = run_suite(name, bounds=TIGHT, seed=3, budget=6)
    second = run_suite(name, bounds=TIGHT, seed=3, budget=6)
    assert first.cases == second.cases
    assert first.violation_count == second.violation_count
    assert first.witness_count == second.witness_count
    assert canonical_json(first.violations) == canonical_json(second.violations)
    assert canonical_json(first.witnesses) == canonical_json(second.witnesses)


def test_witness_documents_replay_through_the_public_api():
    res = run_suite("image-necessity", bounds=TIGHT, seed=0, budget=6)
    assert res.passed and res.witness_count > 0
    for doc in res.witnesses:
        assert doc["suite"] == "image-necessity" and doc["kind"] == "witness"
        assert replay_finding(json.loads(canonical_json(doc)))


def test_law_abiding_instances_do_not_replay_as_violations():
    base_doc = serialize.base_to_doc(canonical_base("union", 2))
    family_doc = serialize.family_to_doc(
        IndexedFamily.from_list(2, [mask(2, [0]), mask(2, [1])])
    )
    for identity in ("intersection", "union"):
        doc = {
            "suite": "distributivity",
            "kind": "violation",
            "instance": {
                "base": base_doc,
                "mode": "range",
                "family": family_doc,
                "mask": [0],
                "identity": identity,
            },
            "detail": {},
        }
        assert replay_finding(doc) is False


def test_replay_rejects_malformed_documents():
    with pytest.raises(InputError):
        replay_finding("not an object")
    with pytest.raises(InputError):
        replay_finding({"suite": "no-such-suite", "instance": {}})
    with pytest.raises(InputError):
        replay_finding({"suite": "distributivity", "instance": "nope"})
    with pytest.raises(InputError):
        replay_finding({"suite": ["distributivity"], "instance": {}})


def test_shipped_corpus_findings_still_trigger():
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) >= 4
    for path in files:
        doc = json.loads(path.read_text())
        assert replay_finding(doc), path.name
        assert path.read_text() == canonical_json(doc)


def test_witness_expectation_decides_the_verdict_when_nothing_turns_up():
    starved = run_suite("image-necessity", bounds=Bounds(max_points=1), seed=0)
    assert starved.witness_count == 0
    assert starved.expects_witnesses and not starved.passed
    assert "[FAIL]" in starved.summary()

    quiet = run_suite("distributivity", bounds=TIGHT, seed=0, budget=4)
    assert quiet.violation_count == 0 and quiet.passed
    assert quiet.summary().startswith("distributivity:")
    assert "[pass]" in quiet.summary()


def test_keep_caps_stored_documents_but_not_counts():
    capped = run_suite("image-necessity", keep=2)
    assert capped.witness_count == 36
    assert len(capped.witnesses) == 2
    assert capped.passed


def _sha(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", suite_names())
def test_every_replayer_names_a_missing_field(name):
    with pytest.raises(InputError, match="instance"):
        replay_finding({"suite": name, "instance": {}})


def test_malformed_instance_fields_are_rejected():
    good = {
        "base": serialize.base_to_doc(canonical_base("union", 2)),
        "family": serialize.family_to_doc(IndexedFamily.from_list(2, [mask(2, [0]), mask(2, [1])])),
        "mode": "range",
        "mask": [0],
        "identity": "union",
    }
    assert replay_finding({"suite": "distributivity", "instance": good}) is False
    for field, value in (("identity", "both"), ("mode", "sideways")):
        with pytest.raises(InputError, match=f"instance.{field}"):
            replay_finding({"suite": "distributivity", "instance": {**good, field: value}})
    space = serialize.space_to_doc(FinSpace.discrete(1))
    for suite, instance in (
        ("transfer-identity", {"space": space, "base": good["base"], "mode": "range", "which": "both"}),
        ("reduction-dual-separation", {"space": space, "check": "other"}),
    ):
        with pytest.raises(InputError, match="must be one of"):
            replay_finding({"suite": suite, "instance": instance})
    identity = serialize.map_to_doc(PointMap.identity(FinSpace.discrete(2)))
    image = {"map": identity, "base": good["base"], "family": good["family"], "check": "decreasing-image"}
    with pytest.raises(InputError, match="prefix"):
        replay_finding({"suite": "image-commutes", "instance": image})
    with pytest.raises(InputError, match="instance.maps"):
        replay_finding({"suite": "diagonal-absorption", "instance": {"maps": [], "member": []}})


# Findings of a deliberately broken kernel (every evaluation flips point 0):
# the counts and documents pin both the finding builder and the order in
# which assignments are drawn.
BROKEN_KERNEL_FINDINGS = {
    "distributivity": (31376, "ba0deedfb135636cf323842a24e141f0f2028f5ae8c32eeb9a8c613a23b8e118"),
    "restriction": (6740, "8d26493e4670aced622d3166b25faf330e898f52fd636b7fefbb930aefb5b38f"),
    "preimage-commutes": (20512, "60758e0181716772019d732fe4e710699f99b03ed7ba4ac81a10b88ac2cd2547"),
    "algebra-closure": (6624, "ef82383f8960d22b6ab4023d28e154248f5ca0344f843bfcd83876a775a3e043"),
    "image-commutes": (2746, "d0c56604aed75d2b9f88d4830225651ad2cf1eeff389e9bb7c5c8c2254cb7c86"),
    "image-necessity": (2932, "211f4572e88ff90bdee0295881db27929c35af0b557b0ebb5d770d3edbebc10c"),
}


@contextmanager
def _broken_kernel(monkeypatch):
    honest = suites.eval_plan_bits
    with monkeypatch.context() as patch:
        patch.setattr(suites, "eval_plan_bits", lambda plans, values: honest(plans, values) ^ 1)
        yield


@pytest.mark.parametrize("name", sorted(BROKEN_KERNEL_FINDINGS))
def test_a_broken_kernel_yields_pinned_violation_documents(name, monkeypatch):
    with _broken_kernel(monkeypatch):
        res = run_suite(name, bounds=TIGHT, seed=3, budget=6)
    assert not res.passed
    assert (res.violation_count, _sha(res.violations)) == BROKEN_KERNEL_FINDINGS[name]
    assert len(res.violations) == 32
    # the honest engine does not reproduce the injected fault
    for doc in res.violations:
        assert replay_finding(json.loads(canonical_json(doc))) is False


def test_a_broken_kernel_pins_every_sampled_assignment(monkeypatch):
    # The first 32 documents above come from exhaustively enumerated cases;
    # keeping all of them also pins the seeded samples drawn for large pools.
    with _broken_kernel(monkeypatch):
        res = run_suite("image-necessity", bounds=TIGHT, seed=3, budget=6, keep=10**6)
    assert len(res.violations) == res.violation_count == 2932
    assert _sha(res.violations) == "b1add9d2d4bb025021d5cad34e87b50ef4bfc727aa97bc3a8f3ecf6d70fc6ced"


# The expected counterexamples at default bounds and seed 0.
WITNESS_FINDINGS = {
    "image-necessity": (56, 36, "b4a742f94676e5265bf2c42741386d17449ef7920df7fdff3a769ff01a7251e4"),
    "intersection-image-necessity": (302, 18, "942f9c7ef548de387ba0431ff903f7fa63bc6d0e77961020df80734423ef4022"),
    "zero-trace-gap": (5931, 482, "9b567bb4655e903862894c62cfe1582031fb26c5a6131868dd25fed9be0e25b2"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_FINDINGS))
def test_witness_documents_are_pinned(name):
    res = run_suite(name, seed=0)
    assert res.passed and res.violation_count == 0
    assert (res.cases, res.witness_count, _sha(res.witnesses)) == WITNESS_FINDINGS[name]
