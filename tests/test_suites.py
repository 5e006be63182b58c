"""Suite runner: determinism, finding replay, pass/fail semantics."""

import ast
import hashlib
import json
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import cycle, islice
from itertools import product as iproduct
from pathlib import Path

import pytest

from redsep import (
    MODES,
    PREFIX,
    RANGE,
    Base,
    Bounds,
    IndexedFamily,
    InputError,
    ResourceError,
    SetClass,
    SubsetMask,
    alg_enumerate,
    all_tables,
    all_topologies,
    canonical_base,
    canonical_json,
    check_reduction,
    generate_topology,
    replay_finding,
    run_suite,
    suite_defaults,
    suite_names,
)
from redsep import FinSpace, PointMap, hausdorff, serialize, suites
from redsep.hausdorff import eval_lanes, eval_plan_bits
from redsep.masks import lanes_of, pack_lanes, replicate

from conftest import closure_oracle, family_doc, mask, sweep_oracle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

TIGHT = Bounds(max_points=2, alphabet=2, depth=2)


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
        bounds, budget, expects = suite_defaults(name)
        assert isinstance(bounds, Bounds) and budget >= 0
    expecting = {name for name in suite_names() if suite_defaults(name)[2]}
    assert expecting == {
        "image-necessity",
        "intersection-image-necessity",
        "zero-trace-gap",
    }


def _recorded_cases():
    """SWEEP_DEFAULT_CASES of bench/oracle.py, read from its source without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "oracle.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SWEEP_DEFAULT_CASES":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/oracle.py has no SWEEP_DEFAULT_CASES")


def test_default_case_counts_are_the_ones_the_benchmark_recorded():
    # the benchmark fails every sweep operation whose suite set or case count differs from its record
    recorded = _recorded_cases()
    assert suite_names() == tuple(sorted(recorded))
    for name in suite_names():
        assert (name, run_suite(name).cases) == (name, recorded[name])


def test_unknown_suite_names_are_rejected():
    with pytest.raises(InputError):
        run_suite("no-such-suite")
    with pytest.raises(InputError):
        suite_defaults("no-such-suite")


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
    family = family_doc(
        IndexedFamily.from_list(2, [mask(2, [0]), mask(2, [1])])
    )
    for identity in ("intersection", "union"):
        doc = {
            "suite": "distributivity",
            "kind": "violation",
            "instance": {
                "base": base_doc,
                "mode": "range",
                "family": family,
                "mask": [0],
                "identity": identity,
            },
            "detail": {},
        }
        assert replay_finding(doc) is False


def _family_with_default(n, mode, assignments, default):
    return {"universe": n, "mode": mode, "assignments": assignments, "default": default}


PREFIX_BASE = {"alphabet": 2, "branches": [[0, 0], [0, 1], [1]], "mode": "prefix"}
RANGE_BASE = {"alphabet": 2, "branches": [[0], [1]], "mode": "range"}
MAP_3_TO_2 = serialize.map_to_doc(PointMap(FinSpace.discrete(3), FinSpace.discrete(2), [0, 1, 1]))
MAP_2_TO_3 = serialize.map_to_doc(PointMap(FinSpace.discrete(2), FinSpace.discrete(3), [2, 0]))


@pytest.mark.parametrize(
    "suite, instance",
    [
        (
            "preimage-commutes",
            {"map": MAP_3_TO_2, "base": RANGE_BASE, "mode": "range", "identity": "eval",
             "family": _family_with_default(2, "range", {"0": [0]}, [])},
        ),
        (
            "preimage-commutes",
            {"map": MAP_3_TO_2, "base": PREFIX_BASE, "mode": "prefix", "identity": "dual",
             "family": _family_with_default(2, "prefix", {"0": [0], "1": [1]}, [1])},
        ),
        (
            "restriction",
            {"space": serialize.space_to_doc(FinSpace.discrete(3)), "base": RANGE_BASE, "mode": "range",
             "carrier": [0, 2], "family": _family_with_default(3, "range", {"1": [1]}, [0, 1])},
        ),
        (
            "restriction",
            {"space": serialize.space_to_doc(FinSpace.discrete(3)), "base": PREFIX_BASE, "mode": "prefix",
             "carrier": [1, 2], "family": _family_with_default(3, "prefix", {"0": [1, 2]}, [2])},
        ),
        (
            "image-commutes",
            {"map": MAP_2_TO_3, "base": PREFIX_BASE, "check": "decreasing-image",
             "family": _family_with_default(2, "prefix", {"0": [0, 1], "1": [1]}, [0])},
        ),
    ],
)
def test_replays_carry_the_family_default_through_the_map_or_trace(suite, instance):
    # the rebuilt family keeps the default (mapped), and a free empty prefix stays free
    assert replay_finding({"suite": suite, "kind": "violation", "instance": instance}) is False


def test_replay_rejects_malformed_documents():
    with pytest.raises(InputError):
        replay_finding("not an object")
    with pytest.raises(InputError):
        replay_finding({"suite": "no-such-suite", "instance": {}})
    with pytest.raises(InputError):
        replay_finding({"suite": "distributivity", "instance": "nope"})
    with pytest.raises(InputError):
        replay_finding({"suite": ["distributivity"], "instance": {}})


@pytest.mark.parametrize("kind", ["bogus", None, 3, ["violation"]])
def test_replay_refuses_a_kind_other_than_violation_or_witness(kind):
    doc = json.loads((CORPUS / "intersection-image-necessity-d51ac2a0635a.json").read_text())
    assert replay_finding(doc) and replay_finding({**doc, "kind": "violation"}) is False
    del doc["kind"]
    assert replay_finding(doc) is False  # a missing kind means violation
    with pytest.raises(InputError, match=r"^kind must be one of violation, witness, got "):
        replay_finding({**doc, "kind": kind})


def test_image_necessity_replay_reads_the_kind_and_the_map(monkeypatch):
    # the shipped witness, relabelled a violation or renamed to a violation's check, no longer triggers
    doc = json.loads((CORPUS / "image-necessity-f638e7342c50.json").read_text())
    assert doc["kind"] == "witness" and doc["instance"]["check"] == "non-decreasing-image"
    assert replay_finding(doc) and replay_finding({**doc, "kind": "violation"}) is False
    for check in ("missing-witness", "injective-image"):
        instance = {**doc["instance"], "check": check}
        assert replay_finding({**doc, "instance": instance}) is False
        # as violations: the map merges two points, which gives it a witness and takes it out of the injective law
        assert replay_finding({**doc, "kind": "violation", "instance": instance}) is False
    # a missing witness retriggers only on a map that merges two points
    merge = PointMap(FinSpace.discrete(2), FinSpace.discrete(1), [0, 0])
    missing = {"suite": "image-necessity", "kind": "violation", "instance": {"check": "missing-witness"}}
    for pm in (PointMap.identity(FinSpace.discrete(2)), merge):
        missing["instance"]["map"] = serialize.map_to_doc(pm)
        assert replay_finding(missing) is False
    monkeypatch.setattr(suites, "_merge_witness", lambda pm: None)
    assert replay_finding(missing) is True
    missing["instance"]["map"] = serialize.map_to_doc(PointMap.identity(FinSpace.discrete(2)))
    assert replay_finding(missing) is False


def test_a_separation_verdict_finding_is_refused():
    instance = {"space": serialize.space_to_doc(FinSpace.discrete(2)), "check": "separation-verdict"}
    with pytest.raises(InputError, match="^instance.check must be one of constructed-witness, got 'separation-verdict'$"):
        replay_finding({"suite": "reduction-dual-separation", "instance": instance})


def test_a_malformed_separation_pair_is_refused_on_any_space():
    # the opens of this space do not reduce, so the pair is never used, but it is still read
    space = generate_topology(3, [mask(3, [1]), mask(3, [0, 1]), mask(3, [1, 2])])
    assert not check_reduction(SetClass.from_bits(3, space.open_bits())).holds
    space = serialize.space_to_doc(space)
    for pair, message in (("x", "instance.pair"), ([[0]], "^instance.pair must hold two point arrays$")):
        instance = {"space": space, "check": "constructed-witness", "pair": pair}
        with pytest.raises(InputError, match=message):
            replay_finding({"suite": "reduction-dual-separation", "instance": instance})


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
        "family": family_doc(IndexedFamily.from_list(2, [mask(2, [0]), mask(2, [1])])),
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


# Findings of a deliberately broken kernel (every evaluation flips point 0 of
# every case): the counts and documents pin both the finding builder and the
# order in which assignments are drawn.  The suites evaluate many cases at
# once, one per lane, and cut every lane to its universe afterwards, so the
# fault flips bit 0 of every lane only while no kernel call packs more than
# EVERY_LANE's lanes; the runs below check that they do not.
BROKEN_KERNEL_FINDINGS = {
    "distributivity": (31376, "ba0deedfb135636cf323842a24e141f0f2028f5ae8c32eeb9a8c613a23b8e118"),
    "restriction": (6740, "8d26493e4670aced622d3166b25faf330e898f52fd636b7fefbb930aefb5b38f"),
    "preimage-commutes": (20512, "60758e0181716772019d732fe4e710699f99b03ed7ba4ac81a10b88ac2cd2547"),
    "algebra-closure": (6624, "ef82383f8960d22b6ab4023d28e154248f5ca0344f843bfcd83876a775a3e043"),
    "image-commutes": (1371, "f8b782a7af78a02d5f7c825168d43a30355eba97e960e242032001fac1bea6c9"),
    "image-necessity": (2932, "211f4572e88ff90bdee0295881db27929c35af0b557b0ebb5d770d3edbebc10c"),
}


EVERY_LANE = replicate(1, 1 << 12)


@contextmanager
def _broken_kernel(monkeypatch):
    """Flip point 0 of every lane, and check that every kernel call is made through eval_lanes on at most 4,096
    lanes."""
    honest_kernel, honest_ev, kernel_calls, lanes = hausdorff.eval_plan_bits, suites.eval_lanes, [], []

    def kernel(plans, values):
        kernel_calls.append(None)
        return honest_kernel(plans, values) ^ EVERY_LANE

    def ev(positions, values, full, dual=False):
        lanes.append(-(-full.bit_length() // 8))  # full holds each lane's universe
        return honest_ev(positions, values, full, dual)

    with monkeypatch.context() as patch:
        patch.setattr(hausdorff, "eval_plan_bits", kernel)
        patch.setattr(suites, "eval_lanes", ev)
        yield
    assert len(kernel_calls) == len(lanes) > 0
    assert max(lanes) <= 1 << 12


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


@pytest.mark.parametrize("name", sorted(BROKEN_KERNEL_FINDINGS))
def test_pool_entries_evaluated_one_per_batch_yield_the_same_documents(name, monkeypatch):
    monkeypatch.setattr(suites, "GROUP_ENTRIES", 1)
    with _broken_kernel(monkeypatch):
        res = run_suite(name, bounds=TIGHT, seed=3, budget=6)
    assert (res.violation_count, _sha(res.violations)) == BROKEN_KERNEL_FINDINGS[name]


def test_reduction_dual_separation_checks_each_separator_against_its_own_pair(monkeypatch):
    # a separator built for the swapped pair (b, a) contains b and misses a, so
    # it separates (a, b) only when both are empty
    real = suites.reduction_to_separation
    monkeypatch.setattr(suites, "reduction_to_separation", lambda sc, a, b: real(sc, b, a))
    res = run_suite("reduction-dual-separation", bounds=Bounds(max_points=3), keep=10**6)
    expected = 0
    for k in range(4):
        for space in all_topologies(k):
            opens = SetClass.from_bits(k, space.open_bits())
            if check_reduction(opens).holds:
                closeds = [((1 << k) - 1) ^ o for o in space.open_bits()]
                expected += sum(1 for a in closeds for b in closeds if not a & b and a | b)
    assert res.violation_count == len(res.violations) == expected == 240
    assert {doc["instance"]["check"] for doc in res.violations} == {"constructed-witness"}
    assert all(replay_finding(json.loads(canonical_json(doc))) for doc in res.violations)


def test_a_broken_kernel_pins_every_sampled_assignment(monkeypatch):
    # The first 32 documents above come from exhaustively enumerated cases;
    # keeping all of them also pins the seeded samples drawn for large pools.
    with _broken_kernel(monkeypatch):
        res = run_suite("image-necessity", bounds=TIGHT, seed=3, budget=6, keep=10**6)
    assert len(res.violations) == res.violation_count == 2932
    assert _sha(res.violations) == "9f8f4d684377a6afc29504e127922ea119428c3edaf5a921ec00ec59f6268046"


def test_a_broken_image_table_pins_every_intersection_image_violation(monkeypatch):
    # the image of each one-point set gains point 0: F(meet) and the meet of the images then differ on
    # families whose meet is one point; the documents pin the (map, family) order of the report
    honest = suites._image_table

    def image_table(pm):
        return bytes(v | 1 if b >> pm.dom.n == 0 and b.bit_count() == 1 else v for b, v in enumerate(honest(pm)))

    monkeypatch.setattr(suites, "_image_table", image_table)
    res = run_suite("intersection-image", keep=10**6)
    assert (res.cases, res.violation_count, len(res.violations)) == (32540, 4133, 4133)
    assert _sha(res.violations) == "31da785425817be9913b59ace5e508e7c3e214599dd52d02a9859493616efd3c"
    # the replay checks the public report, which the broken table does not reach
    assert not any(replay_finding(json.loads(canonical_json(doc))) for doc in res.violations[:64])


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


# Every intersection-image-necessity document at default bounds and seed 0, honest and under two image faults:
# (cases, violations, witnesses, violation digest, witness digest).  The faults reach the suite only through
# PointMap.image_bits, so the documents pin the suite's reading of the image sides, whichever code computes them.
_NO_VIOLATIONS = "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"
NECESSITY_FINDINGS = {
    "honest": (302, 0, 18, _NO_VIOLATIONS, "942f9c7ef548de387ba0431ff903f7fa63bc6d0e77961020df80734423ef4022"),
    "nonempty-images-gain-0": (
        302, 0, 30, _NO_VIOLATIONS, "44601cec92edf176d4a9384f7650b3d7b58de6df84a7eedea89fe1e46241e0d2"
    ),
    "one-point-images-gain-0": (
        302, 4, 38,
        "053dc62da81bcf9af3249b474536a98eca92bb0224269c2d978e542ffa746a56",
        "e95db7414bc48b73719f5b7c6d11b69c6fae7134611c28e25a084fe7bf5a9c67",
    ),
}


@pytest.mark.parametrize("fault", sorted(NECESSITY_FINDINGS))
def test_intersection_image_necessity_documents_are_pinned(fault, monkeypatch):
    honest = PointMap.image_bits
    if fault == "nonempty-images-gain-0":
        monkeypatch.setattr(PointMap, "image_bits", lambda pm, bits: honest(pm, bits) | (bits != 0))
    elif fault == "one-point-images-gain-0":
        monkeypatch.setattr(PointMap, "image_bits", lambda pm, bits: honest(pm, bits) | (bits.bit_count() == 1))
    res = run_suite("intersection-image-necessity", keep=10**6)
    found = (res.cases, res.violation_count, res.witness_count, _sha(res.violations), _sha(res.witnesses))
    assert found == NECESSITY_FINDINGS[fault]
    assert (len(res.violations), len(res.witnesses)) == found[1:3]
    # the replay reads the same image sides, so under the same fault every document still triggers
    assert all(replay_finding(json.loads(canonical_json(doc))) for doc in res.violations + res.witnesses)


@pytest.mark.parametrize("lanes", [1, 2, 64, 1000])
def test_packed_evaluation_matches_every_lane(lanes):
    rng = random.Random(lanes)
    full = 0xFF
    fulls = replicate(full, lanes)
    plans = (*suites._compiled(2, 2), suites._plan(Base(2, [], RANGE), RANGE))
    assert plans[-1].order == ()
    for plan in plans:
        pos, k = plan.positions, len(plan.order)
        raw = bytes(rng.randrange(256) for _ in range(lanes * k))
        cases = [suites._case(plan, raw, i) for i in range(lanes)]
        packed = suites._columns(raw, k)
        assert list(lanes_of(eval_plan_bits(pos, packed) & fulls, lanes)) == [
            eval_plan_bits(pos, case) & full for case in cases
        ]
        assert list(lanes_of(eval_lanes(pos, packed, fulls, dual=True), lanes)) == [
            full ^ (eval_plan_bits(pos, [full ^ v for v in case]) & full) for case in cases
        ]


@pytest.mark.parametrize("dual", [False, True], ids=["eval", "dual"])
def test_one_kernel_call_evaluates_lanes_of_every_universe_size(dual):
    # lanes of 0 to 8 points side by side, each cut to its own universe, with a free empty prefix (None) too
    rng = random.Random(int(dual))
    sizes = [n for n in range(9) for _ in range(6)]
    rng.shuffle(sizes)
    full = pack_lanes([(1 << n) - 1 for n in sizes])
    one_lane = hausdorff.dual_evaluate if dual else hausdorff.evaluate
    for plan in suites._compiled(2, 2):
        for free in (False, True) if plan.mode == PREFIX else (False,):
            cases = [[rng.randrange(1 << n) for _ in plan.order] for n in sizes]
            values = [pack_lanes(col) for col in zip(*cases)]
            if free:
                assert plan.order[0] == ()
                values[0] = None
            out = lanes_of(eval_lanes(plan.positions, values, full, dual), len(sizes))
            for lane, (n, case) in enumerate(zip(sizes, cases)):
                assigned = {idx: SubsetMask(n, v) for idx, v in zip(plan.order, case) if not (free and idx == ())}
                assert out[lane] == one_lane(plan.base, IndexedFamily(n, plan.mode, assigned)).bits, (plan, lane)


def _unsaturated_lanes(pms, sizes, packed):
    """The lanes that algebra-closure's fiber masks find outside their entry's algebra, and those the membership
    tables find there; run e of sizes[e] lanes belongs to pms[e]."""
    lanes = sum(sizes)
    ours = suites._unsaturated(packed, suites._fiber_masks([suites._steps(pm) for pm in pms], sizes))
    theirs = closure_oracle(pms, sizes, packed)
    ours, theirs = lanes_of(ours, lanes), lanes_of(theirs, lanes)
    return [i for i in range(lanes) if ours[i]], [i for i in range(lanes) if not theirs[i]]


def _table_maps(n, codomains):
    return [PointMap(FinSpace.discrete(n), FinSpace.discrete(m), t) for m in codomains for t in all_tables(n, m)]


@pytest.mark.parametrize("n", range(5))
def test_fiber_masks_find_the_algebra_of_every_small_map_in_every_lane(n):
    pms = _table_maps(n, range(1, 5))
    packed = pack_lanes(list(range(1 << n)) * len(pms))
    ours, theirs = _unsaturated_lanes(pms, [1 << n] * len(pms), packed)
    assert ours == theirs
    assert len(ours) == sum((1 << n) - (1 << len(set(pm.table))) for pm in pms)


@pytest.mark.parametrize("k", range(1, 7))
def test_fiber_masks_follow_runs_of_unequal_sizes(k):
    rng = random.Random(k)
    for n in range(1, 5):
        pms = _table_maps(n, range(1, 5))
        pools = [bytes(sorted(alg_enumerate(pm).member_bits())) for pm in pms]
        sizes = [suites._layout(pool, [k], 6, True).lanes[0] for pool in pools]
        assert len(set(sizes)) > 1 or n == 1  # every map from one point has the algebra {0, 1}
        packed = pack_lanes([rng.randrange(1 << n) for _ in range(sum(sizes))])
        ours, theirs = _unsaturated_lanes(pms, sizes, packed)
        assert ours == theirs
    # maps from 0 to 4 points in one run, shuffled, each lane holding a subset of its own map's domain
    pms = [pm for n in range(5) for pm in _table_maps(n, range(1, 4))]
    rng.shuffle(pms)
    sizes = [suites._layout(bytes(sorted(alg_enumerate(pm).member_bits())), [k], 6, True).lanes[0] for pm in pms]
    packed = pack_lanes([rng.randrange(1 << pm.dom.n) for pm, size in zip(pms, sizes) for _ in range(size)])
    ours, theirs = _unsaturated_lanes(pms, sizes, packed)
    assert ours == theirs and ours


def test_fiber_masks_hold_at_full_lane_width():
    # on 8 points a lane's top bit shifts into the next lane, where it lands below every step the masks keep
    rng = random.Random(8)
    tables = [[rng.randrange(m) for _ in range(8)] for m in range(1, 9)] + [[x % 2 for x in range(8)]]
    pms = [PointMap(FinSpace.discrete(8), FinSpace.discrete(max(t) + 1), t) for t in tables]
    sizes = [256] * len(pms) + [rng.randrange(1, 40) for _ in pms]
    packed = pack_lanes(list(range(256)) * len(pms) + [rng.randrange(256) for _ in range(sum(sizes[len(pms):]))])
    ours, theirs = _unsaturated_lanes(pms * 2, sizes, packed)
    assert ours == theirs
    assert 0 < len(ours) < sum(sizes)


def _byte_samples(pool, count, rng):
    """The reference sampler, one byte at a time: each byte b of rng.randbytes(shortfall), at most MAX_BUDGET bytes
    per call, gives pool[b % len(pool)] unless b lies at or above the largest multiple of len(pool) up to 256."""
    out = []
    while len(out) < count:
        for b in rng.randbytes(min(count - len(out), suites.MAX_BUDGET)):
            if b < 256 - 256 % len(pool):
                out.append(pool[b % len(pool)])
    return out


def _byte_assignments(pool, ks, rng, budget):
    """The reference assignments of a pool for plans of ks indices: all of pool^k while small, else the constant
    corners plus `budget` samples.  The samples of every sampled plan come from one run of the reference sampler,
    in plan order."""
    sampled = [k for k in ks if len(pool) ** k > max(64, budget)]
    stream = iter(_byte_samples(pool, budget * sum(sampled), rng))
    out = []
    for k in ks:
        if len(pool) ** k <= max(64, budget):
            out.append(list(iproduct(pool, repeat=k)))
        else:
            corners = [(v,) * k for v in pool[:3]]
            out.append(corners + [tuple(islice(stream, k)) for _ in range(budget)])
    return out


def _pool(size):
    """`size` distinct one-byte values, not in increasing order (3 is a unit mod 256)."""
    return [(3 * v + 1) % 256 for v in range(size)]


class _Logged(random.Random):
    """A generator that logs the size of every randbytes call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def randbytes(self, n):
        self.calls.append(n)
        return super().randbytes(n)


POOL_SIZES = (*range(1, 18), 255, 256)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_the_sampler_draws_one_byte_per_value(seed):
    # sizes that divide 256 keep every byte; the others delete 256 % size byte values and redraw the shortfall
    redrawn = set()
    for size in POOL_SIZES:
        pool = _pool(size)
        for count in (1, 7, 100, 3000):
            ours, theirs = _Logged(f"{seed}:{size}:{count}"), random.Random(f"{seed}:{size}:{count}")
            assert list(suites._sample(bytes(pool), count, ours)) == _byte_samples(pool, count, theirs)
            assert ours.random() == theirs.random()
            assert ours.calls[0] == count
            if len(ours.calls) > 1:
                redrawn.add(size)
    assert redrawn == {size for size in POOL_SIZES if 256 % size}


@pytest.mark.parametrize("size", [7, 255, 256])
def test_the_sampler_draws_at_most_max_budget_bytes_at_a_time(size):
    pool, count = _pool(size), 3 * suites.MAX_BUDGET + 5
    ours, theirs = _Logged(size), random.Random(size)
    assert list(suites._sample(bytes(pool), count, ours)) == _byte_samples(pool, count, theirs)
    assert ours.random() == theirs.random()
    assert ours.calls[:3] == [suites.MAX_BUDGET] * 3 and max(ours.calls) == suites.MAX_BUDGET
    if not 256 % size:  # every byte is kept
        assert ours.calls == [suites.MAX_BUDGET] * 3 + [5]


class _Stream:
    """A stand-in generator whose random bytes are the given byte values, round and round."""

    def __init__(self, values):
        self.values = cycle(values)

    def randbytes(self, n):
        return bytes(islice(self.values, n))


@pytest.mark.parametrize("size", POOL_SIZES)
def test_every_pool_value_gets_an_equal_share_of_the_kept_bytes(size):
    # the 256 byte values, those the sampler deletes first: it keeps every byte below the largest multiple of
    # size, in order, and sends exactly keep / size of them to each pool value
    pool, keep = _pool(size), 256 - 256 % size
    rng = _Stream([*range(keep, 256), *range(keep)])
    drawn = suites._sample(bytes(pool), keep, rng)
    assert list(drawn) == [pool[b % size] for b in range(keep)]
    assert Counter(drawn) == dict.fromkeys(pool, keep // size)
    assert rng.randbytes(1) == bytes([keep % 256])  # all 256 bytes were drawn, no more


def test_the_sampler_refuses_to_draw_from_an_empty_pool():
    rng = random.Random(0)
    state = rng.getstate()
    assert suites._sample(b"", 0, rng) == b""
    with pytest.raises(ValueError, match="cannot draw 5 values from an empty pool"):
        suites._sample(b"", 5, rng)
    with pytest.raises(ValueError, match="empty pool"):  # a sweep that only samples
        list(suites._sweep(Bounds(), [[]], rng, 10, exhaust=False))
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "size, alphabet, depth, budget, draws",
    [
        (3, 2, 2, 10, [2720]),  # pool^k enumerated up to k = 3, sampled from k = 4
        (5, 2, 2, 300, [81600]),  # 81,600 samples of two plans, drawn 65,536 bytes at a time
        (255, 1, 2, 30000, [240000]),  # 240,000 samples of three plans
        # four pools: k = 3 is enumerated in the pools of 2 and 3 values and sampled in the pools of 5
        ((5, 2, 3, 5), 2, 2, 10, [2990, 280, 2720, 2990]),
    ],
)
def test_batches_draw_the_byte_stream_in_plan_order(size, alphabet, depth, budget, draws, monkeypatch):
    sizes = size if isinstance(size, tuple) else (size,)
    calls, honest = [], suites._sample

    def sample(pool, count, rng):
        calls.append(count)
        return honest(pool, count, rng)

    monkeypatch.setattr(suites, "_sample", sample)
    pools, bounds = [_pool(size) for size in sizes], Bounds(alphabet=alphabet, depth=depth)
    ours, theirs = random.Random(sum(sizes)), random.Random(sum(sizes))
    plans = suites._compiled(alphabet, depth)
    # every pool draws all its samples before the first batch: pool by pool, plan by plan
    ks = [len(plan.order) for plan in plans]
    expected = [_byte_assignments(pool, ks, theirs, budget) for pool in pools]
    batches = list(suites._sweep(bounds, pools, ours, budget))
    assert [(batch.index, batch.plan) for batch in batches] == list(enumerate(plans))
    for batch in batches:
        per_pool = [cases[batch.index] for cases in expected]
        cases = [case for pool_cases in per_pool for case in pool_cases]
        assert batch.sizes == [len(pool_cases) for pool_cases in per_pool] and batch.lanes == len(cases)
        assert [suites._case(batch.plan, batch.raw, i) for i in range(batch.lanes)] == cases
        assert batch.columns == [pack_lanes(col) for col in zip(*cases)]
        owners = [e for e, pool_cases in enumerate(per_pool) for _ in pool_cases]
        assert [suites._entry(batch, i) for i in range(batch.lanes)] == owners
    assert ours.random() == theirs.random()
    assert calls == draws


@pytest.mark.parametrize(
    "sizes, alphabet, depth, budget, modes, exhaust",
    [
        ((5, 3, 5, 5, 2, 3), 2, 2, 10, MODES, True),  # repeated pools of unequal length
        ((255, 7, 255), 1, 2, 30000, MODES, True),  # draws of one pool split across 65,536-value groups
        ((255, 9), 1, 2, 8192, MODES, True),  # draws of one pool that fill one group exactly
        ((4, 4, 9, 4), 2, 2, 10, MODES, False),  # samples only
        ((6, 2, 6), 2, 2, 4, [PREFIX], True),  # one mode
        ((1, 1, 17), 3, 1, 12, MODES, True),  # one-value pools enumerate every plan; 17 values sample from k = 2
        ((3, 5, 3), 0, 2, 10, MODES, True),  # no plans
    ],
)
def test_batches_equal_the_per_entry_assembly(sizes, alphabet, depth, budget, modes, exhaust, monkeypatch):
    calls, honest = [], suites._sample

    def sample(pool, count, rng):
        calls[-1].append(count)
        return honest(pool, count, rng)

    monkeypatch.setattr(suites, "_sample", sample)
    pools, bounds = [_pool(size) for size in sizes], Bounds(alphabet=alphabet, depth=depth)
    ours, theirs = random.Random(sum(sizes)), random.Random(sum(sizes))
    calls.append([])
    batches = list(suites._sweep(bounds, pools, ours, budget, modes, exhaust))
    calls.append([])
    expected = list(sweep_oracle(bounds, pools, theirs, budget, modes, exhaust))
    assert calls[0] == calls[1]
    assert len(batches) == len(expected) == len(suites._plans(bounds, modes))
    for batch, (index, plan, sizes, lanes, raw, columns) in zip(batches, expected):
        assert (batch.index, batch.plan, batch.sizes, batch.lanes) == (index, plan, sizes, lanes)
        assert batch.raw == raw and batch.columns == columns
    assert ours.getstate() == theirs.getstate()


def test_a_sweep_over_no_pools_yields_no_batch_and_draws_nothing():
    rng = random.Random(0)
    state = rng.getstate()
    assert list(suites._sweep(Bounds(), [], rng, 10)) == []
    assert rng.getstate() == state


@pytest.mark.parametrize("bounds", [Bounds(alphabet=0), Bounds(depth=0)], ids=["alphabet-0", "depth-0"])
@pytest.mark.parametrize("name", suite_names())
def test_bounds_with_no_plans_run_every_suite(name, bounds):
    assert run_suite(name, bounds=bounds).violation_count == 0


def test_lanes_refuse_universes_over_8_points():
    for name in ("preimage-commutes", "algebra-closure", "image-commutes", "image-necessity"):
        with pytest.raises(ResourceError, match="8 points"):
            run_suite(name, bounds=Bounds(max_points=9), budget=1)


def test_a_replayed_merge_over_8_points_is_refused_by_the_lanes():
    def missing_witness(n, m):
        pm = PointMap(FinSpace.discrete(n), FinSpace.discrete(m), [0] * n)
        instance = {"map": serialize.map_to_doc(pm), "check": "missing-witness"}
        return {"suite": "image-necessity", "kind": "violation", "instance": instance}

    for n, m in ((9, 2), (2, 9)):
        with pytest.raises(ResourceError, match="a one-byte lane holds subsets of at most 8 points"):
            replay_finding(missing_witness(n, m))
    # at 8 points the lanes hold both spaces, and the merge has its witness
    assert not replay_finding(missing_witness(8, 8))


def test_sweep_digest_prints_one_line_per_suite():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_digest.py"), "--max-points", "2"],
        capture_output=True,
        text=True,
        check=True,
    )
    *lines, digest = proc.stdout.splitlines()
    fields = "seed=0 suite=(\\S+) cases=(\\d+) violations=(\\d+) witnesses=(\\d+) passed=(true|false)"
    shape = re.compile(fields + " violations_sha256=[0-9a-f]{64} witnesses_sha256=[0-9a-f]{64}")
    rows = [shape.fullmatch(line).groups() for line in lines]
    assert [row[0] for row in rows] == list(suite_names())
    res = run_suite("image-necessity", bounds=Bounds(max_points=2))
    assert ("image-necessity", str(res.cases), "0", str(res.witness_count), "true") in rows
    # pinned: a refactor that changes any finding at 2 points changes this line
    assert digest == "digest=1bf3905f842936a914dc8a5028a5a82601222f66295321d8456cd49f042cc199"


def test_sweep_digest_at_default_bounds_is_pinned():
    # a refactor that changes any finding of any suite at its default bounds changes this line
    tool = [sys.executable, str(ROOT / "tools" / "sweep_digest.py")]
    proc = subprocess.run(tool, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "digest=007363f4bbee1c286588e0b2a6f8fa263931c93e50dc5c1f14eee48462974b18"


def test_sweep_digest_over_three_seeds_is_pinned():
    # the findings do not depend on which random words the sampler consumes: other seeds draw other
    # samples, and every suite still finds the same things
    tool = [sys.executable, str(ROOT / "tools" / "sweep_digest.py"), "--seed", "0", "--seed", "1", "--seed", "7"]
    proc = subprocess.run(tool, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "digest=a843d25695afcabfbb5daa70516c58c2728ad97b8619c5b0dc8c194f96b527f6"
