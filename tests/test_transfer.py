"""Transfer of reduction/separation along maps, zero witnesses, trace gaps."""

import hashlib
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import (
    MODES,
    REDUCTION,
    SEPARATION,
    FinSpace,
    InputError,
    PairTrace,
    PointMap,
    PreconditionError,
    ResourceError,
    SetClass,
    SubsetMask,
    alg_enumerate,
    all_tables,
    all_topologies,
    canonical_base,
    check_reduction,
    check_separation,
    components,
    generate_class,
    pull_back_witnesses,
    run_suite,
    transfer_property,
    zero_sets,
    zero_trace_gap,
    zero_witness_map,
)

from redsep import suites, transfer
from redsep.classes import _reduction_witness, reduces

from conftest import canonical_witness, gap_oracle, mask, power_set, sclass, spaces, subspace, tables, witness_holds


def merge32():
    return PointMap(FinSpace.discrete(3), FinSpace.discrete(2), [0, 0, 1])


MERGE_GENS = [[], [0, 1], [2], [0, 1, 2]]


def bits(n, points):
    return mask(n, points).bits


def test_pull_back_restores_reduction_witnesses():
    pm = merge32()
    a, b = bits(3, [0, 1]), bits(3, [2])
    pulled = pull_back_witnesses(pm, a, b, (bits(2, [0]), bits(2, [1])), REDUCTION)
    assert pulled == (bits(3, [0, 1]), bits(3, [2]))
    assert witness_holds(REDUCTION, a, b, pulled)


def test_pull_back_restores_separation_witnesses():
    pm = merge32()
    a, b = bits(3, [0, 1]), bits(3, [2])
    pulled = pull_back_witnesses(pm, a, b, (bits(2, [0]),), SEPARATION)
    assert pulled == (bits(3, [0, 1]),)
    assert witness_holds(SEPARATION, a, b, pulled)


def test_pull_back_preconditions():
    pm = merge32()
    ok = (bits(2, [0]), bits(2, [1]))
    # an unsaturated domain set
    with pytest.raises(PreconditionError):
        pull_back_witnesses(pm, bits(3, [0]), bits(3, [2]), ok, REDUCTION)
    # a witness for another image pair
    stale = (bits(2, [1]), bits(2, [0]))
    with pytest.raises(PreconditionError):
        pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [2]), stale, REDUCTION)
    with pytest.raises(PreconditionError):
        pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [2]), (bits(2, [1]),), SEPARATION)
    # a witness of the wrong shape, of an unknown property, or off the codomain
    malformed = (((1, 2), SEPARATION), ((1,), REDUCTION), (ok, "both"), ((4, 0), REDUCTION), ((mask(2, [0]),), SEPARATION))
    for witness, which in malformed:
        with pytest.raises(InputError):
            pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [2]), witness, which)
    # a domain set off the domain, or not given as bits
    with pytest.raises(InputError):
        pull_back_witnesses(pm, 0b1000, bits(3, [2]), ok, REDUCTION)
    with pytest.raises(InputError):
        pull_back_witnesses(pm, mask(3, [0, 1]), bits(3, [2]), ok, REDUCTION)


def test_each_pull_back_check_names_its_failure(monkeypatch):
    pm, ok = merge32(), (bits(2, [0]), bits(2, [1]))
    with pytest.raises(PreconditionError, match=r"^b = SubsetMask\(3, \{1, 2\}\) is not saturated"):
        pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [1, 2]), ok, REDUCTION)
    with pytest.raises(PreconditionError, match=r"^not a reduction witness for \(SubsetMask\(2, \{0\}\), "):
        pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [2]), ok[::-1], REDUCTION)
    # a condition that holds on the images (fb = {1}) but not on the domain pair (b = {2})
    monkeypatch.setattr(transfer, "_property", lambda which: (lambda a, b, *w, sc=None: b != bits(3, [2]), None))
    with pytest.raises(PreconditionError, match="^pulled-back reduction witness failed validation$"):
        pull_back_witnesses(pm, bits(3, [0, 1]), bits(3, [2]), ok, REDUCTION)


@given(tables, st.data())
def test_pulled_back_canonical_witnesses_always_validate(nmt, data):
    n, m, table = nmt
    pm = PointMap(FinSpace.discrete(n), FinSpace.discrete(m), table)
    saturated = list(alg_enumerate(pm))
    a = data.draw(st.sampled_from(saturated), label="a")
    b = data.draw(st.sampled_from(saturated), label="b")
    target = power_set(m)
    assert check_reduction(target).holds and check_separation(target).holds
    w = canonical_witness(target, REDUCTION, pm.image(a), pm.image(b))
    assert witness_holds(REDUCTION, a, b, pull_back_witnesses(pm, a.bits, b.bits, w, REDUCTION))
    if not (a & b) and not (pm.image(a) & pm.image(b)):
        ws = canonical_witness(target, SEPARATION, pm.image(a), pm.image(b))
        assert witness_holds(SEPARATION, a, b, pull_back_witnesses(pm, a.bits, b.bits, ws, SEPARATION))


def test_merge_map_transfers_reduction_to_its_saturated_class():
    rep = transfer_property(
        merge32(),
        canonical_base("union", 2),
        sclass(3, MERGE_GENS),
        power_set(2),
        "range",
        REDUCTION,
    )
    assert rep.verdict and rep.failure is None
    assert all(h.holds for h in rep.hypotheses)
    assert {m.points() for m in rep.class_dom} == {(), (2,), (0, 1), (0, 1, 2)}
    assert len(rep.pairs) == 16
    assert all(t.valid and witness_holds(REDUCTION, t.a, t.b, t.witness_dom, rep.class_dom) for t in rep.pairs)
    assert all(t.fa == merge32().image(SubsetMask(3, t.a)).bits for t in rep.pairs)


def test_merge_map_transfers_separation_too():
    rep = transfer_property(
        merge32(),
        canonical_base("union", 2),
        sclass(3, MERGE_GENS),
        power_set(2),
        "range",
        SEPARATION,
    )
    assert rep.verdict
    assert all(t.valid and witness_holds(SEPARATION, t.a, t.b, t.witness_dom, rep.class_dom) for t in rep.pairs)
    assert all(not t.a & t.b for t in rep.pairs)


def test_pair_failures_name_the_pair_as_masks(monkeypatch):
    args = (merge32(), canonical_base("union", 2), sclass(3, MERGE_GENS), power_set(2), "range", REDUCTION)
    with monkeypatch.context() as patch:
        # a check that records no witness, then a search that finds nothing
        honest = transfer.check_reduction
        patch.setattr(transfer, "check_reduction", lambda sc, record: honest(sc))
        patch.setattr(transfer, "_property", lambda which: (reduces, lambda sc, a, b: None))
        rep = transfer_property(*args)
    assert rep.failure == "no codomain witness for the image pair (SubsetMask(2, {}), SubsetMask(2, {}))"
    assert rep.pairs == (PairTrace(0, 0, 0, 0, None, None, False),)
    # a condition that accepts every witness but none inside a class
    outside_every_class = lambda a, b, c, d, sc=None: sc is None
    monkeypatch.setattr(transfer, "_property", lambda which: (outside_every_class, _reduction_witness))
    rep = transfer_property(*args)
    assert rep.failure == "pulled-back witness left the domain class for (SubsetMask(3, {}), SubsetMask(3, {}))"
    assert rep.pairs == (PairTrace(0, 0, 0, 0, (0, 0), (0, 0), False),)


TRANSFER_BASES = [canonical_base(name, *params) for name, params in suites._IDENTITY_BASES]


def _identity_cases():
    """The identity on every space up to 3 points, its opens on both sides (as two equal classes)."""
    for k in range(4):
        for space in all_topologies(k):
            opens = [SetClass.from_bits(k, space.open_bits()) for _ in range(2)]
            for base, mode, which in product(TRANSFER_BASES, MODES, (REDUCTION, SEPARATION)):
                yield (PointMap.identity(space), base, *opens, mode, which)


def _merge_cases():
    """Every map from 3 points onto 1 or 2, from its algebra and from an unsaturated class to the power set."""
    for m in (1, 2):
        for table in all_tables(3, m):
            pm = PointMap(FinSpace.discrete(3), FinSpace.discrete(m), table)
            for dom in (alg_enumerate(pm), SetClass.from_bits(3, [0, 1, 3, 4, 7])):
                for base, mode, which in product(TRANSFER_BASES, MODES, (REDUCTION, SEPARATION)):
                    yield pm, base, dom, power_set(m), mode, which


# (cases, sha256 of every report's which, verdict, failure, hypotheses, classes and pair traces)
REPORT_FIELDS = {
    "identity": (_identity_cases, 420, "e24de07ca781cd7fee0c18529d1b3a8f5e8e2778bc463a83ff7e3214d080b348"),
    "merge": (_merge_cases, 216, "63d46e61790d562a5b753c71220095b57baa8c337dd4efc41ab08457d67bb8dd"),
}


@pytest.mark.parametrize("name", sorted(REPORT_FIELDS))
def test_transfer_reports_are_pinned(name):
    cases, count, digest = REPORT_FIELDS[name]
    lines = []
    for args in cases():
        rep = transfer_property(*args)
        classes = [None if c is None else sorted(c.member_bits()) for c in (rep.class_dom, rep.class_cod)]
        lines.append(repr((rep.which, rep.verdict, rep.failure, rep.hypotheses, classes, rep.pairs)))
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == (count, digest)


def test_image_pairs_missing_from_the_record_are_searched(monkeypatch):
    """With the codomain check's record left empty, the pair loop searches every image
    pair and gives the report that reading the record gives."""
    cases = [args for args in _merge_cases() if args[2] == alg_enumerate(args[0])][::7]
    expected = [transfer_property(*args) for args in cases]
    for name in ("check_reduction", "check_separation"):
        honest = getattr(transfer, name)
        monkeypatch.setattr(transfer, name, lambda sc, record, honest=honest: honest(sc))
    assert [transfer_property(*args) for args in cases] == expected
    assert sum(rep.verdict for rep in expected) > 0


def test_equal_generator_classes_generate_one_class(monkeypatch):
    calls, honest = [], transfer.generate_class
    monkeypatch.setattr(transfer, "generate_class", lambda *args, **kw: calls.append(args) or honest(*args, **kw))
    union = canonical_base("union", 2)
    for args in _identity_cases():
        del calls[:]
        rep = transfer_property(*args)
        assert len(calls) == 1 and (rep.class_dom is None or rep.class_dom is rep.class_cod)
    del calls[:]
    rep = transfer_property(merge32(), union, sclass(3, MERGE_GENS), power_set(2), "range", REDUCTION)
    assert rep.verdict and len(calls) == 2 and rep.class_dom != rep.class_cod


def test_unsaturated_generators_fail_the_saturation_hypothesis():
    rep = transfer_property(
        merge32(),
        canonical_base("union", 2),
        sclass(3, [[], [0], [0, 1], [2], [0, 1, 2]]),
        power_set(2),
        "range",
        REDUCTION,
    )
    assert not rep.verdict
    assert "domain-generators-saturated" in rep.failure
    by_name = {h.name: h for h in rep.hypotheses}
    assert by_name["domain-generators-saturated"].offending == (mask(3, [0]),)
    assert by_name["images-stay-in-codomain-generators"].holds
    assert by_name["preimages-stay-in-domain-generators"].holds
    assert rep.class_dom is None and rep.pairs == ()


def test_escaping_images_fail_the_image_hypothesis():
    rep = transfer_property(
        merge32(),
        canonical_base("union", 2),
        sclass(3, MERGE_GENS),
        sclass(2, [[], [0], [0, 1]]),
        "range",
        REDUCTION,
    )
    assert not rep.verdict
    by_name = {h.name: h for h in rep.hypotheses}
    assert not by_name["images-stay-in-codomain-generators"].holds
    assert by_name["images-stay-in-codomain-generators"].offending == (mask(3, [2]),)


def test_codomain_class_without_the_property_is_reported_with_its_pair(five_open):
    opens = SetClass.from_bits(3, five_open.open_bits())
    rep = transfer_property(
        PointMap.identity(five_open),
        canonical_base("union", 2),
        opens,
        opens,
        "range",
        REDUCTION,
    )
    assert not rep.verdict
    assert rep.failure == "hypothesis failed: codomain-class-has-reduction"
    by_name = {h.name: h for h in rep.hypotheses}
    bad = by_name["codomain-class-has-reduction"]
    assert not bad.holds
    assert bad.offending == ((mask(3, [0, 1]), mask(3, [1, 2])),)


@given(spaces, st.sampled_from([REDUCTION, SEPARATION]))
def test_identity_transfer_agrees_with_the_direct_check(space, which):
    opens = SetClass.from_bits(space.n, space.open_bits())
    base = canonical_base("union", 2)
    rep = transfer_property(
        PointMap.identity(space), base, opens, opens, "range", which
    )
    generated = generate_class(base, opens, "range")
    direct = (
        check_reduction(generated) if which == REDUCTION else check_separation(generated)
    )
    assert rep.verdict == direct.holds
    if rep.verdict:
        for t in rep.pairs:
            w = canonical_witness(generated, which, t.a, t.b)
            assert w is not None and t.witness_dom == w and t.witness_cod == w
            assert witness_holds(which, t.a, t.b, w, generated)


def test_indicator_diagonal_certifies_every_listed_zero_set(connected3):
    zeros = [mask(3, []), mask(3, [0, 1, 2])]
    rep = zero_witness_map(connected3, zeros)
    assert rep.all_saturated
    assert rep.map.table == (2, 2, 2)
    assert rep.map.cod.n == 4
    assert rep.certificate == ((zeros[0], True), (zeros[1], True))


def test_indicator_diagonal_on_a_discrete_space():
    space = FinSpace.discrete(3)
    rep = zero_witness_map(space, [mask(3, [0]), mask(3, [1, 2])])
    assert rep.all_saturated
    assert rep.map.table == (1, 2, 2)


@given(spaces, st.data())
def test_zero_witness_certificates_always_verify(space, data):
    pool = sorted(zero_sets(space))
    zeros = data.draw(
        st.lists(st.sampled_from(pool), max_size=3) if pool else st.just([]),
        label="zeros",
    )
    rep = zero_witness_map(space, zeros)
    assert rep.all_saturated
    for z, ok in rep.certificate:
        assert ok
        assert rep.map.preimage(rep.map.image(z)) == z


def test_zero_witness_map_guards(connected3):
    with pytest.raises(ResourceError):
        zero_witness_map(FinSpace.discrete(4), [mask(4, [i]) for i in range(4)])
    with pytest.raises(PreconditionError):
        zero_witness_map(connected3, [mask(3, [0])])
    with pytest.raises(InputError):
        zero_witness_map(FinSpace.discrete(3), [mask(2, [0])])


def test_connected_space_leaves_a_trace_gap(connected3):
    rep = zero_trace_gap(connected3, mask(3, [1, 2]))
    assert rep.carrier == mask(3, [1, 2])
    assert rep.traces == {0, 0b110} and rep.gap == {0b010, 0b100}
    assert rep.indexed(rep.traces) == [[], [0, 1]]
    assert rep.indexed(rep.intrinsic) == [list(m.points()) for m in power_set(2)]
    assert rep.indexed(rep.gap) == [[0], [1]]


@given(spaces, st.integers(0, 7))
def test_traces_are_always_intrinsic_zero_sets(space, carrier_bits):
    carrier = SubsetMask(space.n, carrier_bits & ((1 << space.n) - 1))
    rep = zero_trace_gap(space, carrier)
    assert rep.traces <= rep.intrinsic
    assert rep.gap == rep.intrinsic - rep.traces
    assert all(not b & ~carrier.bits for b in rep.intrinsic)


@given(st.integers(0, 15))
def test_discrete_spaces_have_no_trace_gap(carrier_bits):
    space = FinSpace.discrete(4)
    rep = zero_trace_gap(space, SubsetMask(4, carrier_bits))
    assert not rep.gap


@given(spaces)
def test_the_full_carrier_has_no_trace_gap(space):
    rep = zero_trace_gap(space, SubsetMask.full(space.n))
    assert not rep.gap
    assert rep.traces == rep.intrinsic


def test_the_gap_matches_the_subspace_oracle_up_to_4_points():
    """All 5,931 (space, carrier) cases against the subspace route, and the closed form
    |gap| = 2^(components of the subspace) - 2^(ambient components that meet the carrier)."""
    cases = 0
    for n in range(5):
        for space in all_topologies(n):
            ambient = [b.bits for b in components(space)]
            for carrier_bits in range(1 << n):
                cases += 1
                carrier = SubsetMask(n, carrier_bits)
                rep = zero_trace_gap(space, carrier)
                oracle = gap_oracle(space, carrier)
                for got, want in zip((rep.traces, rep.intrinsic, rep.gap), oracle):
                    assert rep.indexed(got) == [list(m.points()) for m in want]
                blocks = len(components(subspace(space, carrier)[0]))
                meeting = sum(1 for b in ambient if b & carrier_bits)
                assert len(rep.gap) == (1 << blocks) - (1 << meeting)
    assert cases == 5931


def test_the_gap_sweep_builds_no_space_and_no_class(monkeypatch):
    suites._spaces(4)
    built = []
    for cls in (FinSpace, SetClass):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    res = run_suite("zero-trace-gap")
    assert res.cases == 5931 and res.witness_count == 482
    assert built == []
