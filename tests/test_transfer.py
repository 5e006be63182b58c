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
    run_suite,
    transfer_property,
    zero_sets,
    zero_trace_gap,
    zero_witness_map,
)

from redsep import suites, transfer
from redsep.classes import _reduction_witness

from conftest import canonical_witness, gap_oracle, mask, power_set, sclass, spaces, subspace, tables, witness_holds


def merge32():
    return PointMap(FinSpace.discrete(3), FinSpace.discrete(2), [0, 0, 1])


MERGE_GENS = [[], [0, 1], [2], [0, 1, 2]]


@given(tables, st.data())
def test_pulled_back_canonical_witnesses_always_validate(nmt, data):
    """The preimages of a canonical codomain witness for the images of a saturated pair
    are a witness for the pair: the law transfer's pair loop relies on."""
    n, m, table = nmt
    pm = PointMap(FinSpace.discrete(n), FinSpace.discrete(m), table)
    saturated = list(alg_enumerate(pm))
    a = data.draw(st.sampled_from(saturated), label="a")
    b = data.draw(st.sampled_from(saturated), label="b")
    target = power_set(m)
    assert check_reduction(target).holds and check_separation(target).holds
    fa, fb = pm.image_bits(a.bits), pm.image_bits(b.bits)
    for which in (REDUCTION, SEPARATION):
        if which == SEPARATION and a.bits & b.bits:
            continue
        w = canonical_witness(target, which, fa, fb)
        assert w is not None and witness_holds(which, fa, fb, w, target)
        assert witness_holds(which, a, b, tuple(map(pm.preimage_bits, w)))


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


def _discrete_cases():
    """Every map between discrete spaces of 1 to 3 points, onto or not, from the preimages of the
    power set or of {∅, {0}, full} to that class: every image pair is a checked codomain pair."""
    for n, m in product(range(1, 4), repeat=2):
        for table in all_tables(n, m):
            pm = PointMap(FinSpace.discrete(n), FinSpace.discrete(m), table)
            for cod in (power_set(m), SetClass.from_bits(m, [0, 1, (1 << m) - 1])):
                dom = SetClass.from_bits(n, map(pm.preimage_bits, cod.member_bits()))
                for base, mode, which in product(TRANSFER_BASES, MODES, (REDUCTION, SEPARATION)):
                    yield pm, base, dom, cod, mode, which


# (cases, sha256 of every report's which, verdict, failure, hypotheses, classes and pair traces)
REPORT_FIELDS = {
    "identity": (_identity_cases, 420, "e24de07ca781cd7fee0c18529d1b3a8f5e8e2778bc463a83ff7e3214d080b348"),
    "merge": (_merge_cases, 216, "63d46e61790d562a5b753c71220095b57baa8c337dd4efc41ab08457d67bb8dd"),
    "discrete": (_discrete_cases, 1344, "4ce25ee42afab75788e03356e72a3826706f2b5ef75dcecc31552a23faa26be7"),
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
