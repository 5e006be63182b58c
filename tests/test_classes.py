"""Set classes: generation, duality, reduction, separation, ladders."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import (
    PREFIX,
    RANGE,
    IndexedFamily,
    InputError,
    PreconditionError,
    ResourceError,
    SetClass,
    SubsetMask,
    all_bases,
    borel_ladder,
    canonical_base,
    check_reduction,
    check_separation,
    closed_sets,
    complement_class,
    delta_class,
    evaluate,
    generate_class,
    generate_topology,
    reduction_to_separation,
    restrict_class,
)
from redsep.masks import restrict_bits

from conftest import bases, mask, modes, sclass, set_classes


def opens_class(space):
    return SetClass.from_bits(space.n, space.open_bits())


def test_set_class_is_extensional_and_canonically_ordered():
    ms = [mask(2, [0, 1]), mask(2, [1]), mask(2, [0, 1]), mask(2, [])]
    sc = SetClass(2, ms)
    assert sc == SetClass(2, reversed(ms))
    assert len(sc) == 3
    assert [m.points() for m in sc] == [(), (1,), (0, 1)]
    assert mask(2, [1]) in sc and mask(2, [0]) not in sc
    with pytest.raises(InputError):
        SetClass(2, [mask(3, [0])])
    with pytest.raises(InputError):
        SetClass(2, [{0}])


@pytest.mark.parametrize("n, bits", [(-1, []), ("2", [1]), (2, [4]), (2, [-1]), (2, [1.0]), (0, [1])])
def test_from_bits_rejects_what_subset_masks_reject(n, bits):
    with pytest.raises(InputError) as expected:
        SetClass(n, [SubsetMask(n, b) for b in bits])
    with pytest.raises(InputError) as got:
        SetClass.from_bits(n, bits)
    assert str(got.value) == str(expected.value)


def test_from_bits_equals_the_class_of_wrapped_masks():
    bits = [5, 0, 5, 3, 7]
    assert SetClass.from_bits(3, bits) == SetClass(3, [SubsetMask(3, b) for b in bits])
    assert [m.bits for m in SetClass.from_bits(3, bits)] == [0, 3, 5, 7]


@given(set_classes(3))
def test_complement_class_is_an_involution(sc):
    assert complement_class(complement_class(sc)) == sc
    assert {m.complement() for m in sc} == set(complement_class(sc))


@given(set_classes(3))
def test_delta_class_is_the_self_dual_part(sc):
    assert set(delta_class(sc)) == {m for m in sc if m.complement() in sc}
    assert delta_class(sc) == delta_class(complement_class(sc))


@given(set_classes(3), st.integers(0, 7))
def test_restrict_class_traces_every_member(sc, carrier_bits):
    carrier = SubsetMask(3, carrier_bits)
    traced = restrict_class(sc, carrier)
    assert traced.n == carrier.card()
    assert traced.member_bits() == {
        restrict_bits(m.bits & carrier.bits, carrier.bits) for m in sc
    }


def brute_generate(base, generators, mode, dual=False):
    """Re-derive the outcome class by walking every assignment directly."""
    n = generators.n
    indices = [idx for idx in base.relevant_indices(mode) if idx != ()]
    gens = list(generators)
    out = set()
    for pick in range(len(gens) ** len(indices)):
        values, t = {}, pick
        for idx in indices:
            values[idx] = gens[t % len(gens)]
            t //= len(gens)
        if dual:
            values = {k: v.complement() for k, v in values.items()}
        result = evaluate(base, IndexedFamily(n, mode, values), mode)
        out.add(result.complement() if dual else result)
    return SetClass(n, out)


def test_frozen_generated_classes_for_the_two_step_base():
    base = canonical_base("a_operation", 2, 2)
    gens = sclass(3, [[0, 1], [1, 2]])

    by_prefix = generate_class(base, gens, PREFIX)
    assert {m.points() for m in by_prefix} == {(1,), (0, 1), (1, 2), (0, 1, 2)}
    assert by_prefix == brute_generate(base, gens, PREFIX)

    by_range = generate_class(base, gens, RANGE)
    assert {m.points() for m in by_range} == {(0, 1), (1, 2), (0, 1, 2)}
    assert by_range == brute_generate(base, gens, RANGE)


@given(bases, modes, set_classes(2))
def test_generate_class_matches_the_assignment_walk(base, mode, gens):
    assert generate_class(base, gens, mode) == brute_generate(base, gens, mode)


@given(bases, modes, set_classes(2))
def test_dual_generation_is_complementation_of_the_complemented_run(base, mode, gens):
    dual = generate_class(base, gens, mode, dual=True)
    assert dual == complement_class(generate_class(base, complement_class(gens), mode))
    assert dual == brute_generate(base, gens, mode, dual=True)


def iproduct_generate(base, generators, mode, dual):
    """The outcome bits of every assignment, walked one at a time in iproduct order."""
    free = [idx for idx in base.relevant_indices(mode) if idx != ()]
    out = set()
    for assign in iproduct(generators.members, repeat=len(free)):
        if dual:
            assign = [m.complement() for m in assign]
        value = evaluate(base, IndexedFamily(generators.n, mode, dict(zip(free, assign))), mode)
        out.add((value.complement() if dual else value).bits)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
def test_generate_class_matches_an_iproduct_walk(n):
    rng = random.Random(n)
    stock = [canonical_base("union", 2), canonical_base("intersection", 2), canonical_base("a_operation", 2, 2)]
    for base in stock + rng.sample(all_bases(2, 2), 3):
        for mode in (PREFIX, RANGE):
            gens = SetClass.from_bits(n, {rng.randrange(1 << n) for _ in range(3)})
            for dual in (False, True):
                got = generate_class(base, gens, mode, dual=dual)
                assert got.member_bits() == iproduct_generate(base, gens, mode, dual)


def test_generate_class_cap_and_validation():
    base = canonical_base("a_operation", 2, 2)
    gens = sclass(3, [[0, 1], [1, 2]])
    with pytest.raises(ResourceError) as err:
        generate_class(base, gens, PREFIX, cap=32)
    assert "64" in str(err.value)
    generate_class(base, gens, PREFIX, cap=64)
    with pytest.raises(InputError):
        generate_class(base, [mask(3, [0])], PREFIX)


def test_power_set_has_reduction_with_canonical_witnesses():
    res = check_reduction(SetClass.power_set(3))
    assert res.holds and res.failing_pair is None
    assert res.pairs_checked == 64 and len(res.witnesses) == 64
    for (a, b), w in res.witnesses.items():
        assert (w.a, w.b) == (a, b) and w.holds()
    w = res.witnesses[(mask(3, [0, 1]), mask(3, [1, 2]))]
    assert w.c == mask(3, [0]) and w.d == mask(3, [1, 2])


def test_five_open_space_fails_reduction_at_the_overlapping_pair(five_open):
    res = check_reduction(opens_class(five_open))
    assert not res.holds and res.witnesses is None
    assert res.pairs_checked == 14
    assert res.failing_pair == (mask(3, [0, 1]), mask(3, [1, 2]))


def test_nested_opens_always_reduce(sierpinski, chain3):
    for space in (sierpinski, chain3):
        res = check_reduction(opens_class(space))
        assert res.holds
        assert all(w.holds() for w in res.witnesses.values())


def test_separation_frozen_failure():
    sc = sclass(3, [[], [0], [1], [0, 1, 2]])
    res = check_separation(sc)
    assert not res.holds
    assert res.pairs_checked == 6
    assert res.failing_pair == (mask(3, [0]), mask(3, [1]))


def test_power_set_has_separation_with_canonical_separators():
    res = check_separation(SetClass.power_set(2))
    assert res.holds
    for (a, b), w in res.witnesses.items():
        assert w.holds(delta_class(SetClass.power_set(2)))
    assert res.witnesses[(mask(2, [0]), mask(2, [1]))].separator == mask(2, [0])


@given(set_classes(3))
def test_check_results_report_witnesses_exactly_when_they_hold(sc):
    red = check_reduction(sc)
    if red.holds:
        assert all(w.holds() for w in red.witnesses.values())
    else:
        a, b = red.failing_pair
        assert a in sc and b in sc
    sep = check_separation(sc)
    if sep.holds:
        delta = delta_class(sc)
        assert all(w.holds(delta) for w in sep.witnesses.values())


def test_reduction_converts_to_separation_for_complement_pairs(five_open):
    a, b = mask(3, [0]), mask(3, [2])
    w = reduction_to_separation(SetClass.power_set(3), a, b)
    assert (w.a, w.b) == (a, b)
    assert w.separator == mask(3, [0, 1])
    assert w.holds(delta_class(SetClass.power_set(3)))

    with pytest.raises(PreconditionError):
        reduction_to_separation(opens_class(five_open), a, b)


def test_degenerate_separation_uses_the_first_canonical_witness(sierpinski):
    empty = mask(2, [])
    w = reduction_to_separation(opens_class(sierpinski), empty, empty)
    assert w.separator == SubsetMask.full(2)
    assert w.holds(delta_class(complement_class(opens_class(sierpinski))))


def test_separation_preconditions_are_reported(sierpinski):
    opens = opens_class(sierpinski)
    with pytest.raises(PreconditionError):
        reduction_to_separation(opens, mask(2, [1]), mask(2, []))
    with pytest.raises(PreconditionError):
        reduction_to_separation(opens, SubsetMask.full(2), SubsetMask.full(2))


def test_frozen_ladder_over_the_empty_set_generator():
    ladder = borel_ladder(sclass(2, [[]]), 8)
    assert ladder.stabilized and len(ladder.levels) == 3
    sigmas = [set(level.sigma) for level in ladder.levels]
    assert sigmas == [{mask(2, [])}, {mask(2, [0, 1])}, {mask(2, []), mask(2, [0, 1])}]
    assert ladder.levels[-1].delta == ladder.levels[-1].sigma


def test_ladder_over_closed_sets_reaches_the_full_power_set(sierpinski):
    ladder = borel_ladder(closed_sets(sierpinski), 8)
    assert ladder.stabilized and len(ladder.levels) == 3
    assert {m.points() for m in ladder.levels[0].sigma} == {(), (0,), (0, 1)}
    assert ladder.levels[-1].sigma == SetClass.power_set(2)


@given(set_classes(3))
def test_ladder_levels_are_dual_pairs_and_eventually_monotone(gens):
    ladder = borel_ladder(gens, 16)
    assert ladder.stabilized
    for level in ladder.levels:
        assert level.pi == complement_class(level.sigma)
        assert set(level.delta) == set(level.sigma) & set(level.pi)
    for lo, hi in zip(ladder.levels[1:], ladder.levels[2:]):
        assert lo.sigma.member_bits() <= hi.sigma.member_bits()
    final = ladder.levels[-1].sigma
    assert final == ladder.levels[-1].pi
    members = set(final)
    for x in members:
        for y in members:
            assert x | y in final


def test_ladder_validation():
    gens = sclass(2, [[0]])
    with pytest.raises(InputError):
        borel_ladder([mask(2, [0])], 2)
    with pytest.raises(InputError):
        borel_ladder(gens, 0)
    with pytest.raises(ResourceError):
        borel_ladder(gens, 65)


def test_generated_opens_from_subbasis_form_a_reducing_class():
    """A topology whose opens pairwise reduce; the engine agrees pair by pair."""
    space = generate_topology(3, [mask(3, [0]), mask(3, [1]), mask(3, [2])])
    res = check_reduction(opens_class(space))
    assert res.holds and res.pairs_checked == len(opens_class(space)) ** 2
