"""Set classes: generation, duality, reduction, separation, ladders."""

import random
import tracemalloc
from itertools import combinations
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import (
    PREFIX,
    RANGE,
    REDUCTION,
    SEPARATION,
    FinSpace,
    IndexedFamily,
    InputError,
    PointMap,
    PreconditionError,
    ResourceError,
    SetClass,
    SubsetMask,
    all_bases,
    all_topologies,
    borel_ladder,
    canonical_base,
    check_reduction,
    check_separation,
    closed_sets,
    complement_class,
    dual_evaluate,
    evaluate,
    generate_class,
    generate_topology,
    open_sets,
    reduction_to_separation,
    transfer_property,
    zero_sets,
)
from redsep import classes
from redsep.classes import DEFAULT_ASSIGNMENT_CAP, _reduction_witness, _separation_witness, reduces, separates

from conftest import SPACE_POOL, bases, canonical_witness, checked_pairs, mask, modes, power_set, restrict_class, sclass, set_classes, witness_holds
from conftest import opens_reduce, opens_separate, opposite


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


@given(set_classes(3), st.integers(0, 7))
def test_restrict_class_traces_every_member(sc, carrier_bits):
    carrier = SubsetMask(3, carrier_bits)
    traced = restrict_class(sc, carrier)
    assert traced.n == carrier.card()
    index = {p: i for i, p in enumerate(carrier.points())}
    assert {m.points() for m in traced} == {
        tuple(index[p] for p in m.points() if p in index) for m in sc
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


def test_dual_generation_collects_dual_evaluate_with_the_empty_prefix_left_free():
    for n in range(3):
        subsets = range(1 << n)
        gen_classes = [SetClass.from_bits(n, c) for r in range(1, len(subsets) + 1) for c in combinations(subsets, r)]
        for base in all_bases(2, 2):
            for mode in (PREFIX, RANGE):
                free = [idx for idx in base.relevant_indices(mode) if idx != ()]
                for gens in gen_classes:
                    values = {
                        dual_evaluate(base, IndexedFamily(n, mode, dict(zip(free, assign))), mode).bits
                        for assign in iproduct(gens.members, repeat=len(free))
                    }
                    assert generate_class(base, gens, mode, dual=True).member_bits() == values


def test_generate_class_cap_and_validation(monkeypatch):
    # prefix-mode a_operation(2, 2) has 6 indices besides the empty prefix
    base = canonical_base("a_operation", 2, 2)
    assert 8**6 == DEFAULT_ASSIGNMENT_CAP < 9**6
    assert len(generate_class(base, power_set(3), PREFIX)) == 8

    def refuse(*args):
        raise AssertionError("evaluated past the assignment cap")

    monkeypatch.setattr(classes, "replicate", refuse)
    monkeypatch.setattr(classes, "eval_lanes", refuse)
    with pytest.raises(ResourceError) as err:
        generate_class(base, SetClass.from_bits(4, range(9)), PREFIX)
    assert "531441 assignments (9 generators over 6 indices)" in str(err.value)
    with pytest.raises(InputError):
        generate_class(base, [mask(3, [0])], PREFIX)


@pytest.mark.parametrize("n", range(6))
def test_the_closed_forms_decide_reduction_and_separation_of_the_opens_and_closeds(n):
    # every labeled space on n points: the scans agree with the criteria on the minimal neighbourhoods
    for space in all_topologies(n):
        above = space.min_neighborhoods()
        opens, closeds = open_sets(space), closed_sets(space)
        assert check_reduction(opens).holds == opens_reduce(above), above
        assert check_separation(opens).holds == opens_separate(above), above
        assert check_reduction(closeds).holds == opens_reduce(opposite(above)), above
        assert check_separation(closeds).holds == opens_separate(opposite(above)), above


def test_power_set_has_reduction_with_canonical_witnesses():
    sc = power_set(3)
    res = check_reduction(sc)
    assert res.holds and res.failing_pair is None
    assert res.pairs_checked == 64
    for a in sc:
        for b in sc:
            w = canonical_witness(sc, REDUCTION, a, b)
            assert w is not None and witness_holds(REDUCTION, a, b, w, sc)
    w = canonical_witness(sc, REDUCTION, mask(3, [0, 1]), mask(3, [1, 2]))
    assert w == (mask(3, [0]).bits, mask(3, [1, 2]).bits)


def test_five_open_space_fails_reduction_at_the_overlapping_pair(five_open):
    sc = opens_class(five_open)
    res = check_reduction(sc)
    assert not res.holds
    assert res.pairs_checked == 14
    assert res.failing_pair == (mask(3, [0, 1]), mask(3, [1, 2]))
    assert canonical_witness(sc, REDUCTION, *res.failing_pair) is None


def test_nested_opens_always_reduce(sierpinski, chain3):
    for space in (sierpinski, chain3):
        sc = opens_class(space)
        res = check_reduction(sc)
        assert res.holds
        for a in sc:
            for b in sc:
                assert witness_holds(REDUCTION, a, b, canonical_witness(sc, REDUCTION, a, b), sc)


def test_separation_frozen_failure():
    sc = sclass(3, [[], [0], [1], [0, 1, 2]])
    res = check_separation(sc)
    assert not res.holds
    assert res.pairs_checked == 6
    assert res.failing_pair == (mask(3, [0]), mask(3, [1]))


def test_power_set_has_separation_with_canonical_separators():
    sc = power_set(2)
    res = check_separation(sc)
    assert res.holds
    for a in sc:
        for b in sc:
            if not (a & b):
                assert witness_holds(SEPARATION, a, b, canonical_witness(sc, SEPARATION, a, b), sc)
    assert canonical_witness(sc, SEPARATION, mask(2, [0]), mask(2, [1])) == (mask(2, [0]).bits,)


@given(set_classes(3))
def test_check_results_report_witnesses_exactly_when_they_hold(sc):
    red = check_reduction(sc)
    if red.holds:
        assert all(witness_holds(REDUCTION, a, b, canonical_witness(sc, REDUCTION, a, b), sc) for a in sc for b in sc)
    else:
        a, b = red.failing_pair
        assert a in sc and b in sc
    sep = check_separation(sc)
    if sep.holds:
        assert all(
            witness_holds(SEPARATION, a, b, canonical_witness(sc, SEPARATION, a, b), sc)
            for a in sc
            for b in sc
            if not (a & b)
        )


def oracle_rows(n, bits, which):
    """(a, b, witness) for every pair the property checks, row-major in canonical
    order, each witness the first candidate in canonical order that meets the
    definition, or None."""
    order = sorted(bits, key=lambda x: (bin(x).count("1"), x))
    full = (1 << n) - 1
    rows = []
    for a in order:
        for b in order:
            if which == REDUCTION:
                found = next(
                    (
                        (c, d)
                        for c in order
                        for d in order
                        if c | a == a and d | b == b and c & d == 0 and c | d == a | b
                    ),
                    None,
                )
            elif a & b == 0:
                found = next(
                    ((s,) for s in order if full ^ s in bits and a | s == s and b & s == 0), None
                )
            else:
                continue
            rows.append((a, b, found))
    return rows


def differential_classes():
    """Every class on 3 points, then classes of every size on 4 points."""
    for pick in range(1 << 8):
        yield 3, frozenset(b for b in range(8) if pick >> b & 1)
    rng = random.Random(4)
    for size in range(17):
        for _ in range(6):
            yield 4, frozenset(rng.sample(range(16), size))


def test_checkers_and_searches_match_a_brute_force_oracle_on_small_classes():
    searches = (
        (REDUCTION, check_reduction, _reduction_witness),
        (SEPARATION, check_separation, _separation_witness),
    )
    for n, bits in differential_classes():
        sc = SetClass.from_bits(n, bits)
        rows = {}
        for which, check, search in searches:
            rows[which] = oracle_rows(n, bits, which)
            failed = next((i for i, row in enumerate(rows[which]) if row[2] is None), None)
            res = check(sc)
            assert res.holds == (failed is None)
            assert res.pairs_checked == (len(rows[which]) if failed is None else failed + 1)
            if failed is None:
                assert res.failing_pair is None
            else:
                a, b, _ = rows[which][failed]
                assert res.failing_pair == (SubsetMask(n, a), SubsetMask(n, b))
            assert [search(sc, a, b) for a, b, _ in rows[which]] == [w for _, _, w in rows[which]]
        if any(w is None for _, _, w in rows[REDUCTION]):
            continue
        # every disjoint pair of the complement class is separated by the second
        # half of the oracle's reduction of the pair of complements
        full = (1 << n) - 1
        reductions = {(a, b): w for a, b, w in rows[REDUCTION]}
        comp = {full ^ x for x in bits}
        for a in comp:
            for b in comp:
                if a & b:
                    continue
                separator = reduction_to_separation(sc, SubsetMask(n, a), SubsetMask(n, b))
                d = reductions[(full ^ a, full ^ b)][1]
                assert separator == SubsetMask(n, d)
                assert a | d == d and b & d == 0 and d in comp and full ^ d in comp


def test_the_check_record_is_the_checked_pairs_through_the_first_failure():
    """The record of a check holds what checked_pairs yields, in scan order, through the
    first pair without a witness; the CheckResult beside it is the checker's."""
    pool = [SetClass.from_bits(n, bits) for n, bits in differential_classes()]
    pool += [derive(space) for space in SPACE_POOL for derive in (open_sets, closed_sets, zero_sets)]
    verdicts = []
    for sc in pool:
        for which, check in ((REDUCTION, check_reduction), (SEPARATION, check_separation)):
            record = {}
            res = check(sc, record)
            rows = []
            for row in checked_pairs(sc, which):
                rows.append(row)
                if row[2] is None:
                    break
            assert [(a, b, w) for (a, b), w in record.items()] == rows
            assert res == check(sc) and res.pairs_checked == len(record)
            verdicts.append(res.holds)
    assert True in verdicts and False in verdicts


def test_a_check_without_a_record_keeps_nothing_per_pair():
    """The 16,384 pairs of the power set of 7 points are checked in a bounded amount of
    memory when no dict is given; a record of them takes about 2 MiB."""
    sc = power_set(7)
    tracemalloc.start()
    try:
        res = check_reduction(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == (True, 128**2, None) and peak < 64 * 1024
    record = {}
    assert check_reduction(sc, record) == res and len(record) == 128**2


def test_the_witness_conditions_match_the_point_set_reference():
    # every (a, b, witness) on 3 points, bare and against classes with and without the sets
    for sc in (None, power_set(3), sclass(3, [[], [0], [1, 2], [0, 1, 2]]), sclass(3, [[0], [0, 1]])):
        for a, b, c, d in iproduct(range(8), repeat=4):
            assert reduces(a, b, c, d, sc) == witness_holds(REDUCTION, a, b, (c, d), sc)
            if d == 0:
                assert separates(a, b, c, sc) == witness_holds(SEPARATION, a, b, (c,), sc)


def test_checkers_wrap_only_the_failing_pair(monkeypatch):
    wrapped = []

    class CountingMask(SubsetMask):
        def __init__(self, n, bits=0):
            wrapped.append(bits)
            super().__init__(n, bits)

    power = power_set(6)
    failing = sclass(3, [[], [0], [1], [0, 1, 2]])
    monkeypatch.setattr(classes, "SubsetMask", CountingMask)
    assert check_reduction(power).holds and check_separation(power).holds
    assert wrapped == []  # neither a witness nor the members were wrapped
    assert not check_separation(failing).holds
    assert wrapped == [0b001, 0b010]


def test_checkers_refuse_a_class_over_the_size_cap_before_any_pair(monkeypatch):
    scanned = []

    def search(sc, a, b):
        scanned.append((a, b))
        return (a, b)

    monkeypatch.setattr(classes, "_reduction_witness", search)
    monkeypatch.setattr(classes, "_separation_witness", search)
    assert check_reduction(SetClass.from_bits(9, range(256))).pairs_checked == 256**2
    scanned.clear()
    over = SetClass.from_bits(9, range(257))
    for check in (check_reduction, check_separation):
        with pytest.raises(ResourceError) as err:
            check(over)
        assert str(err.value) == "class of 257 members exceeds the cap 256"
    power = power_set(9)
    with pytest.raises(ResourceError):
        transfer_property(
            PointMap.identity(FinSpace.discrete(9)), canonical_base("union", 1), power, power, RANGE, REDUCTION
        )
    assert scanned == []


def test_reduction_converts_to_separation_for_complement_pairs(five_open):
    a, b = mask(3, [0]), mask(3, [2])
    separator = reduction_to_separation(power_set(3), a, b)
    assert separator == mask(3, [0, 1])
    assert witness_holds(SEPARATION, a, b, (separator.bits,), power_set(3))

    with pytest.raises(PreconditionError):
        reduction_to_separation(opens_class(five_open), a, b)


def test_degenerate_separation_uses_the_first_canonical_witness(sierpinski):
    empty = mask(2, [])
    separator = reduction_to_separation(opens_class(sierpinski), empty, empty)
    assert separator == SubsetMask.full(2)
    assert witness_holds(SEPARATION, empty, empty, (separator.bits,), complement_class(opens_class(sierpinski)))


def test_separation_preconditions_are_reported(sierpinski):
    opens = opens_class(sierpinski)
    with pytest.raises(PreconditionError):
        reduction_to_separation(opens, mask(2, [1]), mask(2, []))
    with pytest.raises(PreconditionError):
        reduction_to_separation(opens, SubsetMask.full(2), SubsetMask.full(2))


def test_frozen_ladder_over_the_empty_set_generator():
    ladder = borel_ladder(sclass(2, [[]]))
    assert len(ladder) == 3
    sigmas = [set(level.sigma) for level in ladder]
    assert sigmas == [{mask(2, [])}, {mask(2, [0, 1])}, {mask(2, []), mask(2, [0, 1])}]


def test_ladder_over_closed_sets_reaches_the_full_power_set(sierpinski):
    ladder = borel_ladder(closed_sets(sierpinski))
    assert len(ladder) == 3
    assert {m.points() for m in ladder[0].sigma} == {(), (0,), (0, 1)}
    assert ladder[-1].sigma == power_set(2)


@given(set_classes(3))
def test_ladder_levels_are_dual_pairs_and_eventually_monotone(gens):
    ladder = borel_ladder(gens)
    for level in ladder:
        assert level.pi == complement_class(level.sigma)
    for lo, hi in zip(ladder[1:], ladder[2:]):
        assert lo.sigma.member_bits() <= hi.sigma.member_bits()
    final = ladder[-1].sigma
    assert final == ladder[-1].pi
    members = set(final)
    for x in members:
        for y in members:
            assert x | y in final


def _union_closure(bits):
    """Close under binary union: the unions of nonempty subfamilies."""
    closed = set(bits)
    while True:
        grown = closed | {x | y for x in closed for y in closed}
        if grown == closed:
            return closed
        closed = grown


@given(set_classes(3))
def test_ladder_sigma_levels_are_union_closures(gens):
    # level 1 closes the generators, each later level every earlier pi level,
    # until the next level would repeat the last
    ladder = borel_ladder(gens)
    source, pool = gens.member_bits(), set()
    for level in ladder:
        assert level.sigma.member_bits() == _union_closure(source)
        source = pool = pool | level.pi.member_bits()
    assert _union_closure(source) == ladder[-1].sigma.member_bits()


def _generated_algebra(sc):
    """Every union of the blocks of points that the same members hold, the empty union included."""
    blocks = {}
    for x in range(sc.n):
        held = frozenset(b for b in sc.member_bits() if b >> x & 1)
        blocks[held] = blocks.get(held, 0) | 1 << x
    algebra = {0}
    for block in blocks.values():
        algebra |= {u | block for u in algebra}
    return algebra


def _every_ladder_input():
    """Every class over at most 3 points, and the opens and closeds of every space of at most 4 points."""
    for n in range(4):
        for chosen in range(1 << (1 << n)):
            yield "class", SetClass.from_bits(n, (b for b in range(1 << n) if chosen >> b & 1))
    for n in range(5):
        for space in all_topologies(n):
            yield "space", open_sets(space)
            yield "space", closed_sets(space)


def test_every_small_ladder_ends_in_the_generated_algebra_within_four_levels():
    lengths = {"class": set(), "space": set()}
    inputs = 0
    for source, gens in _every_ladder_input():
        inputs += 1
        ladder = borel_ladder(gens)
        lengths[source].add(len(ladder))
        for level in ladder:
            assert level.pi == complement_class(level.sigma)
        if len(gens):
            assert ladder[-1].sigma.member_bits() == _generated_algebra(gens)
        else:
            assert ladder == (classes.LadderLevel(gens, gens),)
    assert inputs == 278 + 2 * 390
    assert max(lengths["class"]) == 4 and lengths["space"] == {1, 3, 4}


def test_ladder_validation():
    with pytest.raises(InputError):
        borel_ladder([mask(2, [0])])


def test_generated_opens_from_subbasis_form_a_reducing_class():
    """A topology whose opens pairwise reduce; the engine agrees pair by pair."""
    space = generate_topology(3, [mask(3, [0]), mask(3, [1]), mask(3, [2])])
    res = check_reduction(opens_class(space))
    assert res.holds and res.pairs_checked == len(opens_class(space)) ** 2
