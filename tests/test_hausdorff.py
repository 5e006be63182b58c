"""Tree-indexed set operations: evaluation, duality, replacement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import (
    MODES,
    PREFIX,
    RANGE,
    Base,
    IndexedFamily,
    InputError,
    ModeError,
    ResourceError,
    SubsetMask,
    canonical_base,
    decreasing_replacement,
    dual_evaluate,
    evaluate,
)
from redsep.hausdorff import compile_positions, compiled_plan

from conftest import base_mode_families, bases, mask, masks


def is_decreasing(family):
    """True when every assigned value contains each of its extensions' values."""
    if family.mode != PREFIX:
        raise ModeError("decreasingness concerns prefix-mode families only")
    for key in family.assignments:
        for k in range(len(key)):
            try:
                parent = family.value(key[:k])
            except InputError:
                continue
            if not family.value(key).issubset(parent):
                return False
    return True


def naive_evaluate(base, family, mode):
    """Direct union-of-intersections reading, no compilation or sharing."""
    n = family.n
    out = SubsetMask.empty(n)
    for branch in base.branches:
        acc = SubsetMask.full(n)
        if mode == PREFIX:
            for k in range(len(branch) + 1):
                acc = acc & family.value(branch[:k])
        else:
            for s in sorted(set(branch)):
                acc = acc & family.value(s)
        out = out | acc
    return out


@given(base_mode_families())
def test_evaluate_matches_the_naive_reading(bmf):
    base, mode, family = bmf
    assert evaluate(base, family, mode) == naive_evaluate(base, family, mode)


@given(base_mode_families())
def test_dual_is_complement_of_evaluate_on_complements(bmf):
    base, mode, family = bmf
    direct = evaluate(base, family.map_values(SubsetMask.complement), mode).complement()
    assert dual_evaluate(base, family, mode) == direct


@given(base_mode_families(), st.integers(0, 7))
def test_evaluate_is_monotone(bmf, extra_bits):
    base, mode, family = bmf
    extra = SubsetMask(family.n, extra_bits & ((1 << family.n) - 1))
    grown = family.map_values(lambda v: v | extra)
    assert evaluate(base, family, mode).issubset(evaluate(base, grown, mode))


def test_frozen_canonical_examples():
    union2 = canonical_base("union", 2)
    inter2 = canonical_base("intersection", 2)
    assert union2.branches == ((0,), (1,))
    assert inter2.branches == ((0, 1),)
    family = IndexedFamily.from_list(2, [mask(2, [0]), mask(2, [1])])
    assert evaluate(union2, family) == mask(2, [0, 1])
    assert evaluate(inter2, family) == mask(2, [])
    assert dual_evaluate(union2, family) == mask(2, [])
    assert dual_evaluate(inter2, family) == mask(2, [0, 1])


def test_prefix_empty_index_defaults_to_the_universe():
    base = Base(1, [(0, 0)], PREFIX)
    family = IndexedFamily(
        2, PREFIX, {(0,): mask(2, [0, 1]), (0, 0): mask(2, [1])}
    )
    assert family.value(()) == SubsetMask.full(2)
    assert evaluate(base, family) == mask(2, [1])
    with pytest.raises(InputError):
        IndexedFamily(2, PREFIX, {(0,): mask(2, [0])}).value((1,))
    # the unassigned empty prefix stays free through both rewrites, and a default stands in for it
    for rewritten in (family.map_values(SubsetMask.complement), decreasing_replacement(family)):
        assert rewritten.free_root() and () not in rewritten.assignments
    defaulted = IndexedFamily(2, PREFIX, {(0,): mask(2, [0])}, default=mask(2, [1]))
    assert not defaulted.free_root()
    assert defaulted.map_values(SubsetMask.complement).value(()) == mask(2, [0])


def test_prefix_indices_are_length_lex_with_parents_first():
    base = Base(2, [(1, 0), (0,), (1, 1)], PREFIX)
    order = base.prefix_indices()
    assert order == ((), (0,), (1,), (1, 0), (1, 1))
    for idx in order:
        assert idx == () or idx[:-1] in order


def test_a_base_keeps_its_compiled_plan_per_mode():
    base = Base(2, [(1, 0), (0,), (1, 1)], PREFIX)
    twin = Base(2, [(0,), (1, 1), (1, 0)], PREFIX)
    assert twin == base and twin is not base
    for mode in MODES:
        order, positions = compiled_plan(base, mode)
        assert compiled_plan(base, mode) is compiled_plan(base, mode)
        assert order == base.relevant_indices(mode) and positions == compile_positions(base, mode, order)
        assert compiled_plan(twin, mode) == compiled_plan(base, mode)


def test_range_indices_are_the_mentioned_symbols():
    base = Base(4, [(2, 0), (2, 2)], RANGE)
    assert base.range_indices() == (0, 2)


@given(st.data())
def test_decreasing_replacement_preserves_evaluation_and_decreases(data):
    base = data.draw(bases)
    n = 3
    family = IndexedFamily(
        n,
        PREFIX,
        {idx: data.draw(masks(n), label=str(idx)) for idx in base.prefix_indices()},
    )
    replaced = decreasing_replacement(family)
    assert is_decreasing(replaced)
    assert evaluate(base, replaced) == evaluate(base, family)
    again = decreasing_replacement(replaced)
    assert all(again.value(k) == replaced.value(k) for k in replaced.assignments)


def test_decreasing_replacement_rejects_range_mode():
    with pytest.raises(ModeError):
        decreasing_replacement(IndexedFamily.from_list(2, [mask(2, [0])]))


def test_canonical_base_caps():
    with pytest.raises(ResourceError):
        canonical_base("union", 99)
    with pytest.raises(ResourceError):
        canonical_base("a_operation", 2, 99)
    with pytest.raises(InputError):
        canonical_base("frobnicate")


def test_base_validation():
    assert Base(2, []).branches == ()
    with pytest.raises(InputError):
        Base(2, [()])
    with pytest.raises(InputError):
        Base(2, [(2,)])
    with pytest.raises(InputError):
        Base(0, [(0,)])
