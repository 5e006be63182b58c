"""Finite topologies: generation, enumeration, pieces, subspaces, products."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import (
    FinSpace,
    InputError,
    ResourceError,
    SubsetMask,
    all_topologies,
    closed_sets,
    components,
    generate_topology,
    product,
    subspace,
    zero_sets,
)
from redsep import spaces as spaces_module
from redsep.masks import restrict_bits

from conftest import mask, masks, spaces


@st.composite
def subbases(draw):
    n = draw(st.integers(0, 4))
    count = draw(st.integers(0, 3))
    return n, [draw(masks(n)) for _ in range(count)]


@given(subbases())
def test_generated_topology_is_closed_under_union_and_intersection(nb):
    n, subbasis = nb
    space = generate_topology(n, subbasis)
    opens = set(space.open_bits())
    assert 0 in opens and (1 << n) - 1 in opens
    for a in opens:
        for b in opens:
            assert a | b in opens and a & b in opens
    for s in subbasis:
        assert s.bits in opens


def test_labeled_topology_counts_match_subbasis_closure_oracle():
    """1, 1, 4, 29 labeled topologies on 0..3 points, by two different routes."""
    assert [len(all_topologies(n)) for n in range(4)] == [1, 1, 4, 29]
    for n in range(4):
        seen = set()
        all_subsets = [SubsetMask(n, b) for b in range(1 << n)]
        for r in range(len(all_subsets) + 1):
            for combo in itertools.combinations(all_subsets, r):
                seen.add(generate_topology(n, combo))
        assert len(seen) == len(all_topologies(n))


def test_four_point_count_is_355():
    assert len(all_topologies(4, max_points=4)) == 355


@given(spaces)
def test_minimal_neighborhoods_are_the_smallest_opens(space):
    nbhd = space.min_neighborhoods()
    for x in range(space.n):
        containing = [b for b in space.open_bits() if b >> x & 1]
        acc = (1 << space.n) - 1
        for b in containing:
            acc &= b
        assert nbhd[x] == acc
        assert acc in set(space.open_bits())


@given(spaces)
def test_closed_sets_are_complements(space):
    full = (1 << space.n) - 1
    assert closed_sets(space).member_bits() == {full ^ b for b in space.open_bits()}


@given(spaces)
def test_components_partition_and_zero_sets_are_their_unions(space):
    comps = list(components(space))
    seen = 0
    for c in comps:
        assert c.bits and not seen & c.bits
        seen |= c.bits
        assert space.is_open(c) and space.is_closed(c)
    assert seen == (1 << space.n) - 1 or space.n == 0
    expected = set()
    for r in range(len(comps) + 1):
        for pick in itertools.combinations(comps, r):
            acc = 0
            for c in pick:
                acc |= c.bits
            expected.add(acc)
    assert zero_sets(space).member_bits() == expected


def test_memoised_zero_sets_are_the_clopen_sets(monkeypatch):
    # On a finite space the unions of components are exactly the clopen sets.
    labeled = [space for n in range(5) for space in all_topologies(n)]
    assert len(labeled) == 390
    for space in labeled:
        assert zero_sets(space).member_bits() == set(space.clopen_bits())
    twin = FinSpace(3, [mask(3, []), mask(3, [0]), mask(3, [0, 1, 2])])
    assert zero_sets(twin) is zero_sets(FinSpace(3, list(twin.opens)))
    monkeypatch.setattr(spaces_module, "_ZERO_SETS", {})
    monkeypatch.setattr(spaces_module, "_ZERO_SETS_LIMIT", 7)
    for space in labeled:
        zero_sets(space)
        assert 1 <= len(spaces_module._ZERO_SETS) <= 7
        assert zero_sets(space).member_bits() == set(space.clopen_bits())


def test_discrete_and_indiscrete_extremes():
    d = FinSpace.discrete(3)
    assert d.is_discrete() and len(d.open_bits()) == 8
    assert len(zero_sets(d)) == 8
    i = FinSpace.indiscrete(3)
    assert not i.is_discrete() and set(i.open_bits()) == {0, 0b111}
    assert zero_sets(i).member_bits() == {0, 0b111}


@given(spaces, st.integers(0, 15))
def test_subspace_opens_are_exactly_the_traces(space, carrier_bits):
    carrier = SubsetMask(space.n, carrier_bits & ((1 << space.n) - 1))
    sub, remap = subspace(space, carrier)
    assert tuple(remap) == carrier.points()
    traces = {restrict_bits(b & carrier.bits, carrier.bits) for b in space.open_bits()}
    assert set(sub.open_bits()) == traces


def test_subspace_of_discrete_is_discrete():
    sub, _ = subspace(FinSpace.discrete(4), mask(4, [1, 3]))
    assert sub.is_discrete() and sub.n == 2


def test_product_slices_are_homeomorphic_to_the_factor(sierpinski, chain3):
    """Fixing a first coordinate, the slice carries exactly the second factor."""
    prod, codec = product([sierpinski, chain3])
    for a in range(sierpinski.n):
        carrier = SubsetMask.from_points(
            prod.n, [codec.encode((a, y)) for y in range(chain3.n)]
        )
        slice_space, remap = subspace(prod, carrier)
        relabel = {i: codec.decode(p)[1] for i, p in enumerate(remap)}
        slice_opens = {
            frozenset(relabel[i] for i in range(slice_space.n) if b >> i & 1)
            for b in slice_space.open_bits()
        }
        factor_opens = {
            frozenset(y for y in range(chain3.n) if b >> y & 1)
            for b in chain3.open_bits()
        }
        assert slice_opens == factor_opens


def test_product_point_count_and_codec_round_trip(sierpinski, chain3):
    prod, codec = product([sierpinski, chain3])
    assert prod.n == 6 and codec.total() == 6
    for s in range(2):
        for t in range(3):
            assert codec.decode(codec.encode((s, t))) == (s, t)


def test_product_cap_enforced():
    with pytest.raises(ResourceError):
        product([FinSpace.discrete(4), FinSpace.discrete(4)], max_points=12)


def test_invalid_topologies_rejected():
    with pytest.raises(InputError):
        FinSpace(2, [SubsetMask(2, 0b01)])  # missing empty/full
    with pytest.raises(InputError):
        FinSpace(
            2,
            [SubsetMask(2, 0), SubsetMask(2, 0b01), SubsetMask(2, 0b10), SubsetMask(2, 0b11)][:3],
        )
