"""Finite topologies: generation, enumeration, pieces, subspaces, products."""

import hashlib
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
    zero_sets,
)
from redsep.masks import restrict_bits

from conftest import mask, masks, spaces, subspace

# Every labeled space on up to 4 points: 1 + 1 + 4 + 29 + 355.
LABELED = [space for n in range(5) for space in all_topologies(n)]
FIVE_POINTS = all_topologies(5)
LABELED_5 = LABELED + FIVE_POINTS


def indiscrete(n):
    return FinSpace(n, [(1 << n) - 1] * n)


def transitive_relations(n):
    """Every reflexive relation on n points that is transitive, as above-masks, by filtering all of them.

    Pick bit idx relates the idx-th off-diagonal pair (i, j), row-major, so the
    relations come in the order all_topologies lists the spaces in.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for pick in range(1 << len(pairs)):
        above = [1 << i for i in range(n)]
        for idx, (i, j) in enumerate(pairs):
            if pick >> idx & 1:
                above[i] |= 1 << j
        if all(above[j] & ~above[i] == 0 for i in range(n) for j in range(n) if above[i] >> j & 1):
            out.append(tuple(above))
    return out


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
    assert len(all_topologies(4)) == 355


def test_enumeration_lists_the_transitive_relations_in_order_up_to_4_points():
    for n in range(5):
        assert [space.min_neighborhoods() for space in all_topologies(n)] == transitive_relations(n)


def test_five_point_enumeration_is_frozen():
    # filtering the 2^20 relations on 5 points takes seconds, so the list is pinned by its count and digest
    nbhds = [space.min_neighborhoods() for space in FIVE_POINTS]
    assert len(nbhds) == 6942
    digest = hashlib.sha256(repr(nbhds).encode()).hexdigest()
    assert digest == "4f6aaa5e409f725c5dbaca1b54947bcbfb0188c9578e2a9ffa4298d70995e978"
    with pytest.raises(ResourceError, match="stops at 5 points, asked for 6"):
        all_topologies(6)


def test_minimal_neighborhoods_are_the_smallest_opens():
    for space in LABELED_5:
        opens = space.open_bits()
        nbhds = space.min_neighborhoods()
        assert len(nbhds) == space.n
        for x in range(space.n):
            containing = [b for b in opens if b >> x & 1]
            smallest = [b for b in containing if all(b & ~c == 0 for c in containing)]
            assert smallest == [nbhds[x]]


@given(spaces)
def test_closed_sets_are_complements(space):
    full = (1 << space.n) - 1
    assert closed_sets(space).member_bits() == {full ^ b for b in space.open_bits()}


def _clopens(space):
    """The open sets whose complements are open too."""
    full = (1 << space.n) - 1
    return {b for b in space.open_bits() if full ^ b in space.open_bits()}


def _clopen_atoms(space):
    """Per point, the intersection of the clopen sets containing it, ordered by least point."""
    full = (1 << space.n) - 1
    atoms = set()
    for x in range(space.n):
        acc = full
        for b in _clopens(space):
            if b >> x & 1:
                acc &= b
        atoms.add(acc)
    return sorted(atoms, key=lambda b: b & -b)


def test_components_partition_and_zero_sets_are_their_unions():
    for space in LABELED_5:
        comps, full = components(space), (1 << space.n) - 1
        assert isinstance(comps, tuple) and all(isinstance(c, SubsetMask) for c in comps)
        assert [c.bits for c in comps] == _clopen_atoms(space)
        seen = 0
        for c in comps:
            assert c.bits and not seen & c.bits
            seen |= c.bits
            assert c.bits in space.open_bits() and full ^ c.bits in space.open_bits()
        assert seen == (1 << space.n) - 1
        expected = set()
        for r in range(len(comps) + 1):
            for pick in itertools.combinations(comps, r):
                acc = 0
                for c in pick:
                    acc |= c.bits
                expected.add(acc)
        assert zero_sets(space).member_bits() == expected


def test_memoised_zero_sets_are_the_clopen_sets():
    # On a finite space the unions of components are exactly the clopen sets.
    labeled = LABELED_5
    assert len(labeled) == 390 + 6942
    for space in labeled:
        assert zero_sets(space).member_bits() == _clopens(space)
        assert zero_sets(space) is zero_sets(space)  # kept on the space
    # an equal space built apart keeps its own, equal, zero sets
    twin = generate_topology(3, [mask(3, []), mask(3, [0]), mask(3, [0, 1, 2])])
    other = generate_topology(3, list(twin.opens))
    assert other == twin and other is not twin
    assert zero_sets(other) == zero_sets(twin) and zero_sets(other) is not zero_sets(twin)


def test_discrete_and_indiscrete_extremes():
    d = FinSpace.discrete(3)
    assert FinSpace.discrete(3) is d and d == FinSpace(3, [1, 2, 4])
    assert d.is_discrete() and len(d.open_bits()) == 8
    assert len(zero_sets(d)) == 8
    i = indiscrete(3)
    assert not i.is_discrete() and set(i.open_bits()) == {0, 0b111}
    assert zero_sets(i).member_bits() == {0, 0b111}


def test_a_space_refuses_a_negative_universe_size():
    with pytest.raises(InputError) as err:
        FinSpace(-1, ())
    assert str(err.value) == "universe size must be a nonnegative int, got -1"


def test_a_negative_discrete_size_is_refused_and_not_kept():
    kept = FinSpace.discrete.cache_info().currsize
    with pytest.raises(InputError) as err:
        FinSpace.discrete(-1)
    assert str(err.value) == "universe size must be a nonnegative int, got -1"
    assert FinSpace.discrete.cache_info().currsize == kept


def test_subspace_opens_are_exactly_the_traces():
    for space in LABELED:
        for carrier_bits in range(1 << space.n):
            carrier = SubsetMask(space.n, carrier_bits)
            sub, remap = subspace(space, carrier)
            assert sub.n == len(remap) and tuple(remap) == carrier.points()
            traces = {restrict_bits(b & carrier_bits, carrier_bits) for b in space.open_bits()}
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


def test_product_neighbourhoods_are_the_boxes_of_the_factor_neighbourhoods():
    small = [space for k in range(4) for space in all_topologies(k)]
    for left in small:
        for right in small:
            prod, codec = product([left, right])
            assert prod.n == left.n * right.n
            for x, u in enumerate(left.min_neighborhoods()):
                for y, v in enumerate(right.min_neighborhoods()):
                    box = {
                        codec.encode((a, b))
                        for a in range(left.n) if u >> a & 1
                        for b in range(right.n) if v >> b & 1
                    }
                    assert prod.min_neighborhoods()[codec.encode((x, y))] == sum(1 << p for p in box)


def test_product_point_count_and_codec_round_trip(sierpinski, chain3):
    prod, codec = product([sierpinski, chain3])
    assert prod.n == 6 and codec.total() == 6
    for s in range(2):
        for t in range(3):
            assert codec.decode(codec.encode((s, t))) == (s, t)


def test_product_cap_enforced():
    with pytest.raises(ResourceError, match="product has 16 points, cap is 12"):
        product([FinSpace.discrete(4), FinSpace.discrete(4)])


def test_invalid_topologies_rejected():
    # every family of subsets generates a topology, so only malformed entries are refused
    with pytest.raises(InputError):
        generate_topology(2, [0b01])
    with pytest.raises(InputError):
        generate_topology(2, [SubsetMask(3, 0b001)])
    with pytest.raises(InputError):
        generate_topology(-1, [])


def test_a_family_is_a_space_exactly_when_closed_under_union_and_intersection():
    for n in range(4):
        full = (1 << n) - 1
        spaces_by_opens = {space.open_bits(): space for space in all_topologies(n)}
        others = [b for b in range(1 << n) if b not in (0, full)]
        accepted = 0
        for r in range(len(others) + 1):
            for pick in itertools.combinations(others, r):
                family = {0, full, *pick}
                closed = all(a | b in family and a & b in family for a in family for b in family)
                space = generate_topology(n, [SubsetMask(n, b) for b in sorted(family)])
                if not closed:
                    assert family < space.open_bits()
                    continue
                accepted += 1
                assert space.open_bits() == family
                twin = spaces_by_opens[frozenset(family)]
                assert space == twin and hash(space) == hash(twin)
                assert space.min_neighborhoods() == twin.min_neighborhoods()
        assert accepted == len(spaces_by_opens)
    # The constructor's cost follows the open sets; it never enumerates the 2^n subsets.
    assert len(indiscrete(30).open_bits()) == 2
