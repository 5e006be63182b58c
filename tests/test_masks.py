"""Bitmask subsets behave exactly like Python sets over range(n)."""

from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsep import InputError, ResourceError, SubsetMask
from redsep.masks import lane_table, lanes_of, map_runs, pack_lanes, replicate, restrict_bits, unions

from conftest import mask, masks


@st.composite
def sized_point_sets(draw):
    n = draw(st.integers(0, 5))
    pts = draw(st.sets(st.sampled_from(range(n)))) if n else set()
    return n, pts


@given(sized_point_sets())
def test_points_round_trip(n_pts):
    n, pts = n_pts
    m = SubsetMask.from_points(n, pts)
    assert set(m.points()) == set(pts)
    assert m.card() == len(set(pts))


@given(masks(4), masks(4))
def test_operators_match_set_semantics(a, b):
    sa, sb = set(a.points()), set(b.points())
    assert set((a | b).points()) == sa | sb
    assert set((a & b).points()) == sa & sb
    assert set((a - b).points()) == sa - sb
    assert a.issubset(b) == (sa <= sb)
    assert (not (a & b)) == sa.isdisjoint(sb)


@given(masks(4))
def test_complement_involution(a):
    assert a.complement().complement() == a
    assert set(a.complement().points()) == set(range(4)) - set(a.points())


@given(masks(5), masks(5))
def test_restrict_bits_compresses_to_carrier_indexing(a, carrier):
    squeezed = restrict_bits(a.bits & carrier.bits, carrier.bits)
    order = carrier.points()
    expected = 0
    for i, p in enumerate(order):
        if p in a:
            expected |= 1 << i
    assert squeezed == expected


def test_universe_mismatch_rejected():
    with pytest.raises(InputError):
        mask(2, [0]) | mask(3, [0])
    with pytest.raises(InputError):
        mask(3, [5])
    with pytest.raises(InputError):
        SubsetMask(2, 1 << 2)


def test_canonical_order_is_card_then_bits():
    ms = [mask(3, p) for p in ([0, 1, 2], [2], [], [0, 2], [1])]
    ordered = sorted(ms)
    assert [m.points() for m in ordered] == [(), (1,), (2,), (0, 2), (0, 1, 2)]


def test_frozen_bit_layout():
    assert mask(3, [0, 2]).bits == 0b101
    assert SubsetMask.full(3).bits == 0b111
    assert SubsetMask.empty(3).bits == 0
    assert 1 in mask(3, [1]) and 0 not in mask(3, [1])


@given(st.lists(st.integers(0, 255), max_size=40))
def test_lanes_round_trip_one_byte_each(values):
    packed = pack_lanes(values)
    assert list(lanes_of(packed, len(values))) == values
    assert all(packed >> 8 * i & 0xFF == v for i, v in enumerate(values))
    assert list(lanes_of(replicate(0xA5, len(values)) & packed, len(values))) == [v & 0xA5 for v in values]


def test_lane_tables_map_every_lane():
    table = lane_table([v ^ 0b101 for v in range(8)])
    assert map_runs(pack_lanes([1, 7, 0]), [3], [table]) == pack_lanes([4, 2, 5])
    assert map_runs(pack_lanes([1, 7, 0]), [4], [table]) == pack_lanes([4, 2, 5, 5])


@given(st.lists(st.lists(st.integers(0, 255), max_size=6), max_size=5))
def test_each_run_of_lanes_maps_through_its_own_table(runs):
    tables = [lane_table([(v * (2 * i + 3)) % 256 for v in range(256)]) for i in range(len(runs))]
    values = [v for run in runs for v in run]
    mapped = map_runs(pack_lanes(values), [len(run) for run in runs], tables)
    assert list(lanes_of(mapped, len(values))) == [tables[i][v] for i, run in enumerate(runs) for v in run]


def test_wide_lanes_round_trip():
    wide = replicate(0x1FF, 3, width=2)
    assert lanes_of(wide, 3, width=2) == [0x1FF] * 3
    assert lanes_of(wide ^ (1 << 16), 3, width=2) == [0x1FF, 0x1FE, 0x1FF]


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("lanes", [0, 1, 5])
def test_replicating_a_value_is_multiplying_it_by_the_lane_ones(width, lanes):
    # repeating v's bytes equals the product for every v that fits its lane
    ones = replicate(1, lanes, width)
    assert all(replicate(v, lanes, width) == v * ones for v in range(256**width))


def test_one_byte_lanes_refuse_subsets_of_more_than_8_points():
    with pytest.raises(ResourceError, match="8 points"):
        pack_lanes([3, 256])
    with pytest.raises(ResourceError, match="8 points"):
        lane_table([256])


def _brute_unions(sets):
    """The union of every subfamily, picked by position."""
    return {reduce(or_, pick, 0) for r in range(len(sets) + 1) for pick in combinations(sets, r)}


def test_unions_match_every_subfamily_on_up_to_2_points():
    for n in range(3):
        for k in range(6):
            for sets in product(range(1 << n), repeat=k):
                assert unions(iter(sets)) == _brute_unions(sets)


@given(st.integers(0, 4).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=5)))
def test_unions_match_every_subfamily_on_up_to_4_points(sets):
    # repeated and empty sets included; the empty union is always there
    assert unions(sets) == _brute_unions(sets)
