"""Point maps: images, preimage algebras, diagonals, directed image exchange."""

from dataclasses import dataclass
from itertools import product as iproduct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from redsep import (
    FinSpace,
    InputError,
    PointMap,
    ResourceError,
    SubsetMask,
    alg_contains,
    alg_enumerate,
    diagonal_product,
    directed_image_check,
    generate_topology,
    product,
)
from redsep import maps

from conftest import directed_image_oracle, mask, masks, partial_orders, sclass, spaces, tables


@dataclass(frozen=True)
class MapProps:
    continuous: bool
    closed_map: bool
    open_map: bool
    fibers_closed: bool
    surjective: bool
    injective: bool
    # the kernel partition keeps nonempty fibers only; this flags that one was dropped
    kernel_omits_empty_fiber: bool


def map_properties(pm):
    """A map's properties read off its open sets and fibers by brute force."""
    dom_open, cod_open = pm.dom.open_bits(), pm.cod.open_bits()
    dom_full, cod_full = (1 << pm.dom.n) - 1, (1 << pm.cod.n) - 1
    surjective = all(f for f in pm.fiber_bits())
    return MapProps(
        continuous=all(pm.preimage_bits(b) in dom_open for b in cod_open),
        closed_map=all(cod_full ^ pm.image_bits(dom_full ^ b) in cod_open for b in dom_open),
        open_map=all(pm.image_bits(b) in cod_open for b in dom_open),
        fibers_closed=all(dom_full ^ f in dom_open for f in pm.fiber_bits() if f),
        surjective=surjective,
        injective=all(f.bit_count() <= 1 for f in pm.fiber_bits()),
        kernel_omits_empty_fiber=not surjective,
    )


def table_map(n, m, table):
    return PointMap(FinSpace.discrete(n), FinSpace.discrete(m), table)


@given(tables, st.data())
def test_image_and_preimage_match_the_pointwise_reading(nmt, data):
    n, m, table = nmt
    pm = table_map(n, m, table)
    a = data.draw(masks(n), label="A")
    b = data.draw(masks(m), label="B")
    assert pm.image(a).points() == tuple(
        sorted({table[x] for x in a.points()})
    )
    assert pm.preimage(b).points() == tuple(
        x for x in range(n) if table[x] in b.points()
    )


@given(tables, st.data())
def test_image_preimage_adjunction(nmt, data):
    n, m, table = nmt
    pm = table_map(n, m, table)
    a = data.draw(masks(n), label="A")
    b = data.draw(masks(m), label="B")
    assert a.issubset(pm.preimage(pm.image(a)))
    assert pm.image(pm.preimage(b)).issubset(b)
    assert pm.image(a).issubset(b) == a.issubset(pm.preimage(b))


@given(tables, st.data())
def test_saturation_agrees_with_the_fiber_union_reading(nmt, data):
    n, m, table = nmt
    pm = table_map(n, m, table)
    a = data.draw(masks(n), label="A")
    by_fibers = all(
        all(table[x] != table[p] or a.bits >> x & 1 for x in range(n))
        for p in a.points()
    )
    assert alg_contains(pm, a) == by_fibers
    assert alg_contains(pm, a) == (a in alg_enumerate(pm))


@given(tables)
def test_enumerated_algebra_is_a_complement_closed_union_closed_family(nmt):
    n, m, table = nmt
    pm = table_map(n, m, table)
    alg = alg_enumerate(pm)
    assert len(alg) == 1 << len(set(table))
    members = list(alg)
    assert SubsetMask.empty(n) in alg and SubsetMask.full(n) in alg
    for a in members:
        assert a.complement() in alg
        for b in members:
            assert a | b in alg and a & b in alg


def test_algebra_enumeration_cap(monkeypatch):
    pm = table_map(3, 3, [0, 1, 2])
    monkeypatch.setattr(maps, "MAX_ALG_FIBERS", 2)
    with pytest.raises(ResourceError, match="3 fibers exceed the cap 2"):
        alg_enumerate(pm)


def test_diagonal_product_refines_every_factor_algebra():
    f = table_map(3, 2, [0, 0, 1])
    g = table_map(3, 2, [0, 1, 0])
    diag = diagonal_product([f, g])
    assert diag.dom == f.dom and diag.cod.n == 4
    for factor in (f, g):
        for a in alg_enumerate(factor):
            assert alg_contains(diag, a)
    assert len(alg_enumerate(diag)) == 8
    assert alg_contains(diag, mask(3, [0]))
    assert not alg_contains(f, mask(3, [0]))


def test_diagonal_product_kernel_is_the_common_refinement():
    f = table_map(4, 2, [0, 0, 1, 1])
    g = table_map(4, 2, [0, 1, 0, 1])
    diag = diagonal_product([f, g])
    assert {fib for fib in diag.fiber_bits() if fib} == {0b0001, 0b0010, 0b0100, 0b1000}


def test_diagonal_product_edge_cases():
    with pytest.raises(InputError):
        diagonal_product([])
    with pytest.raises(InputError):
        diagonal_product([table_map(2, 2, [0, 1]), table_map(3, 2, [0, 1, 0])])
    with pytest.raises(ResourceError):
        diagonal_product([table_map(2, 4, [0, 1]), table_map(2, 4, [2, 3])])
    single = diagonal_product([table_map(2, 2, [1, 0])])
    assert len([fib for fib in single.fiber_bits() if fib]) == 2


def test_map_properties_on_known_maps(sierpinski):
    ident = map_properties(PointMap.identity(sierpinski))
    assert ident.continuous and ident.open_map and ident.closed_map
    assert ident.surjective and ident.injective
    assert not ident.kernel_omits_empty_fiber

    swap = map_properties(PointMap(sierpinski, sierpinski, [1, 0]))
    assert not swap.continuous
    assert swap.surjective and swap.injective

    boost = map_properties(PointMap(sierpinski, sierpinski, [1, 1]))
    assert boost.continuous
    assert not boost.surjective and boost.kernel_omits_empty_fiber


def test_projections_off_a_product_are_continuous(sierpinski, chain3):
    prod, codec = product([sierpinski, chain3])
    for axis, factor in ((0, sierpinski), (1, chain3)):
        table = [codec.decode(p)[axis] for p in range(prod.n)]
        props = map_properties(PointMap(prod, factor, table))
        assert props.continuous and props.surjective


@given(spaces, spaces, st.data())
def test_continuity_matches_the_open_preimage_reading(dom, cod, data):
    assume(cod.n > 0 or dom.n == 0)
    table = [
        data.draw(st.integers(0, cod.n - 1), label=f"f({x})") for x in range(dom.n)
    ]
    pm = PointMap(dom, cod, table)
    oracle = all(
        pm.preimage(SubsetMask(cod.n, b)).bits in dom.open_bits()
        for b in cod.open_bits()
    )
    assert map_properties(pm).continuous == oracle


def test_point_map_validation(sierpinski):
    with pytest.raises(InputError):
        PointMap(sierpinski, sierpinski, [0])
    with pytest.raises(InputError):
        PointMap(sierpinski, sierpinski, [0, 2])
    with pytest.raises(InputError):
        PointMap.identity(sierpinski).image(mask(3, [0]))
    with pytest.raises(InputError):
        PointMap.identity(sierpinski).preimage(mask(3, [0]))


def test_directed_decreasing_chain_forces_image_exchange():
    pm = table_map(2, 1, [0, 0])
    nested = [mask(2, [0, 1]), mask(2, [0])]
    rep = directed_image_check(pm, [(0, 1)], nested)
    assert rep.directed and rep.decreasing and rep.equal
    assert rep.missing is None


def test_dropping_directedness_breaks_image_exchange():
    pm = table_map(2, 1, [0, 0])
    family = [mask(2, [0]), mask(2, [1])]
    rep = directed_image_check(pm, [], family)
    assert not rep.directed and rep.decreasing
    assert not rep.equal
    assert rep.intersection_image == mask(1, [])
    assert rep.image_intersection == mask(1, [0])
    assert rep.missing == mask(1, [0])


def test_dropping_decreasingness_breaks_image_exchange():
    pm = table_map(2, 1, [0, 0])
    family = [mask(2, [0]), mask(2, [1])]
    rep = directed_image_check(pm, [(0, 1)], family)
    assert rep.directed and not rep.decreasing
    assert not rep.equal


def test_order_relation_is_closed_transitively_and_rejects_cycles():
    pm = table_map(3, 3, [0, 1, 2])
    family = [mask(3, [0, 1, 2]), mask(3, [0, 1]), mask(3, [0])]
    rep = directed_image_check(pm, [(0, 1), (1, 2)], family)
    assert rep.directed and rep.decreasing and rep.equal
    with pytest.raises(InputError):
        directed_image_check(pm, [(0, 1), (1, 0)], family)
    with pytest.raises(InputError):
        directed_image_check(pm, [], [])
    with pytest.raises(InputError):
        directed_image_check(pm, [], [mask(2, [0])])


def test_the_directed_image_report_matches_the_pointwise_oracle_on_every_small_case():
    assert [len(list(partial_orders(k))) for k in range(1, 5)] == [1, 3, 19, 219]  # labeled posets, OEIS A001035
    cases = 0
    for n in range(1, 4):
        for m in range(1, 4):
            for table in iproduct(range(m), repeat=n):
                pm = table_map(n, m, table)
                for k in (1, 2):
                    orders = list(partial_orders(k))
                    for family in iproduct([SubsetMask(n, b) for b in range(1 << n)], repeat=k):
                        for order in orders:
                            rep = directed_image_check(pm, order, family)
                            image_meet, meet_images, directed, decreasing = directed_image_oracle(pm, order, family)
                            assert set(rep.intersection_image.points()) == image_meet
                            assert set(rep.image_intersection.points()) == meet_images
                            assert (rep.directed, rep.decreasing) == (directed, decreasing)
                            assert rep.equal == (image_meet == meet_images)
                            missing = meet_images - image_meet
                            assert (rep.missing and set(rep.missing.points())) == (missing or None)
                            cases += 1
    assert cases == 8012


def test_the_directed_image_report_holds_on_every_case_intersection_image_sweeps():
    # every table map between discrete spaces of 1-3 points, k = 1-3: the oracle picks the directed
    # decreasing (order, family) pairs once per domain, and the report must agree with it under every map
    cases = 0
    for n in range(1, 4):
        identity = PointMap.identity(FinSpace.discrete(n))
        for k in range(1, 4):
            kept = [
                (order, family)
                for order in partial_orders(k)
                for family in iproduct([SubsetMask(n, b) for b in range(1 << n)], repeat=k)
                if directed_image_oracle(identity, order, family)[2:] == (True, True)
            ]
            for m in range(1, 4):
                for table in iproduct(range(m), repeat=n):
                    pm = table_map(n, m, table)
                    for order, family in kept:
                        rep = directed_image_check(pm, order, family)
                        image_meet, meet_images, _, _ = directed_image_oracle(pm, order, family)
                        assert rep.equal and rep.directed and rep.decreasing
                        assert set(rep.intersection_image.points()) == image_meet
                        assert set(rep.image_intersection.points()) == meet_images
                        cases += 1
    assert cases == 32540  # intersection-image's default case count


@given(tables, st.data())
def test_intersection_image_never_exceeds_the_image_intersection(nmt, data):
    n, m, table = nmt
    assume(n > 0)
    pm = table_map(n, m, table)
    family = data.draw(st.lists(masks(n), min_size=1, max_size=3), label="family")
    rep = directed_image_check(pm, [], family)
    assert rep.intersection_image.issubset(rep.image_intersection)
    assert rep.equal == (rep.missing is None)


@given(tables, st.data())
def test_any_nested_chain_gives_image_exchange(nmt, data):
    n, m, table = nmt
    assume(n > 0)
    pm = table_map(n, m, table)
    top = data.draw(masks(n), label="A0")
    mid = top & data.draw(masks(n), label="A1")
    bot = mid & data.draw(masks(n), label="A2")
    rep = directed_image_check(pm, [(0, 1), (1, 2)], [top, mid, bot])
    assert rep.directed and rep.decreasing and rep.equal


def test_generated_topology_makes_preimage_algebra_a_subtopology():
    """Saturated sets of a quotient-style map form a topology on the domain."""
    space = generate_topology(3, [mask(3, [0, 1])])
    pm = PointMap(space, FinSpace.discrete(2), [0, 0, 1])
    alg = alg_enumerate(pm)
    listed = sorted(a.points() for a in alg)
    assert listed == [(), (0, 1), (0, 1, 2), (2,)]
    assert all(alg_contains(pm, a) for a in alg)
