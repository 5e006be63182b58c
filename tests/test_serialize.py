"""Document round-trips, canonical JSON bytes, and field-path diagnostics."""

import json

import pytest

from redsep import (
    PREFIX,
    FinSpace,
    IndexedFamily,
    InputError,
    PointMap,
    ResourceError,
    SetClass,
    SubsetMask,
    canonical_base,
    canonical_json,
    generate_topology,
    serialize,
)

from conftest import class_doc, family_doc, mask, sclass


def test_canonical_json_is_sorted_indented_and_newline_terminated():
    doc = {"b": 1, "a": [2, {"d": None, "c": True}]}
    assert canonical_json(doc) == (
        '{\n'
        '  "a": [\n'
        '    2,\n'
        '    {\n'
        '      "c": true,\n'
        '      "d": null\n'
        '    }\n'
        '  ],\n'
        '  "b": 1\n'
        '}\n'
    )
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def test_base_documents_round_trip():
    for base in (
        canonical_base("a_operation", 2, 2),
        canonical_base("union", 3),
    ):
        doc = serialize.base_to_doc(base)
        assert json.loads(canonical_json(doc)) == doc
        assert serialize.base_from_doc(doc) == base
    assert serialize.base_to_doc(canonical_base("a_operation", 2, 2)) == {
        "alphabet": 2,
        "branches": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "mode": "range",
    }


def test_family_documents_round_trip_in_both_modes():
    prefix_family = IndexedFamily(
        2,
        PREFIX,
        {(): SubsetMask.full(2), (0,): mask(2, [0]), (0, 1): mask(2, [1])},
    )
    doc = family_doc(prefix_family)
    assert doc == {
        "universe": 2,
        "mode": "prefix",
        "assignments": {"": [0, 1], "0": [0], "0,1": [1]},
        "default": None,
    }
    back = serialize.family_from_doc(doc)
    assert (back.n, back.mode, back.assignments, back.default) == (
        prefix_family.n,
        prefix_family.mode,
        prefix_family.assignments,
        prefix_family.default,
    )

    range_family = IndexedFamily.from_list(
        2, [mask(2, [0]), mask(2, [1])], default=mask(2, [])
    )
    doc = family_doc(range_family)
    assert doc["assignments"] == {"0": [0], "1": [1]} and doc["default"] == []
    back = serialize.family_from_doc(doc)
    assert back.assignments == range_family.assignments
    assert back.default == range_family.default


def test_space_documents_regenerate_the_same_topology():
    space = generate_topology(3, [mask(3, [1]), mask(3, [1, 2])])
    doc = serialize.space_to_doc(space)
    assert serialize.space_from_doc(doc) == space
    assert serialize.space_from_doc(
        {"n": 3, "subbasis": [[1], [1, 2]]}
    ) == space
    with pytest.raises(ResourceError):
        serialize.space_from_doc({"n": 6, "subbasis": []})


def test_map_documents_round_trip():
    pm = PointMap(
        generate_topology(2, [mask(2, [1])]), FinSpace.discrete(2), [0, 1]
    )
    doc = serialize.map_to_doc(pm)
    assert doc["table"] == [0, 1]
    assert serialize.map_from_doc(doc) == pm


def test_class_documents_round_trip():
    sc = sclass(3, [[0], [1, 2], []])
    doc = class_doc(sc)
    assert doc == {"universe": 3, "members": [[], [0], [1, 2]]}
    assert serialize.class_from_doc(doc) == sc
    assert serialize.class_from_doc({"universe": 1, "members": [[0], [0]]}) == SetClass(
        1, [mask(1, [0])]
    )


def test_masks_accept_unsorted_duplicated_points_but_not_junk():
    assert serialize.mask_from_doc(2, [1, 0, 1], "m") == mask(2, [0, 1])
    assert serialize.points_doc(mask(3, [2, 0])) == [0, 2]
    with pytest.raises(InputError) as err:
        serialize.mask_from_doc(2, [0, "a"], "m")
    assert str(err.value) == "m must be an array of integers"
    with pytest.raises(InputError) as err:
        serialize.mask_from_doc(2, [5], "m")
    assert str(err.value) == "m contains point 5, universe has 2 points"


def test_relations_parse_as_pairs():
    rel = serialize.relation_from_doc([[0, 1], [1, 2]], "order")
    assert [tuple(p) for p in rel] == [(0, 1), (1, 2)]
    with pytest.raises(InputError) as err:
        serialize.relation_from_doc([[0, 1], [1]], "order")
    assert str(err.value) == "order[1] must be a pair of integers"


def test_missing_fields_are_reported_with_their_full_path():
    with pytest.raises(InputError) as err:
        serialize.map_from_doc(
            {"dom": {"n": 1, "subbasis": []}, "cod": {"n": 1, "subbasis": []}}
        )
    assert str(err.value) == "missing field map.table"
    with pytest.raises(InputError) as err:
        serialize.map_from_doc({}, path="instance.map")
    assert str(err.value) == "missing field instance.map.dom"
    with pytest.raises(InputError) as err:
        serialize.family_from_doc({"mode": "range", "assignments": {}})
    assert str(err.value) == "missing field family.universe"
    with pytest.raises(InputError) as err:
        serialize.space_from_doc({"subbasis": []})
    assert str(err.value) == "missing field space.n"
    with pytest.raises(InputError) as err:
        serialize.base_from_doc(
            {"alphabet": 2, "branches": [[0]], "mode": "zigzag"}
        )
    assert str(err.value) == "base.mode must be one of ('prefix', 'range')"


def test_documents_must_be_objects():
    for loader in (
        serialize.base_from_doc,
        serialize.family_from_doc,
        serialize.space_from_doc,
        serialize.map_from_doc,
        serialize.class_from_doc,
    ):
        with pytest.raises(InputError):
            loader([1, 2, 3])


def test_prefix_index_keys_survive_a_json_round_trip():
    family = IndexedFamily(
        1,
        PREFIX,
        {(): mask(1, [0]), (0,): mask(1, []), (0, 0): mask(1, [0])},
    )
    doc = json.loads(canonical_json(family_doc(family)))
    back = serialize.family_from_doc(doc)
    assert set(back.assignments) == {(), (0,), (0, 0)}
    with pytest.raises(InputError):
        serialize.family_from_doc(
            {"universe": 1, "mode": "prefix", "assignments": {"x": [0]}}
        )
    with pytest.raises(InputError):
        serialize.family_from_doc(
            {"universe": 1, "mode": "range", "assignments": {"0,1": [0]}}
        )
