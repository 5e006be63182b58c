"""Document round-trips, canonical JSON bytes, and field-path diagnostics."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redsep import (
    PREFIX,
    RANGE,
    FinSpace,
    IndexedFamily,
    InputError,
    PointMap,
    ResourceError,
    SetClass,
    SubsetMask,
    canonical_base,
    canonical_json,
    cli,
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


def oracle_json(doc):
    """The stdlib encoding that canonical_json reproduces byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def same_as_oracle(doc):
    """canonical_json and the oracle give the same bytes, or both raise TypeError."""
    try:
        expected = oracle_json(doc)
    except TypeError:
        with pytest.raises(TypeError):
            canonical_json(doc)
        return
    assert canonical_json(doc) == expected


# every code point, lone surrogates included, so escapes and non-ASCII are written
texts = st.text(st.characters(exclude_categories=()), max_size=8)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
json_docs = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=40,
)
# json sorts the items and then writes int, float, bool and None keys as strings;
# keys of one type sort, mixed ones may not, and then both writers raise TypeError
key_sets = st.one_of(
    st.sets(st.integers()),
    st.sets(st.floats()),
    st.sets(st.booleans() | st.none()),
    st.sets(st.integers() | st.floats(allow_nan=False)),
    st.sets(st.integers() | texts, max_size=3),
)


@given(json_docs)
def test_canonical_json_matches_the_stdlib_encoding(doc):
    same_as_oracle(doc)


@given(key_sets, st.lists(scalars, min_size=8, max_size=8))
@settings(max_examples=100)
def test_non_str_keys_are_sorted_then_written_as_json_writes_them(keys, values):
    same_as_oracle(dict(zip(keys, values)))
    same_as_oracle([{"outer": dict(zip(keys, values))}])


@given(st.integers(0, 200), st.sampled_from(["list", "tuple", "dict"]), st.sampled_from([[], {}, (), 0, "x"]))
def test_deep_nesting_and_empty_containers_match_the_stdlib_encoding(depth, kind, leaf):
    doc = leaf
    for level in range(depth):
        doc = {"k": doc, "": []} if kind == "dict" else [doc, {}] if kind == "list" else (doc,)
    same_as_oracle(doc)


def test_values_and_keys_json_cannot_write_raise_type_error():
    for doc in ({1, 2}, {"a": object()}, {(1, 2): 0}, {None: 0, "a": 1}, [b"bytes"]):
        same_as_oracle(doc)
        with pytest.raises(TypeError):
            canonical_json(doc)
    assert canonical_json({True: 1, False: 0}) == '{\n  "false": 0,\n  "true": 1\n}\n'
    assert canonical_json({None: [float("nan")]}) == '{\n  "null": [\n    NaN\n  ]\n}\n'
    assert canonical_json({2: "b", 0.5: "a"}) == '{\n  "0.5": "a",\n  "2": "b"\n}\n'


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "tests" / "golden").glob("*.json"))
    + sorted((ROOT / "corpus").glob("*.json"))
    + sorted((ROOT / "instances" / "transfer").glob("*.json")),
    ids=lambda p: p.name,
)
def test_shipped_documents_are_rewritten_to_their_own_bytes(path):
    text = path.read_text()
    assert canonical_json(json.loads(text)) == oracle_json(json.loads(text)) == text


def test_reports_of_the_shipped_instances_match_the_stdlib_encoding():
    """The report objects themselves, tuples and all, before they are written."""
    parser, golden = cli.build_parser(), ROOT / "tests" / "golden"
    instances = [("transfer", p) for p in sorted((ROOT / "instances" / "transfer").glob("*.json"))]
    instances += [(command, golden / "reduction-five-opens-instance.json") for command in ("check-reduction", "check-separation")]
    instances += [("space", golden / f"{name}-instance.json") for name in ("sierpinski-zeros", "sierpinski-square")]
    for command, path in instances:
        args = parser.parse_args([command, str(path)])
        report, _ = args.handler(args)
        assert canonical_json(report) == oracle_json(report), (command, path.name)


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


def test_the_family_writer_spells_keys_and_points_as_instance_documents_do():
    prefix = {(): 0b111, (0,): 0b001, (1, 0): 0b110, (0, 10): 0}
    ranged = {0: 0b10, 3: 0b11, 12: 0b01}
    for mode, assignments in ((PREFIX, prefix), (RANGE, ranged)):
        n = 3 if mode == PREFIX else 2
        doc = serialize.family_to_doc(n, mode, assignments.items())
        family = IndexedFamily(n, mode, {idx: SubsetMask(n, bits) for idx, bits in assignments.items()})
        assert canonical_json(doc) == canonical_json(family_doc(family))
        back = serialize.family_from_doc(json.loads(canonical_json(doc)))
        assert back.assignments == family.assignments and back.default is None


def test_space_documents_regenerate_the_same_topology():
    space = generate_topology(3, [mask(3, [1]), mask(3, [1, 2])])
    doc = serialize.space_to_doc(space)
    assert serialize.space_from_doc(doc) == space
    assert serialize.space_from_doc(
        {"n": 3, "subbasis": [[1], [1, 2]]}
    ) == space
    assert serialize.space_from_doc({"n": 12}) == FinSpace(12, [(1 << 12) - 1] * 12)
    with pytest.raises(ResourceError, match="13 points exceed the cap 12"):
        serialize.space_from_doc({"n": 13, "subbasis": []})


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
