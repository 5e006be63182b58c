"""Structured documents for instances, findings, and reports.

Sets travel as sorted integer arrays, spaces as a point count plus a
subbasis, and every emitted document is canonical: sorted keys, two-space
indent, one trailing newline.  Parsers raise InputError naming the offending
field, so the batch front-end can surface field-level diagnostics.
"""

from json.encoder import encode_basestring_ascii as _string

from .classes import SetClass
from .errors import InputError, ResourceError
from .hausdorff import MODES, PREFIX, Base, IndexedFamily
from .maps import PointMap
from .masks import SubsetMask, points_of
from .spaces import POINT_CEILING, generate_topology


def canonical_json(doc):
    """The one serialized form used everywhere: byte-stable for equal docs.

    The bytes are those of json.dumps(doc, sort_keys=True, indent=2) plus a
    newline, written in one recursive pass instead of one generator per
    node.  Documents must be acyclic.
    """
    return _encode(doc, "\n") + "\n"


_INF = float("inf")
_INTS = {int}


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k):
    """A dict key as json writes it: sorted first, then a scalar's JSON text as the string."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _encode(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, newline):
    """The JSON text of o at the depth whose line break and indent is newline."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        if set(map(type, o)) == _INTS:  # the common leaf: points of a set
            body = ("," + inner).join(map(int.__repr__, o))
        else:
            body = ("," + inner).join([_encode(x, inner) for x in o])
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_string(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _field(doc, name, path, optional=False, default=None, choices=()):
    """One field of an object, checked against its allowed values when they are given."""
    if not isinstance(doc, dict):
        raise InputError(f"{path or 'document'} must be an object")
    where = path + "." + name if path else name
    if name not in doc:
        if optional:
            return default
        raise InputError(f"missing field {where}")
    val = doc[name]
    if choices and val not in choices:
        allowed = ", ".join(c for c in choices if c is not None)
        raise InputError(f"{where} must be one of {allowed}, got {val!r}")
    return val


def _int_field(doc, name, path, minimum=0, maximum=None):
    val = _field(doc, name, path)
    where = path + "." + name if path else name
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise InputError(f"{where} must be an integer >= {minimum}")
    if maximum is not None and val > maximum:
        raise ResourceError(f"{where} = {val} exceeds the cap {maximum}")
    return val


def points_doc(mask):
    return sorted(mask.points())


def mask_from_doc(n, val, path):
    if not isinstance(val, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in val
    ):
        raise InputError(f"{path} must be an array of integers")
    for p in val:
        if not 0 <= p < n:
            raise InputError(f"{path} contains point {p}, universe has {n} points")
    return SubsetMask.from_points(n, val)


def masks_from_doc(n, val, path):
    if not isinstance(val, list):
        raise InputError(f"{path} must be an array of point arrays")
    return [mask_from_doc(n, v, f"{path}[{i}]") for i, v in enumerate(val)]


def space_to_doc(space):
    return {"n": space.n, "subbasis": [points_doc(o) for o in space.opens]}


def space_from_doc(doc, path="space"):
    n = _int_field(doc, "n", path)
    sub = _field(doc, "subbasis", path, optional=True, default=[])
    return generate_topology(n, masks_from_doc(n, sub, f"{path}.subbasis"))


def base_to_doc(base):
    return {
        "alphabet": base.alphabet,
        "branches": [list(br) for br in base.branches],
        "mode": base.mode_hint,
    }


def base_from_doc(doc, path="base"):
    alphabet = _int_field(doc, "alphabet", path, minimum=1)
    branches = _field(doc, "branches", path)
    if not isinstance(branches, list):
        raise InputError(f"{path}.branches must be an array of symbol arrays")
    for i, br in enumerate(branches):
        if (
            not isinstance(br, list)
            or not br
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in br)
        ):
            raise InputError(f"{path}.branches[{i}] must be a nonempty array of integers")
        bad = [s for s in br if not 0 <= s < alphabet]
        if bad:
            raise InputError(f"{path}.branches[{i}] has symbol {bad[0]} outside the alphabet 0..{alphabet - 1}")
    mode = _field(doc, "mode", path, optional=True, default=PREFIX)
    if mode not in MODES:
        raise InputError(f"{path}.mode must be one of {MODES}")
    return Base(alphabet, [tuple(br) for br in branches], mode)


def _index_key(mode, index):
    if mode == PREFIX:
        return ",".join(str(s) for s in index)
    return str(index)


def _index_from_key(mode, key, path):
    if not isinstance(key, str):
        raise InputError(f"{path} keys must be strings")
    if mode == PREFIX:
        if key == "":
            return ()
        parts = key.split(",")
    else:
        parts = [key]
    try:
        nums = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"{path} key {key!r} is not a comma-separated index") from None
    if any(v < 0 for v in nums):
        raise InputError(f"{path} key {key!r} has a negative symbol")
    return nums if mode == PREFIX else nums[0]


def family_to_doc(n, mode, assignments):
    """The document of a family over n points with no default, from its (index, bits) pairs."""
    points = {_index_key(mode, idx): list(points_of(bits)) for idx, bits in assignments}
    return {"universe": n, "mode": mode, "assignments": points, "default": None}


def family_from_doc(doc, path="family"):
    n = _int_field(doc, "universe", path, maximum=POINT_CEILING)
    mode = _field(doc, "mode", path)
    if mode not in MODES:
        raise InputError(f"{path}.mode must be one of {MODES}")
    raw = _field(doc, "assignments", path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}.assignments must be an object keyed by index")
    where = f"{path}.assignments"
    assignments = {
        _index_from_key(mode, key, where): mask_from_doc(n, val, f"{where}[{key!r}]")
        for key, val in raw.items()
    }
    default = _field(doc, "default", path, optional=True)
    if default is not None:
        default = mask_from_doc(n, default, f"{path}.default")
    return IndexedFamily(n, mode, assignments, default)


def base_family_from_doc(doc, path):
    """The base and family fields of an instance, with every index the base
    needs in the family's mode assigned (the empty prefix may default)."""
    base = base_from_doc(_field(doc, "base", path), f"{path}.base")
    family = family_from_doc(_field(doc, "family", path), f"{path}.family")
    if family.default is None:
        for idx in base.relevant_indices(family.mode):
            if idx != () and idx not in family.assignments:
                key = _index_key(family.mode, idx)
                raise InputError(f"{path}.family.assignments has no value for index {key!r} and no default is set")
    return base, family


def map_to_doc(pm):
    return {
        "dom": space_to_doc(pm.dom),
        "cod": space_to_doc(pm.cod),
        "table": list(pm.table),
    }


def map_from_doc(doc, path="map"):
    dom = space_from_doc(_field(doc, "dom", path), f"{path}.dom")
    cod = space_from_doc(_field(doc, "cod", path), f"{path}.cod")
    table = _field(doc, "table", path)
    if not isinstance(table, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in table
    ):
        raise InputError(f"{path}.table must be an array of integers")
    if len(table) != dom.n:
        raise InputError(f"{path}.table must list {dom.n} codomain points, got {len(table)}")
    for i, t in enumerate(table):
        if not 0 <= t < cod.n:
            raise InputError(f"{path}.table[{i}] = {t} is outside the codomain 0..{cod.n - 1}")
    return PointMap(dom, cod, table)


def class_from_doc(doc, path="class"):
    n = _int_field(doc, "universe", path, maximum=POINT_CEILING)
    return SetClass(n, masks_from_doc(n, _field(doc, "members", path), f"{path}.members"))


def relation_from_doc(val, path="order"):
    if not isinstance(val, list):
        raise InputError(f"{path} must be an array of [i, j] pairs")
    pairs = []
    for i, entry in enumerate(val):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise InputError(f"{path}[{i}] must be a pair of integers")
        pairs.append((entry[0], entry[1]))
    return pairs
