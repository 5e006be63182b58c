"""Classes of subsets and the reduction / separation properties.

A SetClass is a deduplicated, canonically ordered collection of subsets of a
fixed universe, stored as bitmasks and wrapped as SubsetMasks on demand.
generate_class applies a base to every assignment of generator sets to the
base's relevant indices and collects the outcomes.

A pair (A, B) is reduced by (C, D) when C <= A, D <= B, C and D are disjoint
and C u D = A u B.  Disjoint (A, B) are separated by C when A <= C and
B n C = 0; separators are drawn from the ambiguous part (members whose
complement is also a member).  A witness is its bits: (c, d) for reduction,
(s,) for separation, with its parts named in WITNESS_FIELDS.  Each condition
is written once (reduces, separates), and each property has one search on
bitmasks for the canonical-first witness of a pair.  A check is one scan
over the pairs, and check picks the property by name; given a dict, it
records the witness of every pair it checked, so callers that want
witnesses read the record instead of searching again.
"""

from collections import namedtuple
from functools import cached_property
from itertools import product as iproduct

from .errors import InputError, PreconditionError, ResourceError
from .hausdorff import compiled_plan, eval_lanes, _check_mode
from .masks import SubsetMask, lanes_of, points_of, replicate, sort_key, unions

DEFAULT_ASSIGNMENT_CAP = 1 << 18
# the checkers scan |C|^2 pairs with up to |C| candidates each
MAX_CLASS_MEMBERS = 256

REDUCTION = "reduction"
SEPARATION = "separation"


class SetClass:
    """A canonical collection of subsets of {0, ..., n-1}."""

    def __init__(self, n, members, _bits=()):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        bits = set()
        for m in members:
            if not isinstance(m, SubsetMask) or m.n != n:
                raise InputError(f"member {m!r} is not a SubsetMask over {n} points")
            bits.add(m.bits)
        for b in _bits:  # raw bitmasks, refused as SubsetMask(n, b) would refuse them
            if not isinstance(b, int) or b < 0 or b >> n:
                raise InputError(f"bits {b!r} not a subset of a {n}-point universe")
            bits.add(b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", frozenset(bits))
        object.__setattr__(self, "_order", tuple(sorted(bits, key=sort_key)))

    def __setattr__(self, name, value):
        raise AttributeError("SetClass is immutable")

    @cached_property
    def members(self):
        """The members as SubsetMasks in canonical order, wrapped on first access."""
        return tuple(SubsetMask(self.n, b) for b in self._order)

    @classmethod
    def from_bits(cls, n, bits_iter):
        return cls(n, (), bits_iter)

    def member_bits(self):
        return self._bits

    def __contains__(self, mask):
        return isinstance(mask, SubsetMask) and mask.n == self.n and mask.bits in self._bits

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self._order)

    def __eq__(self, other):
        return isinstance(other, SetClass) and self.n == other.n and self._bits == other._bits

    def __hash__(self):
        return hash((self.n, self._bits))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, points_of(b))) + "}" for b in self._order)
        return f"SetClass({self.n}, [{inner}])"


def complement_class(sc):
    """The class of complements of members."""
    full = (1 << sc.n) - 1
    return SetClass.from_bits(sc.n, (full ^ b for b in sc.member_bits()))


def generate_class(base, generators, mode, dual=False):
    """All evaluation outcomes over assignments of generators to the indices.

    Assignments range over the indices actually occurring in the base: the
    nonempty prefixes of branches, or the mentioned symbols.  The empty
    prefix stays free, so eval_lanes keeps it neutral.  With dual=True the
    outcomes of the dual operation over assignments are collected instead.
    Every assignment is a lane of one packed evaluation, laid out in iproduct
    order; more than DEFAULT_ASSIGNMENT_CAP assignments are refused before
    any evaluation.
    """
    _check_mode(mode)
    if not isinstance(generators, SetClass):
        raise InputError("generators must be a SetClass")
    order, plans = compiled_plan(base, mode)
    enum_pos = [i for i, idx in enumerate(order) if idx != ()]
    g, k = len(generators), len(enum_pos)
    count = g**k
    if count > DEFAULT_ASSIGNMENT_CAP:
        raise ResourceError(
            f"{count} assignments ({g} generators over {k} indices) exceed the cap {DEFAULT_ASSIGNMENT_CAP}"
        )
    n = generators.n
    width = (n + 7) // 8 or 1  # bytes per lane
    cells = [b.to_bytes(width, "little") for b in generators._order]
    values = [None] * len(order)
    # coordinate j of assignment a is generator a // g**(k-1-j) % g
    for j, i in enumerate(enum_pos):
        values[i] = int.from_bytes(b"".join(cell * g ** (k - 1 - j) for cell in cells) * g**j, "little")
    out = eval_lanes(plans, values, replicate((1 << n) - 1, count, width), dual)
    return SetClass.from_bits(n, set(lanes_of(out, count, width)))


def reduces(a, b, c, d, sc=None):
    """Does (c, d) reduce (a, b): c <= a, d <= b, c n d = 0 and c u d = a u b,
    with c and d members of sc when a class is given?"""
    if c & ~a or d & ~b or c & d or c | d != a | b:
        return False
    return sc is None or (c in sc._bits and d in sc._bits)


def separates(a, b, s, sc=None):
    """Does s separate (a, b): a <= s and b n s = 0, with s an ambiguous member
    of sc (its complement a member too) when a class is given?"""
    if a & ~s or b & s:
        return False
    return sc is None or (s in sc._bits and ((1 << sc.n) - 1) ^ s in sc._bits)


# the names of a witness's parts in reports, per property
WITNESS_FIELDS = {REDUCTION: ("c", "d"), SEPARATION: ("separator",)}


CheckResult = namedtuple("CheckResult", "holds pairs_checked failing_pair")


def _reduction_witness(sc, a, b):
    """Bits (c, d) of the first reduction of the pair of bits (a, b), or None.

    C u D = a u b and C n D = 0 force D = (a u b) \\ C, so scanning C in
    canonical member order visits candidate pairs in lexicographic order.
    """
    union = a | b
    for c in sc._order:
        d = union & ~c
        if reduces(a, b, c, d, sc):
            return c, d
    return None


def _separation_witness(sc, a, b):
    """Bits (s,) of the first ambiguous member containing a and missing b, or
    None; always None when a meets b, since every superset of a then meets b."""
    for s in sc._order:
        if separates(a, b, s, sc):
            return (s,)
    return None


def _property(which):
    """The witness condition and the canonical-first witness search of a property."""
    if which == REDUCTION:
        return reduces, _reduction_witness
    if which == SEPARATION:
        return separates, _separation_witness
    raise InputError(f"which must be {REDUCTION!r} or {SEPARATION!r}")


def _pairs(sc, which):
    """The pairs of member bits a property quantifies over, row-major in canonical
    order: every pair for reduction, the disjoint pairs for separation."""
    order = sc._order
    if which == REDUCTION:
        return iproduct(order, repeat=2)
    return ((a, b) for a in order for b in order if not a & b)


def _check(sc, which, record=None):
    """The CheckResult of a property.  A given dict receives the witness bits of
    each checked pair of member bits (a, b), in scan order, through the first
    pair without a witness (mapped to None); without one nothing is kept."""
    if len(sc) > MAX_CLASS_MEMBERS:
        raise ResourceError(f"class of {len(sc)} members exceeds the cap {MAX_CLASS_MEMBERS}")
    _, search = _property(which)
    checked = 0
    for a, b in _pairs(sc, which):
        checked += 1
        found = search(sc, a, b)
        if record is not None:
            record[a, b] = found
        if found is None:
            return CheckResult(False, checked, (SubsetMask(sc.n, a), SubsetMask(sc.n, b)))
    return CheckResult(True, checked, None)


def check_reduction(sc, record=None):
    """Does every ordered pair of members admit a reduction witness in the class?
    A given dict receives the record of the scan (see _check)."""
    return _check(sc, REDUCTION, record)


def check_separation(sc, record=None):
    """Does every disjoint ordered pair admit a separator from the ambiguous part?
    A given dict receives the record of the scan (see _check)."""
    return _check(sc, SEPARATION, record)


def check(sc, which, record=None):
    """The CheckResult of the property named which, run as check_reduction or check_separation."""
    _property(which)  # refuses any other name
    return (check_reduction if which == REDUCTION else check_separation)(sc, record)


def reduction_to_separation(sc, a, b):
    """The separator of disjoint members a, b of the complement class, found
    through a reduction witness.

    Reducing the pair of complements (both in sc, with union the whole
    universe) yields (C, D); D then contains a, misses b, and both D and its
    complement C lie in sc, so D is ambiguous for the complement class (and
    for sc, the same condition).
    """
    full, bits = (1 << sc.n) - 1, sc._bits
    for m in (a, b):
        if not (isinstance(m, SubsetMask) and m.n == sc.n and full ^ m.bits in bits):
            raise PreconditionError(f"{m!r} is not in the complement class")
    if a.bits & b.bits:
        raise PreconditionError(f"{a!r} and {b!r} are not disjoint")
    found = _reduction_witness(sc, full ^ a.bits, full ^ b.bits)
    if found is None:
        raise PreconditionError(f"no reduction witness for the complement pair of ({a!r}, {b!r})")
    if not separates(a.bits, b.bits, found[1], sc):
        raise PreconditionError("constructed separator failed validation")
    return SubsetMask(sc.n, found[1])


LadderLevel = namedtuple("LadderLevel", "sigma pi")


def borel_ladder(generators):
    """The levels LadderLevel(sigma, pi) of alternating union closures and
    complements, up to the first that repeats the one before it.

    Sigma level 1 takes the unions of nonempty subfamilies of the generators,
    each later one those of every earlier pi level.  The loop ends by level 5:
    sigma levels 1 and 2 hold the generators and their complements, so pi
    level 3, which holds every intersection of members of those two levels,
    holds every atom of the Boolean algebra the generators generate, and sigma
    level 4 is that algebra.  No generators give one empty level.
    """
    if not isinstance(generators, SetClass):
        raise InputError("generators must be a SetClass")
    levels, source, pool = [], generators.member_bits(), set()
    while True:
        sigma = SetClass.from_bits(generators.n, unions(source) - ({0} - source))
        if levels and sigma == levels[-1].sigma:  # then its complements repeat too
            return tuple(levels)
        pi = complement_class(sigma)
        levels.append(LadderLevel(sigma, pi))
        source = pool = pool | pi.member_bits()
