"""Classes of subsets and the reduction / separation properties.

A SetClass is a deduplicated, canonically ordered collection of subsets of a
fixed universe.  generate_class applies a base to every assignment of
generator sets to the base's relevant indices and collects the outcomes.

A pair (A, B) is reduced by (C, D) when C <= A, D <= B, C and D are disjoint
and C u D = A u B.  Disjoint (A, B) are separated by C when A <= C and
B n C = 0; separators are drawn from the ambiguous part (members whose
complement is also a member).
"""

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, PreconditionError, ResourceError
from .hausdorff import compiled_plan, eval_plan_bits, _check_mode
from .masks import SubsetMask, lanes_of, replicate, restrict_bits, sort_key

DEFAULT_ASSIGNMENT_CAP = 1 << 18
MAX_LADDER_DEPTH = 64


class SetClass:
    """A canonical collection of subsets of {0, ..., n-1}."""

    __slots__ = ("n", "members", "_bits")

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
        object.__setattr__(
            self, "members", tuple(SubsetMask(n, b) for b in sorted(bits, key=sort_key))
        )
        object.__setattr__(self, "_bits", frozenset(bits))

    def __setattr__(self, name, value):
        raise AttributeError("SetClass is immutable")

    @classmethod
    def from_bits(cls, n, bits_iter):
        return cls(n, (), bits_iter)

    @classmethod
    def power_set(cls, n):
        return cls.from_bits(n, range(1 << n))

    def member_bits(self):
        return self._bits

    def __contains__(self, mask):
        return isinstance(mask, SubsetMask) and mask.n == self.n and mask.bits in self._bits

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, SetClass) and self.n == other.n and self._bits == other._bits

    def __hash__(self):
        return hash((self.n, self._bits))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, m.points())) + "}" for m in self.members)
        return f"SetClass({self.n}, [{inner}])"


def complement_class(sc):
    """The class of complements of members."""
    full = (1 << sc.n) - 1
    return SetClass.from_bits(sc.n, (full ^ b for b in sc.member_bits()))


def delta_class(sc):
    """Members whose complement is also a member."""
    full = (1 << sc.n) - 1
    return SetClass.from_bits(sc.n, (b for b in sc.member_bits() if full ^ b in sc.member_bits()))


def restrict_class(sc, carrier):
    """Traces of members on the carrier, re-indexed to 0..|carrier|-1."""
    if not isinstance(carrier, SubsetMask) or carrier.n != sc.n:
        raise InputError(f"carrier must be a SubsetMask over {sc.n} points")
    return SetClass.from_bits(
        carrier.card(), (restrict_bits(b, carrier.bits) for b in sc.member_bits())
    )


def generate_class(base, generators, mode, cap=DEFAULT_ASSIGNMENT_CAP, dual=False):
    """All evaluation outcomes over assignments of generators to the indices.

    Assignments range over the indices actually occurring in the base: the
    nonempty prefixes of branches, or the mentioned symbols.  The empty
    prefix keeps its neutral value (the whole universe; the empty set under
    the dual).  With dual=True the outcomes of the dual operation over
    assignments are collected instead.  Every assignment is a lane of one
    packed evaluation, laid out in iproduct order.
    """
    _check_mode(mode)
    if not isinstance(generators, SetClass):
        raise InputError("generators must be a SetClass")
    order, plans = compiled_plan(base, mode)
    enum_pos = [i for i, idx in enumerate(order) if idx != ()]
    g, k = len(generators), len(enum_pos)
    count = g**k
    if count > cap:
        raise ResourceError(f"{count} assignments ({g} generators over {k} indices) exceed the cap {cap}")
    n, universe = generators.n, (1 << generators.n) - 1
    width = (n + 7) // 8 or 1  # bytes per lane
    full = replicate(universe, count, width)
    cells = [(universe ^ m.bits if dual else m.bits).to_bytes(width, "little") for m in generators.members]
    values = [full] * len(order)
    # coordinate j of assignment a is generator a // g**(k-1-j) % g
    for j, i in enumerate(enum_pos):
        values[i] = int.from_bytes(b"".join(cell * g ** (k - 1 - j) for cell in cells) * g**j, "little")
    out = eval_plan_bits(plans, values) & full
    return SetClass.from_bits(n, set(lanes_of(full ^ out if dual else out, count, width)))


@dataclass(frozen=True)
class ReductionWitness:
    a: SubsetMask
    b: SubsetMask
    c: SubsetMask
    d: SubsetMask

    def holds(self):
        return (
            self.c.issubset(self.a)
            and self.d.issubset(self.b)
            and self.c.isdisjoint(self.d)
            and (self.c | self.d) == (self.a | self.b)
        )


@dataclass(frozen=True)
class SeparationWitness:
    a: SubsetMask
    b: SubsetMask
    separator: SubsetMask

    def holds(self, delta=None):
        ok = self.a.issubset(self.separator) and self.b.isdisjoint(self.separator)
        if delta is not None:
            ok = ok and self.separator in delta
        return ok


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    pairs_checked: int
    witnesses: Optional[dict]
    failing_pair: Optional[tuple]


def _reduction_witness(sc, a, b):
    """First (C, D) in canonical order reducing (a, b), or None.

    C u D = a u b and C n D = 0 force D = (a u b) \\ C, so scanning C in
    canonical member order visits candidate pairs in lexicographic order.
    """
    union = a.bits | b.bits
    members = sc.member_bits()
    for c in sc.members:
        if c.bits & ~a.bits:
            continue
        d = union & ~c.bits
        if d in members and not d & ~b.bits:
            return ReductionWitness(a, b, c, SubsetMask(sc.n, d))
    return None


def check_reduction(sc):
    """Does every ordered pair of members admit a reduction witness in the class?"""
    witnesses = {}
    checked = 0
    for a in sc.members:
        for b in sc.members:
            checked += 1
            w = _reduction_witness(sc, a, b)
            if w is None:
                return CheckResult(False, checked, None, (a, b))
            witnesses[(a, b)] = w
    return CheckResult(True, checked, witnesses, None)


def _separation_witness(sc, delta, a, b):
    for c in delta.members:
        if not a.bits & ~c.bits and not b.bits & c.bits:
            return SeparationWitness(a, b, c)
    return None


def check_separation(sc):
    """Does every disjoint ordered pair admit a separator from the ambiguous part?"""
    delta = delta_class(sc)
    witnesses = {}
    checked = 0
    for a in sc.members:
        for b in sc.members:
            if not a.isdisjoint(b):
                continue
            checked += 1
            w = _separation_witness(sc, delta, a, b)
            if w is None:
                return CheckResult(False, checked, None, (a, b))
            witnesses[(a, b)] = w
    return CheckResult(True, checked, witnesses, None)


def reduction_to_separation(sc, a, b):
    """Separate disjoint members of the complement class via a reduction witness.

    Reducing the pair of complements (both in sc, with union the whole
    universe) yields (C, D); D then contains a, misses b, and both D and its
    complement C lie in sc, so D is ambiguous for the complement class.
    """
    comp = complement_class(sc)
    if a not in comp:
        raise PreconditionError(f"{a!r} is not in the complement class")
    if b not in comp:
        raise PreconditionError(f"{b!r} is not in the complement class")
    if not a.isdisjoint(b):
        raise PreconditionError(f"{a!r} and {b!r} are not disjoint")
    w = _reduction_witness(sc, a.complement(), b.complement())
    if w is None:
        raise PreconditionError(
            f"no reduction witness for the complement pair of ({a!r}, {b!r})"
        )
    witness = SeparationWitness(a, b, w.d)
    if not witness.holds(delta_class(comp)):
        raise PreconditionError("constructed separator failed validation")
    return witness


@dataclass(frozen=True)
class LadderLevel:
    sigma: SetClass
    pi: SetClass
    delta: SetClass


@dataclass(frozen=True)
class Ladder:
    levels: tuple
    stabilized: bool


def _union_closure(n, bits_iter):
    """All unions of nonempty subfamilies: close the members under binary union."""
    sets = set(bits_iter)
    frontier = list(sets)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(sets):
                u = x | y
                if u not in sets:
                    sets.add(u)
                    nxt.append(u)
        frontier = nxt
    return SetClass.from_bits(n, sets)


def borel_ladder(generators, depth, max_depth=MAX_LADDER_DEPTH):
    """Alternate union closures and complements, accumulating the dual levels.

    Level 1 takes all unions of generators; each later sigma level takes all
    unions over every earlier pi level.  Stops early (stabilized=True) when a
    level repeats; on finite universes the limit is the Boolean algebra the
    generators generate.
    """
    if not isinstance(generators, SetClass):
        raise InputError("generators must be a SetClass")
    if not isinstance(depth, int) or depth < 1:
        raise InputError(f"depth must be a positive int, got {depth!r}")
    if depth > max_depth:
        raise ResourceError(f"depth {depth} exceeds the cap {max_depth}")
    n = generators.n
    levels = []
    pool = set()
    prev = None
    for _ in range(depth):
        source = generators.member_bits() if not levels else pool
        sigma = _union_closure(n, source)
        pi = complement_class(sigma)
        level = LadderLevel(sigma, pi, delta_class(sigma))
        if prev is not None and level.sigma == prev.sigma and level.pi == prev.pi:
            return Ladder(tuple(levels), True)
        levels.append(level)
        pool |= pi.member_bits()
        prev = level
    return Ladder(tuple(levels), False)
