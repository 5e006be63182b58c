"""Maps between finite spaces and the algebras their fibers generate.

The algebra of a map F is {A : F^-1(F(A)) = A}, i.e. the unions of fibers;
it is isomorphic to the power set of the kernel partition and is closed
under unions, intersections, complements and hence under every branch-based
set operation with values drawn from it.
"""

from collections import namedtuple
from functools import lru_cache

from .classes import SetClass
from .errors import InputError, ResourceError
from .masks import SubsetMask, unions
from .spaces import FinSpace, product

MAX_ALG_FIBERS = 16
# directedness is quadratic in the family length, which a finding document sets
_MAX_FAMILY = 64

# Products are immutable, so one built per factor tuple serves every diagonal.
_product = lru_cache(maxsize=64)(product)


class PointMap:
    """A function between the points of two finite spaces, given as a table."""

    __slots__ = ("dom", "cod", "table", "_fibers")

    def __init__(self, dom, cod, table):
        if not isinstance(dom, FinSpace) or not isinstance(cod, FinSpace):
            raise InputError("dom and cod must be FinSpace instances")
        table = tuple(table)
        if len(table) != dom.n:
            raise InputError(f"table length {len(table)} does not match domain size {dom.n}")
        fibers = [0] * cod.n
        for x, y in enumerate(table):
            if not isinstance(y, int) or y < 0 or y >= cod.n:
                raise InputError(f"table entry {y!r} at {x} outside codomain of size {cod.n}")
            fibers[y] |= 1 << x
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_fibers", tuple(fibers))

    def __setattr__(self, name, value):
        raise AttributeError("PointMap is immutable")

    @classmethod
    def identity(cls, space):
        return cls(space, space, range(space.n))

    def fiber_bits(self):
        """Per codomain point, the bitmask of its preimage (possibly empty)."""
        return self._fibers

    def image_bits(self, bits):
        out = 0
        t = bits
        while t:
            low = t & -t
            out |= 1 << self.table[low.bit_length() - 1]
            t ^= low
        return out

    def preimage_bits(self, bits):
        out = 0
        while bits:
            out |= self._fibers[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        return out

    def saturated(self, bits):
        """Is the domain set of these bits a union of fibers, F^-1(F(A)) = A?"""
        return self.preimage_bits(self.image_bits(bits)) == bits

    def image(self, mask):
        if not isinstance(mask, SubsetMask) or mask.n != self.dom.n:
            raise InputError(f"expected a SubsetMask over the domain ({self.dom.n} points)")
        return SubsetMask(self.cod.n, self.image_bits(mask.bits))

    def preimage(self, mask):
        if not isinstance(mask, SubsetMask) or mask.n != self.cod.n:
            raise InputError(f"expected a SubsetMask over the codomain ({self.cod.n} points)")
        return SubsetMask(self.dom.n, self.preimage_bits(mask.bits))

    def __eq__(self, other):
        return (
            isinstance(other, PointMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.table))

    def __repr__(self):
        return f"PointMap({self.dom.n} -> {self.cod.n}, {list(self.table)})"


def alg_contains(pm, mask):
    """Is the set saturated, i.e. a union of fibers?"""
    if not isinstance(mask, SubsetMask) or mask.n != pm.dom.n:
        raise InputError(f"expected a SubsetMask over the domain ({pm.dom.n} points)")
    return pm.saturated(mask.bits)


def alg_enumerate(pm):
    """All saturated sets; exactly 2^(#nonempty fibers) of them."""
    fibers = [f for f in pm.fiber_bits() if f]
    if len(fibers) > MAX_ALG_FIBERS:
        raise ResourceError(f"{len(fibers)} fibers exceed the cap {MAX_ALG_FIBERS}")
    return SetClass.from_bits(pm.dom.n, unions(fibers))


def diagonal_product(pms):
    """x |-> (F_1(x), ..., F_k(x)) into the product of the codomains."""
    pms = list(pms)
    if not pms:
        raise InputError("diagonal product needs at least one map")
    dom = pms[0].dom
    for pm in pms[1:]:
        if pm.dom != dom:
            raise InputError("diagonal product factors must share a domain")
    cod, codec = _product(tuple(pm.cod for pm in pms))
    table = [codec.encode([pm.table[x] for pm in pms]) for x in range(dom.n)]
    return PointMap(dom, cod, table)


# intersection_image is F(n A_i), image_intersection is n F(A_i), and missing
# holds the points of the latter not in the former (None when there are none)
DirectedImageReport = namedtuple(
    "DirectedImageReport", "equal directed decreasing intersection_image image_intersection missing"
)


def _order_closure(k, relation):
    """Reflexive-transitive closure as adjacency bitmasks; rejects cycles."""
    above = [1 << i for i in range(k)]
    for pair in relation:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise InputError(f"order relation entry {pair!r} is not a pair") from None
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < k and 0 <= j < k):
            raise InputError(f"order relation entry {pair!r} outside index range 0..{k - 1}")
        above[i] |= 1 << j
    for j in range(k):  # Warshall: whatever reaches j reaches all that j reaches
        for i in range(k):
            if above[i] >> j & 1:
                above[i] |= above[j]
    for i in range(k):
        for j in range(k):
            if i != j and above[i] >> j & 1 and above[j] >> i & 1:
                raise InputError(f"order relation has a cycle through {i} and {j}")
    return above


def _directed(above):
    """Do any two indices of the order (above-masks) have a common upper bound?"""
    return all(a & b for a in above for b in above)


def _decreasing(above, bits):
    """Is bits[j] a subset of bits[i] whenever i <= j in the order (above-masks)?"""
    k = len(above)
    return all(not (above[i] >> j & 1) or not (bits[j] & ~bits[i]) for i in range(k) for j in range(k) if i != j)


def directed_image_check(pm, relation, family):
    """Compare F(n A_i) with n F(A_i) and report which hypotheses held.

    The family is indexed 0..k-1; relation lists pairs (i, j) meaning i <= j.
    Directedness (any two indices have an upper bound) plus decreasingness
    (larger index, smaller set) force equality for any map between finite
    sets; dropping either admits strict inclusions.
    """
    family = list(family)
    if not family:
        raise InputError("family must be nonempty")
    for m in family:
        if not isinstance(m, SubsetMask) or m.n != pm.dom.n:
            raise InputError(f"family member {m!r} is not a SubsetMask over the domain")
    k = len(family)
    if k > _MAX_FAMILY:
        raise ResourceError(f"family of {k} sets exceeds the cap {_MAX_FAMILY}")
    above, bits = _order_closure(k, relation), [m.bits for m in family]
    inter, rhs = (1 << pm.dom.n) - 1, (1 << pm.cod.n) - 1
    for v in bits:
        inter &= v
        rhs &= pm.image_bits(v)
    lhs = pm.image_bits(inter)
    missing = rhs & ~lhs
    return DirectedImageReport(
        equal=lhs == rhs,
        directed=_directed(above),
        decreasing=_decreasing(above, bits),
        intersection_image=SubsetMask(pm.cod.n, lhs),
        image_intersection=SubsetMask(pm.cod.n, rhs),
        missing=SubsetMask(pm.cod.n, missing) if missing else None,
    )
