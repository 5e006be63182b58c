"""Finite topological spaces, stored as their specialization preorders.

A topology on finitely many points is its specialization preorder
(Alexandroff 1937).  The minimal neighbourhood U_x, the smallest open set
around x, is the set of points above x, and a set is open exactly when it
contains U_x for each of its points x.  A space stores its n minimal
neighbourhoods and the bitmasks of its open sets.  Components, of the whole
space or of the subspace on a carrier, and products are derived from the
neighbourhoods, and the open sets are wrapped as SubsetMasks only when asked
for.  A space keeps its zero sets once they are first asked for.
"""

from functools import cache

from .classes import SetClass, complement_class
from .errors import InputError, ResourceError
from .masks import SubsetMask, points_of, sort_key, unions

# The one point cap of every instance document: a space, a product and each of its factors, the two spaces
# of a map, and the universe of a class or family.  A space on n points can have 2^n open sets, and reports
# list them all.  No option lifts it.
POINT_CEILING = 12


def _meets(n, sets):
    """Per point, the intersection of the given sets that contain it (everything if none does)."""
    meets = [(1 << n) - 1] * n
    for s in sets:
        t = s
        while t:
            low = t & -t
            meets[low.bit_length() - 1] &= s
            t ^= low
    return meets


class FinSpace:
    """A finite space: its minimal neighbourhoods and the bitmasks of its open sets.

    ``FinSpace(n, nbhds)`` takes the minimal neighbourhoods of a preorder on n
    points, which callers build valid (generate_topology for a subbasis), and
    its opens are their up-filter.
    """

    __slots__ = ("n", "_nbhds", "_open_bits", "_zero_sets")

    def __init__(self, n, nbhds):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_nbhds", tuple(nbhds))
        # the opens are the unions of minimal neighbourhoods: the cost follows
        # the number of open sets rather than the 2^n subsets
        object.__setattr__(self, "_open_bits", frozenset(unions(self._nbhds)))
        object.__setattr__(self, "_zero_sets", None)  # set by zero_sets on first use

    def __setattr__(self, name, value):
        raise AttributeError("FinSpace is immutable")

    @classmethod
    @cache
    def discrete(cls, n):
        """The discrete space on n points, one object per n (a refused n is not kept)."""
        return cls(n, [1 << x for x in range(n)])

    @property
    def opens(self):
        """The open sets as SubsetMasks, in canonical order."""
        return tuple(SubsetMask(self.n, b) for b in sorted(self._open_bits, key=sort_key))

    def open_bits(self):
        return self._open_bits

    def is_discrete(self):
        return all(u == 1 << x for x, u in enumerate(self._nbhds))

    def min_neighborhoods(self):
        """Per point, the smallest open set containing it."""
        return self._nbhds

    def __eq__(self, other):
        return isinstance(other, FinSpace) and self.n == other.n and self._nbhds == other._nbhds

    def __hash__(self):
        return hash((self.n, self._nbhds))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, o.points())) + "}" for o in self.opens)
        return f"FinSpace({self.n}, [{inner}])"


def generate_topology(n, subbasis):
    """Smallest topology on n points containing every subbasis set."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"universe size must be a nonnegative int, got {n!r}")
    if n > POINT_CEILING:
        raise ResourceError(f"{n} points exceed the cap {POINT_CEILING}")
    sub_bits = []
    for s in subbasis:
        if not isinstance(s, SubsetMask):
            raise InputError(f"subbasis entry {s!r} is not a SubsetMask")
        if s.n != n:
            raise InputError(f"subbasis entry {s!r} has universe {s.n}, expected {n}")
        sub_bits.append(s.bits)
    return FinSpace(n, _meets(n, sub_bits))


def open_sets(space):
    """The open sets as a class."""
    return SetClass.from_bits(space.n, space.open_bits())


def closed_sets(space):
    """Complements of the open sets."""
    return complement_class(open_sets(space))


def component_bits(nbhds, carrier):
    """The components of the preorder cut to the carrier bits, as bits ordered by least point.

    Carrier points are connected exactly when a chain of comparable carrier
    points joins them, so a block grows by every cut minimal neighbourhood
    that meets it.  The cut neighbourhoods are those of the subspace on the
    carrier, so these blocks are its components, in ambient indexing.
    """
    cut = [nbhds[x] & carrier for x in points_of(carrier)]
    blocks = []
    left = carrier
    while left:
        block, grown = left & -left, 0
        while block != grown:
            grown = block
            for u in cut:
                if u & grown:
                    block |= u
        blocks.append(block)
        left &= ~block
    return blocks


def components(space):
    """Connected components as SubsetMask blocks, ordered by least point."""
    return tuple(SubsetMask(space.n, b) for b in component_bits(space.min_neighborhoods(), (1 << space.n) - 1))


def zero_sets(space):
    """All unions of connected components, the empty union included, kept on the space.

    These are exactly the sets cut out by continuous maps into a discrete
    pair of points: such maps are constant on components.
    """
    if space._zero_sets is None:
        blocks = component_bits(space.min_neighborhoods(), (1 << space.n) - 1)
        object.__setattr__(space, "_zero_sets", SetClass.from_bits(space.n, unions(blocks)))
    return space._zero_sets


class ProductCodec:
    """Row-major coding of point tuples; the leftmost factor is most significant."""

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        object.__setattr__(self, "sizes", tuple(sizes))

    def __setattr__(self, name, value):
        raise AttributeError("ProductCodec is immutable")

    def encode(self, point_tuple):
        point_tuple = tuple(point_tuple)
        if len(point_tuple) != len(self.sizes):
            raise InputError(f"expected {len(self.sizes)} coordinates, got {point_tuple!r}")
        acc = 0
        for p, size in zip(point_tuple, self.sizes):
            if not isinstance(p, int) or p < 0 or p >= size:
                raise InputError(f"coordinate {p!r} outside factor of size {size}")
            acc = acc * size + p
        return acc

    def decode(self, flat):
        out = []
        for size in reversed(self.sizes):
            out.append(flat % size)
            flat //= size
        if flat:
            raise InputError("flat index outside the product")
        return tuple(reversed(out))

    def total(self):
        acc = 1
        for size in self.sizes:
            acc *= size
        return acc


def product(spaces):
    """Product topology; returns (space, codec)."""
    spaces = list(spaces)
    if not spaces:
        raise InputError("product needs at least one factor")
    codec = ProductCodec(s.n for s in spaces)
    total = codec.total()
    if total > POINT_CEILING:
        raise ResourceError(f"product has {total} points, cap is {POINT_CEILING}")
    # fold in one factor at a time: point x*m + y of the next product has the box of U_x and U_y, the
    # union of U_y shifted to row x' for every x' in U_x (the rows are disjoint)
    nbhds = [1]  # the product of no factors: one point
    for space in spaces:
        m = space.n
        nbhds = [sum(v << x * m for x in points_of(u)) for u in nbhds for v in space.min_neighborhoods()]
    return FinSpace(total, nbhds), codec
