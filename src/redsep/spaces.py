"""Finite topological spaces with extensionally stored open-set lattices.

Construction goes through minimal neighborhoods: the smallest open set
around x is the intersection of the generating sets containing x, and a set
is open exactly when it contains the minimal neighborhood of each of its
points.  That avoids quadratic closure passes and scales to small products.
"""

from .classes import SetClass
from .errors import InputError, ResourceError
from .masks import SubsetMask, restrict_bits, sort_key

DEFAULT_MAX_POINTS = 5
DEFAULT_MAX_PRODUCT_POINTS = 12


class Partition:
    """Disjoint nonempty blocks covering {0, ..., n-1}, ordered by least point."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        seen = 0
        clean = []
        for blk in blocks:
            if not isinstance(blk, SubsetMask) or blk.n != n:
                raise InputError(f"block {blk!r} is not a SubsetMask over {n} points")
            if blk.bits == 0:
                raise InputError("partition blocks must be nonempty")
            if blk.bits & seen:
                raise InputError(f"block {blk!r} overlaps an earlier block")
            seen |= blk.bits
            clean.append(blk)
        if seen != (1 << n) - 1:
            raise InputError("blocks do not cover the universe")
        clean.sort(key=lambda blk: blk.bits & -blk.bits)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def block_of(self, point):
        for blk in self.blocks:
            if point in blk:
                return blk
        raise InputError(f"point {point!r} outside universe of size {self.n}")

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b.points())) + "}" for b in self.blocks)
        return f"Partition({self.n}, [{inner}])"


class FinSpace:
    """A finite space given by the full list of its open sets."""

    __slots__ = ("n", "opens", "_open_bits")

    def __init__(self, n, opens, _trusted=False):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        bits = set()
        for o in opens:
            if not isinstance(o, SubsetMask) or o.n != n:
                raise InputError(f"open set {o!r} is not a SubsetMask over {n} points")
            bits.add(o.bits)
        full = (1 << n) - 1
        if 0 not in bits or full not in bits:
            raise InputError("opens must contain the empty set and the whole universe")
        if not _trusted:
            ordered = sorted(bits)
            for i, x in enumerate(ordered):
                for y in ordered[i + 1 :]:
                    if x | y not in bits:
                        raise InputError(f"opens not closed under union: {x:b} | {y:b}")
                    if x & y not in bits:
                        raise InputError(f"opens not closed under intersection: {x:b} & {y:b}")
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "opens", tuple(SubsetMask(n, b) for b in sorted(bits, key=sort_key))
        )
        object.__setattr__(self, "_open_bits", frozenset(bits))

    def __setattr__(self, name, value):
        raise AttributeError("FinSpace is immutable")

    @classmethod
    def _from_open_bits(cls, n, bits_iter):
        return cls(n, [SubsetMask(n, b) for b in set(bits_iter)], _trusted=True)

    @classmethod
    def discrete(cls, n):
        return cls._from_open_bits(n, range(1 << n))

    @classmethod
    def indiscrete(cls, n):
        return cls._from_open_bits(n, {0, (1 << n) - 1})

    def open_bits(self):
        return self._open_bits

    def is_open(self, mask):
        return isinstance(mask, SubsetMask) and mask.n == self.n and mask.bits in self._open_bits

    def is_closed(self, mask):
        full = (1 << self.n) - 1
        return (
            isinstance(mask, SubsetMask)
            and mask.n == self.n
            and full ^ mask.bits in self._open_bits
        )

    def is_discrete(self):
        return all(1 << x in self._open_bits for x in range(self.n))

    def min_neighborhoods(self):
        """Per point, the smallest open set containing it."""
        full = (1 << self.n) - 1
        out = []
        for x in range(self.n):
            acc = full
            for b in self._open_bits:
                if b >> x & 1:
                    acc &= b
            out.append(acc)
        return out

    def clopen_bits(self):
        full = (1 << self.n) - 1
        return sorted(
            (b for b in self._open_bits if full ^ b in self._open_bits), key=sort_key
        )

    def universe(self):
        return SubsetMask.full(self.n)

    def __eq__(self, other):
        return (
            isinstance(other, FinSpace) and self.n == other.n and self._open_bits == other._open_bits
        )

    def __hash__(self):
        return hash((self.n, self._open_bits))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, o.points())) + "}" for o in self.opens)
        return f"FinSpace({self.n}, [{inner}])"


def _up_filter_opens(n, min_nbhd):
    """All sets containing the minimal neighborhood of each of their points."""
    opens = []
    for s in range(1 << n):
        t = s
        ok = True
        while t:
            low = t & -t
            if min_nbhd[low.bit_length() - 1] & ~s:
                ok = False
                break
            t ^= low
        if ok:
            opens.append(s)
    return opens


def generate_topology(n, subbasis, max_points=DEFAULT_MAX_POINTS):
    """Smallest topology on n points containing every subbasis set."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"universe size must be a nonnegative int, got {n!r}")
    if n > max_points:
        raise ResourceError(f"{n} points exceed the cap {max_points}")
    full = (1 << n) - 1
    sub_bits = []
    for s in subbasis:
        if not isinstance(s, SubsetMask):
            raise InputError(f"subbasis entry {s!r} is not a SubsetMask")
        if s.n != n:
            raise InputError(f"subbasis entry {s!r} has universe {s.n}, expected {n}")
        sub_bits.append(s.bits)
    min_nbhd = []
    for x in range(n):
        acc = full
        for b in sub_bits:
            if b >> x & 1:
                acc &= b
        min_nbhd.append(acc)
    return FinSpace._from_open_bits(n, _up_filter_opens(n, min_nbhd))


def closed_sets(space):
    """Complements of the open sets."""
    full = (1 << space.n) - 1
    return SetClass.from_bits(space.n, (full ^ b for b in space.open_bits()))


def components(space):
    """Connected components; on finite spaces these are the clopen atoms."""
    clopens = space.clopen_bits()
    full = (1 << space.n) - 1
    blocks = set()
    for x in range(space.n):
        acc = full
        for b in clopens:
            if b >> x & 1:
                acc &= b
        blocks.add(acc)
    return Partition(space.n, [SubsetMask(space.n, b) for b in blocks])


_ZERO_SETS = {}  # space -> its zero sets; the sweeps ask again for the same few hundred spaces
_ZERO_SETS_LIMIT = 512


def zero_sets(space):
    """All unions of connected components, the empty union included, memoised (bounded).

    These are exactly the sets cut out by continuous maps into a discrete
    pair of points: such maps are constant on components.
    """
    if space in _ZERO_SETS:
        return _ZERO_SETS[space]
    out = {0}
    for block in components(space):
        out |= {acc | block.bits for acc in out}
    if len(_ZERO_SETS) >= _ZERO_SETS_LIMIT:
        _ZERO_SETS.clear()
    _ZERO_SETS[space] = zeros = SetClass.from_bits(space.n, out)
    return zeros


def subspace(space, carrier):
    """Trace topology on the carrier, re-indexed to 0..|carrier|-1.

    Returns (space, remap) where remap[i] is the original point of new index i.
    """
    if not isinstance(carrier, SubsetMask) or carrier.n != space.n:
        raise InputError(f"carrier must be a SubsetMask over {space.n} points")
    remap = carrier.points()
    traced = {restrict_bits(b, carrier.bits) for b in space.open_bits()}
    return FinSpace._from_open_bits(len(remap), traced), remap


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


def product(spaces, max_points=DEFAULT_MAX_PRODUCT_POINTS):
    """Product topology; returns (space, codec)."""
    spaces = list(spaces)
    if not spaces:
        raise InputError("product needs at least one factor")
    codec = ProductCodec(s.n for s in spaces)
    total = codec.total()
    if total > max_points:
        raise ResourceError(f"product has {total} points, cap is {max_points}")
    factor_nbhds = [s.min_neighborhoods() for s in spaces]
    min_nbhd = []
    for flat in range(total):
        coords = codec.decode(flat)
        acc = 0
        stack = [(0, 0)]
        # expand the box of factor minimal neighborhoods into flat indices
        while stack:
            depth, prefix = stack.pop()
            if depth == len(spaces):
                acc |= 1 << prefix
                continue
            nb = factor_nbhds[depth][coords[depth]]
            size = spaces[depth].n
            for y in range(size):
                if nb >> y & 1:
                    stack.append((depth + 1, prefix * size + y))
        min_nbhd.append(acc)
    return FinSpace._from_open_bits(total, _up_filter_opens(total, min_nbhd)), codec
