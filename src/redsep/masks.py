"""Subsets of a finite universe {0, ..., n-1} as immutable bitmasks.

The canonical order used everywhere (class members, report tables, witness
search) is cardinality first, then the numeric bit value.
"""

from .errors import InputError, ResourceError


def bits_of(points, n):
    """Pack an iterable of points into a bitmask, validating the range."""
    bits = 0
    for p in points:
        if not isinstance(p, int) or p < 0 or p >= n:
            raise InputError(f"point {p!r} outside universe of size {n}")
        bits |= 1 << p
    return bits


def points_of(bits):
    """Unpack a bitmask into a sorted tuple of points."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def restrict_bits(bits, carrier_bits):
    """Trace bits on the carrier, compressed to indices 0..|carrier|-1."""
    out = 0
    pos = 0
    while carrier_bits:
        if carrier_bits & 1:
            if bits & 1:
                out |= 1 << pos
            pos += 1
        carrier_bits >>= 1
        bits >>= 1
    return out


def unions(sets):
    """Every union of a subfamily of the bitmasks, the empty union 0 included, as a set of bits.

    A set already found adds nothing and any other at most doubles what was
    found, so the cost follows the number of unions, not of subfamilies.
    """
    out = {0}
    for s in sets:
        if s not in out:
            out |= {u | s for u in out}
    return out


def sort_key(bits):
    """Canonical order: cardinality, then numeric value."""
    return (bits.bit_count(), bits)


class SubsetMask:
    """An immutable subset of {0, ..., n-1}."""

    __slots__ = ("n", "bits")

    def __init__(self, n, bits=0):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        if not isinstance(bits, int) or bits < 0 or bits >> n:
            raise InputError(f"bits {bits!r} not a subset of a {n}-point universe")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("SubsetMask is immutable")

    @classmethod
    def from_points(cls, n, points):
        return cls(n, bits_of(points, n))

    @classmethod
    def empty(cls, n):
        return cls(n, 0)

    @classmethod
    def full(cls, n):
        return cls(n, (1 << n) - 1)

    def points(self):
        return points_of(self.bits)

    def card(self):
        return self.bits.bit_count()

    def complement(self):
        return SubsetMask(self.n, ((1 << self.n) - 1) ^ self.bits)

    def _check_universe(self, other):
        if not isinstance(other, SubsetMask):
            raise InputError(f"expected SubsetMask, got {type(other).__name__}")
        if other.n != self.n:
            raise InputError(f"universe mismatch: {self.n} vs {other.n}")

    def __or__(self, other):
        self._check_universe(other)
        return SubsetMask(self.n, self.bits | other.bits)

    def __and__(self, other):
        self._check_universe(other)
        return SubsetMask(self.n, self.bits & other.bits)

    def __sub__(self, other):
        self._check_universe(other)
        return SubsetMask(self.n, self.bits & ~other.bits)

    def issubset(self, other):
        self._check_universe(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other):
        return self.issubset(other)

    def __contains__(self, point):
        return isinstance(point, int) and 0 <= point < self.n and self.bits >> point & 1

    def sort_key(self):
        return (self.bits.bit_count(), self.bits)

    def __lt__(self, other):
        self._check_universe(other)
        return self.sort_key() < other.sort_key()

    def __eq__(self, other):
        return (
            isinstance(other, SubsetMask) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))

    def __bool__(self):
        return self.bits != 0

    def __repr__(self):
        return f"SubsetMask({self.n}, {{{', '.join(map(str, self.points()))}}})"


# ---------------------------------------------------------------------------
# lanes: a packed int holds many subsets side by side, lane i in byte i (least
# significant first), or in `width` bytes.  Branch-indexed operations act point
# by point, so one kernel call evaluates every lane.  One-byte lanes hold
# subsets of at most 8 points and map through bytes.translate tables.

LANE_POINTS = 8


def pack_lanes(values):
    """One int holding values[i] in lane i."""
    try:
        return int.from_bytes(bytes(values), "little")
    except ValueError:
        raise ResourceError(f"a one-byte lane holds subsets of at most {LANE_POINTS} points") from None


def lane_table(values):
    """The table under which map_runs sends a lane holding v to values[v] (no lane holds v > 255)."""
    return pack_lanes(values[: 1 << LANE_POINTS]).to_bytes(1 << LANE_POINTS, "little")


def map_runs(packed, sizes, tables):
    """The packed int with every lane v of its i-th run of sizes[i] lanes replaced by tables[i][v]."""
    raw, at, out = packed.to_bytes(sum(sizes), "little"), 0, []
    for size, table in zip(sizes, tables):
        out.append(raw[at : at + size].translate(table))
        at += size
    return int.from_bytes(b"".join(out), "little")


def replicate(bits, lanes, width=1):
    """bits copied into each of `lanes` lanes of `width` bytes."""
    return int.from_bytes(bits.to_bytes(width, "little") * lanes, "little")


def lanes_of(packed, lanes, width=1):
    """The subsets in the first `lanes` lanes of a packed int, lane 0 first."""
    raw = packed.to_bytes(lanes * width, "little")
    return raw if width == 1 else [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
