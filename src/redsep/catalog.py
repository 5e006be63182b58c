"""Exhaustive enumeration of small spaces, tables and bases.

Topologies on a finite set correspond one-to-one with preorders (open sets
are the up-sets of the specialization order), so topologies are enumerated
by filtering reflexive relations for transitivity.  All enumerations are in
a fixed deterministic order.
"""

from itertools import combinations, product as iproduct

from .errors import ResourceError
from .hausdorff import Base, PREFIX
from .spaces import FinSpace

MAX_ENUM_POINTS = 4
# No cap lifts this one: the filter below runs over 2^(n(n-1)) relations,
# 2^20 at 5 points (seconds) but 2^30 at 6 and 2^42 at 7.
_ENUM_CEILING = 5


def all_topologies(n, max_points=MAX_ENUM_POINTS):
    """Every topology on n labeled points; 1, 1, 4, 29, 355 for n = 0..4."""
    if n > _ENUM_CEILING:
        raise ResourceError(f"topology enumeration stops at {_ENUM_CEILING} points, asked for {n}")
    if n > max_points:
        raise ResourceError(f"topology enumeration capped at {max_points} points")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for pick in range(1 << len(pairs)):
        above = [1 << i for i in range(n)]
        t = pick
        for idx, (i, j) in enumerate(pairs):
            if t >> idx & 1:
                above[i] |= 1 << j
        ok = True
        for i in range(n):
            acc = above[i]
            t2 = acc
            while t2:
                low = t2 & -t2
                acc |= above[low.bit_length() - 1]
                t2 ^= low
            if acc != above[i]:
                ok = False
                break
        if ok:
            out.append(FinSpace(n, _nbhds=above))
    return out


def all_tables(m, n):
    """Every function table from an m-point set to an n-point set, lex order."""
    return [list(t) for t in iproduct(range(n), repeat=m)]


def all_sequences(alphabet, depth):
    """Nonempty sequences over the alphabet up to the depth, length-lex order."""
    out = []
    for length in range(1, depth + 1):
        out.extend(iproduct(range(alphabet), repeat=length))
    return out


def all_bases(alphabet, depth, mode_hint=PREFIX, max_count=4096):
    """Every base over the bounded branch pool (nonempty branch sets)."""
    pool = all_sequences(alphabet, depth)
    if (1 << len(pool)) - 1 > max_count:
        raise ResourceError(
            f"{(1 << len(pool)) - 1} bases over a pool of {len(pool)} branches, "
            f"cap is {max_count}"
        )
    out = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            out.append(Base(alphabet, combo, mode_hint))
    return out
