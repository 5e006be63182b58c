"""Exhaustive enumeration of small spaces, tables and bases.

A topology on finitely many points is its specialization preorder (open
sets are the up-sets), so topologies are enumerated as preorders, one point
at a time: each preorder on x + 1 points extends exactly one preorder on the
first x.  All enumerations are in a fixed deterministic order.
"""

from itertools import combinations, product as iproduct

from .errors import ResourceError
from .hausdorff import Base, PREFIX
from .masks import points_of, unions
from .spaces import FinSpace

# No cap lifts this one: 6 points carry 209,527 topologies, whose FinSpaces take seconds and
# over 200 MB to build, and zero-trace-gap alone would sweep about 13.4M cases over them.
_ENUM_CEILING = 5
MAX_BASES = 4096


def _preorders(n):
    """Every preorder on n points as its above-masks (the minimal neighbourhoods).

    A preorder on points 0..x restricts to a preorder P on 0..x-1, and the new
    point x is fixed by its strict up-set U, an up-set of P, and its down-set D,
    a down-set of P whose points all lie below U.  The triple (P, U, D) is
    unique, so every preorder is reached once and none needs a transitivity check.
    """
    orders = [()]
    for x in range(n):
        grown, full = [], (1 << x) - 1
        for above in orders:
            ups = unions(above)
            for up in ups:
                for down in (full ^ u for u in ups):
                    if all(above[d] & up == up for d in points_of(down)):
                        lifted = tuple(a | 1 << x if down >> i & 1 else a for i, a in enumerate(above))
                        grown.append((*lifted, up | 1 << x))
        orders = grown
    return orders


def _relation_key(above):
    """The relation's off-diagonal pairs (i, j) with j above i as bits, row-major from (0, 1) up."""
    n = len(above)
    return sum(((a & (1 << i) - 1) | (a >> i + 1 << i)) << i * (n - 1) for i, a in enumerate(above))


def all_topologies(n):
    """Every topology on n labeled points, ordered by relation key; 1, 1, 4, 29, 355, 6942 for n = 0..5."""
    if n > _ENUM_CEILING:
        raise ResourceError(f"topology enumeration stops at {_ENUM_CEILING} points, asked for {n}")
    return [FinSpace(n, above) for above in sorted(_preorders(n), key=_relation_key)]


def all_tables(m, n):
    """Every function table from an m-point set to an n-point set, lex order."""
    return [list(t) for t in iproduct(range(n), repeat=m)]


def all_sequences(alphabet, depth):
    """Nonempty sequences over the alphabet up to the depth, length-lex order."""
    out = []
    for length in range(1, depth + 1):
        out.extend(iproduct(range(alphabet), repeat=length))
    return out


def all_bases(alphabet, depth):
    """Every base over the bounded branch pool (nonempty branch sets), in prefix mode."""
    pool = all_sequences(alphabet, depth)
    if (1 << len(pool)) - 1 > MAX_BASES:
        raise ResourceError(
            f"{(1 << len(pool)) - 1} bases over a pool of {len(pool)} branches, "
            f"cap is {MAX_BASES}"
        )
    out = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            out.append(Base(alphabet, combo, PREFIX))
    return out
