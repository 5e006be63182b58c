"""Brute-force finite set mathematics for the benchmark's oracle and generator.

Nothing here imports redsep: every value the benchmark checks a report
against is recomputed from the definitions.  Sets are bitmasks over points
0..n-1; a class is a set of bitmasks; "canonical order" is cardinality first,
then numeric value, which is the order reports list sets in.
"""

from itertools import product


def bits(points):
    out = 0
    for p in points:
        out |= 1 << p
    return out


def points(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def canonical(masks):
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def topology(n, subbasis):
    """Opens generated by the subbasis: close under finite unions and intersections."""
    full = (1 << n) - 1
    opens = {0, full, *subbasis}
    while True:
        grown = {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        if grown <= opens:
            return opens
        opens |= grown


def closeds(n, opens):
    full = (1 << n) - 1
    return {full ^ u for u in opens}


def clopens(n, opens):
    """Zero sets of a finite space: the sets both open and closed."""
    full = (1 << n) - 1
    return {u for u in opens if full ^ u in opens}


# -- branch-indexed evaluation -------------------------------------------------


def indices(branches, mode):
    """Relevant indices in the engine's order: prefixes length-lex, or symbols."""
    if mode == "prefix":
        idx = {()} | {tuple(br[:k]) for br in branches for k in range(1, len(br) + 1)}
        return sorted(idx, key=lambda s: (len(s), s))
    return sorted({s for br in branches for s in br})


def evaluate(n, branches, mode, value):
    """Pointwise: x is in the outcome when every set along some branch holds x."""
    out = 0
    for x in range(n):
        for br in branches:
            along = [tuple(br[:k]) for k in range(len(br) + 1)] if mode == "prefix" else set(br)
            if all(value[i] >> x & 1 for i in along):
                out |= 1 << x
                break
    return out


def generate(n, branches, mode, generators):
    """Every outcome over assignments of generators; the empty prefix is the universe."""
    free = [i for i in indices(branches, mode) if i != ()]
    outcomes = set()
    for pick in product(sorted(generators), repeat=len(free)):
        value = dict(zip(free, pick))
        value[()] = (1 << n) - 1
        outcomes.add(evaluate(n, branches, mode, value))
    return outcomes


# -- reduction and separation --------------------------------------------------


def reduces(cls, a, b, c, d):
    """(C, D) reduces (a, b) in the class: C <= a, D <= b, disjoint, same union."""
    return c in cls and d in cls and not c & ~a and not d & ~b and not c & d and c | d == a | b


def separates(cls, full, a, b, s):
    """S separates (a, b) in the class: a <= S, b misses S, S ambiguous."""
    return s in cls and full ^ s in cls and not a & ~s and not b & s


def first_reduction(cls, a, b):
    """Canonical-first (C, D) reducing (a, b) inside the class, or None."""
    for c in canonical(cls):
        d = (a | b) & ~c
        if reduces(cls, a, b, c, d):
            return c, d
    return None


def first_separator(cls, full, a, b):
    """Canonical-first ambiguous member containing a and missing b, or None."""
    for s in canonical(cls):
        if separates(cls, full, a, b, s):
            return s
    return None


def pair_scan(cls, full, which):
    """The engine's pair loop by brute force: (pairs checked, failing pair, witnesses).

    Pairs run row-major over canonical order; separation skips pairs that
    meet.  The scan stops at the first pair without a witness.
    """
    order = canonical(cls)
    witnesses = {}
    checked = 0
    for a in order:
        for b in order:
            if which == "separation" and a & b:
                continue
            checked += 1
            if which == "reduction":
                w = first_reduction(cls, a, b)
            else:
                w = first_separator(cls, full, a, b)
            if w is None:
                return checked, (a, b), None
            witnesses[(a, b)] = w
    return checked, None, witnesses


# -- maps ------------------------------------------------------------------------


def image(table, mask):
    return bits(table[x] for x in points(mask))


def preimage(table, mask):
    return bits(x for x, y in enumerate(table) if mask >> y & 1)
