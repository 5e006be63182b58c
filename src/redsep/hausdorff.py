"""Branch-indexed set operations over finite universes.

A Base is a finite set of branches (nonempty sequences over a finite
alphabet).  Applying the operation to an indexed family of sets takes, for
each branch, the intersection of the sets indexed along it, and then the
union over all branches.  Two indexings are supported:

prefix  the index set is the prefix closure of the branches (including the
        empty prefix, which defaults to the whole universe when unassigned);
        a branch intersects the sets indexed by each of its prefixes
range   the index set is the alphabet; a branch intersects the sets indexed
        by the symbols it mentions

The dual operation complements the family, evaluates, and complements the
result; an empty prefix that nothing sets is neutral in both.  eval_lanes is
the one evaluator, for one lane or many, each lane over its own universe.
"""

from itertools import product as iproduct

from .errors import InputError, ModeError, ResourceError
from .masks import SubsetMask

PREFIX = "prefix"
RANGE = "range"
MODES = (PREFIX, RANGE)

MAX_ALPHABET = 6
MAX_DEPTH = 4
MAX_BRANCHES = 4096


def _check_mode(mode):
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")


def _length_lex_key(seq):
    return (len(seq), seq)


def _prefix_closure(seqs):
    """Every prefix of every sequence, the empty one included, in length-lex order."""
    idx = {()}
    for seq in seqs:
        idx.update(seq[:k] for k in range(1, len(seq) + 1))
    return tuple(sorted(idx, key=_length_lex_key))


class Base:
    """A finite set of branches over the alphabet {0, ..., alphabet-1}; it keeps
    its compiled plan in each mode once compiled_plan first builds it."""

    __slots__ = ("alphabet", "branches", "mode_hint", "_plans")

    def __init__(self, alphabet, branches, mode_hint=PREFIX):
        if not isinstance(alphabet, int) or alphabet < 1:
            raise InputError(f"alphabet bound must be a positive int, got {alphabet!r}")
        _check_mode(mode_hint)
        seen = set()
        for br in branches:
            br = tuple(br)
            if not br:
                raise InputError("branches must be nonempty sequences")
            for s in br:
                if not isinstance(s, int) or s < 0 or s >= alphabet:
                    raise InputError(f"branch symbol {s!r} outside alphabet {alphabet}")
            seen.add(br)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "branches", tuple(sorted(seen, key=_length_lex_key)))
        object.__setattr__(self, "mode_hint", mode_hint)
        object.__setattr__(self, "_plans", {})  # mode -> compiled plan, filled by compiled_plan on first use

    def __setattr__(self, name, value):
        raise AttributeError("Base is immutable")

    def prefix_indices(self):
        """All prefixes of all branches, including the empty one, length-lex order."""
        return _prefix_closure(self.branches)

    def range_indices(self):
        """The symbols mentioned by some branch, in increasing order."""
        syms = set()
        for br in self.branches:
            syms.update(br)
        return tuple(sorted(syms))

    def relevant_indices(self, mode):
        _check_mode(mode)
        return self.prefix_indices() if mode == PREFIX else self.range_indices()

    def __eq__(self, other):
        return (
            isinstance(other, Base)
            and self.alphabet == other.alphabet
            and self.branches == other.branches
            and self.mode_hint == other.mode_hint
        )

    def __hash__(self):
        return hash((self.alphabet, self.branches, self.mode_hint))

    def __repr__(self):
        return f"Base({self.alphabet}, {list(self.branches)}, {self.mode_hint!r})"


def compile_positions(base, mode, index_order):
    """Per branch, the positions into index_order of the sets it intersects: the raw-int eval plan."""
    pos = {idx: i for i, idx in enumerate(index_order)}
    if mode == PREFIX:
        return tuple(tuple(pos[br[:k]] for k in range(len(br) + 1)) for br in base.branches)
    return tuple(tuple(pos[s] for s in sorted(set(br))) for br in base.branches)


def compiled_plan(base, mode):
    """The base's relevant indices in a mode and its positions into them, kept on the base."""
    if mode not in base._plans:
        order = base.relevant_indices(mode)
        base._plans[mode] = order, compile_positions(base, mode, order)
    return base._plans[mode]


def eval_plan_bits(plans, values):
    """Union over branches of intersections of values[p]; raw bitmask core."""
    out = 0
    for plan in plans:
        acc = -1
        for p in plan:
            acc &= values[p]
            if not acc:
                break
        if acc:
            out |= acc
    return out


def eval_lanes(positions, values, full, dual=False):
    """eval, or its dual, on packed values, each lane cut to its own universe: full holds (1 << n) - 1 in each
    lane of n points, so one call may mix lanes of different sizes.  A value None is an empty prefix that
    nothing sets, and it is neutral: the whole universe, the empty set under the dual."""
    flip = full if dual else 0
    if flip or None in values:
        values = [full if v is None else v ^ flip for v in values]
    return eval_plan_bits(positions, values) & full ^ flip


class IndexedFamily:
    """An assignment of subsets of a fixed universe to branch indices.

    Prefix-mode keys are tuples of ints, range-mode keys are ints.  Unassigned
    indices fall back to the default; an empty prefix that neither sets is
    free: its value is the full universe, and it stays neutral under the dual.
    """

    __slots__ = ("n", "mode", "assignments", "default")

    def __init__(self, n, mode, assignments, default=None):
        _check_mode(mode)
        if not isinstance(n, int) or n < 0:
            raise InputError(f"universe size must be a nonnegative int, got {n!r}")
        clean = {}
        for key, val in dict(assignments).items():
            if mode == PREFIX:
                key = tuple(key)
                if not all(isinstance(s, int) and s >= 0 for s in key):
                    raise InputError(f"prefix index {key!r} must be a tuple of nonnegative ints")
            else:
                if not isinstance(key, int) or key < 0:
                    raise InputError(f"range index {key!r} must be a nonnegative int")
            if not isinstance(val, SubsetMask) or val.n != n:
                raise InputError(f"value for index {key!r} must be a SubsetMask over {n} points")
            clean[key] = val
        if default is not None and (not isinstance(default, SubsetMask) or default.n != n):
            raise InputError(f"default must be a SubsetMask over {n} points or None")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "assignments", clean)
        object.__setattr__(self, "default", default)

    def __setattr__(self, name, value):
        raise AttributeError("IndexedFamily is immutable")

    @classmethod
    def from_list(cls, n, values, default=None):
        """Range-mode family assigning values[i] to symbol i."""
        return cls(n, RANGE, dict(enumerate(values)), default)

    def value(self, index):
        if self.mode == PREFIX:
            index = tuple(index)
        if index in self.assignments:
            return self.assignments[index]
        if self.default is not None:
            return self.default
        if self.mode == PREFIX and index == ():
            return SubsetMask.full(self.n)
        raise InputError(f"no value assigned to index {index!r} and no default set")

    def free_root(self):
        """Is the empty prefix free: prefix-indexed, unassigned, and without a default?"""
        return self.mode == PREFIX and () not in self.assignments and self.default is None

    def map_values(self, fn, n=None):
        """Apply fn to every assigned value and to the default, giving a family over n points (by default the
        family's own); a free empty prefix stays free."""
        assignments = {k: fn(v) for k, v in self.assignments.items()}
        default = fn(self.default) if self.default is not None else None
        return IndexedFamily(self.n if n is None else n, self.mode, assignments, default)

    def __repr__(self):
        return (
            f"IndexedFamily({self.n}, {self.mode!r}, {self.assignments!r}, "
            f"default={self.default!r})"
        )


def evaluate(base, family, mode=None, dual=False):
    """Union over branches of the intersections indexed along each branch, or
    with dual=True the dual operation: one lane of eval_lanes."""
    if mode is None:
        mode = family.mode
    _check_mode(mode)
    if mode != family.mode:
        raise ModeError(f"family is {family.mode}-indexed, cannot evaluate in {mode} mode")
    order, plans = compiled_plan(base, mode)
    free = family.free_root()
    values = [None if free and idx == () else family.value(idx).bits for idx in order]
    return SubsetMask(family.n, eval_lanes(plans, values, (1 << family.n) - 1, dual))


# contract name for the operation
eval = evaluate


def dual_evaluate(base, family, mode=None):
    """Universe minus the evaluation of the complemented family; a free empty prefix stays neutral."""
    return evaluate(base, family, mode, dual=True)


dual_eval = dual_evaluate


def decreasing_replacement(family):
    """Replace each value by the intersection along all its prefixes.

    Values are materialized on the prefix closure of the assigned keys but a
    free empty prefix, so evaluation agrees with the input for every base whose
    indices lie in that closure, and the result decreases along branches.
    """
    if family.mode != PREFIX:
        raise ModeError("decreasing replacement is defined for prefix-mode families only")
    out = {}
    # a free empty prefix, first in length-lex order, stays free
    for key in _prefix_closure(family.assignments)[family.free_root():]:
        acc = SubsetMask.full(family.n)
        for k in range(len(key) + 1):
            acc = acc & family.value(key[:k])
        out[key] = acc
    return IndexedFamily(family.n, PREFIX, out, None)


def canonical_base(kind, *params):
    """Stock bases: union(m), intersection(m), a_operation(alphabet, depth)."""
    if kind == "union":
        (m,) = params
        if m < 1 or m > MAX_ALPHABET:
            raise ResourceError(f"union arity {m} outside 1..{MAX_ALPHABET}")
        return Base(m, [(i,) for i in range(m)], RANGE)
    if kind == "intersection":
        (m,) = params
        if m < 1 or m > MAX_ALPHABET:
            raise ResourceError(f"intersection arity {m} outside 1..{MAX_ALPHABET}")
        return Base(m, [tuple(range(m))], RANGE)
    if kind == "a_operation":
        alphabet, depth = params
        if alphabet < 1 or alphabet > MAX_ALPHABET:
            raise ResourceError(f"alphabet {alphabet} outside 1..{MAX_ALPHABET}")
        if depth < 1 or depth > MAX_DEPTH:
            raise ResourceError(f"depth {depth} outside 1..{MAX_DEPTH}")
        if alphabet**depth > MAX_BRANCHES:
            raise ResourceError(
                f"a_operation({alphabet}, {depth}) has {alphabet**depth} branches, "
                f"cap is {MAX_BRANCHES}"
            )
        return Base(alphabet, iproduct(range(alphabet), repeat=depth), RANGE)
    raise InputError(f"unknown canonical base kind {kind!r}")
