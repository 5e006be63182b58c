"""Shared fixtures and strategies.

Structural pools (spaces, bases, tables) are precomputed once and sampled;
that keeps the property tests fast and their shrunk counterexamples readable.
"""

from io import BytesIO
from itertools import chain
from itertools import product as iproduct

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from redsep import (
    MODES,
    PREFIX,
    REDUCTION,
    FinSpace,
    IndexedFamily,
    SetClass,
    SubsetMask,
    alg_enumerate,
    all_bases,
    all_tables,
    all_topologies,
    generate_topology,
    zero_sets,
)
from redsep import suites
from redsep.classes import _pairs, _reduction_witness, _separation_witness
from redsep.masks import lane_table, map_runs, pack_lanes, restrict_bits

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

SPACE_POOL = [s for k in range(4) for s in all_topologies(k)]
BASE_POOL = all_bases(2, 2)
TABLE_POOL = [
    (n, m, tuple(t)) for n in range(4) for m in range(1, 4) for t in all_tables(n, m)
]


@pytest.fixture
def sierpinski():
    return generate_topology(2, [SubsetMask.from_points(2, [1])])


@pytest.fixture
def five_open():
    """Three points whose opens are {}, {1}, {0,1}, {1,2}, and everything."""
    return generate_topology(
        3, [SubsetMask.from_points(3, p) for p in ([1], [0, 1], [1, 2])]
    )


@pytest.fixture
def chain3():
    """Three points with nested opens {}, {2}, {1,2}, {0,1,2}."""
    return generate_topology(3, [SubsetMask.from_points(3, p) for p in ([2], [1, 2])])


@pytest.fixture
def connected3():
    """A connected non-discrete space whose 2-point subspaces go discrete."""
    return generate_topology(
        3, [SubsetMask.from_points(3, p) for p in ([1], [2], [1, 2])]
    )


def mask(n, points):
    return SubsetMask.from_points(n, points)


def sclass(n, sets):
    return SetClass(n, [SubsetMask.from_points(n, s) for s in sets])


def power_set(n):
    """Every subset of n points, as a class."""
    return SetClass.from_bits(n, range(1 << n))


def family_doc(family):
    """An indexed family as instance documents spell it; a prefix key joins its symbols with commas."""
    def key(idx):
        return ",".join(map(str, idx)) if family.mode == PREFIX else str(idx)

    return {
        "universe": family.n,
        "mode": family.mode,
        "assignments": {key(idx): list(v.points()) for idx, v in family.assignments.items()},
        "default": None if family.default is None else list(family.default.points()),
    }


def class_doc(sc):
    """A class as instance documents spell it: its members' points in canonical order."""
    return {"universe": sc.n, "members": [list(m.points()) for m in sc]}


def _points(x):
    """The point set of a SubsetMask or of bits."""
    return set(x.points()) if isinstance(x, SubsetMask) else {p for p in range(x.bit_length()) if x >> p & 1}


def witness_holds(which, a, b, witness, sc=None):
    """An independent check, on point sets, that the witness bits reduce or
    separate (a, b); with a class, that the witness sets are members, and for
    separation that the separator's complement is a member too."""
    a, b, sets = _points(a), _points(b), [_points(x) for x in witness]
    if which == REDUCTION:
        c, d = sets
        ok = c <= a and d <= b and not c & d and c | d == a | b
    else:
        (s,) = sets
        ok = a <= s and not b & s
    if sc is None or not ok:
        return ok
    members = [set(m.points()) for m in sc]
    if which != REDUCTION:
        sets.append(set(range(sc.n)) - s)
    return all(x in members for x in sets)


def canonical_witness(sc, which, a, b):
    """The property's per-pair search on masks or bits (a, b) in sc: the witness bits, or None."""
    a, b = (x.bits if isinstance(x, SubsetMask) else x for x in (a, b))
    return (_reduction_witness if which == REDUCTION else _separation_witness)(sc, a, b)


def checked_pairs(sc, which):
    """(a, b, witness bits or None) for each pair of member bits that the property checks, row-major in
    canonical order: the scan a check makes, written as a generator."""
    return ((a, b, canonical_witness(sc, which, a, b)) for a, b in _pairs(sc, which))


def subspace(space, carrier):
    """Trace topology on the carrier mask, re-indexed to 0..|carrier|-1: (space, remap),
    remap[i] being the original point of new index i."""
    remap = carrier.points()
    nbhds = space.min_neighborhoods()
    return FinSpace(len(remap), [restrict_bits(nbhds[x], carrier.bits) for x in remap]), remap


def restrict_class(sc, carrier):
    """Traces of members on the carrier mask, re-indexed to 0..|carrier|-1."""
    return SetClass.from_bits(carrier.card(), (restrict_bits(b, carrier.bits) for b in sc.member_bits()))


def gap_oracle(space, carrier):
    """(traces, intrinsic, gap) as classes over the re-indexed carrier, by building the
    subspace: the ambient zero sets restricted, and the subspace's own zero sets."""
    traces = restrict_class(zero_sets(space), carrier)
    intrinsic = zero_sets(subspace(space, carrier)[0])
    return traces, intrinsic, SetClass.from_bits(intrinsic.n, intrinsic.member_bits() - traces.member_bits())


def opposite(above):
    """The minimal neighbourhoods of the opposite preorder: x lies in the new U_y exactly when y lies in U_x."""
    return [sum(1 << x for x in range(len(above)) if above[x] >> y & 1) for y in range(len(above))]


def opens_reduce(above):
    """R of the opens, in closed form from the minimal neighbourhoods U_x: any two U_x that meet are nested.

    A pair (A, B) of opens reduces exactly when no component of A u B meets both A - B and B - A, since a
    reduction splits A u B into two relatively clopen parts; a failure shrinks to two meeting U_x, U_y, neither
    inside the other.  R of the closeds is this on the opposite preorder.
    """
    return all(not a & b or not a & ~b or not b & ~a for a in above for b in above)


def opens_separate(above):
    """S of the opens, in closed form: inside each component every two U_x meet, that is, "U_x meets U_y" is
    transitive (points of one component are joined by a chain of meeting U_x).  The ambiguous opens are the
    clopens, the unions of components.  S of the closeds is this on the opposite preorder.
    """
    meets = [{y for y, b in enumerate(above) if a & b} for a in above]
    return all(meets[y] <= near for near in meets for y in near)


def partial_orders(k):
    """Every partial order on 0..k-1 as its set of pairs (i, j), i != j, meaning i <= j: each antisymmetric,
    transitive set of such pairs."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for keep in iproduct((False, True), repeat=len(pairs)):
        order = {p for p, kept in zip(pairs, keep) if kept}
        antisymmetric = all((j, i) not in order for i, j in order)
        if antisymmetric and all((i, l) in order for i, j in order for j2, l in order if j == j2 and i != l):
            yield sorted(order)


def directed_image_oracle(pm, order, family):
    """directed_image_check point by point, for a partial order given as all its pairs (i, j), i != j:
    (F(intersection), intersection of the F(A_i), directed, decreasing), the two sides as point sets read
    through the map's table."""
    sets = [set(m.points()) for m in family]
    leq = set(order) | {(i, i) for i in range(len(sets))}
    meet = set.intersection(*sets)
    image_meet = {pm.table[x] for x in meet}
    meet_images = set.intersection(*({pm.table[x] for x in s} for s in sets))
    indices = range(len(sets))
    directed = all(any((i, u) in leq and (j, u) in leq for u in indices) for i in indices for j in indices)
    decreasing = all(sets[j] <= sets[i] for i, j in leq)
    return image_meet, meet_images, directed, decreasing


def sweep_oracle(bounds, pools, rng, budget, modes=MODES, exhaust=True):
    """The sweep assembled one (plan, pool entry) at a time: every entry lays out pool^k per k and draws
    its samples through the sampler into a stream that each plan reads its part of.  Yields
    (index, plan, sizes, lanes, raw, columns) per plan."""
    plans, layouts = suites._plans(bounds, modes), []
    for pool in pools:
        pool = pack_lanes(pool).to_bytes(len(pool), "little")
        corners, cases = pool[:3] if exhaust else b"", {}
        for k in {len(plan.order) for plan in plans}:
            if exhaust and len(pool) ** k <= max(64, budget):
                cases[k] = len(pool) ** k, bytes(chain.from_iterable(iproduct(pool, repeat=k))), 0
            else:
                cases[k] = len(corners) + budget, b"".join(bytes([v]) * k for v in corners), budget * k
        drawn = suites._sample(pool, sum(cases[len(plan.order)][2] for plan in plans), rng)
        layouts.append((cases, BytesIO(drawn)))
    for index, plan in enumerate(plans):
        k, sizes, parts = len(plan.order), [], []
        for cases, drawn in layouts:
            lanes, raw, count = cases[k]
            sizes.append(lanes)
            parts += raw, drawn.read(count)
        raw = b"".join(parts)
        yield index, plan, sizes, sum(sizes), raw, [int.from_bytes(raw[j::k], "little") for j in range(k)]


def closure_oracle(pms, sizes, packed):
    """algebra-closure's membership check by tables: run e of sizes[e] lanes of packed looked up, lane by lane,
    in a table of the enumerated algebra of pms[e].  The result holds 1 in each lane whose set lies in it."""
    tables = []
    for pm in pms:
        alg = alg_enumerate(pm).member_bits()
        tables.append(lane_table([bits in alg for bits in range(1 << pm.dom.n)]))
    return map_runs(packed, sizes, tables)


spaces = st.sampled_from(SPACE_POOL)
bases = st.sampled_from(BASE_POOL)
modes = st.sampled_from(MODES)
tables = st.sampled_from(TABLE_POOL)


def masks(n):
    return st.integers(0, (1 << n) - 1).map(lambda b: SubsetMask(n, b))


def set_classes(n):
    return st.lists(masks(n), min_size=1, max_size=4).map(lambda ms: SetClass(n, set(ms)))


@st.composite
def base_mode_families(draw, value_pool=None):
    """A base, a mode, and a family assigning every relevant index."""
    base = draw(bases)
    mode = draw(modes)
    n = draw(st.integers(0, 3))
    pool = value_pool(n) if value_pool else masks(n)
    assignments = {idx: draw(pool) for idx in base.relevant_indices(mode)}
    return base, mode, IndexedFamily(n, mode, assignments)
