"""Exhaustive and seeded property suites over the finite catalog.

Each suite quantifies its structural parameters (spaces, bases, maps,
orders, carriers) exhaustively within bounds, and draws family assignments
exhaustively while the assignment space stays small, falling back to
constant corner cases plus a seeded sample otherwise.  A run is fully
deterministic for a fixed (suite, bounds, seed, budget).

The sweeping suites share one layer: a structural pool (spaces or table
maps), the compiled plan of every (base, mode) pair, built once per
(alphabet, depth), and per plan the assignments of a run of pool entries,
which one kernel call evaluates as the lanes of packed ints (see ``masks``).
The kernel takes each lane's universe packed beside the values, so the map
suites run their maps in enumeration order across domain and codomain sizes.
Distributivity and restriction keep the spaces of one point count together:
they copy each case once per mask or carrier, and how many copies depends on
the point count.  Equal pools share one layout of pool^k per k, and each
pool entry draws all its samples in one pass, as it would alone.

Findings are plain JSON-ready documents.  A violation is a broken law and
fails the suite; a witness is an expected counterexample (the suites that
drop a hypothesis must produce at least one).  Every finding replays:
``replay_finding`` re-runs the single stored instance through the public
operations and reports whether it still triggers.
"""

import random
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, chain, combinations, groupby, islice
from itertools import product as iproduct
from operator import and_, or_

from . import serialize
from .catalog import all_bases, all_tables, all_topologies
from .classes import (
    REDUCTION,
    SEPARATION,
    _pairs,
    check,
    check_reduction,
    complement_class,
    reduction_to_separation,
    separates,
)
from .errors import InputError, PreconditionError, ResourceError
from .hausdorff import (
    MODES,
    PREFIX,
    RANGE,
    Base,
    IndexedFamily,
    canonical_base,
    compiled_plan,
    decreasing_replacement,
    dual_evaluate,
    eval_lanes,
    eval_plan_bits,  # noqa: F401 -- not called here; the benchmark's tracer tests read the kernel through this binding
    evaluate,
)
from .maps import PointMap, _directed, alg_contains, alg_enumerate, diagonal_product, directed_image_check
from .masks import (
    LANE_POINTS,
    SubsetMask,
    lane_table,
    lanes_of,
    map_runs,
    pack_lanes,
    points_of,
    replicate,
    restrict_bits,
)
from .spaces import FinSpace, open_sets, zero_sets
from .transfer import transfer_property, zero_trace_gap, zero_witness_map


@dataclass(frozen=True)
class Bounds:
    """Structural size ceilings for one suite run."""

    max_points: int = 3
    alphabet: int = 2
    depth: int = 2


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    violations: tuple
    witnesses: tuple
    violation_count: int
    witness_count: int
    expects_witnesses: bool

    @property
    def passed(self):
        if self.violation_count:
            return False
        if self.expects_witnesses and not self.witness_count:
            return False
        return True

    def summary(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {self.cases} cases, {self.violation_count} violations, "
            f"{self.witness_count} witnesses [{verdict}]"
        )


class _Collector:
    """Counts cases and findings, keeping only the first few full documents."""

    def __init__(self, name, keep):
        self.name = name
        self.keep = keep
        self.cases = 0
        self.docs = {"violation": [], "witness": []}
        self.counts = {"violation": 0, "witness": 0}

    def add(self, kind, instance, detail):
        self.counts[kind] += 1
        if len(self.docs[kind]) < self.keep:
            self.docs[kind].append({"suite": self.name, "kind": kind, "instance": instance, "detail": detail})

    def tally(self, kind, build):
        """add, with the (instance, detail) that build() returns, called only while the kind's documents are kept."""
        if len(self.docs[kind]) < self.keep:
            self.add(kind, *build())
        else:
            self.counts[kind] += 1

    def violation(self, instance, detail):
        self.add("violation", instance, detail)


# ---------------------------------------------------------------------------
# the sweep layer

# One compiled evaluation plan: the base's relevant indices in `order`, and
# per branch the positions into `order` whose values it intersects.
_Plan = namedtuple("_Plan", "base mode order positions")


def _plan(base, mode):
    return _Plan(base, mode, *compiled_plan(base, mode))


@cache
def _compiled(alphabet, depth):
    """Every base of the bounded branch pool, compiled in each mode, base-major."""
    return tuple(_plan(base, mode) for base in all_bases(alphabet, depth) for mode in MODES)


def _plans(bounds, modes=MODES):
    return [plan for plan in _compiled(bounds.alphabet, bounds.depth) if plan.mode in modes]


# The one-branch base {00}: prefix families (X, {x}, {y}) over it witness
# that image commutation needs decreasingness once a map merges x and y.
_PROBE = _plan(Base(1, [(0, 0)], PREFIX), PREFIX)


@cache
def _spaces(max_points):
    # largest first, so a bound past the enumeration ceiling is refused before anything is enumerated
    by_size = [all_topologies(k) for k in range(max_points, -1, -1)]
    return tuple(space for spaces in reversed(by_size) for space in spaces)


def _check_lane_points(*sizes):
    """Refuse point counts over LANE_POINTS: a one-byte lane holds subsets of at most that many points."""
    if max(sizes, default=0) > LANE_POINTS:
        raise ResourceError(f"a one-byte lane holds subsets of at most {LANE_POINTS} points")


def _maps(domains, codomains):
    """Every table map between discrete spaces, domain size outermost, tables in lex order; sizes over
    LANE_POINTS are refused before the first map."""
    _check_lane_points(*domains, *codomains)
    for n in domains:
        for m in codomains:
            for table in all_tables(n, m):
                yield PointMap(FinSpace.discrete(n), FinSpace.discrete(m), table)


def _image_table(pm):
    """Lane table of the image of every domain subset."""
    return lane_table([pm.image_bits(bits) for bits in range(1 << pm.dom.n)])


@cache
def _posets(k):
    """Partial orders on 0..k-1 as above-masks: the minimal neighborhoods of T0 spaces."""
    orders = (space.min_neighborhoods() for space in all_topologies(k))
    return tuple(sorted({above for above in orders if len(set(above)) == k}))


def _order_pairs(above):
    return [[i, j] for i in range(len(above)) for j in range(len(above)) if i != j and above[i] >> j & 1]


# The largest sampling budget (a plan draws budget * k values), and the most random bytes the sampler draws at once.
MAX_BUDGET = 1 << 16


def _sample(pool, count, rng):
    """`count` values of the byte pool, one random byte per value: byte b gives pool[b % len(pool)], and bytes
    at or above 256 - 256 % len(pool) are deleted and the shortfall redrawn, so each pool value is equally
    likely.  Random bytes are drawn at most MAX_BUDGET at a time."""
    if not count:
        return b""
    if not pool:
        raise ValueError(f"cannot draw {count} values from an empty pool")
    table, rejected = (pool * (256 // len(pool) + 1))[:256], bytes(range(256 - 256 % len(pool), 256))
    out = bytearray()
    while len(out) < count:
        out += rng.randbytes(min(count - len(out), MAX_BUDGET)).translate(table, rejected)
    return bytes(out)


def _columns(raw, k):
    """Coordinate j of every case of case-major bytes, packed one lane per case."""
    return [int.from_bytes(raw[j::k], "little") for j in range(k)]


def _case(plan, raw, i):
    """Case i of a batch's case-major bytes."""
    return tuple(raw[i * len(plan.order) : (i + 1) * len(plan.order)])


# A plan's index and assignments from a run of pools: lanes per pool, total lanes, case-major bytes, columns.
_Batch = namedtuple("_Batch", "index plan sizes lanes raw columns")

# Per plan, a pool's lanes, its enumerated or corner cases, its sample count, and where the samples lie in its draws.
_Layout = namedtuple("_Layout", "lanes fixed counts cuts")


def _layout(pool, ks, budget, exhaust):
    """The layout of a pool (bytes) for plans of ks indices: pool^k while small, else corners and samples."""
    corners, by_k = pool[:3] if exhaust else b"", {}
    for k in set(ks):
        if exhaust and len(pool) ** k <= max(64, budget):
            by_k[k] = len(pool) ** k, bytes(chain.from_iterable(iproduct(pool, repeat=k))), 0
        else:
            by_k[k] = len(corners) + budget, b"".join(bytes([v]) * k for v in corners), budget * k
    lanes, fixed, counts = (tuple(by_k[k][i] for k in ks) for i in range(3))  # empty when there are no plans
    return _Layout(lanes, fixed, counts, list(map(slice, accumulate(counts, initial=0), accumulate(counts))))


def _sweep(bounds, pools, rng, budget, modes=MODES, exhaust=True):
    """Per plan of the bounds, the assignments from every pool back to back: one batch of lanes.

    A plan gets all of pool^k while that stays small, and otherwise the constant corners plus `budget`
    samples; without `exhaust` it gets only the samples.  Equal pools share one layout.  Pool by pool,
    before the first batch, the samples of all sampled plans are drawn together, in plan order.  No pools
    give no batches.
    """
    plans = _plans(bounds, modes)
    ks = [len(plan.order) for plan in plans]
    layouts, lanes, parts = {}, [], []
    for pool in pools:
        pool = pack_lanes(pool).to_bytes(len(pool), "little")  # raises ResourceError on values over 8 points
        if pool not in layouts:
            layouts[pool] = _layout(pool, ks, budget, exhaust)
        layout = layouts[pool]
        drawn = _sample(pool, sum(layout.counts), rng)
        lanes.append(layout.lanes)
        parts.append(zip(layout.fixed, map(drawn.__getitem__, layout.cuts)))
    for index, (plan, k, sizes, row) in enumerate(zip(plans, ks, zip(*lanes), zip(*parts))):
        raw = b"".join(chain.from_iterable(row))
        yield _Batch(index, plan, list(sizes), sum(sizes), raw, _columns(raw, k))


def _entry(batch, lane):
    """The pool entry whose lanes hold the lane."""
    return next(e for e, end in enumerate(accumulate(batch.sizes)) if lane < end)


# Pool entries per batch at most: enough to amortise a kernel call, few enough to keep 5-point batches small.
GROUP_ENTRIES = 256


def _groups(col, entries, key=lambda entry: None):
    """Runs of at most GROUP_ENTRIES consecutive entries with equal keys, each with a list for its (key, kind,
    instance, detail) findings, reported in key order once the run is done."""
    for _, run in groupby(entries, key):
        while chunk := list(islice(run, GROUP_ENTRIES)):
            found = []
            yield chunk, found
            for _, kind, instance, detail in sorted(found, key=lambda f: f[0]):
                col.add(kind, instance, detail)


def _differing(lanes, *pairs):
    """(lane, pair index, left, right) wherever a pair of packed values differs, lane by lane."""
    if all(left == right for left, right in pairs):
        return []
    pairs = [(lanes_of(left, lanes), lanes_of(right, lanes)) for left, right in pairs]
    return [(i, j, a[i], b[i]) for i in range(lanes) for j, (a, b) in enumerate(pairs) if a[i] != b[i]]


def _universes(pms):
    """A function from a batch over the maps to its packed domain and codomain universes: (1 << n) - 1 in each of
    the lanes of pms[e], for its n points.  A batch's lanes depend on its plan's k only, so each k is packed once."""
    units, packed = [[bytes([(1 << getattr(pm, side).n) - 1]) for pm in pms] for side in ("dom", "cod")], {}

    def universes(batch):
        k = len(batch.plan.order)
        if k not in packed:
            packed[k] = [int.from_bytes(b"".join(map(bytes.__mul__, side, batch.sizes)), "little") for side in units]
        return packed[k]

    return universes


def _image_pair(dom, cod, sizes, imgs, positions, values):
    """F(eval(values)) and eval(F(values)) on packed values, each lane cut to the domain universe in dom and then
    to the codomain universe in cod; F maps run i of sizes[i] lanes by imgs[i]."""
    rhs = eval_lanes(positions, [map_runs(v, sizes, imgs) for v in values], cod)
    return map_runs(eval_lanes(positions, values, dom), sizes, imgs), rhs


def _merge_witness(pm):
    """The first probe family over two merged points that breaks image commutation, or None."""
    _check_lane_points(pm.dom.n, pm.cod.n)
    n = pm.dom.n
    merged = [(x, y) for x in range(n) for y in range(n) if x != y and pm.table[x] == pm.table[y]]
    cases = [((1 << n) - 1, 1 << x, 1 << y) for x, y in merged]
    columns = _columns(bytes(chain.from_iterable(cases)), 3)
    dom, cod = (replicate((1 << size) - 1, len(cases)) for size in (n, pm.cod.n))
    found = _differing(len(cases), _image_pair(dom, cod, [len(cases)], [_image_table(pm)], _PROBE.positions, columns))
    return (cases[found[0][0]], *found[0][2:]) if found else None


# ---------------------------------------------------------------------------
# finding documents


def _pts(bits):
    return list(points_of(bits))


def _lr(left, right):
    return {"left": _pts(left), "right": _pts(right)}


def _doc(where, plan=None, n=0, values=(), **fields):
    """A finding's instance: the space or map it arose on, the plan's base and family over n points, fields."""
    if isinstance(where, FinSpace):
        doc = {"space": serialize.space_to_doc(where)}
    else:
        doc = {"map": serialize.map_to_doc(where)}
    if plan is not None:
        doc["base"] = serialize.base_to_doc(plan.base)
        doc["family"] = serialize.family_to_doc(n, plan.mode, zip(plan.order, values))
    return {**doc, **fields}


# ---------------------------------------------------------------------------
# reading stored instances


def _field(instance, name, parse=None, choices=()):
    """One instance field, parsed or checked against its allowed values (None: may be absent)."""
    val = serialize._field(instance, name, "instance", optional=None in choices, choices=choices)
    return val if parse is None else parse(val, f"instance.{name}")


def _mask(instance, name, n):
    return serialize.mask_from_doc(n, _field(instance, name), f"instance.{name}")


def _masks(instance, name, n):
    return serialize.masks_from_doc(n, _field(instance, name), f"instance.{name}")


def _map_family(instance, pm, side):
    """The base and family fields, the family over the points of the map's side ("dom" or "cod")."""
    base, family = serialize.base_family_from_doc(instance, "instance")
    n = getattr(pm, side).n
    if family.n != n:
        raise InputError(f"instance.family.universe must be {n}, the points of instance.map.{side}, got {family.n}")
    return base, family


# ---------------------------------------------------------------------------
# the suites


def _run_distributivity(bounds, rng, budget, col):
    """Meets and joins move through the operation and its dual pointwise."""
    for spaces, found in _groups(col, _spaces(bounds.max_points), lambda space: space.n):
        n = spaces[0].n
        # sorted: the draws must not depend on the order a frozenset happens to iterate in
        for batch in _sweep(bounds, [sorted(space.open_bits()) for space in spaces], rng, budget):
            count, plan = batch.lanes, batch.plan
            col.cases += count
            # lane mask * count + c holds case c under that mask: the columns repeat once per mask
            lanes, pos, full = count << n, plan.positions, replicate((1 << n) - 1, count << n)
            values = [replicate(v, 1 << n, count) for v in batch.columns]
            masks = pack_lanes(b"".join(bytes([mask]) * count for mask in range(1 << n)))
            meet = eval_lanes(pos, [v & masks for v in values], full), eval_lanes(pos, values, full) & masks
            join = eval_lanes(pos, [v | masks for v in values], full, True), eval_lanes(pos, values, full, True) | masks
            for lane, j, left, right in _differing(lanes, meet, join):
                (mask, c), e = divmod(lane, count), _entry(batch, lane % count)
                fields = {"mode": plan.mode, "mask": _pts(mask), "identity": ("intersection", "union")[j]}
                instance = _doc(spaces[e], plan, n, _case(plan, batch.raw, c), **fields)
                found.append(((e, batch.index, c, mask, j), "violation", instance, _lr(left, right)))


def _replay_distributivity(instance, kind):
    base, family = serialize.base_family_from_doc(instance, "instance")
    mode = _field(instance, "mode", choices=MODES)
    mask = _mask(instance, "mask", family.n)
    if _field(instance, "identity", choices=("intersection", "union")) == "intersection":
        return evaluate(base, family.map_values(lambda v: v & mask), mode) != evaluate(base, family, mode) & mask
    joined = dual_evaluate(base, family.map_values(lambda v: v | mask), mode)
    return joined != dual_evaluate(base, family, mode) | mask


def _run_restriction(bounds, rng, budget, col):
    """Evaluation commutes with taking traces on a carrier."""
    for spaces, found in _groups(col, _spaces(bounds.max_points), lambda space: space.n):
        n, carriers = spaces[0].n, range(1 << spaces[0].n)
        traces = [lane_table([restrict_bits(v & carrier, carrier) for v in carriers]) for carrier in carriers]
        for batch in _sweep(bounds, [sorted(space.open_bits()) for space in spaces], rng, budget):
            count, plan, pos = batch.lanes, batch.plan, batch.plan.positions
            col.cases += count
            # lane carrier * count + c holds case c traced on that carrier: the columns repeat once per carrier
            runs, copies = [count] * len(carriers), len(carriers)
            subs = pack_lanes(b"".join(bytes([(1 << c.bit_count()) - 1]) * count for c in carriers))
            ev = eval_lanes(pos, batch.columns, replicate((1 << n) - 1, count))
            left = map_runs(replicate(ev, copies, count), runs, traces)
            right = eval_lanes(pos, [map_runs(replicate(v, copies, count), runs, traces) for v in batch.columns], subs)
            for lane, _, a, b in _differing(count << n, (left, right)):
                carrier, i = divmod(lane, count)
                e, fields = _entry(batch, i), {"mode": plan.mode, "carrier": _pts(carrier)}
                instance = _doc(spaces[e], plan, n, _case(plan, batch.raw, i), **fields)
                found.append(((e, batch.index, i, carrier), "violation", instance, _lr(a, b)))


def _replay_restriction(instance, kind):
    base, family = serialize.base_family_from_doc(instance, "instance")
    mode = _field(instance, "mode", choices=MODES)
    carrier = _mask(instance, "carrier", family.n).bits
    sub_n = carrier.bit_count()
    traced = family.map_values(lambda v: SubsetMask(sub_n, restrict_bits(v.bits & carrier, carrier)), sub_n)
    left = restrict_bits(evaluate(base, family, mode).bits & carrier, carrier)
    return left != evaluate(base, traced, mode).bits


def _run_preimage_commutes(bounds, rng, budget, col):
    """Preimages pass through the operation and its dual for every table."""
    maps = _maps(range(bounds.max_points + 1), range(1, bounds.max_points + 1))
    for pms, found in _groups(col, maps):
        pres = [lane_table([pm.preimage_bits(bits) for bits in range(1 << pm.cod.n)]) for pm in pms]
        universes = _universes(pms)
        for batch in _sweep(bounds, [range(1 << pm.cod.n) for pm in pms], rng, budget):
            plan, pos, sizes, columns = batch.plan, batch.plan.positions, batch.sizes, batch.columns
            col.cases += batch.lanes
            dom, cod = universes(batch)
            pulled = [map_runs(v, sizes, pres) for v in columns]
            checks = [
                (map_runs(eval_lanes(pos, columns, cod, dual), sizes, pres), eval_lanes(pos, pulled, dom, dual))
                for dual in (False, True)
            ]
            for i, j, left, right in _differing(batch.lanes, *checks):
                pm, fields = pms[e := _entry(batch, i)], {"mode": plan.mode, "identity": ("eval", "dual")[j]}
                instance = _doc(pm, plan, pm.cod.n, _case(plan, batch.raw, i), **fields)
                found.append(((e, batch.index, i, j), "violation", instance, _lr(left, right)))


def _replay_preimage_commutes(instance, kind):
    pm = _field(instance, "map", serialize.map_from_doc)
    base, family = _map_family(instance, pm, "cod")
    mode = _field(instance, "mode", choices=MODES)
    dual = _field(instance, "identity", choices=("eval", "dual")) == "dual"
    pulled = family.map_values(pm.preimage, pm.dom.n)
    return pm.preimage(evaluate(base, family, mode, dual)) != evaluate(base, pulled, mode, dual)


def _saturated(pm):
    """Brute force: the domain subsets A with F^-1(F(A)) = A."""
    return [a for a in range(1 << pm.dom.n) if pm.saturated(a)]


def _steps(pm):
    """Per distance d < LANE_POINTS, the points x whose nearest earlier point of their fiber is x - d.

    A set is a union of fibers exactly when every such x agrees with x - d.
    """
    last, steps = {}, [0] * LANE_POINTS
    for x, y in enumerate(pm.table):
        if y in last:
            steps[x - last[y]] |= 1 << x
        last[y] = x
    return steps


def _fiber_masks(steps, sizes):
    """Per distance d with a step, (d, the packed int holding steps[e][d] in each of the sizes[e] lanes of entry e)."""
    rows = b"".join(bytes(s) * size for s, size in zip(steps, sizes))  # per lane, its entry's steps
    masks = ((d, int.from_bytes(rows[d::LANE_POINTS], "little")) for d in range(1, LANE_POINTS))
    return [(d, mask) for d, mask in masks if mask]


def _unsaturated(packed, masks):
    """Nonzero in the lanes of packed that are not unions of fibers (masks from _fiber_masks).

    A bit shifted across a lane boundary lands below d, where the mask is clear.
    """
    return reduce(or_, ((packed ^ packed << d) & mask for d, mask in masks), 0)


def _run_algebra_closure(bounds, rng, budget, col):
    """alg F is the brute-force fixed-point family and is closed under eval."""
    maps = _maps(range(bounds.max_points + 1), range(1, bounds.max_points + 1))
    for pms, found in _groups(col, maps):
        pools, steps, masks, universes = [], [], {}, _universes(pms)
        for e, pm in enumerate(pms):
            col.cases += 1
            brute = _saturated(pm)
            alg_bits = sorted(alg_enumerate(pm).member_bits())
            if alg_bits != brute:
                detail = {"enumerated": [_pts(b) for b in alg_bits], "brute_force": [_pts(b) for b in brute]}
                found.append(((e,), "violation", _doc(pm, check="extension"), detail))
            fibers = len(set(pm.table))
            if len(alg_bits) != 1 << fibers:
                detail = {"size": len(alg_bits), "fibers": fibers}
                found.append(((e,), "violation", _doc(pm, check="cardinality"), detail))
            pools.append(alg_bits)
            steps.append(_steps(pm))
        for batch in _sweep(bounds, pools, rng, budget):
            lanes, plan = batch.lanes, batch.plan
            if (k := len(plan.order)) not in masks:  # an entry's lanes depend on its pool and k only
                masks[k] = _fiber_masks(steps, batch.sizes)
            out = eval_lanes(plan.positions, batch.columns, universes(batch)[0])
            for i, _, _, _ in _differing(lanes, (_unsaturated(out, masks[k]), 0)):
                n = pms[e := _entry(batch, i)].dom.n
                instance = _doc(pms[e], plan, n, _case(plan, batch.raw, i), mode=plan.mode, check="eval-closure")
                found.append(((e, batch.index, i), "violation", instance, {"outcome": _pts(out >> 8 * i & 0xFF)}))


def _replay_algebra_closure(instance, kind):
    pm = _field(instance, "map", serialize.map_from_doc)
    check = _field(instance, "check", choices=("extension", "cardinality", "eval-closure"))
    alg_bits = sorted(alg_enumerate(pm).member_bits())
    if check == "extension":
        return alg_bits != _saturated(pm)
    if check == "cardinality":
        return len(alg_bits) != 1 << len(set(pm.table))
    base, family = serialize.base_family_from_doc(instance, "instance")
    return evaluate(base, family, _field(instance, "mode", choices=MODES)).bits not in set(alg_bits)


def _run_diagonal_absorption(bounds, rng, budget, col):
    """Membership in a factor's algebra survives the diagonal product."""
    sizes = range(1, min(bounds.max_points, 3) + 1)
    for n in range(sizes.stop):
        # every map from n points with its algebra's members in canonical order, per codomain size
        algs = {m: [(pm, alg_enumerate(pm)._order) for pm in _maps([n], [m])] for m in sizes}
        for m1 in sizes:
            for m2 in sizes:
                for pm1, alg1 in algs[m1]:
                    for pm2, alg2 in algs[m2]:
                        col.cases += 1
                        alg_diag = alg_enumerate(diagonal_product([pm1, pm2])).member_bits()
                        for which, alg in (("left", alg1), ("right", alg2)):
                            for bits in alg:
                                if bits not in alg_diag:
                                    col.violation(
                                        {
                                            "maps": [serialize.map_to_doc(pm1), serialize.map_to_doc(pm2)],
                                            "factor": which,
                                            "member": _pts(bits),
                                        },
                                        {"algebra_size": len(alg_diag)},
                                    )


def _replay_diagonal_absorption(instance, kind):
    docs = _field(instance, "maps")
    if not isinstance(docs, list) or not docs:
        raise InputError("instance.maps must be a nonempty array of maps")
    pms = [serialize.map_from_doc(doc, f"instance.maps[{i}]") for i, doc in enumerate(docs)]
    for i, pm in enumerate(pms):
        if pm.dom != pms[0].dom:
            raise InputError(f"instance.maps[{i}].dom must equal instance.maps[0].dom")
    return not alg_contains(diagonal_product(pms), _mask(instance, "member", pms[0].dom.n))


def _run_zero_witness_certificate(bounds, rng, budget, col):
    """Indicator diagonals certify every small selection of zero sets."""
    for space in _spaces(bounds.max_points):
        zs = zero_sets(space).members
        for r in range(min(3, len(zs)) + 1):
            for combo in combinations(zs, r):
                col.cases += 1
                rep = zero_witness_map(space, list(combo))
                pm, joined = rep.map, reduce(or_, (z.bits for z in combo), 0)
                if rep.all_saturated and pm.saturated(joined):
                    continue
                # a violation: only now build its documents
                instance = _doc(space, zeros=[serialize.points_doc(z) for z in combo])
                if not rep.all_saturated:
                    bad = [serialize.points_doc(z) for z, ok in rep.certificate if not ok]
                    col.violation(instance, {"unsaturated": bad})
                else:
                    col.violation(instance, {"escaping_union": _pts(joined)})


def _replay_zero_witness_certificate(instance, kind):
    space = _field(instance, "space", serialize.space_from_doc)
    zeros, zero_bits = _masks(instance, "zeros", space.n), zero_sets(space).member_bits()
    for i, z in enumerate(zeros):
        if z.bits not in zero_bits:
            raise InputError(f"instance.zeros[{i}] is not a zero set of instance.space")
    rep = zero_witness_map(space, zeros)
    if not rep.all_saturated:
        return True
    if zeros:
        joined = evaluate(canonical_base("union", len(zeros)), IndexedFamily.from_list(space.n, zeros), RANGE)
        return not alg_contains(rep.map, joined)
    return False


def _run_image_commutes(bounds, rng, budget, col):
    """Images pass through prefix evaluation of decreasing families."""
    sizes = range(1, bounds.max_points + 1)
    for pms, found in _groups(col, _maps(sizes, sizes)):
        imgs, universes = [_image_table(pm) for pm in pms], _universes(pms)
        for batch in _sweep(bounds, [range(1 << pm.dom.n) for pm in pms], rng, budget, [PREFIX], exhaust=False):
            lanes, plan, pos, dec = batch.lanes, batch.plan, batch.plan.positions, list(batch.columns)
            col.cases += lanes
            dom, cod = universes(batch)
            ev_raw = eval_lanes(pos, dec, dom)
            # cut each raw value by its parent's cut value; parents come first in the length-lex order
            for i, idx in enumerate(plan.order):
                if idx:
                    dec[i] &= dec[plan.order.index(idx[:-1])]
            lhs, rhs = _image_pair(dom, cod, batch.sizes, imgs, pos, dec)
            ev_dec = eval_lanes(pos, dec, dom)
            for i, j, left, right in _differing(lanes, (lhs, rhs), (ev_raw, ev_dec)):
                pm = pms[e := _entry(batch, i)]
                check = ("decreasing-image", "replacement-value")[j]
                values = [lanes_of(v, lanes)[i] for v in dec] if j == 0 else _case(plan, batch.raw, i)
                instance = _doc(pm, plan, pm.dom.n, values, check=check)
                found.append(((e, batch.index, i, j), "violation", instance, _lr(left, right)))


def _image_commutes(pm, base, family):
    """Does F(eval(family)) differ from eval(F(family)) under the public operations?"""
    if family.mode != PREFIX:
        raise InputError("instance.family must be prefix-indexed")
    return pm.image(evaluate(base, family)) != evaluate(base, family.map_values(pm.image, pm.cod.n))


def _replay_image_commutes(instance, kind):
    pm = _field(instance, "map", serialize.map_from_doc)
    base, family = _map_family(instance, pm, "dom")
    if _field(instance, "check", choices=("decreasing-image", "replacement-value")) == "replacement-value":
        return evaluate(base, family) != evaluate(base, decreasing_replacement(family))
    return _image_commutes(pm, base, family)


def _run_image_necessity(bounds, rng, budget, col):
    """Non-injective maps break image commutation on some non-decreasing family."""
    sizes = range(1, bounds.max_points + 1)
    for pms, found in _groups(col, _maps(sizes, sizes)):
        injective = []
        col.cases += len(pms)
        for e, pm in enumerate(pms):
            if len(set(pm.table)) == pm.dom.n:
                injective.append(e)
            elif (witness := _merge_witness(pm)) is None:
                found.append(((e,), "violation", _doc(pm, check="missing-witness"), {}))
            else:
                instance = _doc(pm, _PROBE, pm.dom.n, witness[0], check="non-decreasing-image")
                found.append(((e,), "witness", instance, _lr(*witness[1:])))
        run = [pms[e] for e in injective]
        imgs, universes = [_image_table(pm) for pm in run], _universes(run)
        for batch in _sweep(bounds, [range(1 << pm.dom.n) for pm in run], rng, min(budget, 4), [PREFIX]):
            dom, cod = universes(batch)
            pair = _image_pair(dom, cod, batch.sizes, imgs, batch.plan.positions, batch.columns)
            for i, _, lhs, rhs in _differing(batch.lanes, pair):
                pm = pms[e := injective[_entry(batch, i)]]
                instance = _doc(pm, batch.plan, pm.dom.n, _case(batch.plan, batch.raw, i), check="injective-image")
                found.append(((e, batch.index, i), "violation", instance, _lr(lhs, rhs)))


def _replay_image_necessity(instance, kind):
    pm = _field(instance, "map", serialize.map_from_doc)
    check = _field(instance, "check", choices=("missing-witness", "injective-image", "non-decreasing-image"))
    merges = len(set(pm.table)) < pm.dom.n
    if check == "missing-witness":  # only a map that merges two points owes a witness
        return kind == "violation" and merges and _merge_witness(pm) is None
    # a witness breaks the law on a map that merges points, a violation (injective-image) on an injective map
    broken = _image_commutes(pm, *_map_family(instance, pm, "dom"))
    return broken and (kind, merges) == (("witness", True) if check == "non-decreasing-image" else ("violation", False))


def _run_intersection_image(bounds, rng, budget, col):
    """Directed decreasing families push intersections through images."""
    sizes = range(1, min(bounds.max_points, 3) + 1)
    for n in sizes:
        pms = list(_maps([n], sizes))
        imgs = [_image_table(pm) for pm in pms]
        for k in sizes:
            raw = bytes(chain.from_iterable(iproduct(range(1 << n), repeat=k)))  # every family, case-major
            columns = _columns(raw, k)
            for above in _posets(k):
                if not _directed(above):
                    continue
                relation = _order_pairs(above)
                # decreasing: no pair i <= j has a point of the j-th set outside the i-th
                outside = lanes_of(reduce(or_, (columns[j] & ~columns[i] for i, j in relation), 0), len(raw) // k)
                fams = [raw[f * k : (f + 1) * k] for f, out in enumerate(outside) if not out]
                count, runs = len(fams), [len(fams)] * len(pms)
                col.cases += count * len(pms)
                dec = _columns(b"".join(fams) * len(pms), k)  # lane e * count + f: family f under map e
                lhs = map_runs(reduce(and_, dec), runs, imgs)
                rhs = reduce(and_, (map_runs(v, runs, imgs) for v in dec))
                for lane, _, left, right in _differing(count * len(pms), (lhs, rhs)):
                    e, f = divmod(lane, count)
                    col.violation(_doc(pms[e], order=relation, family=[_pts(v) for v in fams[f]]), _lr(left, right))


def _replay_intersection_image(instance, kind):
    pm = _field(instance, "map", serialize.map_from_doc)
    order, family = _field(instance, "order", serialize.relation_from_doc), _masks(instance, "family", pm.dom.n)
    if not family:
        raise InputError("instance.family must be a nonempty array of point arrays")
    for i, pair in enumerate(order):
        if not all(0 <= x < len(family) for x in pair):
            raise InputError(f"instance.order[{i}] = {list(pair)} is outside the family's indices 0..{len(family) - 1}")
    rep = directed_image_check(pm, order, family)
    if kind == "witness":
        return not rep.equal
    return rep.directed and rep.decreasing and not rep.equal


def _run_intersection_image_necessity(bounds, rng, budget, col):
    """Dropping directedness or decreasingness admits strict inclusions, by the public directed_image_check."""
    sizes = range(1, min(bounds.max_points, 2) + 1)
    for pm in _maps(sizes, sizes):
        n = pm.dom.n
        for k in sizes:
            for relation in map(_order_pairs, _posets(k)):
                for fam in iproduct(range(1 << n), repeat=k):
                    col.cases += 1
                    rep = directed_image_check(pm, relation, [SubsetMask(n, v) for v in fam])
                    if rep.equal:
                        continue
                    kind = "violation" if rep.directed and rep.decreasing else "witness"
                    detail = _lr(rep.intersection_image.bits, rep.image_intersection.bits)
                    detail.update(directed=rep.directed, decreasing=rep.decreasing)
                    col.add(kind, _doc(pm, order=relation, family=[_pts(v) for v in fam]), detail)


def _run_reduction_dual_separation(bounds, rng, budget, col):
    """Reduction for the opens forces separation for the closeds, with witnesses."""
    for space in _spaces(bounds.max_points):
        col.cases += 1
        opens = open_sets(space)
        if not check_reduction(opens).holds:
            continue
        closeds = complement_class(opens)
        member = dict(zip(closeds._order, closeds.members))
        for a, b in _pairs(closeds, SEPARATION):
            try:
                separator = reduction_to_separation(opens, member[a], member[b])
            except PreconditionError as exc:
                detail = {"error": str(exc)}
            else:
                if separates(a, b, separator.bits, closeds):
                    continue
                detail = {"separator": serialize.points_doc(separator)}
            pair = [serialize.points_doc(member[a]), serialize.points_doc(member[b])]
            col.violation(_doc(space, check="constructed-witness", pair=pair), detail)


def _replay_reduction_dual_separation(instance, kind):
    space = _field(instance, "space", serialize.space_from_doc)
    _field(instance, "check", choices=("constructed-witness",))
    pair = _masks(instance, "pair", space.n)
    if len(pair) != 2:
        raise InputError("instance.pair must hold two point arrays")
    opens = open_sets(space)
    if not check_reduction(opens).holds:
        return False
    closeds = complement_class(opens)
    try:
        separator = reduction_to_separation(opens, *pair)
    except PreconditionError:
        return True
    return not separates(pair[0].bits, pair[1].bits, separator.bits, closeds)


def _run_zero_trace_gap(bounds, rng, budget, col):
    """Traces of ambient zero sets are intrinsic; the converse can fail."""
    for space in _spaces(bounds.max_points):
        discrete, full = space.is_discrete(), (1 << space.n) - 1
        for carrier_bits in range(1 << space.n):
            col.cases += 1
            carrier = SubsetMask(space.n, carrier_bits)
            rep = zero_trace_gap(space, carrier)
            escaped = rep.traces - rep.intrinsic
            if escaped:
                col.tally("violation", lambda: (
                    _doc(space, carrier=serialize.points_doc(carrier), check="trace-not-intrinsic"),
                    {"escaped": rep.indexed(escaped)},
                ))
            if rep.gap:
                check = {"check": "unexpected-gap"} if discrete or carrier_bits == full else {}
                col.tally("violation" if check else "witness", lambda: (
                    _doc(space, carrier=serialize.points_doc(carrier), **check), {"gap": rep.indexed(rep.gap)}
                ))


def _replay_zero_trace_gap(instance, kind):
    space = _field(instance, "space", serialize.space_from_doc)
    carrier = _mask(instance, "carrier", space.n)
    check = _field(instance, "check", choices=(None, "trace-not-intrinsic", "unexpected-gap"))
    rep = zero_trace_gap(space, carrier)
    if kind == "witness":
        return bool(rep.gap)
    if check == "trace-not-intrinsic":
        return bool(rep.traces - rep.intrinsic)
    return bool(rep.gap) and (space.is_discrete() or carrier.bits == (1 << space.n) - 1)


_IDENTITY_BASES = (
    ("union", (2,)),
    ("intersection", (2,)),
    ("a_operation", (2, 2)),
)
# transfer-identity skips a (base, mode) pair with more assignments of the opens than this
IDENTITY_ASSIGNMENTS = 4096


def _run_transfer_identity(bounds, rng, budget, col):
    """Transfer along the identity agrees with the direct checkers, witness for witness."""
    bases = [canonical_base(kind_name, *params) for kind_name, params in _IDENTITY_BASES]  # each keeps its plans
    for space in _spaces(bounds.max_points):
        opens = open_sets(space)
        ident = PointMap.identity(space)
        for base in bases:
            for mode in MODES:
                enum = len([i for i in base.relevant_indices(mode) if i != ()])
                if len(opens) ** enum > IDENTITY_ASSIGNMENTS:
                    continue
                phi = None
                for which in (REDUCTION, SEPARATION):
                    col.cases += 1
                    rep = transfer_property(ident, base, opens, opens, mode, which)
                    if phi is None:  # the class the first transfer generated serves both properties
                        phi = rep.class_cod
                    record = {}
                    direct = check(phi, which, record)
                    agree = rep.verdict == direct.holds
                    if agree and rep.verdict:
                        agree = [((t.a, t.b), t.witness_dom) for t in rep.pairs] == list(record.items())
                    if not agree:
                        col.violation(
                            _doc(space, base=serialize.base_to_doc(base), mode=mode, which=which),
                            {"transfer": rep.verdict, "direct": direct.holds},
                        )


def _replay_transfer_identity(instance, kind):
    space = _field(instance, "space", serialize.space_from_doc)
    base = _field(instance, "base", serialize.base_from_doc)
    mode = _field(instance, "mode", choices=MODES)
    which = _field(instance, "which", choices=(REDUCTION, SEPARATION))
    opens = open_sets(space)
    rep = transfer_property(PointMap.identity(space), base, opens, opens, mode, which)
    return rep.verdict != check(rep.class_cod, which).holds


# ---------------------------------------------------------------------------
# registry and entry points

_Suite = namedtuple("_Suite", "run replay bounds budget expects")

_SUITES = {
    "distributivity": _Suite(_run_distributivity, _replay_distributivity, Bounds(max_points=3), 10, False),
    "restriction": _Suite(_run_restriction, _replay_restriction, Bounds(max_points=3), 8, False),
    "preimage-commutes": _Suite(_run_preimage_commutes, _replay_preimage_commutes, Bounds(max_points=3), 10, False),
    "algebra-closure": _Suite(_run_algebra_closure, _replay_algebra_closure, Bounds(max_points=4), 6, False),
    "diagonal-absorption": _Suite(
        _run_diagonal_absorption, _replay_diagonal_absorption, Bounds(max_points=3), 0, False
    ),
    "zero-witness-certificate": _Suite(
        _run_zero_witness_certificate, _replay_zero_witness_certificate, Bounds(max_points=4), 0, False
    ),
    "image-commutes": _Suite(_run_image_commutes, _replay_image_commutes, Bounds(max_points=3), 8, False),
    "image-necessity": _Suite(_run_image_necessity, _replay_image_necessity, Bounds(max_points=3), 6, True),
    "intersection-image": _Suite(_run_intersection_image, _replay_intersection_image, Bounds(max_points=3), 0, False),
    "intersection-image-necessity": _Suite(
        _run_intersection_image_necessity, _replay_intersection_image, Bounds(max_points=2), 0, True
    ),
    "reduction-dual-separation": _Suite(
        _run_reduction_dual_separation, _replay_reduction_dual_separation, Bounds(max_points=4), 0, False
    ),
    "zero-trace-gap": _Suite(_run_zero_trace_gap, _replay_zero_trace_gap, Bounds(max_points=4), 0, True),
    "transfer-identity": _Suite(_run_transfer_identity, _replay_transfer_identity, Bounds(max_points=3), 0, False),
}


def _suite(name):
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    return _SUITES[name]


def suite_names():
    return tuple(sorted(_SUITES))


def suite_defaults(name):
    """Default bounds, sampling budget, and witness expectation of a suite."""
    suite = _suite(name)
    return suite.bounds, suite.budget, suite.expects


def run_suite(name, bounds=None, seed=0, budget=None, keep=32):
    """Run one suite deterministically and collect its findings; budget None means the suite's default."""
    suite = _suite(name)
    bounds = suite.bounds if bounds is None else bounds
    for field in ("max_points", "alphabet", "depth"):
        if getattr(bounds, field) < 0:
            raise InputError(f"bounds.{field} must be nonnegative, got {getattr(bounds, field)}")
    if budget is not None and budget < 1:
        raise InputError("--budget must be positive")
    if budget is not None and budget > MAX_BUDGET:
        raise ResourceError(f"budget {budget} exceeds the cap {MAX_BUDGET}")
    col = _Collector(name, keep)
    suite.run(bounds, random.Random(f"{name}:{seed}"), suite.budget if budget is None else budget, col)
    return SuiteResult(
        name,
        col.cases,
        tuple(col.docs["violation"]),
        tuple(col.docs["witness"]),
        col.counts["violation"],
        col.counts["witness"],
        suite.expects,
    )


def replay_finding(doc):
    """Re-run a stored finding; True means it still triggers."""
    if not isinstance(doc, dict):
        raise InputError("finding document must be an object")
    suite = doc.get("suite")
    if not isinstance(suite, str) or suite not in _SUITES:
        raise InputError(f"unknown suite {suite!r} in finding document")
    instance = doc.get("instance")
    if not isinstance(instance, dict):
        raise InputError("finding document is missing its instance")
    kind = serialize._field(doc, "kind", "", optional=True, default="violation", choices=("violation", "witness"))
    return bool(_SUITES[suite].replay(instance, kind))
