"""Moving reduction / separation along maps, constructively.

Witnesses for a pair of saturated sets pull back through preimages.  The
full pipeline checks the hypotheses, generates the source and target
classes, reads the witness of every image pair from the target class's
check, pulls it back, and validates it in the source class; any failure is
reported with the offending hypothesis or pair.
"""

from collections import namedtuple
from functools import cache

from .classes import _pairs, _property, check, generate_class
from .errors import InputError, PreconditionError, ResourceError
from .maps import PointMap
from .masks import SubsetMask, points_of, restrict_bits, sort_key, unions
from .spaces import DEFAULT_MAX_PRODUCT_POINTS, FinSpace, component_bits, zero_sets


HypothesisReport = namedtuple("HypothesisReport", "name holds offending")

# One checked pair as bits: the domain pair, its images, and the witness bits
# read from the codomain check and pulled back to the domain.
PairTrace = namedtuple("PairTrace", "a b fa fb witness_cod witness_dom valid")

# failure is None when the verdict holds; class_dom is None when a hypothesis failed
TransferReport = namedtuple("TransferReport", "which hypotheses verdict failure class_dom class_cod pairs")


def transfer_property(pm, base, generators_dom, generators_cod, mode, which):
    """Carry reduction or separation from the codomain class to the domain class.

    Hypotheses checked up front: images of domain generators land among the
    codomain generators, preimages of codomain generators land among the
    domain generators, every domain generator is saturated, and the generated
    codomain class has the property.  When they hold, every pair from the
    generated domain class is handled by image, canonical witness (read from
    the codomain check's record), pullback, and one validation in the domain
    class.  Images and preimages are memoised for the call, so the pair loop
    maps each set once.
    """
    holds, _ = _property(which)
    if generators_dom.n != pm.dom.n:
        raise InputError("domain generators live on the wrong universe")
    if generators_cod.n != pm.cod.n:
        raise InputError("codomain generators live on the wrong universe")

    def offending(gens, bad):
        return tuple(SubsetMask(gens.n, g) for g in gens._order if bad(g))

    image, preimage = cache(pm.image_bits), cache(pm.preimage_bits)
    bad_images = offending(generators_dom, lambda g: image(g) not in generators_cod._bits)
    bad_preimages = offending(generators_cod, lambda h: preimage(h) not in generators_dom._bits)
    bad_saturation = offending(generators_dom, lambda g: not pm.saturated(g))
    class_cod = generate_class(base, generators_cod, mode)
    record = {}
    target_check = check(class_cod, which, record)
    hypotheses = (
        HypothesisReport("images-stay-in-codomain-generators", not bad_images, bad_images),
        HypothesisReport("preimages-stay-in-domain-generators", not bad_preimages, bad_preimages),
        HypothesisReport("domain-generators-saturated", not bad_saturation, bad_saturation),
        HypothesisReport(
            f"codomain-class-has-{which}",
            target_check.holds,
            (target_check.failing_pair,) if target_check.failing_pair else (),
        ),
    )
    failed = [h.name for h in hypotheses if not h.holds]
    if failed:
        return TransferReport(
            which, hypotheses, False, f"hypothesis failed: {', '.join(failed)}",
            None, class_cod, (),
        )

    # the hypotheses make class_dom the preimages of class_cod, so the class-size
    # cap that the codomain check enforces bounds this pair loop too; equal generators generate equal classes
    class_dom = class_cod if generators_dom == generators_cod else generate_class(base, generators_dom, mode)
    traces = []
    for a, b in _pairs(class_dom, which):
        fa, fb = image(a), image(b)
        # each image pair is a checked pair of codomain members (images commute with unions, and
        # with intersections of saturated sets), so the record holds its witness; a missing key
        # is an engine fault, not a verdict
        found = record[fa, fb]
        pulled = tuple(map(preimage, found))
        valid = holds(a, b, *pulled, class_dom)
        traces.append(PairTrace(a, b, fa, fb, found, pulled, valid))
        if not valid:
            pair = ", ".join(repr(SubsetMask(pm.dom.n, x)) for x in (a, b))
            return TransferReport(
                which, hypotheses, False, f"pulled-back witness left the domain class for ({pair})",
                class_dom, class_cod, tuple(traces),
            )
    return TransferReport(which, hypotheses, True, None, class_dom, class_cod, tuple(traces))


# certificate holds (set, saturated) per listed zero set
ZeroWitnessReport = namedtuple("ZeroWitnessReport", "map certificate all_saturated")


def zero_witness_map(space, zeros):
    """Diagonal of the 0/1 indicator maps of the listed zero sets.

    Each indicator sends points inside the set to 0 and the rest to 1; it is
    continuous into the discrete pair because zero sets are unions of
    components.  Every listed set is a preimage under the diagonal, so the
    certificate of saturation always verifies.
    """
    zero_bits = zero_sets(space).member_bits()
    zeros = list(zeros)
    for z in zeros:
        if not isinstance(z, SubsetMask) or z.n != space.n:
            raise InputError(f"{z!r} is not a SubsetMask over the space")
        if z.bits not in zero_bits:
            raise PreconditionError(f"{z!r} is not a zero set of the space")
    k = len(zeros)
    if 1 << k > DEFAULT_MAX_PRODUCT_POINTS:
        raise ResourceError(f"{k} indicator factors exceed the product cap {DEFAULT_MAX_PRODUCT_POINTS}")
    # diagonal of k two-point discrete factors, row-major: bit i of the code
    # is the indicator of zeros[k-1-i]; equals the generic product codec
    table = []
    for x in range(space.n):
        code = 0
        for z in zeros:
            code = code * 2 + (z.bits >> x & 1 ^ 1)
        table.append(code)
    pm = PointMap(space, FinSpace.discrete(1 << k), table)
    certificate = tuple((z, pm.saturated(z.bits)) for z in zeros)
    return ZeroWitnessReport(pm, certificate, all(ok for _, ok in certificate))


class GapReport(namedtuple("GapReport", "carrier traces intrinsic gap")):
    """Zero sets of the subspace on the carrier, as bits of carrier subsets in
    ambient indexing: traces are the ambient zero sets cut to the carrier,
    intrinsic the subspace's own zero sets, and gap the intrinsic sets that
    are not traces."""

    __slots__ = ()

    def indexed(self, sets):
        """The given carrier subsets re-indexed to 0..|carrier|-1, as point lists
        in canonical order (restriction keeps cardinality and numeric order)."""
        return [list(points_of(restrict_bits(b, self.carrier.bits))) for b in sorted(sets, key=sort_key)]


def zero_trace_gap(space, carrier):
    """Compare restricted ambient zero sets with the subspace's own zero sets.

    Zero sets are the unions of components.  The traces are cut from the
    zero sets the space keeps (the trace of a union is the union of the
    traces), and the intrinsic sets are the unions of the components of the
    subspace on the carrier.  Traces are always intrinsic (each cut ambient
    component is a union of subspace components); the converse can fail off
    discrete spaces, and the gap lists the intrinsic zero sets with no
    ambient representative.
    """
    if not isinstance(carrier, SubsetMask) or carrier.n != space.n:
        raise InputError(f"carrier must be a SubsetMask over {space.n} points")
    c = carrier.bits
    traces = frozenset(z & c for z in zero_sets(space).member_bits())
    intrinsic = frozenset(unions(component_bits(space.min_neighborhoods(), c)))
    return GapReport(carrier, traces, intrinsic, intrinsic - traces)
