"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each criterion re-checks the claim through the public surface and, where a
number or report is frozen, against an independent inline oracle.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from redsep import (
    SEPARATION,
    FinSpace,
    PointMap,
    SetClass,
    SubsetMask,
    alg_contains,
    alg_enumerate,
    all_tables,
    all_topologies,
    check_reduction,
    complement_class,
    diagonal_product,
    reduction_to_separation,
    replay_finding,
    run_suite,
    serialize,
    suite_defaults,
    zero_trace_gap,
)
from redsep.cli import main as cli_main

from conftest import witness_holds

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
INSTANCES = ROOT / "instances" / "transfer"


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def close_family(n, seeds):
    """Smallest family containing seeds, empty, full, closed under | and &."""
    fam = {frozenset(), frozenset(range(n))} | {frozenset(s) for s in seeds}
    while True:
        grown = {x | y for x in fam for y in fam} | {x & y for x in fam for y in fam}
        if grown <= fam:
            return fam
        fam |= grown


def union_closure(families):
    out = set()
    pool = list(families)
    for pick in range(1 << len(pool)):
        acc = frozenset()
        for i, f in enumerate(pool):
            if pick >> i & 1:
                acc |= f
        out.add(acc)
    return out


def test_criterion_1_distributivity_and_restriction():
    with criterion(1, "distributivity and restriction hold on every small topology"):
        started = time.perf_counter()
        dist = run_suite("distributivity")
        rest = run_suite("restriction")
        elapsed = time.perf_counter() - started
        assert dist.passed and dist.violation_count == 0 and dist.cases > 0
        assert rest.passed and rest.violation_count == 0 and rest.cases > 0
        assert suite_defaults("distributivity")[0].max_points == 3
        # independent count of labeled topologies on three points: a family of
        # subsets (encoded as a set of bitmasks) is a topology iff it holds the
        # empty set and the whole space and is closed under union/intersection
        count = 0
        for pick in range(1 << 8):
            fam = [b for b in range(8) if pick >> b & 1]
            if 0 in fam and 7 in fam and all(
                (x | y) in fam and (x & y) in fam for x in fam for y in fam
            ):
                count += 1
        assert count == 29
        assert count == len(all_topologies(3))
        assert elapsed < 60.0


def test_criterion_2_preimage_commutes():
    with criterion(2, "preimages commute with evaluation for all small maps"):
        started = time.perf_counter()
        res = run_suite("preimage-commutes")
        elapsed = time.perf_counter() - started
        assert res.passed and res.violation_count == 0 and res.cases > 0
        assert elapsed < 60.0


def test_criterion_3_preimage_algebra():
    with criterion(3, "preimage algebras enumerate exactly and close under evaluation"):
        res = run_suite("algebra-closure")
        assert res.passed and res.violation_count == 0 and res.cases > 0
        assert suite_defaults("algebra-closure")[0].max_points == 4
        # spot oracle on a four-point domain: the fixed sets of preimage-of-
        # image are exactly the enumerated algebra, sized by the fiber count
        pm = PointMap(FinSpace.discrete(4), FinSpace.discrete(3), [0, 0, 1, 2])
        fixed = {
            SubsetMask(4, b)
            for b in range(16)
            if pm.preimage(pm.image(SubsetMask(4, b))) == SubsetMask(4, b)
        }
        assert fixed == set(alg_enumerate(pm))
        assert len(fixed) == 2 ** 3


def test_criterion_4_diagonal_products_and_zero_witnesses():
    with criterion(4, "diagonal products absorb factor algebras; zero witnesses certify"):
        diag = run_suite("diagonal-absorption")
        cert = run_suite("zero-witness-certificate")
        assert diag.passed and diag.violation_count == 0 and diag.cases > 0
        assert cert.passed and cert.violation_count == 0 and cert.cases > 0
        assert suite_defaults("zero-witness-certificate")[0].max_points == 4
        # spot oracle: every set saturated for a factor is saturated for the
        # diagonal, across all pairs of maps from a three-point domain
        dom = FinSpace.discrete(3)
        for t1 in all_tables(3, 2):
            for t2 in all_tables(3, 2):
                f = PointMap(dom, FinSpace.discrete(2), t1)
                g = PointMap(dom, FinSpace.discrete(2), t2)
                both = diagonal_product([f, g])
                for factor in (f, g):
                    for member in alg_enumerate(factor):
                        assert alg_contains(both, member)


def test_criterion_5_directed_image_exchange_and_its_necessity():
    with criterion(5, "image exchange holds when directed and decreasing; both drops fail small"):
        equal = run_suite("intersection-image")
        assert equal.passed and equal.violation_count == 0 and equal.cases > 0
        nec = run_suite("intersection-image-necessity")
        assert nec.passed and nec.witness_count > 0
        assert all(w["instance"]["map"]["dom"]["n"] <= 2 for w in nec.witnesses)
        shapes = {
            (w["detail"]["directed"], w["detail"]["decreasing"]) for w in nec.witnesses
        }
        assert (True, False) in shapes, "dropping decreasingness must misfire"
        assert (False, True) in shapes, "dropping directedness must misfire"
        # the plain two-set witness (images of an intersection versus the
        # intersection of images) ships in the corpus and still triggers
        plain = []
        for path in sorted(CORPUS.glob("intersection-image-necessity-*.json")):
            doc = json.loads(path.read_text())
            inst = doc["instance"]
            if (
                inst["order"] == []
                and len(inst["family"]) == 2
                and inst["map"]["dom"]["n"] == 2
            ):
                plain.append(doc)
        assert plain, "corpus must hold the binary intersection-image witness"
        assert all(replay_finding(doc) for doc in plain)


def test_criterion_6_reduction_gives_dual_separation():
    with criterion(6, "reduction of the opens separates the closeds, with witnesses"):
        res = run_suite("reduction-dual-separation")
        assert res.passed and res.violation_count == 0 and res.cases > 0
        assert suite_defaults("reduction-dual-separation")[0].max_points == 4
        # direct pass over the three-point catalog: wherever the opens reduce,
        # every disjoint pair of closed sets gets a validated separator
        for k in range(4):
            for space in all_topologies(k):
                opens = SetClass.from_bits(space.n, space.open_bits())
                if not check_reduction(opens).holds:
                    continue
                closeds = complement_class(opens)
                for a in closeds:
                    for b in closeds:
                        if not (a & b):
                            separator = reduction_to_separation(opens, a, b)
                            # contains a, misses b, and lies in the closeds with its complement
                            assert witness_holds(SEPARATION, a, b, (separator.bits,), closeds)


def test_criterion_7_transfer_pipeline():
    with criterion(7, "shipped transfer instances pull back valid witnesses end to end"):
        paths = sorted(INSTANCES.glob("*.json"))
        assert len(paths) >= 20
        merge_pipeline = 0
        for path in paths:
            code, out = run_cli(["transfer", str(path)])
            assert code in (0, 1), path.name
            report = json.loads(out)
            for t in report["traces"]:
                w = t["witness_dom"]
                if w is None:
                    continue
                assert t["valid"], (path.name, t)
                a, b = set(t["a"]), set(t["b"])
                if "separator" in w:
                    s = set(w["separator"])
                    assert a <= s and not (b & s), (path.name, t)
                else:
                    c, d = set(w["c"]), set(w["d"])
                    assert c <= a and d <= b and not (c & d), (path.name, t)
                    assert (c | d) == (a | b), (path.name, t)
            if report["verdict"]:
                assert report["pairs_valid"] == report["pairs_checked"]
            if json.loads(path.read_text())["map"]["table"] == [0, 0, 1]:
                merge_pipeline += 1
        assert merge_pipeline >= 1, "the three-to-two merge pipeline must ship"
        ident = run_suite("transfer-identity")
        assert ident.passed and ident.violation_count == 0 and ident.cases > 0


def test_criterion_8_zero_trace_gap():
    with criterion(8, "traces sit inside intrinsic zeros; gaps need non-discrete spaces"):
        res = run_suite("zero-trace-gap")
        assert res.passed and res.violation_count == 0 and res.witness_count > 0
        assert suite_defaults("zero-trace-gap")[0].max_points == 4
        stored = [
            json.loads(p.read_text())
            for p in sorted(CORPUS.glob("zero-trace-gap-*.json"))
        ]
        assert stored, "corpus must hold a gap instance"
        for doc in stored:
            space = serialize.space_from_doc(doc["instance"]["space"])
            assert not space.is_discrete()
            assert replay_finding(doc)
        for n in range(5):
            space = FinSpace.discrete(n)
            for bits in range(1 << n):
                assert len(zero_trace_gap(space, SubsetMask(n, bits)).gap) == 0


def test_criterion_9_golden_reports():
    with criterion(9, "golden reports match independent oracles byte for byte"):
        # -- reduction failure on the five-open space, by raw set scanning
        opens = close_family(3, [{1}, {0, 1}, {1, 2}])
        order = sorted(opens, key=lambda s: (len(s), sum(1 << p for p in s)))
        assert len(order) == 5
        failing, checked = None, 0
        for a in order:
            for b in order:
                checked += 1
                reducible = any(
                    c <= a and d <= b and not (c & d) and (c | d) == (a | b)
                    for c in order
                    for d in order
                )
                if not reducible:
                    failing = (a, b)
                    break
            if failing:
                break
        assert failing == (frozenset({0, 1}), frozenset({1, 2}))
        assert checked == 14
        code, out = run_cli(
            ["check-reduction", str(GOLDEN / "reduction-five-opens-instance.json")]
        )
        report = json.loads(out)
        assert code == 1
        assert report["failing_pair"] == [[0, 1], [1, 2]]
        assert report["pairs_checked"] == 14
        assert out == (GOLDEN / "reduction-five-opens-report.json").read_text()

        # -- zero sets of the two-point space with one proper open: clopen
        #    unions collapse to the trivial pair
        s_opens = close_family(2, [{1}])
        clopens = {u for u in s_opens if frozenset(range(2)) - u in s_opens}
        zeros = union_closure(clopens)
        assert zeros == {frozenset(), frozenset({0, 1})}
        code, out = run_cli(["space", str(GOLDEN / "sierpinski-zeros-instance.json")])
        report = json.loads(out)
        assert code == 0
        assert report["zeros"] == [[], [0, 1]]
        assert report["discrete"] is False
        assert out == (GOLDEN / "sierpinski-zeros-report.json").read_text()

        # -- the square of that space: unions of open boxes give six opens
        factor = sorted(s_opens, key=len)
        boxes = {
            frozenset(2 * a + b for a in u for b in v) for u in factor for v in factor
        }
        prod_opens = union_closure(boxes)
        assert len(prod_opens) == 6
        assert prod_opens == {
            frozenset(),
            frozenset({3}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
            frozenset({0, 1, 2, 3}),
        }
        code, out = run_cli(["space", str(GOLDEN / "sierpinski-square-instance.json")])
        report = json.loads(out)
        assert code == 0
        assert report["counts"]["opens"] == 6
        assert report["opens"] == [[], [3], [1, 3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]
        assert out == (GOLDEN / "sierpinski-square-report.json").read_text()

        # byte stability: a second run reproduces each fixture exactly
        for name, cmd in (
            ("reduction-five-opens", "check-reduction"),
            ("sierpinski-zeros", "space"),
            ("sierpinski-square", "space"),
        ):
            _, again = run_cli([cmd, str(GOLDEN / f"{name}-instance.json")])
            assert again == (GOLDEN / f"{name}-report.json").read_text()
