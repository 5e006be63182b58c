"""Output oracle for the cli-batch workload, independent of redsep.

Every check rebuilds the report a command must print from the definitions
in finite.py and compares it with what the program printed.  A check returns
None when the output is right and a one-line reason when it is not.  Exit
code 2, an exception or non-canonical JSON always fail.

Frozen records (taken at the commit that introduced the benchmark) pin what
no definition can: the golden report bytes, the verdicts of the shipped
transfer instances, and the case counts of the suites.
"""

import json

import finite
from finite import canonical, image, points, preimage

_TRACE_CAP = 64

# shipped transfer instance -> (exit code, verdict, failure, pairs_checked)
TRANSFER_VERDICTS = {
    "01-identity-sierpinski-union-reduction.json": (0, True, None, 9),
    "02-identity-sierpinski-union-separation.json": (0, True, None, 5),
    "03-identity-sierpinski-intersection-reduction.json": (0, True, None, 9),
    "04-identity-sierpinski-aop-reduction.json": (0, True, None, 9),
    "05-identity-sierpinski-aop-prefix-reduction.json": (0, True, None, 9),
    "06-identity-chain3-union-reduction.json": (0, True, None, 16),
    "07-identity-chain3-union-separation.json": (0, True, None, 7),
    "08-identity-chain3-aop-separation.json": (0, True, None, 7),
    "09-identity-indiscrete3-union-reduction.json": (0, True, None, 4),
    "10-identity-discrete3-union-separation.json": (0, True, None, 27),
    "11-identity-discrete3-intersection-separation.json": (0, True, None, 27),
    "12-merge32-union-reduction.json": (0, True, None, 16),
    "13-merge32-union-separation.json": (0, True, None, 9),
    "14-merge32-intersection-reduction.json": (0, True, None, 16),
    "15-merge32-aop-reduction.json": (0, True, None, 16),
    "16-merge32-aop-prefix-separation.json": (0, True, None, 9),
    "17-merge21-union-reduction.json": (0, True, None, 4),
    "18-merge21-union-separation.json": (0, True, None, 3),
    "19-rotate3-union-reduction.json": (0, True, None, 64),
    "20-rotate3-aop-separation.json": (0, True, None, 27),
    "21-embed23-union-reduction.json": (0, True, None, 16),
    "22-collapse31-union-separation.json": (0, True, None, 3),
    "23-projection-square-union-reduction.json": (0, True, None, 16),
    "24-merge32-unsaturated-generators.json": (
        1,
        False,
        "hypothesis failed: preimages-stay-in-domain-generators, domain-generators-saturated",
        0,
    ),
    "25-identity-fiveopen-no-codomain-reduction.json": (
        1,
        False,
        "hypothesis failed: codomain-class-has-reduction",
        0,
    ),
}

GOLDEN = {
    "reduction-five-opens": ("check-reduction", 1),
    "sierpinski-zeros": ("space", 0),
    "sierpinski-square": ("space", 0),
}

CORPUS_FINDINGS = 4

# suite -> case count at default bounds; the counts do not depend on the seed
SWEEP_DEFAULT_CASES = {
    "algebra-closure": 498,
    "diagonal-absorption": 1537,
    "distributivity": 76865,
    "image-commutes": 28224,
    "image-necessity": 56,
    "intersection-image": 32540,
    "intersection-image-necessity": 302,
    "preimage-commutes": 226876,
    "reduction-dual-separation": 390,
    "restriction": 73383,
    "transfer-identity": 394,
    "zero-trace-gap": 5931,
    "zero-witness-certificate": 5185,
}
# reduction-dual-separation at max_points=5: one case per labeled space
SWEEP_5PT_CASES = {"reduction-dual-separation": 7332}
WITNESS_SUITES = {"image-necessity", "intersection-image-necessity", "zero-trace-gap"}


def check_suite(expected_cases, run):
    """None when a suite run kept its frozen coverage and verdict, else the reason."""
    name = run["suite"]
    if run["cases"] != expected_cases.get(name):
        return f"{name}: {run['cases']} cases, recorded {expected_cases.get(name)}"
    if not run["passed"] or run["violations"]:
        return f"{name}: verdict failed with {run['violations']} violations"
    if name in WITNESS_SUITES and run["witnesses"] < 1:
        return f"{name}: no witnesses"
    return None


class Mismatch(Exception):
    pass


def _expect(cond, reason):
    if not cond:
        raise Mismatch(reason)


def _pts_list(masks):
    return [points(m) for m in canonical(masks)]


def _space(doc):
    n = doc["n"]
    return n, finite.topology(n, [finite.bits(s) for s in doc.get("subbasis", [])])


def _derived(n, opens, which):
    if which == "opens":
        return set(opens)
    if which == "closeds":
        return finite.closeds(n, opens)
    return finite.clopens(n, opens)


def _class(val, n, opens):
    if isinstance(val, str):
        return _derived(n, opens, val)
    return {finite.bits(m) for m in val["members"]}


def _base(doc, base):
    return base["branches"], doc.get("mode") or base.get("mode", "prefix")


def _envelope(command, report):
    return {"command": command, "version": report.get("version"), "seed": 0, "timing": None}


def _witness_doc(w):
    if isinstance(w, tuple):
        return {"c": points(w[0]), "d": points(w[1])}
    return {"separator": points(w)}


def expected_check(doc, which, report):
    n, opens = _space(doc["space"])
    cls = _derived(n, opens, doc.get("class_from", "opens"))
    checked, failing, witnesses = finite.pair_scan(cls, (1 << n) - 1, which)
    listed = sorted(witnesses.items(), key=lambda kv: _pair_key(kv[0]))[:_TRACE_CAP] if witnesses else []
    return {
        **_envelope(f"check-{which}", report),
        "universe": n,
        "class_size": len(cls),
        "verdict": failing is None,
        "pairs_checked": checked,
        "witness_count": len(witnesses) if witnesses else 0,
        "failing_pair": [points(m) for m in failing] if failing else None,
        "witnesses": [
            {"a": points(a), "b": points(b), **_witness_doc(w)} for (a, b), w in listed
        ]
        or None,
    }, 0 if failing is None else 1


def _pair_key(pair):
    return tuple((bin(m).count("1"), m) for m in pair)


def expected_generate(doc, report):
    gens = {finite.bits(m) for m in doc["generators"]["members"]}
    n = doc["generators"]["universe"]
    branches, mode = _base(doc, doc["base"])
    members = finite.generate(n, branches, mode, gens)
    return {
        **_envelope("generate", report),
        "universe": n,
        "mode": mode,
        "dual": False,
        "count": len(members),
        "members": _pts_list(members),
    }, 0


def expected_transfer(doc, report):
    pm = doc["map"]
    n, dom_opens = _space(pm["dom"])
    m, cod_opens = _space(pm["cod"])
    table = pm["table"]
    branches, mode = _base(doc, doc["base"])
    which = doc["which"]
    gens_dom = _class(doc["dom_generators"], n, dom_opens)
    gens_cod = _class(doc["cod_generators"], m, cod_opens)
    class_cod = finite.generate(m, branches, mode, gens_cod)
    full_m = (1 << m) - 1
    _, cod_failing, _ = finite.pair_scan(class_cod, full_m, which)
    hypotheses = [
        ("images-stay-in-codomain-generators",
         [points(g) for g in canonical(gens_dom) if image(table, g) not in gens_cod]),
        ("preimages-stay-in-domain-generators",
         [points(h) for h in canonical(gens_cod) if preimage(table, h) not in gens_dom]),
        ("domain-generators-saturated",
         [points(g) for g in canonical(gens_dom) if preimage(table, image(table, g)) != g]),
        (f"codomain-class-has-{which}",
         [[points(s) for s in cod_failing]] if cod_failing else []),
    ]
    out = {
        **_envelope("transfer", report),
        "which": which,
        "mode": mode,
        "hypotheses": [{"name": h, "holds": not bad, "offending": bad} for h, bad in hypotheses],
        "class_cod": _pts_list(class_cod),
        "class_dom": None,
        "pairs_checked": 0,
        "pairs_valid": 0,
        "traces": [],
    }
    failed = [h for h, bad in hypotheses if bad]
    if failed:
        out.update(verdict=False, failure=f"hypothesis failed: {', '.join(failed)}")
        return out, 1
    class_dom = finite.generate(n, branches, mode, gens_dom)
    full_n = (1 << n) - 1
    traces = []
    for a in canonical(class_dom):
        for b in canonical(class_dom):
            if which == "separation" and a & b:
                continue
            fa, fb = image(table, a), image(table, b)
            if which == "reduction":
                w_cod = finite.first_reduction(class_cod, fa, fb)
                pulled = w_cod and (preimage(table, w_cod[0]), preimage(table, w_cod[1]))
                valid = bool(pulled) and finite.reduces(class_dom, a, b, *pulled)
            else:
                w_cod = None if fa & fb else finite.first_separator(class_cod, full_m, fa, fb)
                pulled = w_cod is not None and preimage(table, w_cod)
                valid = w_cod is not None and finite.separates(class_dom, full_n, a, b, pulled)
            traces.append({
                "a": points(a),
                "b": points(b),
                "fa": points(fa),
                "fb": points(fb),
                "witness_cod": None if w_cod is None else _witness_doc(w_cod),
                "witness_dom": None if w_cod is None else _witness_doc(pulled),
                "valid": valid,
            })
            # the theorem: with every hypothesis holding, no pair may fail
            _expect(valid, f"transfer pair ({points(a)}, {points(b)}) has no valid witness")
    out.update(
        verdict=True,
        failure=None,
        class_dom=_pts_list(class_dom),
        pairs_checked=len(traces),
        pairs_valid=len(traces),
        traces=traces[:_TRACE_CAP],
    )
    return out, 0


def _parsed(code, out):
    _expect(code in (0, 1), f"exit code {code}")
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from None
    _expect(json.dumps(report, sort_keys=True, indent=2) + "\n" == out, "report is not canonical JSON")
    return report


def _compare(report, code, expected, expected_code):
    _expect(code == expected_code, f"exit code {code}, expected {expected_code}")
    for key in sorted(set(report) | set(expected)):
        _expect(report.get(key) == expected.get(key), f"field {key!r} differs from the oracle")


def check(command, code, out):
    """None when the command's output is right, else the reason it is not."""
    kind = command["kind"]
    try:
        if kind == "golden":
            _expect(out == command["expected"], "report bytes differ from the golden file")
            _expect(code == command["code"], f"exit code {code}, expected {command['code']}")
            return None
        report = _parsed(code, out)
        if kind == "replay":
            _expect(code == 0, f"exit code {code}")
            _expect(report.get("replayed") == CORPUS_FINDINGS, "replayed count")
            _expect(report.get("retriggered") == CORPUS_FINDINGS, "retriggered count")
            _expect(report.get("verdict") is True, "replay verdict")
            _expect(all(f.get("retriggered") is True for f in report.get("findings", ())), "finding")
            return None
        doc = command["doc"]
        if kind in ("check-reduction", "check-separation"):
            expected, expected_code = expected_check(doc, kind[len("check-"):], report)
        elif kind == "generate":
            expected, expected_code = expected_generate(doc, report)
        else:
            expected, expected_code = expected_transfer(doc, report)
            if kind == "shipped-transfer":
                frozen = TRANSFER_VERDICTS.get(command["file"])
                got = (code, report.get("verdict"), report.get("failure"), report.get("pairs_checked"))
                _expect(got == frozen, f"shipped verdict {got} differs from the record {frozen}")
        _compare(report, code, expected, expected_code)
        return None
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"report has an unexpected shape: {exc!r}"
