"""Batch front-end: instance files in, canonical reports out.

Every subcommand reads one JSON instance document (a file path or ``-`` for
stdin), runs the corresponding operation, and prints a report.  Reports are
canonical JSON by default (sorted keys, two-space indent) and byte-identical
across runs for a fixed instance, seed, and version; wall-clock timing is
reported only under ``--timing``.

Exit codes: 0 when the verdict is true or a value was produced, 1 when the
verdict is false (the report carries the counterexample), 2 on malformed
input, with a field-level diagnostic on stderr, and 3 on an internal error,
with a one-line ``internal error: ...`` on stderr.

Only ``fuzz`` and ``replay`` load the suites (and with them the catalog),
on first use, so the instance subcommands start without them.
"""

import argparse
import json
import sys
import time
from functools import cache
from itertools import islice
from pathlib import Path

from . import __version__, serialize
from .classes import WITNESS_FIELDS, check, complement_class, generate_class
from .errors import EngineError, InputError
from .hausdorff import MODES, evaluate
from .masks import SubsetMask, points_of
from .spaces import closed_sets, components, open_sets, product, zero_sets
from .transfer import transfer_property, zero_trace_gap

_TRACE_CAP = 64


def _load_instance(path):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"instance {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"instance {path!r} must hold one JSON object")
    return doc


def _space_from_instance(doc):
    return serialize.space_from_doc(serialize._field(doc, "space", "instance"), "instance.space")


def _derived_class(space, which, path):
    if which == "opens":
        return open_sets(space)
    if which == "closeds":
        return closed_sets(space)
    if which == "zeros":
        return zero_sets(space)
    raise InputError(f"{path} must be 'opens', 'closeds', or 'zeros', not {which!r}")


def _class_from_instance(doc):
    if "class" in doc:
        return serialize.class_from_doc(doc["class"], "instance.class")
    if "space" in doc:
        space = _space_from_instance(doc)
        return _derived_class(space, doc.get("class_from", "opens"), "instance.class_from")
    raise InputError("instance needs a 'class' or a 'space' (with optional 'class_from')")


def _class_doc(sc):
    return [serialize.points_doc(m) for m in sc.members] if sc is not None else None


def _bits_doc(points, names, bits):
    """Named point lists of bits; points is a memo of points_of shared by one report."""
    return {name: points(x) for name, x in zip(names, bits)}


def _offending_doc(item):
    if isinstance(item, SubsetMask):
        return serialize.points_doc(item)
    return [serialize.points_doc(m) for m in item]


def _mode_for(doc, default):
    return serialize._field(doc, "mode", "instance", optional=True, choices=(None, *MODES)) or default


def _dual(doc):
    dual = serialize._field(doc, "dual", "instance", optional=True, default=False)
    if not isinstance(dual, bool):
        raise InputError(f"instance.dual must be true or false, got {dual!r}")
    return dual


def _base(doc):
    return serialize.base_from_doc(serialize._field(doc, "base", "instance"), "instance.base")


# ---------------------------------------------------------------------------
# subcommand handlers: instance document in, (report fields, exit code) out


def _cmd_eval(args):
    doc = _load_instance(args.instance)
    base, family = serialize.base_family_from_doc(doc, "instance")
    mode = _mode_for(doc, family.mode)
    dual = _dual(doc)
    value = evaluate(base, family, mode, dual)
    report = {
        "universe": family.n,
        "mode": mode,
        "dual": dual,
        "value": serialize.points_doc(value),
    }
    return report, 0


def _cmd_generate(args):
    doc = _load_instance(args.instance)
    base = _base(doc)
    generators = serialize.class_from_doc(
        serialize._field(doc, "generators", "instance"), "instance.generators"
    )
    mode = _mode_for(doc, base.mode_hint)
    dual = _dual(doc)
    sc = generate_class(base, generators, mode, dual=dual)
    report = {
        "universe": sc.n,
        "mode": mode,
        "dual": dual,
        "count": len(sc),
        "members": _class_doc(sc),
    }
    return report, 0


def _cmd_check(args):
    sc = _class_from_instance(_load_instance(args.instance))
    which = args.command.removeprefix("check-")
    record = {}
    res = check(sc, which, record)
    # a class with the property has a witness for every checked pair
    witness_count = res.pairs_checked if res.holds else 0
    report = {
        "universe": sc.n,
        "class_size": len(sc),
        "verdict": res.holds,
        "pairs_checked": res.pairs_checked,
        "witness_count": witness_count,
        "failing_pair": None,
        "witnesses": None,
    }
    if res.failing_pair is not None:
        report["failing_pair"] = [serialize.points_doc(m) for m in res.failing_pair]
    if witness_count:
        names, points = ("a", "b", *WITNESS_FIELDS[which]), cache(points_of)
        report["witnesses"] = [
            _bits_doc(points, names, (a, b, *found)) for (a, b), found in islice(record.items(), _TRACE_CAP)
        ]
    return report, 0 if res.holds else 1


def _generators_from(doc, key, space):
    val = serialize._field(doc, key, "instance")
    if isinstance(val, str):
        return _derived_class(space, val, f"instance.{key}")
    return serialize.class_from_doc(val, f"instance.{key}")


def _cmd_transfer(args):
    doc = _load_instance(args.instance)
    pm = serialize.map_from_doc(serialize._field(doc, "map", "instance"), "instance.map")
    base = _base(doc)
    mode = _mode_for(doc, base.mode_hint)
    which = serialize._field(doc, "which", "instance", choices=tuple(WITNESS_FIELDS))
    gens_dom = _generators_from(doc, "dom_generators", pm.dom)
    gens_cod = _generators_from(doc, "cod_generators", pm.cod)
    rep = transfer_property(pm, base, gens_dom, gens_cod, mode, which)
    fields, points = WITNESS_FIELDS[which], cache(points_of)
    traces = [
        {
            **_bits_doc(points, ("a", "b", "fa", "fb"), (t.a, t.b, t.fa, t.fb)),
            "witness_cod": _bits_doc(points, fields, t.witness_cod),
            "witness_dom": _bits_doc(points, fields, t.witness_dom),
            "valid": t.valid,
        }
        for t in rep.pairs[:_TRACE_CAP]
    ]
    report = {
        "which": rep.which,
        "mode": mode,
        "verdict": rep.verdict,
        "failure": rep.failure,
        "hypotheses": [
            {
                "name": h.name,
                "holds": h.holds,
                "offending": [_offending_doc(m) for m in h.offending],
            }
            for h in rep.hypotheses
        ],
        "class_dom": _class_doc(rep.class_dom),
        "class_cod": _class_doc(rep.class_cod),
        "pairs_checked": len(rep.pairs),
        "pairs_valid": sum(1 for t in rep.pairs if t.valid),
        "traces": traces,
    }
    return report, 0 if rep.verdict else 1


def _cmd_zero_gap(args):
    doc = _load_instance(args.instance)
    space = _space_from_instance(doc)
    carrier_doc = doc.get("carrier")
    if carrier_doc is None:
        carrier_doc = list(range(space.n))
    carrier = serialize.mask_from_doc(space.n, carrier_doc, "instance.carrier")
    rep = zero_trace_gap(space, carrier)
    report = {
        "universe": space.n,
        "carrier": serialize.points_doc(rep.carrier),
        "traces": rep.indexed(rep.traces),
        "intrinsic": rep.indexed(rep.intrinsic),
        "gap": rep.indexed(rep.gap),
        "verdict": not rep.gap,
    }
    return report, 1 if rep.gap else 0


def _cmd_space(args):
    doc = _load_instance(args.instance)
    if "product" in doc:
        factors_doc = doc["product"]
        if not isinstance(factors_doc, list) or not factors_doc:
            raise InputError("instance.product must be a non-empty array of spaces")
        factors = [
            serialize.space_from_doc(d, f"instance.product[{i}]")
            for i, d in enumerate(factors_doc)
        ]
        space, _codec = product(factors)
    else:
        space = _space_from_instance(doc)
    opens = open_sets(space)
    comps = components(space)
    zeros = zero_sets(space)
    report = {
        "n": space.n,
        "discrete": space.is_discrete(),
        "opens": _class_doc(opens),
        "closeds": _class_doc(complement_class(opens)),
        "components": [serialize.points_doc(c) for c in comps],
        "zeros": _class_doc(zeros),
        "counts": {"opens": len(opens), "components": len(comps), "zeros": len(zeros)},
    }
    return report, 0


def _cmd_replay(args):
    from .suites import replay_finding

    paths = [Path(p) for p in args.paths]
    if args.corpus_dir is not None:
        paths.extend(sorted(Path(args.corpus_dir).glob("*.json")))
    if not paths:
        raise InputError("nothing to replay: give finding files or --corpus-dir")
    findings = []
    retriggered = 0
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise InputError(f"cannot read finding {str(path)!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"finding {str(path)!r} is not valid JSON: {exc}") from exc
        ok = replay_finding(doc)
        retriggered += ok
        findings.append(
            {
                "file": path.name,
                "suite": doc.get("suite"),
                "kind": doc.get("kind"),
                "retriggered": ok,
            }
        )
    report = {
        "replayed": len(findings),
        "retriggered": retriggered,
        "verdict": retriggered == len(findings),
        "findings": findings,
    }
    return report, 0 if report["verdict"] else 1


def _cmd_fuzz(args):
    from dataclasses import replace

    from .suites import run_suite, suite_defaults

    bounds, default_budget, expects = suite_defaults(args.suite)
    overrides = {"max_points": args.max_points, "alphabet": args.alphabet, "depth": args.depth}
    bounds = replace(bounds, **{k: v for k, v in overrides.items() if v is not None})
    budget = args.budget if args.budget is not None else default_budget
    res = run_suite(args.suite, bounds=bounds, seed=args.seed, budget=args.budget)
    written = []
    if args.corpus_dir is not None:
        import hashlib

        corpus = Path(args.corpus_dir)
        try:
            corpus.mkdir(parents=True, exist_ok=True)
            for finding in (*res.violations, *res.witnesses):
                payload = serialize.canonical_json(finding)
                digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
                name = f"{res.name}-{digest}.json"
                (corpus / name).write_text(payload)
                written.append(name)
        except OSError as exc:
            raise InputError(f"cannot write findings to --corpus-dir {args.corpus_dir!r}: {exc}") from exc
    report = {
        "suite": res.name,
        "bounds": {
            "max_points": bounds.max_points,
            "alphabet": bounds.alphabet,
            "depth": bounds.depth,
        },
        "budget": budget,
        "cases": res.cases,
        "violations": res.violation_count,
        "witnesses": res.witness_count,
        "expects_witnesses": expects,
        "verdict": res.passed,
        "written": sorted(written),
        "findings": [*res.violations, *res.witnesses],
    }
    return report, 0 if res.passed else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _render_text(report):
    lines = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="report rendering"
    )
    common.add_argument(
        "--timing", action="store_true", help="include wall-clock seconds in the report"
    )

    parser = argparse.ArgumentParser(
        prog="redsep",
        description="finite-model checks for tree-indexed set operations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_cmd(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("instance", help="instance file (JSON object), or - for stdin")
        p.set_defaults(handler=handler)
        return p

    instance_cmd("eval", _cmd_eval, "evaluate a base over an indexed family")
    instance_cmd("generate", _cmd_generate, "collect all outcomes over generator assignments")
    instance_cmd("check-reduction", _cmd_check, "check the reduction property")
    instance_cmd("check-separation", _cmd_check, "check the separation property")
    instance_cmd("transfer", _cmd_transfer, "transfer reduction or separation along a map")
    instance_cmd("zero-gap", _cmd_zero_gap, "compare traced and intrinsic zero sets")
    instance_cmd("space", _cmd_space, "materialize a space: opens, closeds, components, zeros")

    replay = sub.add_parser(
        "replay", parents=[common], help="re-run stored findings and report re-triggering"
    )
    replay.add_argument("paths", nargs="*", help="finding files to replay")
    replay.add_argument("--corpus-dir", default=None, help="replay every *.json in a directory")
    replay.set_defaults(handler=_cmd_replay)

    fuzz = sub.add_parser(
        "fuzz", parents=[common], help="run a property suite and persist its findings"
    )
    fuzz.add_argument("suite", help="suite name (an unknown name lists the known ones)")
    fuzz.add_argument("--max-points", type=int, default=None, help="override the point bound of the sweep")
    fuzz.add_argument("--alphabet", type=int, default=None, help="override the alphabet bound")
    fuzz.add_argument("--depth", type=int, default=None, help="override the depth bound")
    fuzz.add_argument(
        "--budget", type=int, default=None, help="sampled assignments per structural case"
    )
    fuzz.add_argument("--corpus-dir", default=None, help="directory for finding files")
    fuzz.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "timing": round(elapsed, 6) if args.timing else None,
        **report,
    }
    if args.format == "text":
        sys.stdout.write(_render_text(report))
    else:
        sys.stdout.write(serialize.canonical_json(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
