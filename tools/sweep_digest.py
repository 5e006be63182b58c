#!/usr/bin/env python3
"""Print a digest of what the property suites find, to compare two checkouts.

    python3 tools/sweep_digest.py                       # every suite, default bounds, seed 0
    python3 tools/sweep_digest.py --seed 0 --seed 1 --seed 7
    python3 tools/sweep_digest.py --max-points 2 --suite restriction
    python3 tools/sweep_digest.py --src ../other-checkout/src

For each seed and each suite it prints one line of key=value fields: the
cases, the violation and witness counts, the verdict, and the sha256 of the
canonical JSON of the stored violation and witness documents.  The last line
is the sha256 of all lines before it.  Two checkouts found the same things
exactly when their digests are equal.  Bounds options override each suite's
default bounds; --budget overrides each suite's default budget.
"""

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(suites, serialize, names, seeds, overrides, budget, keep):
    """One line per (seed, suite), in the order given."""
    lines = []
    for seed in seeds:
        for name in names:
            bounds = replace(suites.suite_defaults(name)[0], **overrides)
            res = suites.run_suite(name, bounds=bounds, seed=seed, budget=budget, keep=keep)
            fields = {
                "seed": seed,
                "suite": name,
                "cases": res.cases,
                "violations": res.violation_count,
                "witnesses": res.witness_count,
                "passed": str(res.passed).lower(),
                "violations_sha256": _sha(serialize.canonical_json(res.violations)),
                "witnesses_sha256": _sha(serialize.canonical_json(res.witnesses)),
            }
            lines.append(" ".join(f"{key}={val}" for key, val in fields.items()))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the redsep package")
    parser.add_argument("--seed", type=int, action="append", help="seed to run (repeatable; default 0)")
    parser.add_argument("--suite", action="append", help="suite to run (repeatable; default all)")
    parser.add_argument("--max-points", type=int, help="override every suite's point bound")
    parser.add_argument("--alphabet", type=int, help="override every suite's alphabet bound")
    parser.add_argument("--depth", type=int, help="override every suite's depth bound")
    parser.add_argument("--budget", type=int, help="override every suite's sampling budget")
    parser.add_argument("--keep", type=int, default=32, help="documents kept per kind (default 32)")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from redsep import serialize, suites

    overrides = {
        key: val
        for key, val in (("max_points", args.max_points), ("alphabet", args.alphabet), ("depth", args.depth))
        if val is not None
    }
    lines = digest_lines(
        suites, serialize, args.suite or suites.suite_names(), args.seed or [0], overrides, args.budget, args.keep
    )
    lines.append(f"digest={_sha(chr(10).join(lines))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
