#!/usr/bin/env python3
"""Record the benchmark in BENCH_<n>.json: every run of bench/run.py and their medians.

    python3 tools/bench_record.py --number 6 --seed 11 --seed 12 --seed 13

For each workload (sweep-default, then cli-batch) and each seed it runs

    python3 bench/run.py --workload W --seed S --seconds 60 --trace 0

from the repository root, one run at a time.  The file written at the root
holds, per workload, every run's seed, metrics, correct/attempted/failed and
note lines (repetitions, case counts, failed ratio), and the median of each
metric over the runs.  It also holds the Python version, whether bytecode
caching was off (``-B`` or ``PYTHONDONTWRITEBYTECODE``; the runs then compile
every source they import, which shows in ``setup_s``), the commit
(``git rev-parse HEAD``), whether src/ and bench/ match that commit, and the
line count of src/redsep/*.py.  If any run is not correct or has a failed
operation, nothing is written and the exit status is 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-default", "cli-batch")
MIN_SEEDS = 3
SECONDS = 60


class RecordError(Exception):
    pass


def parse_output(stdout):
    """The result object of a run.py run (its last line) and its note lines."""
    *lines, last = stdout.strip().splitlines()
    result = json.loads(last)
    notes = []
    for line in lines:
        rest = line.partition(" ")[2].strip()  # drop the workload column
        words = rest.split()
        if not (len(words) == 3 and words[0] in result["metrics"]):  # a metric line repeats the result
            notes.append(rest)
    return result, notes


def run_once(workload, seed):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"{workload} seed {seed}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def summarise(outputs):
    """Per workload, the runs and the median of each metric; outputs maps workload -> [(seed, stdout)]."""
    doc = {}
    for workload, runs in outputs.items():
        kept = []
        for seed, stdout in runs:
            result, notes = parse_output(stdout)
            if not result["correct"] or result["failed"]:
                raise RecordError(
                    f"{workload} seed {seed}: correct={result['correct']}, "
                    f"{result['failed']} of {result['attempted']} operations failed"
                )
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            kept.append(
                {
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                    "notes": notes,
                }
            )
        names = kept[0]["metrics"]
        if any(run["metrics"].keys() != names.keys() for run in kept):
            raise RecordError(f"{workload}: the runs report different metrics")
        doc[workload] = {
            "median": {name: statistics.median(run["metrics"][name] for run in kept) for name in names},
            "units": units,
            "runs": kept,
        }
    return doc


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def bytecode_cache_off(flags=sys.flags, environ=os.environ):
    """Whether this interpreter, or the runs it starts with its environment, write no bytecode."""
    return bool(flags.dont_write_bytecode or environ.get("PYTHONDONTWRITEBYTECODE"))


def environment():
    lines = sum(path.read_text().count("\n") for path in sorted((ROOT / "src" / "redsep").glob("*.py")))
    return {
        "python": platform.python_version(),
        "dont_write_bytecode": bytecode_cache_off(),
        "commit": _git("rev-parse", "HEAD").stdout.strip() or None,
        "src_matches_commit": _git("diff", "--quiet", "HEAD", "--", "src", "bench").returncode == 0,
        "src_lines": lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, action="append", required=True, help=f"seed (repeat, at least {MIN_SEEDS})")
    args = parser.parse_args(argv)
    if len(set(args.seed)) < MIN_SEEDS:
        parser.error(f"give at least {MIN_SEEDS} distinct seeds")
    try:
        outputs = {}
        for workload in WORKLOADS:
            outputs[workload] = []
            for seed in args.seed:
                print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
                outputs[workload].append((seed, run_once(workload, seed)))
        workloads = summarise(outputs)
    except RecordError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    doc = {
        **environment(),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
