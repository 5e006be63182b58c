#!/usr/bin/env python3
"""The redsep benchmark: one stdlib-only command, three workloads.

    python3 bench/run.py --workload sweep-default --seed 0 --seconds 60 --trace 0

Run it from the repository root.  Load comes from this single process,
which runs one single-threaded worker interpreter at a time (worker.py),
each repetition in a fresh worker.  With --trace 0 the run measures the
end-to-end metrics untraced; with --trace 1 it measures the per-layer
metrics from traced repetitions (tracer.py) next to one untraced one.  Every
output is checked (oracle.py); the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Metric names and
units are those listed in BENCHMARK.json.  README.md in this directory says
why each workload exists and which end-to-end metric each layer should move.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-default", "sweep-5pt", "cli-batch")
SETUP_SPAWNS = 5
MIN_COMMANDS = 1000
REP_TIMEOUT_S = 170

IMPORT_PROBE = "import redsep.cli, sys; sys.stdout.write('.'); sys.stdout.flush()"
BARE_PROBE = "import sys; sys.stdout.write('.'); sys.stdout.flush()"


class BenchError(Exception):
    pass


# -- statistics ------------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank q-quantile, and how many samples lie beyond its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_ok(n, q, beyond=10):
    """Does a q-quantile of n samples leave at least `beyond` samples above it?"""
    return n - max(1, math.ceil(q * n)) >= beyond


# -- processes -------------------------------------------------------------------


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def spawn_s(code):
    """Seconds from spawning an interpreter until it reports the probe done."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), stdout=subprocess.PIPE
    )
    try:
        ready = proc.stdout.read(1)
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if ready != b"." or proc.returncode != 0:
        raise BenchError(f"probe interpreter failed with exit code {proc.returncode}")
    return elapsed


def run_rep(job):
    """One repetition in a fresh worker; returns its parsed result."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{job['workload']} repetition exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["span_s"] = perf_counter() - start
    return result


def repeat(job, seconds):
    """Repetitions until the next one would end past `seconds`; at least one."""
    reps = []
    start = perf_counter()
    while True:
        reps.append(run_rep(job))
        elapsed = perf_counter() - start
        if elapsed + max(r["span_s"] for r in reps) > seconds:
            return reps


# -- workloads -------------------------------------------------------------------


def cli_commands(seed, workdir):
    """The shipped and generated commands, with what the oracle needs for each."""
    commands = []
    for path in sorted((ROOT / "instances" / "transfer").glob("*.json")):
        commands.append(
            {
                "argv": ["transfer", str(path.relative_to(ROOT))],
                "kind": "shipped-transfer",
                "file": path.name,
                "doc": json.loads(path.read_text()),
            }
        )
    if len(commands) != len(oracle.TRANSFER_VERDICTS):
        raise BenchError(f"found {len(commands)} shipped transfer instances")
    golden = ROOT / "tests" / "golden"
    for name, (cmd, code) in oracle.GOLDEN.items():
        commands.append(
            {
                "argv": [cmd, str((golden / f"{name}-instance.json").relative_to(ROOT))],
                "kind": "golden",
                "code": code,
                "expected": (golden / f"{name}-report.json").read_text(),
            }
        )
    commands.append({"argv": ["replay", "--corpus-dir", "corpus"], "kind": "replay"})
    for name, doc, subcommands in gen.instances(seed):
        path = workdir / name
        path.write_text(json.dumps(doc))
        for sub in subcommands:
            commands.append(
                {
                    "argv": [sub, str(path.relative_to(ROOT))],
                    "kind": sub,
                    "file": name,
                    "doc": doc,
                }
            )
    return commands


class Checker:
    """Counts operations and failed operations across repetitions."""

    def __init__(self, workload, commands=None):
        self.workload = workload
        self.commands = commands
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, reason):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(reason)

    def rep(self, result):
        if self.workload == "cli-batch":
            self._cli(result)
        else:
            expected = (
                oracle.SWEEP_DEFAULT_CASES
                if self.workload == "sweep-default"
                else oracle.SWEEP_5PT_CASES
            )
            self.attempted += len(expected)
            seen = {run["suite"] for run in result["runs"]}
            if seen != set(expected):
                self.fail(len(expected), f"suites run: {sorted(seen)}")
            for run in result["runs"]:
                reason = oracle.check_suite(expected, run)
                if reason:
                    self.fail(1, reason)

    def _cli(self, result):
        cycles = len(result["latencies"]) // len(self.commands)
        self.attempted += len(result["latencies"])
        for i, (command, (code, out)) in enumerate(zip(self.commands, result["outputs"])):
            if self.verified.get(i) == (code, out):
                continue
            reason = oracle.check(command, code, out)
            if reason is None:
                self.verified[i] = (code, out)
            else:
                self.fail(cycles, f"{' '.join(command['argv'])}: {reason}")
        if result["mismatch"]:
            self.fail(result["mismatch"], f"{result['mismatch']} repeated commands changed output")

    def same_outputs(self, reference, traced):
        """A traced repetition must print exactly what an untraced one printed."""
        key = "outputs" if self.workload == "cli-batch" else "runs"
        a, b = reference[key], traced[key]
        if key == "runs":  # suite verdicts and counts, without their timings
            a, b = ([{k: v for k, v in r.items() if k != "s"} for r in runs] for runs in (a, b))
        same = a == b
        if not same:
            self.fail(1, "traced repetition changed the program's output")


def _job(workload, seed, trace, commands=None):
    job = {"workload": workload, "seed": seed, "trace": trace}
    if commands is not None:
        job["commands"] = [c["argv"] for c in commands]
        job["cycles"] = math.ceil(MIN_COMMANDS / len(commands))
    return job


def _cases(workload, result):
    if workload == "cli-batch":
        return len(result["latencies"])
    return sum(run["cases"] for run in result["runs"])


def _latencies_ms(workload, result):
    if workload == "cli-batch":
        return [s * 1000 for s in result["latencies"]]
    return [run["s"] * 1000 for run in result["runs"]]


def end_to_end(workload, reps, setup):
    """The end-to-end metrics of one run, and notes on how they were taken.

    Times are medians over the run, except cmd_p99_ms where one repetition
    leaves ten commands beyond its own p99 (cli-batch).  There it is the
    lowest of the repetitions' p99s: the ten slowest commands of a
    repetition are the ones a burst of contention from other tenants of a
    shared host lands on, so the least disturbed repetition's tail follows
    the program and the run's tail follows the host.  A sweep repetition has
    13 suite runs, so there cmd_p99_ms is the slowest suite run of the run.
    """
    lat = [_latencies_ms(workload, r) for r in reps]
    pooled = [ms for rep in lat for ms in rep]
    per_rep = len(lat[0])
    p50, _ = percentile(pooled, 0.50)
    if tail_ok(per_rep, 0.99):
        rep_p99 = [percentile(rep, 0.99) for rep in lat]
        p99, beyond = min(rep_p99)
        p99_note = (
            f"cmd_p99_ms the lowest of {len(reps)} repetition p99s "
            f"({' '.join(f'{p:.3f}' for p, _ in rep_p99)}), "
            f"each over {per_rep} commands with {beyond} beyond it"
        )
    else:
        p99, beyond = percentile(pooled, 0.99)
        p99_note = f"cmd_p99_ms over {len(pooled)} commands, {beyond} beyond it" + (
            "" if tail_ok(len(pooled), 0.99) else " (fewer than ten: it is the slowest command)"
        )
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cmd_p50_ms": (p50, "ms"),
        "cmd_p99_ms": (p99, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    notes = [
        f"{len(reps)} repetitions, {len(setup)} setup spawns",
        f"cases_per_s {_cases(workload, reps[0]) / wall:.6g} cases/s "
        "(cases of a repetition over wall_s)",
        f"cmd_p50_ms over {len(pooled)} commands",
        p99_note,
        "repetition walls " + " ".join(f"{r['wall_s']:.3f}" for r in reps),
    ]
    return metrics, notes


def per_layer(reps, reference, interp, imported):
    """Per-layer figures from traced repetitions; low medians, so counts stay exact."""
    keys = set().union(*(r["trace"]["summary"] for r in reps))
    table = {k: statistics.median_low(r["trace"]["summary"].get(k, 0) for r in reps) for k in keys}
    assignments = table.get("classes.generate_class.assignments", 0)
    table["classes.generate_class.distinct_ratio"] = (
        table.get("classes.generate_class.outcomes", 0) / assignments if assignments else 0
    )
    table["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in reps) / reference["wall_s"]
    table["trace.span_coverage"] = statistics.median(r["trace"]["coverage"] for r in reps)
    table["trace.patched_names"] = reps[0]["trace"]["patched"]
    table["cli.interp_s"] = statistics.median(interp)
    table["cli.import_s"] = statistics.median(imported) - table["cli.interp_s"]
    return table


def measure(workload, seed, seconds, trace, definition):
    """One run of one workload: (correct, attempted, failed, metrics, notes)."""
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        commands = cli_commands(seed, Path(workdir)) if workload == "cli-batch" else None
        checker = Checker(workload, commands)
        job = _job(workload, seed, 0, commands)
        if trace:
            interp = [spawn_s(BARE_PROBE) for _ in range(SETUP_SPAWNS)]
            imported = [spawn_s(IMPORT_PROBE) for _ in range(SETUP_SPAWNS)]
            reference = run_rep(job)
            checker.rep(reference)
            reps = repeat({**job, "trace": 1}, seconds - reference["span_s"])
            for r in reps:
                checker.rep(r)
                checker.same_outputs(reference, r)
                if r["trace"]["unrestored"]:
                    checker.fail(1, f"{r['trace']['unrestored']} patched names not restored")
            table = per_layer(reps, reference, interp, imported)
            wanted = definition["per_layer"]
            metrics = {m["name"]: (table.get(m["name"], 0), m["unit"]) for m in wanted}
            notes = [
                f"{len(reps)} traced repetitions, {len(table)} figures recorded",
                f"{table['trace.patched_names']} patched names, "
                f"{sum(r['trace']['unrestored'] for r in reps)} left unrestored",
            ]
        else:
            # half the set-up probes before the repetitions and half after,
            # so the median spans the run rather than its first second
            setup = [spawn_s(IMPORT_PROBE) for _ in range(SETUP_SPAWNS)]
            reps = repeat(job, seconds)
            setup += [spawn_s(IMPORT_PROBE) for _ in range(SETUP_SPAWNS)]
            for r in reps:
                checker.rep(r)
            computed, notes = end_to_end(workload, reps, setup)
            metrics = {}
            for m in definition["end_to_end"]:
                value, unit = computed[m["name"]]
                if unit != m["unit"]:
                    raise BenchError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
                metrics[m["name"]] = (value, unit)
        notes.append(
            f"failed_ratio {checker.failed / checker.attempted:.6g} ratio "
            f"({checker.failed} of {checker.attempted} operations)"
        )
        notes.extend(f"FAILED {p}" for p in checker.problems)
        return checker.failed == 0, checker.attempted, checker.failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "redsep" / "cli.py").is_file():
        print(f"error: no redsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, att, fail, wl_metrics, notes = measure(
                workload, args.seed, args.seconds, args.trace, definition
            )
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            for name, (value, unit) in wl_metrics.items():
                print(f"{workload:14s} {name:44s} {value:14.6g} {unit}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": unit}
            for note in notes:
                print(f"{workload:14s} {note}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
