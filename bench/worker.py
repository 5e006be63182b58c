"""One repetition of a benchmark workload, run in a fresh interpreter.

Reads a JSON job from stdin and prints one JSON result line.  The parent
(run.py) imports nothing from redsep; this process imports it before the
timed body starts, so import cost stays in setup_s and out of wall_s.
"""

import contextlib
import io
import json
import resource
import sys
from dataclasses import replace
from time import perf_counter


def _sweep(job):
    from redsep import suites

    if job["workload"] == "sweep-default":
        plan = [(name, None) for name in suites.suite_names()]
    else:
        bounds = suites.suite_defaults("reduction-dual-separation")[0]
        plan = [("reduction-dual-separation", replace(bounds, max_points=5))]
    runs = []
    start = perf_counter()
    for name, bounds in plan:
        t = perf_counter()
        res = suites.run_suite(name, bounds=bounds, seed=job["seed"])
        runs.append(
            {
                "suite": name,
                "s": perf_counter() - t,
                "cases": res.cases,
                "passed": res.passed,
                "violations": res.violation_count,
                "witnesses": res.witness_count,
            }
        )
    return perf_counter() - start, {"runs": runs}


def _cli_batch(job):
    from redsep import cli

    commands, cycles = job["commands"], job["cycles"]
    latencies, results = [], []
    start = perf_counter()
    for _ in range(cycles):
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed command, not a failed run
                    code = f"exception: {exc!r}"
                latencies.append(perf_counter() - t)
            results.append((code, out.getvalue()))
    wall = perf_counter() - start
    first = results[: len(commands)]
    mismatch = sum(1 for i, r in enumerate(results) if r != first[i % len(commands)])
    return wall, {"latencies": latencies, "outputs": first, "mismatch": mismatch}


def main():
    job = json.load(sys.stdin)
    body = _cli_batch if job["workload"] == "cli-batch" else _sweep
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        patched = tracer.install()
    wall, result = body(job)
    if tracer is not None:
        unrestored = tracer.remove()
        result["trace"] = {
            "summary": tracer.summary(),
            "patched": patched,
            "unrestored": unrestored,
            "coverage": tracer.top_level_s() / wall,
        }
    result["wall_s"] = wall
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
