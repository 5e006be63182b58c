"""Tests of the benchmark's own parts: oracle, generator, percentiles, tracer.

Run from the repository root:

    python3 -m unittest discover -s bench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def cli_output(argv):
    from redsep import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def generated(seed, tmp, subcommand, wanted=lambda report: True):
    """The first generated command of a kind whose report is wanted, with its output."""
    for name, doc, subs in gen.instances(seed):
        if subcommand in subs:
            path = tmp / name
            path.write_text(json.dumps(doc))
            code, out = cli_output([subcommand, str(path)])
            if wanted(json.loads(out)):
                return {"kind": subcommand, "doc": doc, "file": name}, code, out
    raise AssertionError(f"no generated {subcommand} instance gives the wanted report")


def corrupt(out, edit):
    report = json.loads(out)
    edit(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.tmp = BENCH / "tests" / ".tmp-oracle"
        self.tmp.mkdir(exist_ok=True)

    def tearDown(self):
        for f in self.tmp.iterdir():
            f.unlink()
        self.tmp.rmdir()

    def test_generated_outputs_pass_for_two_seeds(self):
        for seed in (0, 1):
            for name, doc, subs in gen.instances(seed):
                path = self.tmp / name
                path.write_text(json.dumps(doc))
                for sub in subs:
                    code, out = cli_output([sub, str(path)])
                    command = {"kind": sub, "doc": doc, "file": name}
                    self.assertIsNone(oracle.check(command, code, out), f"seed {seed} {sub} {name}")

    def test_flipped_verdict_is_rejected(self):
        command, code, out = generated(0, self.tmp, "check-reduction")
        self.assertIsNone(oracle.check(command, code, out))

        def flip(report):
            report["verdict"] = not report["verdict"]

        self.assertIsNotNone(oracle.check(command, code, corrupt(out, flip)))
        self.assertIsNotNone(oracle.check(command, 1 - code, out))

    def test_bad_witness_is_rejected(self):
        command, code, out = generated(0, self.tmp, "check-separation", lambda r: r["witnesses"])
        self.assertIsNone(oracle.check(command, code, out))

        def move_separator(report):
            report["witnesses"][0]["separator"] = [0, 1, 2, 3, 4]

        self.assertIsNotNone(oracle.check(command, code, corrupt(out, move_separator)))

    def test_bad_transfer_trace_and_generate_member_are_rejected(self):
        command, code, out = generated(0, self.tmp, "transfer")
        self.assertIsNone(oracle.check(command, code, out))

        def toggle_point(report):
            witness = report["traces"][-1]["witness_dom"]
            key = sorted(witness)[0]
            witness[key] = sorted(set(witness[key]) ^ {0})

        self.assertIsNotNone(oracle.check(command, code, corrupt(out, toggle_point)))
        command, code, out = generated(0, self.tmp, "generate")
        self.assertIsNone(oracle.check(command, code, out))

        def drop_member(report):
            report["members"].pop()

        self.assertIsNotNone(oracle.check(command, code, corrupt(out, drop_member)))

    def test_exit_code_two_fails(self):
        command, code, out = generated(0, self.tmp, "generate")
        self.assertIsNotNone(oracle.check(command, 2, out))

    def test_suite_coverage_mismatch_fails(self):
        run_ = {"suite": "zero-trace-gap", "cases": 5931, "passed": True, "violations": 0, "witnesses": 3}
        self.assertIsNone(oracle.check_suite(oracle.SWEEP_DEFAULT_CASES, run_))
        self.assertIsNotNone(oracle.check_suite(oracle.SWEEP_DEFAULT_CASES, {**run_, "cases": 5930}))
        self.assertIsNotNone(oracle.check_suite(oracle.SWEEP_DEFAULT_CASES, {**run_, "witnesses": 0}))


class GeneratorTest(unittest.TestCase):
    def test_seed_determines_inputs(self):
        self.assertEqual(gen.instances(5), gen.instances(5))
        self.assertNotEqual(gen.instances(5), gen.instances(6))

    def test_does_not_import_redsep(self):
        code = (
            "import sys, gen, oracle; gen.instances(0); "
            "sys.exit(any(m == 'redsep' or m.startswith('redsep.') for m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH)
        self.assertEqual(proc.returncode, 0)

    def test_batch_leaves_ten_samples_beyond_p99(self):
        tmp = BENCH / "tests" / ".tmp-gen"
        tmp.mkdir(exist_ok=True)
        try:
            commands = run.cli_commands(0, tmp)
        finally:
            for f in tmp.iterdir():
                f.unlink()
            tmp.rmdir()
        job = run._job("cli-batch", 0, 0, commands)
        self.assertTrue(run.tail_ok(len(job["commands"]) * job["cycles"], 0.99))


class PercentileTest(unittest.TestCase):
    def test_ten_samples_beyond_rule(self):
        self.assertTrue(run.tail_ok(1000, 0.99))
        self.assertFalse(run.tail_ok(999, 0.99))
        self.assertFalse(run.tail_ok(13, 0.99))
        self.assertTrue(run.tail_ok(20, 0.50))

    def test_nearest_rank(self):
        samples = list(range(1000, 0, -1))
        self.assertEqual(run.percentile(samples, 0.99), (990, 10))
        self.assertEqual(run.percentile(samples, 0.50), (500, 500))
        self.assertEqual(run.percentile([7.0], 0.99), (7.0, 0))

    def test_end_to_end_statistics(self):
        quiet = {"wall_s": 3.0, "rss_mb": 20.0, "latencies": [0.002] * 990 + [0.020] * 20}
        burst = {"wall_s": 4.0, "rss_mb": 20.0, "latencies": [0.002] * 990 + [0.040] * 20}
        metrics, notes = run.end_to_end("cli-batch", [burst, quiet, burst], [0.1, 0.3, 0.2])
        self.assertEqual(metrics["wall_s"], (4.0, "s"))
        self.assertEqual(metrics["cmd_p50_ms"], (2.0, "ms"))
        # each repetition leaves ten commands beyond its p99: the lowest one
        self.assertEqual(metrics["cmd_p99_ms"], (20.0, "ms"))
        self.assertEqual(metrics["setup_s"], (0.2, "s"))
        self.assertIn("cases_per_s 252.5 cases/s (cases of a repetition over wall_s)", notes)
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in definition["end_to_end"]:
            self.assertEqual(metrics[metric["name"]][1], metric["unit"], metric["name"])

        def sweep(slowest):
            runs = [{"suite": f"s{i}", "s": 0.1, "cases": 10} for i in range(12)]
            return {"wall_s": 2.0, "rss_mb": 20.0, "runs": runs + [{"suite": "s12", "s": slowest, "cases": 10}]}

        metrics, _ = run.end_to_end("sweep-default", [sweep(1.0), sweep(3.0)], [0.1])
        # 13 suite runs a repetition: the slowest suite run of the whole run
        self.assertEqual(metrics["cmd_p99_ms"], (3000.0, "ms"))


class TracerTest(unittest.TestCase):
    def test_wrappers_restore_module_attributes(self):
        import redsep
        from redsep import classes, hausdorff, masks, suites

        before = {
            name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("redsep")
        }
        init = masks.SubsetMask.__init__
        kernel = hausdorff.eval_plan_bits
        tracer = Tracer()
        patched = tracer.install()
        self.assertGreater(patched, 0)
        self.assertIsNot(suites.eval_plan_bits, kernel)
        self.assertIs(suites.eval_plan_bits, hausdorff.eval_plan_bits)
        self.assertIsNot(masks.SubsetMask.__init__, init)
        self.assertIs(redsep.check_reduction, classes.check_reduction)
        self.assertEqual(tracer.remove(), 0)
        self.assertIs(masks.SubsetMask.__init__, init)
        for name, mod in sys.modules.items():
            if name in before:
                self.assertEqual(dict(vars(mod)), before[name], name)

    def test_traced_cli_output_is_byte_identical(self):
        golden = ROOT / "tests" / "golden"
        tracer = Tracer()
        tracer.install()
        try:
            code, out = cli_output(["check-reduction", str(golden / "reduction-five-opens-instance.json")])
        finally:
            self.assertEqual(tracer.remove(), 0)
        self.assertEqual(code, 1)
        self.assertEqual(out, (golden / "reduction-five-opens-report.json").read_text())
        summary = tracer.summary()
        self.assertEqual(summary["cli.main.calls"], 1)
        self.assertEqual(summary["classes.check_reduction.pairs_checked"], 14)
        self.assertGreater(tracer.top_level_s(), 0)

    def test_every_per_layer_metric_has_a_source(self):
        from redsep import suites

        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = Tracer()
        tracer.install()
        tracer.remove()
        computed = {
            "classes.generate_class.distinct_ratio",
            "classes.generate_class.assignments",
            "classes.generate_class.outcomes",
            "classes.check_reduction.pairs_checked",
            "classes.check_separation.pairs_checked",
            "serialize.canonical_json.bytes",
            "serialize.parse.self_s",
            "suites.run_suite.self_s",
            "cli.interp_s",
            "cli.import_s",
        }
        for metric in definition["per_layer"]:
            name = metric["name"]
            layer, _, rest = name.partition(".")
            if name in computed or layer == "trace":
                continue
            if layer == "suites":
                self.assertIn(rest.rsplit(".", 1)[0], suites.suite_names(), name)
                continue
            self.assertIn(layer, LAYERS, name)
            self.assertIn(name.rsplit(".", 1)[0], tracer.stats, name)


if __name__ == "__main__":
    unittest.main()
