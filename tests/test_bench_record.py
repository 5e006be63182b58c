"""tools/bench_record.py: summarising bench/run.py output, on canned runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def canned(wall, correct=True, failed=0):
    """Stdout of one bench/run.py run, in its own format."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "cmd_p50_ms": {"value": 2 * wall, "unit": "ms"}}
    lines = [
        f"{'sweep-default':14s} {'wall_s':44s} {wall:14.6g} s",
        f"{'sweep-default':14s} {'cmd_p50_ms':44s} {2 * wall:14.6g} ms",
        f"{'sweep-default':14s} 2 repetitions, 10 setup spawns",
        f"{'sweep-default':14s} cmd_p50_ms over 26 commands",
        f"{'sweep-default':14s} failed_ratio 0 ratio ({failed} of 26 operations)",
        json.dumps({"correct": correct, "attempted": 26, "failed": failed, "metrics": metrics}),
    ]
    return "\n".join(lines) + "\n"


def test_runs_are_kept_and_each_metric_gets_its_median():
    doc = bench_record.summarise({"sweep-default": [(1, canned(3.0)), (2, canned(1.0)), (3, canned(2.5))]})
    entry = doc["sweep-default"]
    assert entry["median"] == {"wall_s": 2.5, "cmd_p50_ms": 5.0}
    assert entry["units"] == {"wall_s": "s", "cmd_p50_ms": "ms"}
    assert [run["seed"] for run in entry["runs"]] == [1, 2, 3]
    first = entry["runs"][0]
    assert first["metrics"] == {"wall_s": 3.0, "cmd_p50_ms": 6.0}
    assert (first["correct"], first["attempted"], first["failed"]) == (True, 26, 0)
    assert first["notes"] == [
        "2 repetitions, 10 setup spawns",
        "cmd_p50_ms over 26 commands",
        "failed_ratio 0 ratio (0 of 26 operations)",
    ]


@pytest.mark.parametrize("bad", [canned(2.0, correct=False), canned(2.0, failed=1)])
def test_an_incorrect_or_failing_run_writes_nothing(bad, tmp_path, monkeypatch, capsys):
    with pytest.raises(bench_record.RecordError):
        bench_record.summarise({"cli-batch": [(1, canned(1.0)), (2, bad)]})
    outputs = iter([canned(1.0), canned(1.1), bad] + [canned(1.0)] * 3)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", lambda *args: next(outputs))
    assert bench_record.main(["--number", "9", "--seed", "1", "--seed", "2", "--seed", "3"]) == 1
    assert "nothing written" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_clean_record_is_written_at_the_root(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", lambda workload, seed: canned(float(seed)))
    monkeypatch.setattr(bench_record, "environment", lambda: {"python": "3.x", "src_lines": 1})
    assert bench_record.main(["--number", "9", "--seed", "4", "--seed", "5", "--seed", "6"]) == 0
    doc = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert set(doc["workloads"]) == {"sweep-default", "cli-batch"}
    assert doc["workloads"]["cli-batch"]["median"]["wall_s"] == 5.0
    assert doc["python"] == "3.x" and doc["src_lines"] == 1


def test_fewer_than_three_seeds_are_refused():
    with pytest.raises(SystemExit):
        bench_record.main(["--number", "9", "--seed", "1", "--seed", "1", "--seed", "2"])


def test_the_bytecode_setting_is_recorded_next_to_the_python_version():
    off, on = SimpleNamespace(dont_write_bytecode=0), SimpleNamespace(dont_write_bytecode=1)
    assert bench_record.bytecode_cache_off(off, {}) is False
    assert bench_record.bytecode_cache_off(off, {"PYTHONDONTWRITEBYTECODE": ""}) is False
    assert bench_record.bytecode_cache_off(off, {"PYTHONDONTWRITEBYTECODE": "1"}) is True
    assert bench_record.bytecode_cache_off(on, {}) is True
    env = bench_record.environment()
    assert env["dont_write_bytecode"] is bench_record.bytecode_cache_off()
    assert list(env)[:2] == ["python", "dont_write_bytecode"]
