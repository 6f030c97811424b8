"""The benchmark tracer wraps salcheck's functions by name: each must exist.

``perfbench/tracing.py`` replaces ``salcheck.checker.<name>`` for every name
in ``CHECKER_NAMES`` and ``salcheck.report.<name>`` for every name in
``REPORT_NAMES``.  A function deleted or renamed in ``src/`` would otherwise
fail only in a traced benchmark run.

A traced run also reports a ``checker.eval.<property>`` time and count for
every ``PropertyId`` member, and ``BENCHMARK.json``'s per-layer list must name
exactly those, so a member cannot be deleted or renamed on its own either.
The benchmark command itself runs once in each mode: its last line must be a
result with every verdict correct and exactly the metrics BENCHMARK.json
names for that mode.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from salcheck import checker, report
from salcheck.checker import PropertyId

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    assert [n for n in tracing.CHECKER_NAMES if not callable(getattr(checker, n, None))] == []
    assert [n for n in tracing.REPORT_NAMES if not callable(getattr(report, n, None))] == []


def test_every_property_has_its_benchmark_metrics():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {m["name"].rsplit(".", 1)[0] for m in per_layer
             if m["name"].startswith("checker.eval.")}
    assert {f"checker.eval.{p.value}" for p in PropertyId} == named


@pytest.mark.parametrize("trace,metrics", [(0, "end_to_end"), (1, "per_layer")])
def test_benchmark_command_prints_a_correct_result(trace, metrics):
    # One short bug-hunt run, from the repository root as BENCHMARK.json runs it.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = subprocess.run(
        [sys.executable, *benchmark["command"][1:], "--workload", "bug-hunt", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in benchmark[metrics]}
