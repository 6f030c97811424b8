"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from salcheck import checker, report  # noqa: E402
from salcheck.catalog import catalog_get  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str, seed: int = 3):
    if name == "catalog-suite":
        return workloads.CatalogSuite(seed, ["ctr-inc-mrdt", "ew-flag-buggy"])
    if name == "bug-hunt":
        return workloads.BugHunt(seed, seeds_per_round=2)
    if name == "large-random":
        return workloads.LargeRandom(seed, seeds_per_round=1, entries=["rga-mrdt", "or-set-crdt"])
    return workloads.OracleSweep(seed, [("ctr-inc-mrdt", 4), ("ew-flag-buggy", 5)])


@pytest.fixture(autouse=True)
def _sources(monkeypatch):
    monkeypatch.setattr(run, "SRC", ROOT / "src")


def units_of(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_benchmark_names_the_run_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    rounds, base_rounds, setup = run.run_pairs(tiny(name), seconds=0.01)
    assert len(setup) == len(rounds) == len(base_rounds) == 1
    metrics = run.end_to_end(rounds, base_rounds, setup)
    assert units_of(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    for side in (rounds, base_rounds):
        attempted, failed, _ = run.verdicts(side)
        assert attempted == len(side[0][1]) * len(side) and failed == 0
    if name != "large-random":  # every large-random entry is correct
        assert 0 < run.cx_events_max(rounds) <= workloads.MAX_CX_EVENTS


def test_pairs_run_each_unit_on_both_programs():
    assert workloads.BASELINE.checker is not checker
    assert workloads.BASELINE.checker.__name__ == "salcheck_baseline.checker"
    rounds, base_rounds, _ = run.run_pairs(tiny("oracle-sweep"), seconds=0.01)
    assert [u.label for u in rounds[0][1]] == [u.label for u in base_rounds[0][1]]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    metrics, rounds, tracer, _ = run.traced_run(tiny(name))
    assert units_of(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The traced rounds make the same reports as the untraced ones.
    assert len(rounds) == 5 and run.verdicts(rounds)[1] == 0
    assert tracer.spans and all(span is not None for span in tracer.spans)
    assert metrics["history.states.n"][0] > 0 and metrics["catalog.apply.n"][0] > 0


def test_traced_run_restores_salcheck():
    before = tracing._originals()
    _, _, tracer, _ = run.traced_run(tiny("bug-hunt"))
    after = tracing._originals()
    assert tracer.calls["checker.run_suite"] == 2 and tracer.calls["report.render_html"] == 2
    for group in before:
        assert before[group].keys() == after[group].keys()
        for name, fn in before[group].items():
            assert after[group][name] is fn, (group, name)
    assert not hasattr(checker.run_suite, "__wrapped__")
    assert not hasattr(report.render_json, "__wrapped__")


def test_work_fingerprint_repeats_at_one_seed():
    def counts(metrics):
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    first, rounds_a, tracer_a, _ = run.traced_run(tiny("catalog-suite", seed=5))
    second, rounds_b, tracer_b, _ = run.traced_run(tiny("catalog-suite", seed=5))
    assert counts(first) == counts(second)
    assert run.fingerprint(rounds_a[0][1]) == run.fingerprint(rounds_b[0][1])
    assert tracer_a.per_unit == tracer_b.per_unit


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer()
    (_, in_start, in_end, in_parent), (_, out_start, out_end, out_parent) = (
        tracer.spans[1], tracer.spans[0])
    assert (in_parent, out_parent) == (0, -1)
    assert tracer.self_s["outer"] == pytest.approx(
        (out_end - out_start) - (in_end - in_start))


def test_timing_pass_counts_nothing():
    """Self times come from a pass without the counting bookkeeping."""
    timer = tracing.Tracer()
    entry = catalog_get("ctr-inc-mrdt")
    assert timer.entry(entry) is entry
    with tracing.installed(timer):
        checker.run_suite(entry, checker.CheckConfig(seed=1, tests_per_property=5))
    assert timer.calls["history.execute"] > 0
    assert not timer.counts.get("catalog.apply") and not timer.distinct


def test_hd_quantile_weighs_neighbours():
    assert run.hd_quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    # Slowing the middle verdict moves the plain median by the full amount,
    # this estimate by well under half of it.
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    slower = values[:5] + [6.9] + values[6:]
    assert statistics.median(slower) - statistics.median(values) == pytest.approx(0.9)
    assert 0 < run.hd_quantile(slower, 0.5) - run.hd_quantile(values, 0.5) < 0.45
    assert run.hd_quantile(values, 0.5) < run.hd_quantile(values, 0.9) < 11.0
