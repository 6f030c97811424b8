#!/usr/bin/env python3
"""Time-to-verdict benchmark for salcheck.

Run from the root of a salcheck checkout:

    python3 perfbench/run.py --workload catalog-suite --seed 1 --seconds 27 --trace 0

It imports ``salcheck`` from ``src/`` of the current directory and exits
non-zero, printing no result, where there is none.  Rounds of the workload
run in this one process, with no extra threads, until ``--seconds`` is
spent; every verdict is checked against its known answer.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (verdicts),
``failed`` (wrong verdicts, an exception counting as one) and ``metrics``.

With ``--trace 0`` each unit of a round runs twice, seconds apart: on the
program in ``src/`` and on the frozen copy of salcheck in
``perfbench/baseline/``, in alternating order.  The metrics are the
end-to-end ones of ``BENCHMARK.json``, measured with no wrapper installed:
the program's times relative to the baseline's (``x``, below 1 is faster)
and set-up time at the reference speed.  A shared machine changes speed by
up to 2x for minutes at a time; both sides of a pair meet the same speed,
so the ratio keeps what the program does and drops what the machine does.
The plain wall times of both sides are printed before the last line.

With ``--trace 1`` round 0 of the program runs untraced and with the
:mod:`tracing` span wrappers, twice each, for self times and the tracing
overhead, then once more with the counting wrappers for counts; the metrics
are the per-layer ones in plain wall time, and spans go to
``.perfbench-out/``.  The lines before the last give the run context, the
work fingerprint and per-unit detail.

Times are plain wall time (``time.perf_counter``) on whatever machine runs
this, with no OS tuning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# What every CLI call pays before it does any work.
SETUP_CODE = "import salcheck.cli"
# Set-up is sampled before a unit once this long has passed since the last
# sample, so that the samples spread over the whole run.
SETUP_EVERY_S = 2.5
# The frozen baseline's set-up time, in seconds, on the machine the
# benchmark was written on (a shared 2-vCPU 2.1 GHz Xeon VM, Python 3.11):
# ``setup_s`` is the program's set-up time relative to the baseline's,
# timed next to it, scaled by this.
BASELINE_SETUP_S = 0.15


def _import_salcheck() -> None:
    if not (SRC / "salcheck" / "__init__.py").is_file():
        sys.exit(f"error: no salcheck sources under {SRC}; run from a salcheck checkout")
    sys.path.insert(0, str(SRC))
    import salcheck
    if Path(salcheck.__file__).resolve().parent != (SRC / "salcheck").resolve():
        sys.exit(f"error: imported salcheck from {salcheck.__file__}, not from {SRC}")


def spawn_seconds(code: str, samples: int, path: Path | None = None) -> list[float]:
    """Wall times of fresh interpreters running ``code`` with ``path``
    (``src/`` by default) on ``PYTHONPATH``, one after another."""
    env = dict(os.environ, PYTHONPATH=str(path or SRC))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def setup_pair(first_program: bool) -> tuple[float, float]:
    """Set-up time of the program and of the baseline, one straight after
    the other, in the order given."""
    from workloads import BASELINE_DIR

    paths = (SRC, BASELINE_DIR) if first_program else (BASELINE_DIR, SRC)
    times = {path: spawn_seconds(SETUP_CODE, 1, path)[0] for path in paths}
    return times[SRC], times[BASELINE_DIR]


def tree_sha256(package: Path) -> str:
    sources = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return sources.hexdigest()


def context(workload: str, seed: int) -> dict:
    from workloads import BASELINE_DIR

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout need not be a git repository
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": tree_sha256(SRC / "salcheck"),
        "baseline_sha256": tree_sha256(BASELINE_DIR / "salcheck"),
        "timing": "plain wall time on a shared machine with no OS tuning; "
                  "end-to-end times are relative to the baseline timed alongside",
    }


def run_pairs(workload, seconds: float, setup_every: float = SETUP_EVERY_S):
    """Rounds until ``seconds`` is spent: another round starts while the run
    would end less than half a round past the deadline.  At least one.

    Each unit of a round runs on the program and then on the baseline, or
    the other way round: the order alternates from unit to unit and from
    round to round.  The two times of a unit are taken seconds apart, so a
    change in the machine's speed touches both alike.  Before the first
    unit, and before any unit that starts ``setup_every`` seconds or more
    after the last sample, the set-up time of both is sampled the same way.
    Returns the program's rounds and the baseline's, each as
    ``(seconds, units)`` with seconds the sum of its units' times, and the
    set-up pairs ``(program, baseline)``."""
    from workloads import BASELINE, PROGRAM, run_unit

    rounds, base_rounds, setup = [], [], []
    start = time.perf_counter()
    last_setup = -setup_every
    while True:
        index = len(rounds)
        t0 = time.perf_counter()
        ours, theirs = [], []
        for k, (label, body) in enumerate(workload.units(index)):
            if time.perf_counter() - last_setup >= setup_every:
                last_setup = time.perf_counter()
                setup.append(setup_pair(len(setup) % 2 == 0))
            program_first = (index + k) % 2 == 0
            for program in (PROGRAM, BASELINE) if program_first else (BASELINE, PROGRAM):
                unit = run_unit(label, body, program)
                (ours if program is PROGRAM else theirs).append(unit)
        rounds.append((sum(u.seconds for u in ours), ours))
        base_rounds.append((sum(u.seconds for u in theirs), theirs))
        elapsed = time.perf_counter() - t0
        if time.perf_counter() - start + elapsed / 2 >= seconds:
            return rounds, base_rounds, setup


def pair_seconds(rounds, base_rounds) -> dict:
    """Each unit's ``[program, baseline]`` times, by label, round by round."""
    pairs: dict[str, list] = {}
    for (_, ours), (_, theirs) in zip(rounds, base_rounds):
        for a, b in zip(ours, theirs):
            pairs.setdefault(a.label, []).append([a.seconds, b.seconds])
    return pairs


def fingerprint(units) -> dict:
    return {
        "work_sha256": hashlib.sha256(json.dumps(
            [(u.label, u.checks, u.digest) for u in units]).encode()).hexdigest(),
        "units": {u.label: {"checks": u.checks, "digest": u.digest} for u in units},
    }


def verdicts(rounds) -> tuple[int, int, list]:
    """Attempted and wrong verdicts.  A unit whose report differs from the
    same unit in round 0 is wrong too: reports are deterministic per seed."""
    first = {u.label: u.digest for u in rounds[0][1]}
    attempted, wrong = 0, []
    for index, (_, units) in enumerate(rounds):
        for u in units:
            attempted += 1
            if not u.ok or first.get(u.label, u.digest) != u.digest:
                wrong.append({"round": index, "unit": u.label, "error": u.error})
    return attempted, len(wrong), wrong


def verdict_seconds(rounds) -> list[float]:
    """Each verdict's time: the mean over the rounds that ran it.

    Verdicts that recur in every round (catalog entries, sweeps) differ in
    size, so pooling all samples would put a percentile on whichever single
    sample sits at the edge between two sizes.  The machine's speed drifts
    over tens of seconds, and a mean over the whole run averages that drift
    where a median of a few rounds would pick one of its phases."""
    by_label: dict[str, list[float]] = {}
    for _, units in rounds:
        for u in units:
            by_label.setdefault(u.label, []).append(u.seconds)
    return [statistics.fmean(times) for times in by_label.values()]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density over
    ``[i/n, (i+1)/n]``.

    The workloads whose verdicts recur have 11 or 14 verdicts of very
    different sizes, so the plain median is one verdict's time and moves
    with that verdict alone.  This estimate spreads the weight over the
    neighbouring verdicts, so no single one sets it."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 200 * n  # midpoint rule; each order statistic gets 200 cells
    weights = [0.0] * n
    for k in range(cells):
        t = (k + 0.5) / cells
        weights[k // 200] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds, base_rounds, setup) -> dict:
    """The program's times relative to the baseline's over the same units,
    which the machine's speed moves alike, and its peak memory."""
    def total(rs, field):
        return sum(getattr(u, field) for _, us in rs for u in us)

    ours, theirs = verdict_seconds(rounds), verdict_seconds(base_rounds)
    return {
        "setup_s": (BASELINE_SETUP_S * statistics.median(p / b for p, b in setup), "s"),
        "round_rel": (total(rounds, "seconds") / total(base_rounds, "seconds"), "x"),
        "verdict_p50_rel": (hd_quantile(ours, 0.5) / hd_quantile(theirs, 0.5), "x"),
        "verdict_p90_rel": (hd_quantile(ours, 0.9) / hd_quantile(theirs, 0.9), "x"),
        "checks_per_s_rel": (total(rounds, "checks") / total(rounds, "seconds")
                             / (total(base_rounds, "checks") / total(base_rounds, "seconds")),
                             "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_times(rounds) -> dict:
    """Plain wall-time figures of one side of a paired run."""
    per_verdict = verdict_seconds(rounds)
    units = [u for _, us in rounds for u in us]
    seconds = sum(u.seconds for u in units)
    return {
        "round_s": seconds / len(rounds),
        "verdict_p50_s": hd_quantile(per_verdict, 0.5),
        "verdict_p90_s": hd_quantile(per_verdict, 0.9),
        "checks_per_s": sum(u.checks for u in units) / seconds,
    }


def cx_events_max(rounds) -> int | None:
    """The largest counterexample the run found, in events (at most
    ``workloads.MAX_CX_EVENTS`` on a correct verdict)."""
    cx = [u.cx_events for _, us in rounds for u in us if u.cx_events is not None]
    return max(cx) if cx else None


def per_layer(timers, counter, untraced_s: float, traced_s: float, import_s: float) -> dict:
    """Self times (the mean over ``timers``, one per pass) and calls from the
    span-only passes; counts and distinct fractions from ``counter``'s pass
    over the same work."""
    from salcheck.checker import PropertyId

    timer = timers[0]

    def self_s(name: str) -> float:
        return statistics.fmean(t.self_s.get(name, 0.0) for t in timers)

    out = {}
    for name in ("history.enumerate_recipes", "history.build", "history.execute",
                 "history.random_recipe", "checker.run_suite", "checker.oracle_sweep",
                 "checker.linearization_oracle", "checker.shrink"):
        out[name + ".s"] = (self_s(name), "s")
        out[name + ".n"] = (timer.calls.get(name, 0), "count")
    for prop in PropertyId:
        name = f"checker.eval.{prop.value}"
        out[name + ".s"] = (self_s(name), "s")
        out[name + ".n"] = (timer.calls.get(name, 0), "count")
    for metric, name in (("history.enumerate_recipes.yielded", "history.enumerate_recipes.yielded"),
                         ("history.states.n", "history.states"),
                         ("history.merge_triples.n", "history.merge_triples"),
                         ("catalog.apply.n", "catalog.apply"),
                         ("catalog.merge.n", "catalog.merge"),
                         ("catalog.replay_apply.n", "catalog.replay_apply"),
                         ("checker.oracle.orders_tried", "checker.oracle.orders_tried"),
                         ("checker.shrink.steps", "checker.shrink.steps")):
        out[metric] = (counter.counts.get(name, 0), "count")
    out["checker.shrink.candidates"] = (timer.builds_under("checker.shrink"), "count")
    for name in ("catalog.apply", "catalog.merge", "history.states", "history.merge_triples"):
        out[name + ".distinct_frac"] = (counter.distinct_frac(name), "ratio")
    for name in ("render_json", "parse_report", "model_from_report_dict",
                 "render_text", "render_dot", "render_html"):
        out[f"report.{name}.s"] = (self_s(f"report.{name}"), "s")
    out["cli.import.s"] = (import_s, "s")
    out["trace.untraced_round_s"] = (untraced_s, "s")
    out["trace.traced_round_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def traced_run(workload):
    """Round 0 five times: untraced, with span wrappers only (self times,
    calls), again with span wrappers, untraced again, and last with the
    counting wrappers (counts, distinct fractions, histories per unit),
    whose time is dropped.  The untraced and span-only rounds are ordered
    so that a steady drift in the machine's speed cancels from the overhead,
    traced minus untraced.  Returns the per-layer metrics, the five rounds,
    the first span tracer and detail for the output."""
    import tracing

    def timed_round(tracer=None):
        start = time.perf_counter()
        if tracer is None:
            units = workload.round(0)
        else:
            with tracing.installed(tracer):
                units = workload.round(0, hooks=tracer)
        return time.perf_counter() - start, units

    import_s = (statistics.median(spawn_seconds(SETUP_CODE, 5))
                - statistics.median(spawn_seconds("pass", 5)))
    timers, counter = [tracing.Tracer(), tracing.Tracer()], tracing.Tracer(count=True)
    rounds = [timed_round(), timed_round(timers[0]), timed_round(timers[1]), timed_round(),
              timed_round(counter)]
    untraced_s = statistics.fmean((rounds[0][0], rounds[3][0]))
    traced_s = statistics.fmean((rounds[1][0], rounds[2][0]))
    extra = {
        "spans": len(timers[0].spans),
        "tracing_overhead_frac": (traced_s - untraced_s) / untraced_s,
        "counting_round_s": rounds[4][0],
        "histories_by_unit": counter.per_unit,
        "self_s_by_span": dict(sorted(timers[0].self_s.items(), key=lambda kv: -kv[1])),
    }
    return per_layer(timers, counter, untraced_s, traced_s, import_s), rounds, timers[0], extra


def main(argv=None) -> int:
    _import_salcheck()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload](args.seed)
    detail = {"context": context(args.workload, args.seed)}
    base_wrong = []
    if args.trace:
        metrics, rounds, tracer, detail["trace"] = traced_run(workload)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.write_spans(spans_path)
        detail["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rounds, base_rounds, setup = run_pairs(workload, args.seconds)
        metrics = end_to_end(rounds, base_rounds, setup)
        base_wrong = verdicts(base_rounds)[2]
        detail.update({
            "setup_seconds": {"program": [p for p, _ in setup], "baseline": [b for _, b in setup]},
            "wall": {"program": wall_times(rounds), "baseline": wall_times(base_rounds)},
            "baseline_wrong_verdicts": base_wrong,
            "pair_seconds": pair_seconds(rounds, base_rounds),
            "same_work_as_baseline": fingerprint(rounds[0][1]) == fingerprint(base_rounds[0][1]),
        })
    attempted, failed, wrong = verdicts(rounds)
    units = rounds[0][1]
    detail.update({
        "wrong_verdict_frac": failed / attempted,
        "wrong_verdicts": wrong,
        "cx_events_max": cx_events_max(rounds),
        "round_seconds": [r for r, _ in rounds],
        "verdicts_timed": sum(len(us) for _, us in rounds),
        "fingerprint": fingerprint(units),
        "round0_seconds": {u.label: u.seconds for u in units},
    })
    print(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0 and not base_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
