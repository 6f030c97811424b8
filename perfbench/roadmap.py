#!/usr/bin/env python3
"""Re-measure the default-suite numbers quoted in ROADMAP.md ("Recent", item 4).

Run from the root of a salcheck checkout:

    python3 perfbench/roadmap.py > perfbench/results/roadmap-seed42.json

It runs ``run_suite(entry, CheckConfig(seed=42))`` over the whole catalog
three times in this one process: untraced, for per-entry wall times; with
span wrappers only, for the layer split of every entry; and with the
counting wrappers, for how much of the sweep repeats (node states and merge
triples, distinct over total).  It prints one JSON object that sets each
measured number beside the ROADMAP figure.  It takes about four minutes on
a 2-core machine, so it is not one of the benchmark's workloads.  Times are
plain wall time on whatever machine runs this.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SEED = 42
ROADMAP = {
    "suite_s": {"g-map-mrdt": 35, "rga-mrdt": 5.5, "or-set-eff-mrdt": 5.1,
                "or-set-crdt": 4.5, "or-set-mrdt": 4.3, "any other entry (max)": 1.1},
    "g-map-mrdt split": {"BottomUpStep": 0.44, "LinearizationExists": 0.23, "MergeIdem": 0.10,
                         "MergeWithLca": 0.08, "execute": 0.06, "MergeComm": 0.05,
                         "build": 0.03},
    "states": {"g-map-mrdt": [289_519, 217], "or-set-mrdt": [60_357, 86]},
    "merge_triples": {"g-map-mrdt": [52_774, 4_698], "or-set-mrdt": [10_976, 1_219]},
}
LARGE = ("g-map-mrdt", "rga-mrdt", "or-set-eff-mrdt", "or-set-crdt", "or-set-mrdt")


def split(tracer) -> dict[str, float]:
    """Share of the suite per call made from ``run_suite`` itself: each
    evaluator with the oracle work beneath it, ``execute`` and ``build`` of
    the checked histories, and ``run_suite``'s own time."""
    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s[0] == "checker.run_suite")
    total = spans[root][2] - spans[root][1]
    shares: dict[str, float] = {"run_suite (self)": tracer.self_s["checker.run_suite"]}
    for name, start, end, parent in spans:
        if parent == root:
            key = name.rsplit(".", 1)[1]
            shares[key] = shares.get(key, 0.0) + end - start
    return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    from salcheck import checker
    from salcheck.catalog import CATALOG
    from salcheck.checker import CheckConfig

    cfg = CheckConfig(seed=SEED)
    times = {}
    for entry in CATALOG:
        start = time.perf_counter()
        checker.run_suite(entry, cfg)
        times[entry.id] = time.perf_counter() - start

    traced = {}
    for entry in CATALOG:
        timer, counter = tracing.Tracer(), tracing.Tracer(count=True)
        for tracer in (timer, counter):
            with tracing.installed(tracer):
                checker.run_suite(tracer.entry(entry), cfg)
        traced[entry.id] = {
            "split": split(timer),
            "sweep_histories": counter.counts["history.enumerate_recipes.yielded"],
            "random_histories": counter.calls["history.random_recipe"],
            "states": [counter.counts["history.states"],
                       len(counter.distinct["history.states"])],
            "merge_triples": [counter.counts["history.merge_triples"],
                              len(counter.distinct["history.merge_triples"])],
        }

    others = max(t for rdt, t in times.items() if rdt not in LARGE)
    measured_suite = {rdt: times[rdt] for rdt in LARGE}
    measured_suite["any other entry (max)"] = others
    gmap = traced["g-map-mrdt"]["split"]
    print(json.dumps({
        "config": f"run_suite(entry, CheckConfig(seed={SEED})), every catalog entry",
        "timing": "plain wall time on a shared machine with no OS tuning",
        "compare": {
            "suite_s": {k: {"roadmap": v, "measured": measured_suite[k]}
                        for k, v in ROADMAP["suite_s"].items()},
            "g-map-mrdt split": {k: {"roadmap": v, "measured": gmap.get(k, 0.0)}
                                 for k, v in ROADMAP["g-map-mrdt split"].items()},
            "states": {k: {"roadmap": v, "measured": traced[k]["states"]}
                       for k, v in ROADMAP["states"].items()},
            "merge_triples": {k: {"roadmap": v, "measured": traced[k]["merge_triples"]}
                              for k, v in ROADMAP["merge_triples"].items()},
        },
        "suite_total_s": sum(times.values()),
        "suite_s": times,
        "traced": traced,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
