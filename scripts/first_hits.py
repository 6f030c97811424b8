#!/usr/bin/env python3
"""How soon each property catches a catalog entry's bug, over many suite seeds.

Runs ``run_suite`` once per seed and prints, for each property: how many
seeds it caught and missed, the mean and median first-hit test (a failing
verdict's test count: the history that failed, counted from the first
sweep history), and the shrunk counterexample sizes.  Missed seeds are
listed below the table.

    PYTHONPATH=src python scripts/first_hits.py ew-flag-buggy --seeds 5000:5800 \\
        --exhaustive-below 2 --tests 2500
"""

import argparse
import statistics
import sys
from collections import Counter

from salcheck.catalog import catalog_get
from salcheck.checker import CheckConfig, PropertyId, run_suite
from salcheck.cli import UsageError, _parse_props


def seed_range(text: str) -> range:
    """``A:B`` -> the seeds A, A+1, ..., B-1."""
    first, _, end = text.partition(":")
    seeds = range(int(first), int(end))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rdt", help="catalog entry id, e.g. ew-flag-buggy")
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A:B",
                    help="suite seeds A to B-1")
    ap.add_argument("--exhaustive-below", type=int, default=CheckConfig.exhaustive_below)
    ap.add_argument("--tests", type=int, default=CheckConfig.tests_per_property)
    ap.add_argument("--props", help="comma-separated property names (default: all)")
    args = ap.parse_args()

    try:
        entry = catalog_get(args.rdt)
    except KeyError:
        print(f"error: unknown catalog entry {args.rdt!r}", file=sys.stderr)
        return 2
    try:
        props = _parse_props(args.props, entry)
        CheckConfig(exhaustive_below=args.exhaustive_below,
                    tests_per_property=args.tests).validate()
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    hits: dict[PropertyId, list[int]] = {}
    sizes: dict[PropertyId, Counter] = {}
    missed: dict[PropertyId, list[int]] = {}
    for seed in args.seeds:
        cfg = CheckConfig(seed=seed, exhaustive_below=args.exhaustive_below,
                          tests_per_property=args.tests)
        for v in run_suite(entry, cfg, props).verdicts:
            hits.setdefault(v.property, [])
            sizes.setdefault(v.property, Counter())
            missed.setdefault(v.property, [])
            if v.status == "fail":
                hits[v.property].append(v.tests)
                sizes[v.property][v.counterexample.shrunk.graph.recipe.event_count()] += 1
            else:
                missed[v.property].append(seed)

    print(f"{args.rdt}, seeds {args.seeds.start}:{args.seeds.stop}, "
          f"exhaustive_below={args.exhaustive_below}, tests={args.tests}")
    print(f"{'property':<22} {'caught':>6} {'missed':>6} {'mean hit':>9} "
          f"{'median hit':>10}  shrunk events: seeds")
    for prop, found in hits.items():
        mean = f"{statistics.mean(found):.1f}" if found else "-"
        median = f"{statistics.median(found):g}" if found else "-"
        shrunk = " ".join(f"{n}:{c}" for n, c in sorted(sizes[prop].items())) or "-"
        print(f"{prop.value:<22} {len(found):>6} {len(missed[prop]):>6} {mean:>9} "
              f"{median:>10}  {shrunk}")
    for prop, seeds in missed.items():
        if seeds and hits[prop]:  # a property that never fails has nothing to miss
            print(f"{prop.value} missed seeds: {' '.join(map(str, seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
