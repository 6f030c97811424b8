#!/usr/bin/env python3
"""Run the full property suite over every catalog entry and print a table.

Exit status is 1 if any entry other than a known-buggy one fails, or if a
known-buggy entry passes every property, so the script doubles as a coarse
regression gate.  Known-buggy entries are expected to fail and are reported
as such.
"""

import argparse
import sys
import time

from salcheck.catalog import CATALOG
from salcheck.checker import CheckConfig, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--tests", type=int, default=1000)
    ap.add_argument("--max-events", type=int, default=8)
    args = ap.parse_args()

    cfg = CheckConfig(tests_per_property=args.tests, seed=args.seed,
                      max_events=args.max_events,
                      exhaustive_below=min(5, args.max_events))
    width = max(len(e.id) for e in CATALOG)
    unexpected, missing = [], []
    print(f"{'entry':<{width}}  {'kind':<4}  result")
    print("-" * (width + 40))
    for entry in sorted(CATALOG, key=lambda e: e.id):
        start = time.perf_counter()
        report = run_suite(entry, cfg)
        elapsed = time.perf_counter() - start
        failing = report.first_failure()
        if failing is None:
            result = "all properties pass"
            if entry.known_buggy:
                missing.append(entry.id)
        else:
            names = ", ".join(v.property.value for v in report.verdicts
                              if v.status == "fail")
            result = f"FAIL: {names}"
            result += "  (expected)" if entry.known_buggy else ""
            if not entry.known_buggy:
                unexpected.append(entry.id)
        print(f"{entry.id:<{width}}  {entry.kind:<4}  {result}  [{elapsed:.1f}s]")
    if unexpected:
        print(f"\nunexpected failures: {', '.join(unexpected)}", file=sys.stderr)
    for rdt_id in missing:
        print(f"expected failure not found: {rdt_id}", file=sys.stderr)
    return 1 if unexpected or missing else 0


if __name__ == "__main__":
    sys.exit(main())
