"""Report bytes are pinned across commits by SHA-256 digests.

Each case renders ``run_suite`` to JSON and compares the digest with
``golden/report-digests.json``.  A change to any report byte, for any catalog
entry, fails here.  Run this file as a script to rewrite the golden file
(only when a report change is intended and recorded):

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from salcheck.catalog import CATALOG, catalog_get
from salcheck.checker import CheckConfig, run_suite
from salcheck.report import render_json

GOLDEN = Path(__file__).parent / "golden" / "report-digests.json"
SMALL = {"exhaustive_below": 3, "tests_per_property": 200}
CASES = {f"{e.id}/seed{seed}/small": (e.id, CheckConfig(seed=seed, **SMALL))
         for e in CATALOG for seed in (1, 42)}
CASES.update({f"{e.id}/seed42/default": (e.id, CheckConfig(seed=42)) for e in CATALOG})


def digest(rdt_id: str, cfg: CheckConfig) -> str:
    text = render_json(run_suite(catalog_get(rdt_id), cfg))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_matches_golden(case):
    expected = json.loads(GOLDEN.read_text())
    assert digest(*CASES[case]) == expected[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_report_digests.py --write")
    GOLDEN.write_text(json.dumps({c: digest(*CASES[c]) for c in sorted(CASES)},
                                 indent=2, sort_keys=True) + "\n")
