"""``salcheck oracle`` output is pinned across commits by SHA-256 digests.

Each case runs ``salcheck oracle RDT --max-events N`` and compares the SHA-256
of its stdout, and its exit code, with ``golden/oracle-digests.json``.  The
cases are every catalog entry at 4 events and the small-alphabet entries at
5, which include ew-flag-buggy's rendered unlinearizable history.  Run this
file as a script to rewrite the golden file (only when an output change is
intended and recorded):

    PYTHONPATH=src python tests/test_oracle_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from salcheck.catalog import CATALOG
from salcheck.cli import main

GOLDEN = Path(__file__).parent / "golden" / "oracle-digests.json"
SMALL_ALPHABETS = ["ctr-inc-mrdt", "pn-ctr-mrdt", "ew-flag-buggy", "ew-flag-fixed",
                   "g-set-mrdt", "mv-reg-mrdt", "ctr-inc-crdt", "pn-ctr-crdt", "mv-reg-crdt"]
CASES = {f"{e.id}/{n}": (e.id, n) for e in CATALOG for n in (4, 5)
         if n == 4 or e.id in SMALL_ALPHABETS}


def digest(rdt_id: str, max_events: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oracle", rdt_id, "--max-events", str(max_events)])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_output_matches_golden(case):
    expected = json.loads(GOLDEN.read_text())
    assert digest(*CASES[case]) == expected[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_golden_pins_the_buggy_flags_failure():
    expected = json.loads(GOLDEN.read_text())
    assert all(v["exit"] == (1 if c.startswith("ew-flag-buggy/") else 0)
               for c, v in expected.items())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_oracle_digests.py --write")
    GOLDEN.write_text(json.dumps({c: digest(*CASES[c]) for c in sorted(CASES)},
                                 indent=2, sort_keys=True) + "\n")
