"""Rendered views are pinned across commits by SHA-256 digests.

Each case builds one render model and compares the digests of its text, DOT
and HTML renderings with ``golden/view-digests.json``.  The models are:

- every report of ``test_report_digests`` (its ``document``, rendered once
  per session), read back as ``salcheck render`` reads a file:
  ``parse_report``, ``model_from_report_dict``;
- ``demo_model`` of every bundled demo recipe.

A change to any rendered byte fails here.  Run this file as a script to
rewrite the golden file (only when a view change is intended and recorded):

    PYTHONPATH=src python tests/test_view_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from salcheck.catalog import catalog_get
from salcheck.cli import DEMO_RECIPES, demo_model
from salcheck.history import run_recipe
from salcheck.report import (
    model_from_report_dict, parse_report, render_dot, render_html, render_text,
)
from test_report_digests import CASES as REPORT_CASES, document

GOLDEN = Path(__file__).parent / "golden" / "view-digests.json"
RENDERERS = {"text": render_text, "dot": render_dot, "html": render_html}
CASES = {**{f"report/{case}": case for case in REPORT_CASES},
         **{f"demo/{rid}": rid for rid in DEMO_RECIPES}}


def model(case: str):
    kind, _, name = case.partition("/")
    if kind == "report":
        return model_from_report_dict(parse_report(document(name)))
    entry = catalog_get(name)
    return demo_model(entry, run_recipe(entry.spec, DEMO_RECIPES[name]))


def digests(case: str) -> dict[str, str]:
    m = model(case)
    return {fmt: hashlib.sha256(render(m).encode()).hexdigest()
            for fmt, render in RENDERERS.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_view_digests_match_golden(case):
    expected = json.loads(GOLDEN.read_text())
    assert digests(case) == expected[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_view_digests.py --write")
    GOLDEN.write_text(json.dumps({c: digests(c) for c in sorted(CASES)},
                                 indent=2, sort_keys=True) + "\n")
