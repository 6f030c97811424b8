"""Report bytes are pinned across commits by SHA-256 digests.

Each case renders ``run_suite`` to JSON and compares the digest with
``golden/report-digests.json``.  A change to any report byte, for any catalog
entry, fails here.  The same case, turned back into the previous schema's
form by ``salcheck1_document``, must match ``golden/report-digests-v1.json``,
the digests of the ``salcheck/1`` reports: the schema bump changed how a
report is written, not what it says.

Each case's report is rendered once per session by ``document`` and shared
with ``test_view_digests``.  Run this file as a script to rewrite
``report-digests.json`` and ``report-digests-v1.json`` (only when a report
change is intended and recorded):

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from salcheck.catalog import CATALOG, catalog_get
from salcheck.checker import CheckConfig, run_suite
from salcheck.history import build
from salcheck.report import first_failing_verdict, recipe_from_dict, render_json
from test_render_reference import event_to_dict, previous_graph_edges

GOLDEN = Path(__file__).parent / "golden" / "report-digests.json"
GOLDEN_V1 = Path(__file__).parent / "golden" / "report-digests-v1.json"
SMALL = {"exhaustive_below": 3, "tests_per_property": 200}
CASES = {f"{e.id}/seed{seed}/small": (e.id, CheckConfig(seed=seed, **SMALL))
         for e in CATALOG for seed in (1, 42)}
CASES.update({f"{e.id}/seed42/default": (e.id, CheckConfig(seed=42)) for e in CATALOG})


@functools.lru_cache(maxsize=None)
def document(case: str) -> str:
    """The JSON report of ``case``, as ``salcheck check --out`` writes it."""
    rdt_id, cfg = CASES[case]
    return render_json(run_suite(catalog_get(rdt_id), cfg))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def salcheck1_document(doc: dict) -> dict:
    """The ``salcheck/1`` form of a ``salcheck/2`` document: each
    counterexample's nodes, edges and event object rebuilt from its recipe,
    ``minimal`` left out, and the top-level copies of the seed and of the
    first failing verdict's property and counterexample."""
    def counterexample(cx: dict) -> dict:
        g = build(recipe_from_dict(cx["recipe"]))
        out = {k: v for k, v in cx.items() if k not in ("states", "minimal", "event")}
        out["nodes"] = [{"id": n, "label": f"v{n}", "state": state}
                        for n, state in enumerate(cx["states"])]
        out["edges"] = previous_graph_edges(g)
        if "event" in cx:
            out["event"] = event_to_dict(g.events[cx["event"] - 1])
        return out

    verdicts = [{**v, "counterexample": counterexample(v["counterexample"])}
                if "counterexample" in v else v for v in doc["verdicts"]]
    failing = first_failing_verdict({"verdicts": verdicts})
    out = {"schema": "salcheck/1", "rdt": doc["rdt"],
           "property": failing["property"] if failing else None,
           "seed": doc["config"]["seed"], "config": doc["config"], "verdicts": verdicts}
    if failing is not None:
        out["counterexample"] = failing["counterexample"]
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_matches_golden(case):
    text = document(case)
    assert sha256(text) == json.loads(GOLDEN.read_text())[case]
    v1 = json.dumps(salcheck1_document(json.loads(text)), sort_keys=True, indent=2)
    assert sha256(v1) == json.loads(GOLDEN_V1.read_text())[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
    assert sorted(json.loads(GOLDEN_V1.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_report_digests.py --write")
    GOLDEN.write_text(json.dumps({c: sha256(document(c)) for c in sorted(CASES)},
                                 indent=2, sort_keys=True) + "\n")
    GOLDEN_V1.write_text(json.dumps(
        {c: sha256(json.dumps(salcheck1_document(json.loads(document(c))), sort_keys=True,
                              indent=2)) for c in sorted(CASES)},
        indent=2, sort_keys=True) + "\n")
