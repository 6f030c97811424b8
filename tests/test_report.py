"""Serialization (salcheck/2 JSON), validation, and the three renderers."""

import functools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from salcheck.model import Inc, Dec, Add, Rem, Enable, Disable, Insert, Delete, Write, MapSet, Event
from salcheck.catalog import catalog_get, payload_pool
from salcheck.checker import PropertyId, CheckConfig, EVALUATORS, run_suite
from salcheck.history import Recipe, ApplyOp, JoinOp, build, execute, run_recipe, diamond
from salcheck.report import (
    SCHEMA, ReportFormatError,
    payload_to_dict, payload_from_dict,
    recipe_to_dict, recipe_from_dict, config_to_dict, config_from_dict,
    suite_report_to_dict, render_json, parse_report, validate_report,
    model_from_execution, model_from_suite, model_from_report_dict, first_failing_verdict,
    render_text, render_dot, render_html,
)
from test_report_digests import salcheck1_document

SMALL = CheckConfig(tests_per_property=25, seed=7, max_events=4, exhaustive_below=2)


@functools.lru_cache(maxsize=1)
def passing_report():
    return run_suite(catalog_get("g-set-mrdt"), SMALL)


@functools.lru_cache(maxsize=1)
def failing_report():
    return run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=42))


# ---------------------------------------------------------------------------
# Value <-> dict round trips.

PAYLOADS = st.one_of(
    st.just(Inc()), st.just(Dec()), st.just(Enable()), st.just(Disable()),
    st.integers(1, 9).map(Add), st.integers(1, 9).map(Rem),
    st.integers(1, 9).map(Insert), st.integers(1, 9).map(Delete),
    st.integers(1, 9).map(Write),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda kv: MapSet(kv[0], Add(kv[1]))),
)


@settings(max_examples=200, derandomize=True)
@given(PAYLOADS)
def test_payload_round_trip(op):
    assert payload_from_dict(payload_to_dict(op)) == op


def test_recipe_round_trip_with_joins():
    r = Recipe((ApplyOp(0, Add(1)), ApplyOp(1, Add(2)), JoinOp(1, 0), ApplyOp(1, Rem(1))))
    assert recipe_from_dict(recipe_to_dict(r)) == r


def test_config_round_trip():
    cfg = CheckConfig(tests_per_property=12, seed=5, max_events=6, replica_count=3,
                      exhaustive_below=3, shrink_budget=99, literal_pool=(2, 4), max_joins=2)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_unknown_payload_kind_rejected():
    with pytest.raises(ReportFormatError, match=r"op\.kind: unknown payload kind"):
        payload_from_dict({"kind": "frobnicate"})


# ---------------------------------------------------------------------------
# Suite report documents.


def test_json_is_byte_identical_for_same_config():
    a = render_json(run_suite(catalog_get("g-set-mrdt"), SMALL))
    b = render_json(run_suite(catalog_get("g-set-mrdt"), SMALL))
    assert a.encode() == b.encode()


def test_report_document_round_trip_lossless():
    doc = suite_report_to_dict(failing_report())
    assert parse_report(render_json(failing_report())) == doc
    # rendering an already-parsed document is stable
    assert render_json(parse_report(render_json(doc))) == render_json(doc)


def test_passing_report_shape():
    doc = suite_report_to_dict(passing_report())
    assert sorted(doc) == ["config", "rdt", "schema", "verdicts"]
    assert doc["schema"] == SCHEMA
    assert doc["rdt"] == "g-set-mrdt"
    assert all(v["status"] in ("pass", "vacuous") for v in doc["verdicts"])
    validate_report(doc)


def test_failing_report_shape():
    doc = suite_report_to_dict(failing_report())
    assert sorted(doc) == ["config", "rdt", "schema", "verdicts"]
    assert first_failing_verdict(doc)["property"] == "BottomUpStep"
    cx = first_failing_verdict(doc)["counterexample"]
    assert cx["lhs"] == "(2, true)" and cx["rhs"] == "(2, false)"
    cr = failing_report().first_failure().counterexample
    assert recipe_from_dict(cx["recipe"]) == cr.shrunk.graph.recipe
    assert len(cx["states"]) == len(cr.shrunk.graph.nodes)
    assert cx["minimal"] is cr.minimal is True


def test_counterexample_replayed_from_document_still_fails():
    doc = parse_report(render_json(failing_report()))
    failing = first_failing_verdict(doc)
    recipe = recipe_from_dict(failing["counterexample"]["recipe"])
    spec = catalog_get(doc["rdt"]).spec
    violation = EVALUATORS[PropertyId(failing["property"])](spec, run_recipe(spec, recipe))
    assert violation is not None


# ---------------------------------------------------------------------------
# Validation errors carry field paths.


def valid_doc():
    return suite_report_to_dict(passing_report())


def test_validate_missing_schema():
    d = valid_doc(); del d["schema"]
    with pytest.raises(ReportFormatError, match=r"\$\.schema: missing"):
        validate_report(d)


def test_validate_wrong_schema():
    d = valid_doc(); d["schema"] = "salcheck/0"
    with pytest.raises(ReportFormatError, match=r"\$\.schema: expected 'salcheck/2'"):
        validate_report(d)


def test_validate_refuses_a_salcheck1_document():
    d = salcheck1_document(parse_report(render_json(failing_report())))
    with pytest.raises(ReportFormatError,
                       match=r"^\$\.schema: expected 'salcheck/2', got 'salcheck/1'$"):
        validate_report(d)


def test_validate_bad_status():
    d = valid_doc(); d["verdicts"][0]["status"] = "maybe"
    with pytest.raises(ReportFormatError, match=r"\$\.verdicts\[0\]\.status"):
        validate_report(d)


def test_validate_bool_is_not_int():
    d = valid_doc(); d["config"]["seed"] = True
    with pytest.raises(ReportFormatError, match=r"^\$\.config\.seed: expected int"):
        validate_report(d)


def test_validate_bad_payload_in_counterexample():
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, 0)
    cx["recipe"]["steps"][0]["op"]["kind"] = "nonsense"
    with pytest.raises(ReportFormatError, match="^" + re.escape(where + ".recipe.steps[0].op.kind")):
        validate_report(d)


@pytest.mark.parametrize("key, value", [
    ("replica_count", 1), ("literal_pool", [2, 3, 4]), ("tests_per_property", 0),
    ("max_joins", -1), ("exhaustive_below", 99),
])
def test_validate_refuses_a_config_check_config_refuses(key, value):
    d = valid_doc(); d["config"][key] = value
    with pytest.raises(ReportFormatError, match=r"^\$\.config: "):
        parse_report(json.dumps(d))


def _edit_first(steps: list, kind: str) -> tuple[int, dict]:
    return next((i, s) for i, s in enumerate(steps) if s["type"] == kind)


def _counterexample_at(d: dict, which: int) -> tuple[dict, str]:
    """The counterexample of the first (0) or the last (-1) failing verdict, and its path."""
    v = [i for i, vd in enumerate(d["verdicts"]) if vd["status"] == "fail"][which]
    return d["verdicts"][v]["counterexample"], f"$.verdicts[{v}].counterexample"


# ew-flag-buggy fails BottomUpStep and, later, LinearizationExists.
EVERY_COUNTEREXAMPLE = pytest.mark.parametrize("which", [0, -1], ids=["verdict", "last-verdict"])


@EVERY_COUNTEREXAMPLE
@pytest.mark.parametrize("edit, message", [
    (lambda steps: _edit_first(steps, "apply")[1].update(replica=9),
     r"\.steps\[{i}\]: apply on unknown replica 9"),
    (lambda steps: _edit_first(steps, "join")[1].update(source=_edit_first(steps, "join")[1]["target"]),
     r"\.steps\[{i}\]: join of a replica with itself"),
    (lambda steps: _edit_first(steps, "apply")[1].update(op={"kind": "inc"}),
     r"\.steps\[{i}\]\.op\.kind: 'inc' is outside the rdt's payloads"),
], ids=["replica", "self-join", "payload"])
def test_validate_refuses_a_recipe_that_cannot_be_replayed(which, edit, message):
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, which)
    steps = cx["recipe"]["steps"]
    edit(steps)
    kind = "join" if "join" in message else "apply"
    i = _edit_first(steps, kind)[0]
    path = re.escape(where + ".recipe")
    with pytest.raises(ReportFormatError, match="^" + path + message.format(i=i)):
        parse_report(json.dumps(d))


@EVERY_COUNTEREXAMPLE
@pytest.mark.parametrize("edit, message", [
    (lambda states: states.pop(), r"\.states: {short} states, the recipe's graph has {n} nodes"),
    (lambda states: states.append("x"), r"\.states: {long} states, the recipe's graph has {n} nodes"),
    (lambda states: states.__setitem__(0, 0), r"\.states\[0\]: expected str"),
], ids=["one-short", "one-long", "non-str"])
def test_validate_refuses_states_other_than_one_str_per_node(which, edit, message):
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, which)
    n = len(build(recipe_from_dict(cx["recipe"])).nodes)
    edit(cx["states"])
    message = message.format(short=n - 1, long=n + 1, n=n)
    with pytest.raises(ReportFormatError, match="^" + re.escape(where) + message + "$"):
        parse_report(json.dumps(d))


@pytest.mark.parametrize("where, edit", [
    ("$.seed", lambda d: d.update(seed=99)),
    ("$.property", lambda d: d.update(property="MergeComm")),
    ("$.config.seeds", lambda d: d["config"].update(seeds=[1])),
    ("$.verdicts[0].seed", lambda d: d["verdicts"][0].update(seed=7)),
], ids=["top-seed", "top-property", "config", "verdict"])
def test_validate_refuses_an_unknown_key(where, edit):
    d = valid_doc(); edit(d)
    with pytest.raises(ReportFormatError, match="^" + re.escape(where) + ": unknown key$"):
        parse_report(json.dumps(d))


@EVERY_COUNTEREXAMPLE
@pytest.mark.parametrize("suffix, edit", [
    ("property", lambda cx: cx.update(property="BottomUpStep")),
    ("recipe.seed", lambda cx: cx["recipe"].update(seed=42)),
    ("recipe.steps[{i}].label", lambda cx: _edit_first(cx["recipe"]["steps"], "apply")[1]
     .update(label="enable")),
    ("recipe.steps[{j}].ts", lambda cx: _edit_first(cx["recipe"]["steps"], "join")[1].update(ts=1)),
    ("recipe.steps[{i}].op.elem", lambda cx: _edit_first(cx["recipe"]["steps"], "apply")[1]["op"]
     .update(elem=1)),
], ids=["counterexample", "recipe", "apply-step", "join-step", "payload"])
def test_validate_refuses_an_unknown_key_in_a_counterexample(which, suffix, edit):
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, which)
    steps = cx["recipe"]["steps"]
    i, j = _edit_first(steps, "apply")[0], _edit_first(steps, "join")[0]
    edit(cx)
    where = f"{where}.{suffix.format(i=i, j=j)}"
    with pytest.raises(ReportFormatError, match="^" + re.escape(where) + ": unknown key$"):
        parse_report(json.dumps(d))


@pytest.mark.parametrize("value", [1, None, "true"], ids=["int", "null", "str"])
def test_validate_refuses_minimal_other_than_a_bool(value):
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, 0)
    cx["minimal"] = value
    with pytest.raises(ReportFormatError, match="^" + re.escape(where + ".minimal: expected bool")):
        parse_report(json.dumps(d))


def test_validate_refuses_a_failing_verdict_without_counterexample():
    d = parse_report(render_json(failing_report()))
    v = next(i for i, vd in enumerate(d["verdicts"]) if vd["status"] == "fail")
    del d["verdicts"][v]["counterexample"]
    with pytest.raises(ReportFormatError, match=rf"^\$\.verdicts\[{v}\]\.counterexample: missing"):
        parse_report(json.dumps(d))


def test_validate_refuses_a_counterexample_on_a_passing_verdict():
    d = parse_report(render_json(failing_report()))
    v = next(i for i, vd in enumerate(d["verdicts"]) if vd["status"] == "pass")
    d["verdicts"][v]["counterexample"] = first_failing_verdict(d)["counterexample"]
    with pytest.raises(ReportFormatError,
                       match=rf"^\$\.verdicts\[{v}\]\.counterexample: present in a 'pass' verdict"):
        parse_report(json.dumps(d))


def _verdict_of(d: dict, prop: PropertyId) -> int:
    return next(i for i, vd in enumerate(d["verdicts"]) if vd["property"] == prop.value)


@pytest.mark.parametrize("value, message", [(True, "expected int"), (-1, "must be non-negative")],
                         ids=["bool", "negative"])
def test_validate_refuses_linearizations_tried_other_than_a_count(value, message):
    d = parse_report(render_json(failing_report()))
    v = _verdict_of(d, PropertyId.LINEARIZATION_EXISTS)
    d["verdicts"][v]["counterexample"]["linearizations_tried"] = value
    with pytest.raises(ReportFormatError, match=rf"^\$\.verdicts\[{v}\]\.counterexample"
                                                rf"\.linearizations_tried: {message}"):
        parse_report(json.dumps(d))


@EVERY_COUNTEREXAMPLE
def test_validate_refuses_negative_shrink_steps(which):
    d = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(d, which)
    cx["shrink_steps"] = -5
    with pytest.raises(ReportFormatError,
                       match="^" + re.escape(where) + r"\.shrink_steps: must be non-negative"):
        parse_report(json.dumps(d))


def test_validate_refuses_negative_tests():
    d = parse_report(render_json(failing_report()))
    d["verdicts"][0]["tests"] = -7
    with pytest.raises(ReportFormatError, match=r"^\$\.verdicts\[0\]\.tests: must be non-negative"):
        parse_report(json.dumps(d))


def test_parse_rejects_truncated_json():
    text = render_json(passing_report())[:-20]
    with pytest.raises(ReportFormatError, match=r"\$: not valid JSON"):
        parse_report(text)


# ---------------------------------------------------------------------------
# Renderers.


def or_set_demo_execution():
    spec = catalog_get("or-set-mrdt").spec
    return run_recipe(spec, diamond((Rem(1),), (Add(1),), prefix=(Add(1),)))


def test_trace_steps_arrow_text():
    ex = or_set_demo_execution()
    lines = [s.text() for s in model_from_execution(ex).panels[0].steps]
    assert lines[0] == "v0 [#[]#] --add(1,t=1,r=0)--> v1 [#[(1, 1)]#]"
    assert any(line.startswith("merge(") for line in lines)


def test_render_text_execution_sections():
    out = render_text(model_from_execution(or_set_demo_execution()))
    title, underline, blank, header = out.splitlines()[:4]
    assert underline == "=" * len(title)
    assert header == "Trace:"
    assert "mismatch" not in out


def test_render_text_counterexample_mismatch_line():
    model = model_from_suite(failing_report())
    out = render_text(model)
    assert "BottomUpStep violation" in out
    assert "History:" in out and "LHS:" in out and "RHS:" in out
    assert "mismatch: (2, true) != (2, false)" in out


def test_render_text_unlinearizable_note():
    report = run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=42),
                       properties=(PropertyId.LINEARIZATION_EXISTS,))
    out = render_text(model_from_suite(report))
    assert "!! no admissible order replays to" in out
    assert "mismatch:" not in out  # single panel, the note carries the message


def test_render_dot_structure():
    out = render_dot(model_from_suite(failing_report()))
    assert out.startswith("digraph salcheck {")
    assert out.rstrip().endswith("}")
    assert '"v0" [label="v0\\n(0, false)"];' in out
    assert "fillcolor=yellow" in out          # op boxes
    assert "style=dashed, label=\"lca\"" in out
    assert "subgraph cluster_0" in out        # LHS/RHS panels


def test_render_dot_escapes_quotes():
    out = render_dot(model_from_execution(or_set_demo_execution()))
    assert '"' in out and out.count('"') % 2 == 0


def test_render_html_structure():
    out = render_html(model_from_suite(failing_report()))
    assert out.startswith("<!DOCTYPE html>")
    assert "</body></html>" in out.replace("\n", "")
    assert '<span class="op">' in out and "&rarr;" in out
    assert "(2, true)" in out and "(2, false)" in out


def test_render_html_escapes_markup():
    out = render_html(model_from_execution(or_set_demo_execution()))
    assert "<script" not in out
    assert "#[(1, 1)]#" in out


def test_renderers_are_pure():
    model = model_from_suite(failing_report())
    assert render_text(model) == render_text(model)
    assert render_dot(model) == render_dot(model)
    assert render_html(model) == render_html(model)


# ---------------------------------------------------------------------------
# Rebuilding a render model from a parsed document.


def test_model_from_report_dict_failing():
    doc = parse_report(render_json(failing_report()))
    model = model_from_report_dict(doc)
    assert model.title == "ew-flag-buggy: BottomUpStep violation (shrunk to 4 events in 0 steps)"
    assert model == model_from_suite(failing_report())
    assert model.mismatch
    finals = [p.final for p in model.panels]
    assert finals == ["(2, true)", "(2, false)"]
    out = render_text(model)
    assert "mismatch: (2, true) != (2, false)" in out


def test_failing_doc_locates_the_violation():
    cx = first_failing_verdict(suite_report_to_dict(failing_report()))["counterexample"]
    assert cx["node"] == 6
    assert cx["event"] == 4
    assert build(recipe_from_dict(cx["recipe"])).events[3] == Event(4, 1, Disable())
    lhs, rhs = model_from_report_dict(parse_report(render_json(failing_report()))).panels
    assert lhs.steps[0].text() == "merge(v5, v4 | lca=v3) --> v6 [(2, true)]"
    assert rhs.steps[0].text() == "merge(v3, v4 | lca=v3) --disable(t=4,r=1)--> [(2, false)]"


@pytest.mark.parametrize("dropped", [("event",), ("node", "event")])
def test_doc_without_violation_location_still_renders(dropped):
    doc = parse_report(render_json(failing_report()))
    for key in dropped:
        del first_failing_verdict(doc)["counterexample"][key]
    validate_report(doc)
    where = " at v6" if "node" not in dropped else ""
    model = model_from_report_dict(doc)
    lhs, rhs = model.panels
    assert lhs.steps[0].text() == f"computed{where}: [(2, true)]"
    assert rhs.steps[0].text() == f"expected{where}: [(2, false)]"
    assert "mismatch: (2, true) != (2, false)" in render_text(model)
    assert render_dot(model) and render_html(model)


def test_validate_event_not_on_a_side_of_node():
    doc = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(doc, 0)
    cx["event"] = 1  # enters v1, not a side of the merge at v6
    with pytest.raises(ReportFormatError,
                       match="^" + re.escape(where) + r"\.event: not applied into a side of merge node$"):
        validate_report(doc)


@pytest.mark.parametrize("value, message", [
    (0, "not a timestamp of the recipe's events"),
    (5, "not a timestamp of the recipe's events"),  # the recipe has 4 events
    (True, "expected int"),
    ({"ts": 4, "replica": 1, "op": {"kind": "disable"}}, "expected int"),  # salcheck/1's form
], ids=["zero", "out-of-range", "bool", "object"])
def test_validate_refuses_an_event_other_than_a_timestamp(value, message):
    doc = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(doc, 0)
    cx["event"] = value
    with pytest.raises(ReportFormatError, match="^" + re.escape(where) + r"\.event: " + message + "$"):
        validate_report(doc)


def test_validate_node_not_among_ids():
    doc = parse_report(render_json(failing_report()))
    cx, where = _counterexample_at(doc, 0)
    cx["node"] = 99
    with pytest.raises(ReportFormatError,
                       match="^" + re.escape(where) + r"\.node: not a node of the recipe's graph$"):
        validate_report(doc)


def test_model_from_report_dict_passing():
    doc = parse_report(render_json(passing_report()))
    model = model_from_report_dict(doc)
    assert "suite passed" in model.title
    assert not model.mismatch
    assert model.nodes == () and model.edges == ()


# A ctr-inc-crdt report as written while CRDT suites also checked LatticeComm
# and LatticeIdem (``salcheck check ctr-inc-crdt --seed 42``).
CRDT_REPORT_WITH_LATTICE_COMM_AND_IDEM = {
    "schema": "salcheck/2",
    "rdt": "ctr-inc-crdt",
    "config": {"exhaustive_below": 5, "literal_pool": [1, 2, 3], "max_events": 8,
               "max_joins": 1, "replica_count": 2, "seed": 42, "shrink_budget": 500,
               "tests_per_property": 1000},
    "verdicts": [{"property": p, "status": status, "tests": tests} for p, status, tests in (
        ("MergeIdem", "pass", 1000), ("MergeComm", "pass", 1000),
        ("BottomUpStep", "pass", 1000), ("RcPolicy", "vacuous", 0),
        ("LinearizationExists", "pass", 1000), ("LatticeComm", "pass", 1000),
        ("LatticeAssoc", "pass", 1000), ("LatticeIdem", "pass", 1000))],
}


def test_a_report_naming_lattice_comm_and_idem_still_loads():
    doc = parse_report(json.dumps(CRDT_REPORT_WITH_LATTICE_COMM_AND_IDEM, indent=2))
    assert doc == CRDT_REPORT_WITH_LATTICE_COMM_AND_IDEM
    model = model_from_report_dict(doc)
    assert "suite passed" in model.title
    assert not model.mismatch
    assert "LatticeComm: pass (1000 tests)" in render_text(model)
    assert "LatticeIdem: pass (1000 tests)" in render_text(model)
    assert render_dot(model) and render_html(model)


def test_model_from_report_dict_rejects_invalid():
    with pytest.raises(ReportFormatError):
        model_from_report_dict({"schema": SCHEMA})
