"""The ``salcheck`` command: exit codes, output contracts, file side effects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salcheck
from salcheck.catalog import CATALOG, catalog_get
from salcheck.checker import CheckConfig, run_suite
from salcheck.cli import main
from salcheck.report import SCHEMA, first_failing_verdict, parse_report, render_json
from test_report_digests import salcheck1_document


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SALCHECK_SEED", raising=False)
    return tmp_path


# ---------------------------------------------------------------------------
# list


def test_list_shows_all_entries_sorted(capsys, in_tmp):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14
    ids = [line.split()[0] for line in lines]
    assert ids == sorted(ids)
    buggy = [line for line in lines if "KNOWN-BUGGY" in line]
    assert len(buggy) == 1 and buggy[0].startswith("ew-flag-buggy")


def test_list_json(capsys, in_tmp):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 14
    assert all({"id", "kind", "known_buggy", "notes"} <= set(e) for e in doc)
    assert sum(e["known_buggy"] for e in doc) == 1


# ---------------------------------------------------------------------------
# check


def test_check_buggy_flag_fails_and_writes_report(capsys, in_tmp):
    assert main(["check", "ew-flag-buggy", "--seed", "42"]) == 1
    out = capsys.readouterr().out
    assert "BottomUpStep" in out and "fail" in out
    assert "report written to ew-flag-buggy-report.json" in out
    assert "mismatch: (2, true) != (2, false)" in out
    doc = parse_report((in_tmp / "ew-flag-buggy-report.json").read_text())
    assert doc["rdt"] == "ew-flag-buggy"
    assert first_failing_verdict(doc)["property"] == "BottomUpStep"


def test_check_three_replicas_passes(capsys, in_tmp):
    # At this seed the random phase draws merges with no unique LCA.
    assert main(["check", "ctr-inc-mrdt", "--replicas", "3", "--seed", "1"]) == 0
    assert "LinearizationExists    pass     (1000 tests)" in capsys.readouterr().out


def test_check_one_replica_is_a_usage_error(capsys, in_tmp):
    assert main(["check", "ctr-inc-mrdt", "--replicas", "1", "--seed", "1",
                 "--tests", "50"]) == 2
    assert "error: --replicas must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--max-events", "0", "--max-events must be >= 1, got 0"),
    ("--tests", "0", "--tests must be >= 1, got 0"),
    ("--replicas", "0", "--replicas must be >= 2, got 0"),
    ("--shrink-budget", "0", "--shrink-budget must be >= 1, got 0"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
])
def test_check_names_the_refused_flag(capsys, in_tmp, flag, value, message):
    args = ["check", "ctr-inc-mrdt", flag, value]
    assert main(args if flag == "--seed" else args + ["--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_names_a_refused_environment_seed(capsys, in_tmp, monkeypatch):
    monkeypatch.setenv("SALCHECK_SEED", "-5")
    assert main(["check", "ctr-inc-mrdt"]) == 2
    assert capsys.readouterr().err == "error: SALCHECK_SEED must be >= 0, got -5\n"


def test_check_does_not_rename_a_specs_own_value_error(capsys, in_tmp, monkeypatch):
    def suite(*args, **kwargs):
        raise ValueError("max_events must be >= 1, got 3")
    monkeypatch.setattr("salcheck.cli.run_suite", suite)
    assert main(["check", "ctr-inc-mrdt", "--seed", "1", "--max-events", "3"]) == 2
    assert capsys.readouterr().err == "error: max_events must be >= 1, got 3\n"


def test_check_passing_entry_exit_zero_no_report_file(capsys, in_tmp):
    code = main(["check", "g-set-mrdt", "--seed", "7", "--tests", "25",
                 "--max-events", "4", "--props", "MergeIdem,MergeComm"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MergeIdem" in out and "pass" in out
    assert not list(in_tmp.glob("*.json"))  # reports are only written on demand


def test_check_out_flag_always_writes(capsys, in_tmp):
    code = main(["check", "g-set-mrdt", "--seed", "7", "--tests", "10",
                 "--props", "MergeIdem", "--out", "ok.json"])
    assert code == 0
    doc = parse_report((in_tmp / "ok.json").read_text())
    assert [v["status"] for v in doc["verdicts"]] == ["pass"]


def test_check_default_run_is_the_librarys_default_suite(capsys, in_tmp):
    # Every flag not given leaves CheckConfig's default, exhaustive_below too.
    assert main(["check", "g-set-mrdt", "--seed", "42", "--out", "r.json"]) == 0
    expected = render_json(run_suite(catalog_get("g-set-mrdt"), CheckConfig(seed=42))) + "\n"
    assert (in_tmp / "r.json").read_text() == expected


def test_check_unknown_rdt(capsys, in_tmp):
    assert main(["check", "no-such-rdt", "--seed", "1"]) == 2
    assert "unknown rdt id" in capsys.readouterr().err


def test_check_unknown_property(capsys, in_tmp):
    assert main(["check", "g-set-mrdt", "--seed", "1", "--props", "Bogus"]) == 2
    assert "unknown property" in capsys.readouterr().err


@pytest.mark.parametrize("rdt", ["ctr-inc-crdt", "g-set-mrdt"])
def test_unknown_property_lists_only_the_entrys_properties(capsys, in_tmp, rdt):
    assert main(["check", rdt, "--seed", "1", "--props", "Bogus"]) == 2
    valid = capsys.readouterr().err.split("valid: ")[1].strip().split(", ")
    assert "MergeWithLca" in valid
    assert "LatticeComm" not in valid and "LatticeIdem" not in valid
    assert ("LatticeAssoc" in valid) == (rdt == "ctr-inc-crdt")


def test_check_duplicated_property_is_a_usage_error(capsys, in_tmp):
    args = ["check", "ctr-inc-mrdt", "--seed", "1", "--props", "MergeIdem,MergeIdem"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert "error: property MergeIdem listed twice" in err
    assert "MergeIdem" not in out


@pytest.mark.parametrize("rdt, prop", [("ctr-inc-mrdt", "LatticeAssoc")] + [
    (e.id, p) for e in CATALOG for p in ("LatticeComm", "LatticeIdem")])
def test_check_refuses_a_property_the_kind_does_not_have(capsys, in_tmp, rdt, prop):
    # Exit 1 is kept for a replayed counterexample: an MRDT has no merge2 to
    # check, and no suite checks LatticeComm or LatticeIdem, which on a
    # CRDT's merge3 are MergeComm and MergeIdem.
    assert main(["check", rdt, "--seed", "1", "--props", prop]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: property {prop} does not apply to {rdt}")
    applicable = err.split("applicable: ")[1].strip().split(", ")
    assert prop not in applicable and "MergeIdem" in applicable
    assert not list(in_tmp.glob("*.json"))


def test_check_runs_merge_with_lca_on_a_crdt(capsys, in_tmp):
    assert main(["check", "ctr-inc-crdt", "--seed", "1", "--tests", "50",
                 "--props", "MergeWithLca", "--out", "lca.json"]) == 0
    doc = parse_report((in_tmp / "lca.json").read_text())
    assert [(v["property"], v["status"]) for v in doc["verdicts"]] == [("MergeWithLca", "pass")]


def test_check_seed_from_environment(capsys, in_tmp, monkeypatch):
    args = ["check", "g-set-mrdt", "--tests", "10", "--props", "MergeIdem"]
    monkeypatch.setenv("SALCHECK_SEED", "13")
    assert main(args + ["--out", "env.json"]) == 0
    monkeypatch.delenv("SALCHECK_SEED")
    assert main(args + ["--seed", "13", "--out", "flag.json"]) == 0
    assert (in_tmp / "env.json").read_bytes() == (in_tmp / "flag.json").read_bytes()


def test_check_bad_environment_seed(capsys, in_tmp, monkeypatch):
    monkeypatch.setenv("SALCHECK_SEED", "not-a-number")
    assert main(["check", "g-set-mrdt", "--tests", "5", "--props", "MergeIdem"]) == 2
    assert "SALCHECK_SEED" in capsys.readouterr().err


def test_check_picks_and_prints_seed_when_unset(capsys, in_tmp):
    code = main(["check", "ctr-inc-mrdt", "--tests", "2", "--max-events", "2",
                 "--props", "MergeIdem"])
    assert code == 0
    assert "picked seed: " in capsys.readouterr().out


def test_check_refused_bound_picks_no_seed(capsys, in_tmp):
    assert main(["check", "ctr-inc-mrdt", "--max-events", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-events must be >= 1, got 0\n"


# ---------------------------------------------------------------------------
# oracle


def test_oracle_pass_counts(capsys, in_tmp):
    assert main(["oracle", "ctr-inc-mrdt", "--max-events", "3"]) == 0
    out = capsys.readouterr().out
    checked = int(out.split("histories checked: ")[1].splitlines()[0])
    found = int(out.split("witnesses found: ")[1].splitlines()[0])
    assert checked == found > 1


def test_oracle_zero_events_is_the_empty_history(capsys, in_tmp):
    assert main(["oracle", "g-set-mrdt", "--max-events", "0"]) == 0
    assert "histories checked: 1" in capsys.readouterr().out


def test_oracle_buggy_flag_finds_unlinearizable_history(capsys, in_tmp):
    assert main(["oracle", "ew-flag-buggy", "--max-events", "5"]) == 1
    out = capsys.readouterr().out
    assert "unlinearizable history:" in out
    assert int(out.split("witnesses found: ")[1].splitlines()[0]) < \
        int(out.split("histories checked: ")[1].splitlines()[0])


def test_oracle_rejects_events_beyond_cap(capsys, in_tmp):
    assert main(["oracle", "ctr-inc-mrdt", "--max-events", "10"]) == 2
    assert "--max-events must be <= 9" in capsys.readouterr().err


def test_oracle_rejects_negative_events(capsys, in_tmp):
    assert main(["oracle", "ctr-inc-mrdt", "--max-events", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--max-events must be >= 0" in captured.err
    assert "histories checked" not in captured.out


def test_oracle_does_not_rename_a_specs_own_value_error(capsys, in_tmp, monkeypatch):
    def sweep(entry, max_events):  # a spec fault worded like the bound check
        raise ValueError("max_events must be >= 0, got 3")
    monkeypatch.setattr("salcheck.cli.oracle_sweep", sweep)
    assert main(["oracle", "ctr-inc-mrdt", "--max-events", "3"]) == 2
    err = capsys.readouterr().err
    assert "error: max_events must be >= 0, got 3" in err
    assert "--max-events" not in err


# ---------------------------------------------------------------------------
# demo


def test_demo_or_set_add_wins(capsys, in_tmp):
    assert main(["demo", "or-set-mrdt", "--out-dir", "demos"]) == 0
    out = capsys.readouterr().out
    assert "#[(1, 3)]#" in out
    assert (in_tmp / "demos" / "or-set-mrdt-demo.html").exists()
    assert (in_tmp / "demos" / "or-set-mrdt-demo.txt").exists()


def test_demo_buggy_flag_shows_anomalous_merge(capsys, in_tmp):
    assert main(["demo", "ew-flag-buggy"]) == 0
    out = capsys.readouterr().out
    assert "(anomalous merge)" in out
    assert "mismatch: (2, true) != (2, false)" in out
    assert (in_tmp / "ew-flag-buggy-demo.txt").exists()


def test_demo_fixed_flag_merge_agrees(capsys, in_tmp):
    assert main(["demo", "ew-flag-fixed"]) == 0
    out = capsys.readouterr().out
    assert "(merge agrees)" in out
    assert "(false, #[]#)" in out


def test_demo_unknown_rdt(capsys, in_tmp):
    assert main(["demo", "no-such-rdt"]) == 2
    assert "unknown rdt id" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render


def write_failing_report(tmp):
    assert main(["check", "ew-flag-buggy", "--seed", "42", "--out", "r.json"]) == 1
    return tmp / "r.json"


def test_render_text_from_report(capsys, in_tmp):
    path = write_failing_report(in_tmp)
    capsys.readouterr()
    assert main(["render", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ew-flag-buggy: BottomUpStep violation (shrunk to 4 events in ")
    assert "mismatch: (2, true) != (2, false)" in out


@pytest.mark.parametrize("props", [[], ["--props", "LinearizationExists"]],
                         ids=["all", "LinearizationExists"])
def test_render_reproduces_the_check_view(capsys, in_tmp, props):
    assert main(["check", "ew-flag-buggy", "--seed", "42", "--out", "r.json"] + props) == 1
    checked = capsys.readouterr().out
    block = checked.split("report written to r.json\n\n", 1)[1]
    assert main(["render", "r.json"]) == 0
    assert capsys.readouterr().out == block


def test_render_dot_and_html_to_files(capsys, in_tmp):
    path = write_failing_report(in_tmp)
    assert main(["render", str(path), "--format", "dot", "--out", "g.dot"]) == 0
    assert (in_tmp / "g.dot").read_text().startswith("digraph salcheck {")
    assert main(["render", str(path), "--format", "html", "--out", "g.html"]) == 0
    assert (in_tmp / "g.html").read_text().startswith("<!DOCTYPE html>")


def test_render_rejects_truncated_report(capsys, in_tmp):
    path = write_failing_report(in_tmp)
    path.write_text(path.read_text()[:-30])
    assert main(["render", str(path)]) == 2
    assert f"report does not match {json.dumps(SCHEMA)}" in capsys.readouterr().err


def test_render_refuses_a_salcheck1_document(capsys, in_tmp):
    path = write_failing_report(in_tmp)
    path.write_text(json.dumps(salcheck1_document(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["render", str(path)]) == 2
    captured = capsys.readouterr()
    assert "$.schema: expected 'salcheck/2', got 'salcheck/1'" in captured.err
    assert captured.out == ""


def test_render_rejects_a_config_check_refuses(capsys, in_tmp):
    path = write_failing_report(in_tmp)
    doc = json.loads(path.read_text())
    doc["config"]["replica_count"] = 1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["render", str(path)]) == 2
    assert "$.config: replica_count must be >= 2" in capsys.readouterr().err


def test_render_rejects_an_edited_seed(capsys, in_tmp):
    assert main(["check", "g-set-mrdt", "--seed", "42", "--out", "r.json"]) == 0
    doc = json.loads((in_tmp / "r.json").read_text())
    doc["config"]["seed"] = -7
    (in_tmp / "r.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["render", "r.json"]) == 2
    captured = capsys.readouterr()
    assert "$.config: seed must be >= 0, got -7" in captured.err
    assert "suite passed" not in captured.out


def test_render_rejects_an_unknown_key(capsys, in_tmp):
    assert main(["check", "g-set-mrdt", "--seed", "7", "--out", "r.json"]) == 0
    doc = json.loads((in_tmp / "r.json").read_text())
    doc["seed"] = 99
    (in_tmp / "r.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["render", "r.json"]) == 2
    captured = capsys.readouterr()
    assert "$.seed: unknown key" in captured.err
    assert captured.out == ""


def test_render_missing_file(capsys, in_tmp):
    assert main(["render", "absent.json"]) == 2


def test_missing_subcommand_is_usage_error(capsys, in_tmp):
    assert main([]) == 2


# ---------------------------------------------------------------------------
# console script


def test_installed_entry_point_runs():
    # The child imports the same package as the tests, installed or not.
    root = str(Path(salcheck.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "salcheck", "list"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "ew-flag-buggy" in proc.stdout
