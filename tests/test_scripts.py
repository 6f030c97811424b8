"""The scripts under ``scripts/``, loaded by path and run in process."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from salcheck.catalog import catalog_get

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_checks_fails_when_a_known_buggy_entry_passes(monkeypatch, capsys):
    script = load_script("run_all_checks")
    fixed = dataclasses.replace(catalog_get("ew-flag-fixed"), known_buggy=True)
    monkeypatch.setattr(script, "CATALOG", (fixed,))
    monkeypatch.setattr(sys, "argv", ["run_all_checks.py", "--tests", "5", "--max-events", "3"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert "ew-flag-fixed" in out and "all properties pass" in out
    assert err == "expected failure not found: ew-flag-fixed\n"


def test_run_all_checks_passes_when_the_known_buggy_entry_fails(monkeypatch, capsys):
    script = load_script("run_all_checks")
    monkeypatch.setattr(script, "CATALOG", (catalog_get("ew-flag-buggy"),))
    monkeypatch.setattr(sys, "argv", ["run_all_checks.py", "--tests", "5", "--max-events", "5"])
    assert script.main() == 0
    assert "(expected)" in capsys.readouterr().out


def test_first_hits_refuses_a_property_the_kind_does_not_have(monkeypatch, capsys):
    script = load_script("first_hits")
    monkeypatch.setattr(sys, "argv", ["first_hits.py", "ctr-inc-mrdt", "--seeds", "1:2",
                                      "--props", "LatticeAssoc"])
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: property LatticeAssoc does not apply to ctr-inc-mrdt")


def test_src_lines_splits_each_module_into_its_lines(capsys):
    script = load_script("src_lines")
    modules = sorted(script.SRC.glob("*.py"))
    assert modules
    for path in modules:
        counts = script.count(path)
        assert counts["total"] == len(path.read_text().splitlines())
        assert counts["total"] == sum(counts[k] for k in script.KINDS)
    assert script.main() == 0
    rows = capsys.readouterr().out.splitlines()
    total = sum(len(path.read_text().splitlines()) for path in modules)
    assert rows[-1].split()[:2] == ["total", str(total)]
    assert len(rows) == len(modules) + 2


def test_src_lines_counts_each_kind(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Doc.\n\nMore."""\n\n# note\nx = 1  # inline\n\n\n'
                    'def f():\n    """One line."""\n    return "#"\n')
    assert load_script("src_lines").count(path) == {
        "total": 11, "code": 3, "docstring": 3, "comment": 1, "blank": 4}
