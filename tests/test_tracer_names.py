"""The benchmark tracer wraps salcheck's functions by name: each must exist.

``perfbench/tracing.py`` replaces ``salcheck.checker.<name>`` for every name
in ``CHECKER_NAMES`` and ``salcheck.report.<name>`` for every name in
``REPORT_NAMES``.  A function deleted or renamed in ``src/`` would otherwise
fail only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from salcheck import checker, report

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    assert [n for n in tracing.CHECKER_NAMES if not callable(getattr(checker, n, None))] == []
    assert [n for n in tracing.REPORT_NAMES if not callable(getattr(report, n, None))] == []
