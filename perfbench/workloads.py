"""The benchmark's workloads: what each round runs and how it is checked.

A workload is a sequence of rounds; a round is a list of verdict units.  A
unit is a label and a body that runs on one copy of salcheck (a
:class:`Program`) and returns its verdict, checked against the known answer.
The same unit runs on the program under test (``src/``) and on the frozen
baseline copy in ``baseline/``, so its time on one can be set against its
time on the other.  Round 0 is fixed by the workload seed, so its report
digests and (in a traced run) its per-layer counts are the work fingerprint
two runs at one seed must share.

Each copy is driven only through its public modules, looked up at call time
(``program.checker.run_suite``, ``program.report.render_json``, ...), so a
traced run can route the program's calls through :mod:`tracing` without
touching ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# Properties that the ew-flag-buggy counterexample breaks, by PropertyId value.
BUG_PROPERTIES = {"BottomUpStep", "LinearizationExists"}
MAX_CX_EVENTS = 4
# Entries with more payloads than this have the large alphabets.
LARGE_POOL = 3
SEEDS_PER_ROUND = 4
BASELINE_DIR = Path(__file__).resolve().parent / "baseline"
BASELINE_PACKAGE = "salcheck_baseline"


class Program:
    """The modules of one copy of salcheck that the workloads drive."""

    def __init__(self, package: str):
        self.package = package
        self.checker = importlib.import_module(package + ".checker")
        self.report = importlib.import_module(package + ".report")
        self.catalog = importlib.import_module(package + ".catalog")

    def entry(self, rdt: str):
        return self.catalog.catalog_get(rdt)

    def config(self, **settings):
        return self.checker.CheckConfig(**settings)


def load_baseline() -> Program:
    """The frozen copy of salcheck under ``baseline/salcheck``, imported as
    ``salcheck_baseline`` so that it can sit beside the program under test."""
    if BASELINE_PACKAGE not in sys.modules:
        init = BASELINE_DIR / "salcheck" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            BASELINE_PACKAGE, init, submodule_search_locations=[str(init.parent)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[BASELINE_PACKAGE] = module
        spec.loader.exec_module(module)
    return Program(BASELINE_PACKAGE)


PROGRAM = Program("salcheck")
BASELINE = load_baseline()
# The workloads' entries come from the frozen copy, so they stay the same
# whatever a later change does to the catalog.
ALL_ENTRIES = tuple(e.id for e in BASELINE.catalog.CATALOG)
SMALL_ENTRIES = tuple(e.id for e in BASELINE.catalog.CATALOG
                      if len(BASELINE.catalog.payload_pool(e.spec)) <= LARGE_POOL)
LARGE_ENTRIES = tuple(e.id for e in BASELINE.catalog.CATALOG
                      if len(BASELINE.catalog.payload_pool(e.spec)) > LARGE_POOL)


def first_suite_seed(seed: int) -> int:
    """The first of the consecutive suite seeds a workload seed stands for."""
    return random.Random(seed).randrange(2**31 - 2**20)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Unit:
    """One verdict: its time, whether it matched the known answer, and the
    work it stands for: ``checks``, one property decided on one history."""

    label: str
    seconds: float
    ok: bool
    checks: int
    digest: str
    cx_events: int | None = None
    error: str | None = None


class Untraced:
    """Hooks of an untraced round: catalog entries as they are, no bookkeeping
    per unit.  ``tracing.Tracer`` provides the traced counterparts."""

    @staticmethod
    def entry(entry):
        return entry

    @staticmethod
    def unit(label: str):
        return nullcontext()


UNTRACED = Untraced()


def run_unit(label: str, body, program: Program, hooks=UNTRACED) -> Unit:
    """Run ``body(program, hooks)`` (returning ok, checks, digest, cx_events)
    as one timed unit; an exception is a wrong verdict, recorded with its
    message."""
    with hooks.unit(label):
        start = time.perf_counter()
        try:
            ok, checks, digest, cx_events = body(program, hooks)
        except Exception as exc:  # the benchmark keeps going and reports it
            return Unit(label, time.perf_counter() - start, False, 0, "",
                        error=f"{type(exc).__name__}: {exc}")
        return Unit(label, time.perf_counter() - start, ok, checks, digest, cx_events)


class Workload:
    """Rounds of units; subclasses give :meth:`units`."""

    name = ""

    def units(self, index: int) -> list:
        """Round ``index`` as ``(label, body)`` pairs."""
        raise NotImplementedError

    def round(self, index: int, program: Program = PROGRAM, hooks=UNTRACED) -> list[Unit]:
        """Round ``index`` on one program, unit after unit."""
        return [run_unit(label, body, program, hooks) for label, body in self.units(index)]


class CatalogSuite(Workload):
    """:func:`check_entry` on every catalog entry at the workload seed.

    The nine entries with at most three payloads run at default settings:
    every recipe below 5 events, then seeded random recipes up to 8 events.
    The five large-alphabet entries (g-map, the three or-sets, rga) take over
    90 % of the 66-72 s default suite on a 2-core machine, longer than one
    run may last, so their sweep stops one event earlier (recipes below 4
    events).  Their test budget is cut to 500 so that, as at defaults, the
    sweep fills it and no random history runs.  That keeps the kind of work
    (the large entries a highly repetitive sweep, the small ones random
    histories) but not its shares: here the five take about a quarter of a
    round.  ``roadmap.py`` times the suite at full defaults.
    """

    name = "catalog-suite"
    LARGE_CONFIG = {"exhaustive_below": 4, "tests_per_property": 500}

    def __init__(self, seed: int, entries=ALL_ENTRIES):
        self.seed = seed
        self.entries = tuple(entries)

    def settings(self, rdt: str) -> dict:
        if rdt in LARGE_ENTRIES:
            return dict(seed=self.seed, **self.LARGE_CONFIG)
        return {"seed": self.seed}

    def units(self, index: int) -> list:
        return [(rdt, lambda p, hooks, rdt=rdt: check_entry(
                    p, hooks.entry(p.entry(rdt)), p.config(**self.settings(rdt))))
                for rdt in self.entries]


def check_entry(program: Program, entry, cfg):
    """``run_suite`` and its JSON report, as ``salcheck check --out`` makes
    them; a failing entry also gets the text report.  The checks counted are
    the verdicts' tests: one property evaluated on one history."""
    checker, report = program.checker, program.report
    suite = checker.run_suite(entry, cfg)
    doc = report.render_json(suite)
    failed = {v.property.value for v in suite.verdicts if v.status == "fail"}
    cx_events = None
    if failed:
        text = report.render_text(report.model_from_suite(suite))
        cx = suite.first_failure().counterexample
        cx_events = cx.shrunk.graph.recipe.event_count()
        ok = (entry.known_buggy and bool(failed & BUG_PROPERTIES)
              and cx_events <= MAX_CX_EVENTS and entry.id in text)
    else:
        ok = not entry.known_buggy
    return ok, sum(v.tests for v in suite.verdicts), sha256(doc), cx_events


class BugHunt(Workload):
    """ew-flag-buggy over consecutive suite seeds, with the exhaustive sweep
    cut to histories of at most one event and only the two properties its
    bug breaks (``salcheck check ew-flag-buggy --props
    BottomUpStep,LinearizationExists``), each seed followed by the report
    round trip ``render_json`` -> ``parse_report`` ->
    ``model_from_report_dict`` -> text, DOT and HTML.

    At default settings the seed-independent sweep finds the bug in 0.1 s and
    the shrinker has nothing to do.  Without it, the random phase finds the
    bug in 4- to 8-event histories and shrinking does real work.  The
    flag's three payloads give few distinct states, so these histories
    repeat states and merge inputs even more than the catalog suite does.

    Each random test finds the bug with a probability of about 0.6 % (median
    first hit at test 110), so with the default 1000 tests per property the
    random phase alone misses it on about 0.1 % of seeds (3 of 3,000) and
    passes the buggy flag.  The hunt therefore allows 2500 tests per
    property, where a miss is expected about once in 10^7 seeds.  Both
    properties stop at their first violation, so the larger budget costs
    nothing on a seed that finds the bug.  The four properties the flag
    passes are left out: each would run its whole budget on every seed and
    take four fifths of the time, which catalog-suite already measures.
    """

    name = "bug-hunt"
    RDT = "ew-flag-buggy"
    CONFIG = {"exhaustive_below": 2, "tests_per_property": 2500}

    def __init__(self, seed: int, seeds_per_round: int = SEEDS_PER_ROUND):
        self.seeds_per_round = seeds_per_round
        self.first_seed = first_suite_seed(seed)

    def units(self, index: int) -> list:
        start = self.first_seed + index * self.seeds_per_round
        return [(f"seed {s}", lambda p, hooks, s=s: self._hunt(p, hooks.entry(p.entry(self.RDT)), s))
                for s in range(start, start + self.seeds_per_round)]

    def _hunt(self, program: Program, entry, seed: int):
        checker, report = program.checker, program.report
        props = tuple(checker.PropertyId(name) for name in sorted(BUG_PROPERTIES))
        suite = checker.run_suite(entry, program.config(seed=seed, **self.CONFIG), props)
        doc = report.render_json(suite)
        model = report.model_from_report_dict(report.parse_report(doc))
        text = report.render_text(model)
        dot = report.render_dot(model)
        html = report.render_html(model)
        checks = sum(v.tests for v in suite.verdicts)
        failing = suite.first_failure()
        if failing is None:
            return False, checks, sha256(doc), None
        cx_events = failing.counterexample.shrunk.graph.recipe.event_count()
        ok = (failing.property.value in BUG_PROPERTIES and cx_events <= MAX_CX_EVENTS
              and "violation" in text and dot.startswith("digraph") and "<html" in html)
        return ok, checks, sha256(doc), cx_events


class LargeRandom(Workload):
    """The random phase alone on the five large-alphabet entries (g-map, the
    three or-sets, rga): ``run_suite`` with the exhaustive sweep cut to
    histories of at most one event and 100 tests per property, over
    consecutive suite seeds, each with its JSON report.

    Random histories of up to 8 events over a large alphabet rarely meet
    twice: in one suite most merge inputs are distinct, where the catalog
    suite's sweep and the bug hunt repeat them hundreds of times.  A cache
    of states or merge inputs gains little here and shows its cost.  Every
    entry is correct, so every verdict is a pass.
    """

    name = "large-random"
    CONFIG = {"exhaustive_below": 2, "tests_per_property": 100}

    def __init__(self, seed: int, seeds_per_round: int = SEEDS_PER_ROUND, entries=LARGE_ENTRIES):
        self.seeds_per_round = seeds_per_round
        self.first_seed = first_suite_seed(seed)
        self.entries = tuple(entries)

    def units(self, index: int) -> list:
        start = self.first_seed + index * self.seeds_per_round
        return [(f"{rdt} seed {s}",
                 lambda p, hooks, rdt=rdt, s=s: check_entry(
                     p, hooks.entry(p.entry(rdt)), p.config(seed=s, **self.CONFIG)))
                for s in range(start, start + self.seeds_per_round) for rdt in self.entries]


class OracleSweep(Workload):
    """``oracle_sweep`` (the ``salcheck oracle`` path) over the eight correct
    entries with at most three payloads, plus ew-flag-buggy, whose sweep
    must fail; an unlinearizable history is rendered as text, as the CLI
    does.  Sweeps run to 5 events, plus 6-event sweeps of the two counters,
    where that stays cheap.  (ew-flag-buggy's sweep stops at its first
    unlinearizable history, a 4-event one, so a 6-event sweep of it would
    repeat the 5-event one.)  Most of the time is the linearization oracle:
    no evaluators, no random phase.

    The sweeps are exhaustive, so the work does not depend on the seed, and
    they run in a fixed order.
    """

    name = "oracle-sweep"
    SWEEPS = tuple([(rdt, 5) for rdt in SMALL_ENTRIES]
                   + [("ctr-inc-mrdt", 6), ("ctr-inc-crdt", 6)])

    def __init__(self, seed: int, sweeps=SWEEPS):
        self.sweeps = tuple(sweeps)

    def units(self, index: int) -> list:
        return [(f"{rdt}@{events}",
                 lambda p, hooks, rdt=rdt, events=events: self._sweep(
                     p, hooks.entry(p.entry(rdt)), events))
                for rdt, events in self.sweeps]

    @staticmethod
    def _sweep(program: Program, entry, events: int):
        checker, report = program.checker, program.report
        result = checker.oracle_sweep(entry, events)
        if result.failure is None:
            ok = not entry.known_buggy and result.witnesses == result.histories
            return ok, result.histories, sha256(f"{result.histories}:{result.witnesses}"), None
        text = report.render_text(report.model_from_execution(result.failure))
        ok = entry.known_buggy and result.witnesses == result.histories - 1
        return (ok, result.histories, sha256(f"{result.histories}:{text}"),
                result.failure.graph.recipe.event_count())


WORKLOADS = {w.name: w for w in (CatalogSuite, BugHunt, LargeRandom, OracleSweep)}
