"""Differential test: ``run_suite`` against the loop it replaced.

``reference_suite`` is ``run_suite`` as it was before it checked each history
on the live partial graph that made it.  Its sweep copies every history out
as an ``Execution`` (``enumerate_executions``) and starts each check at the
node prefix whose nodes are the very objects of the previous copy's
(``_same_prefix``), as the walk's cut mark is.  Its random phase makes one
``draw_execution``, a new partial graph and ``Execution``, per draw.

Both must give the same ``SuiteReport``, compared whole: statuses, test
counts and, for each counterexample, the shrunk execution with its recipe,
the violation's node, event, both sides and ``linearizations_tried``.  They
must also make the same number of ``apply``, merge and ``replay_apply``
calls on a spec copied with ``dataclasses.replace``, as a tracer copies it.

The one rule ``reference_suite`` shares with ``run_suite`` is that each
state-only law checks an input once per suite: MergeIdem skips a state
equal to one it passed, and MergeWithLca an equal
``(LCA state, branch state)`` pair (``idem_once`` and ``lca_once``, written
here over the ``Execution`` copies).  Without it the merge counts could not
agree.
"""

import dataclasses
import random

import pytest

from salcheck import checker, history
from salcheck.catalog import CATALOG, CatalogEntry, catalog_get, g_set_mrdt, payload_pool
from salcheck.checker import (
    EVALUATORS, ORACLE_EVENT_CAP, CheckConfig, PropertyId, SuiteReport, Verdict,
    _stream_seed, properties_for, rc_is_vacuous, run_suite, shrink,
)
from salcheck.history import StepTables, sweep_walk
from salcheck.model import is_crdt
from walkers import draw_execution, enumerate_executions, reference_walk

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def _shared_prefix(a: tuple, b: tuple) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _same_prefix(a: tuple, b: tuple) -> int:
    """Length of the longest prefix of ``b`` whose items are the items of ``a``
    themselves (``is``), not only equal to them."""
    return next((n for n, (x, y) in enumerate(zip(a, b)) if x is not y), min(len(a), len(b)))


def idem_once(spec, ex, start, passed) -> bool:
    """Whether some state from node ``start`` on that is not in ``passed``
    fails ``merge3(s, s, s) == s``; each that holds joins ``passed``."""
    for s in ex.states[start:]:
        if s not in passed:
            if spec.merge3(s, s, s) != s:
                return True
            passed.add(s)
    return False


def lca_once(spec, ex, start, passed) -> bool:
    """Whether some merge node from ``start`` on has a branch whose
    ``(LCA state, branch state)`` pair is not in ``passed`` and fails
    ``merge3(l, l, s) == s`` or ``merge3(l, s, l) == s``, in that order."""
    g = ex.graph
    for m in range(start, len(g.nodes)):
        if g.kind(m) != "merge":
            continue
        _, left, right, lca = g.nodes[m]
        l = ex.states[lca]
        for s in (ex.states[left], ex.states[right]):
            if (l, s) not in passed:
                if spec.merge3(l, l, s) != s or spec.merge3(l, s, l) != s:
                    return True
                passed.add((l, s))
    return False


ONCE = {PropertyId.MERGE_IDEM: idem_once, PropertyId.MERGE_WITH_LCA: lca_once}


def reference_suite(entry, cfg: CheckConfig, walk=None) -> SuiteReport:
    """``run_suite`` as it was, its sweep over ``walk`` (``sweep_walk`` by
    default, see ``enumerate_executions``)."""
    spec = entry.spec
    props = properties_for(spec)
    pool = payload_pool(spec, cfg.literal_pool)
    vacuous_rc = rc_is_vacuous(spec, cfg.literal_pool)
    tests = {p: 0 for p in props}
    found = {}  # property -> the recipe of its first failing history
    live = [p for p in props if not (p is PropertyId.RC_POLICY and vacuous_rc)]
    passed = {p: set() for p in ONCE}

    def fails(p, ex, start=0) -> bool:
        if p in ONCE:
            return ONCE[p](spec, ex, start, passed[p])
        return EVALUATORS[p](spec, ex, start) is not None

    if live:
        previous: tuple = ()
        for ex in enumerate_executions(spec, pool, cfg.exhaustive_below - 1,
                                       cfg.replica_count, cfg.max_joins, walk):
            start = _same_prefix(previous, ex.graph.nodes)
            for p in live:
                if fails(p, ex, start):
                    found[p] = ex.graph.recipe
                tests[p] += 1
            live = [p for p in live if p not in found]
            if not live:
                break
            previous = ex.graph.nodes

    tables = StepTables(pool, cfg.replica_count, cfg.max_events)
    for p in live:
        cap = ORACLE_EVENT_CAP if p is PropertyId.LINEARIZATION_EXISTS else None
        rng = random.Random(_stream_seed(cfg.seed, entry.id, p))
        while tests[p] < cfg.tests_per_property and p not in found:
            ex = draw_execution(rng, tables, spec, cfg.max_events, cfg.max_joins + 1, cap)
            if ex is None:
                continue
            if fails(p, ex):
                found[p] = ex.graph.recipe
            tests[p] += 1

    verdicts = []
    for p in props:
        if p is PropertyId.RC_POLICY and vacuous_rc:
            verdicts.append(Verdict(p, "vacuous", 0))
        elif p not in found:
            verdicts.append(Verdict(p, "pass", tests[p]))
        else:
            verdicts.append(Verdict(p, "fail", tests[p], shrink(entry, p, found[p], cfg)))
    return SuiteReport(entry.id, cfg, tuple(verdicts))


def counted(entry):
    """``entry`` with its spec's ``apply``, merge and ``replay_apply`` counted."""
    spec = entry.spec
    calls = {}
    fields = ["apply", "merge2" if is_crdt(spec) else "merge3"]
    if spec.replay_apply is not None:
        fields.append("replay_apply")

    def counting(name, fn):
        calls[name] = 0

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    changes = {name: counting(name, getattr(spec, name)) for name in fields}
    return dataclasses.replace(entry, spec=dataclasses.replace(spec, **changes)), calls


def assert_same_suite(entry, cfg: CheckConfig, walk=None) -> SuiteReport:
    ours, our_calls = counted(entry)
    theirs, their_calls = counted(entry)
    got = run_suite(ours, cfg)
    assert got == reference_suite(theirs, cfg, walk)
    assert our_calls == their_calls
    return got


def sweep_config(max_events: int, replicas: int) -> CheckConfig:
    # One test per property: the sweep alone fills the budget.
    return CheckConfig(tests_per_property=1, max_events=max_events + 1,
                       exhaustive_below=max_events + 1, replica_count=replicas)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_agrees_two_replicas(entry):
    max_events = 3 if entry.id in LARGE_ALPHABET else 4
    report = assert_same_suite(entry, sweep_config(max_events, 2))
    assert report.passed() != entry.known_buggy


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_agrees_three_replicas(entry):
    assert_same_suite(entry, sweep_config(3, 3))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_random_phase_agrees(entry, seed):
    cfg = CheckConfig(tests_per_property=200, exhaustive_below=2, seed=seed)
    report = assert_same_suite(entry, cfg)
    assert all(v.tests == 200 for v in report.verdicts if v.status == "pass")


@pytest.mark.parametrize("rdt", ["pn-ctr-mrdt", "or-set-mrdt", "ew-flag-buggy", "or-set-crdt"])
def test_random_phase_agrees_on_dropped_draws(rdt):
    # Three replicas and two joins: some draws merge heads with several
    # maximal common ancestors, and up to 12 events, some are above the
    # oracle cap.  Either is dropped partway and redrawn on the same graph.
    entry = next(e for e in CATALOG if e.id == rdt)
    cfg = CheckConfig(tests_per_property=200, exhaustive_below=2, max_events=12,
                      replica_count=3, max_joins=2, seed=7)
    assert_same_suite(entry, cfg)


def _drops_a_right_only_2(l, a, b):
    """g-set's merge, but it drops element 2 when only the right head has it."""
    return (a | b) - {2} if 2 in b and 2 not in a else a | b


def test_a_bug_at_a_swapped_leaf_is_reported_where_the_pushing_walk_finds_it():
    # The first history this merge breaks is [add 1 on 0, add 2 on 1], the
    # second leaf of its prefix on replica 1: the walk makes it by swapping
    # the last event of [add 1 on 0, add 1 on 1].  Every property must fail
    # at the history, node and shrunk counterexample of a walk that pushes
    # every leaf, which a swap that kept the cut mark above it would miss.
    spec = dataclasses.replace(g_set_mrdt, name="g-set-right-2", merge3=_drops_a_right_only_2)
    entry = CatalogEntry(spec.name, spec, True, "merge drops a right-only 2")
    report = assert_same_suite(entry, sweep_config(3, 2), reference_walk)
    fails = {v.property: v.tests for v in report.verdicts if v.status == "fail"}
    assert fails[PropertyId.MERGE_COMM] == fails[PropertyId.MERGE_WITH_LCA] == 6


# ---------------------------------------------------------------------------
# Guards: a passing history builds nothing, and the sweep's first checked node
# is the cut mark, the first node that is not the previous history's own.


def count_builds(monkeypatch) -> dict:
    """Count the ``VersionGraph``s (all made by ``_PartialGraph.graph``) and
    ``Execution``s made inside ``shrink`` and outside it."""
    made = {"graph": 0, "execution": 0, "graph in shrink": 0, "execution in shrink": 0}
    inside = []
    graph, init, shrink_ = history._PartialGraph.graph, history.Execution.__init__, checker.shrink

    def counted(name, fn):
        def call(*args):
            made[name + (" in shrink" if inside else "")] += 1
            return fn(*args)
        return call

    def shrinking(*args):
        inside.append(True)
        try:
            return shrink_(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(history._PartialGraph, "graph", counted("graph", graph))
    monkeypatch.setattr(history.Execution, "__init__", counted("execution", init))
    monkeypatch.setattr(checker, "shrink", shrinking)
    return made


def test_a_passing_suite_builds_no_graph(monkeypatch):
    made = count_builds(monkeypatch)
    cfg = CheckConfig(tests_per_property=200, exhaustive_below=3, seed=1)
    assert run_suite(catalog_get("pn-ctr-mrdt"), cfg).passed()
    assert made == {"graph": 0, "execution": 0, "graph in shrink": 0, "execution in shrink": 0}


def test_a_failing_history_is_built_only_by_shrink(monkeypatch):
    # run_suite hands shrink the failing history's recipe; shrink builds and
    # executes it and its reductions.  No checked history is built outside.
    made = count_builds(monkeypatch)
    report = run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=42))
    failing = [v for v in report.verdicts if v.status == "fail"]
    assert len(failing) == 2
    assert made["graph"] == made["execution"] == 0
    assert made["graph in shrink"] >= len(failing) and made["execution in shrink"] >= len(failing)


@pytest.mark.parametrize("replicas, max_joins", [(2, 1), (3, 2)])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_starts_at_the_first_unshared_node(entry, replicas, max_joins):
    # The walk's start, the cut mark, is the prefix of nodes that are the
    # very objects of the previous history's: it never passes a node that
    # changed, and re-checks at most nodes pushed back equal to ones cut.
    max_events = 4 if replicas == 2 else 3
    previous = ()
    for g, _ in sweep_walk(payload_pool(entry.spec), max_events, replicas, max_joins,
                           entry.spec):
        start = g.unchecked()
        assert start == _same_prefix(previous, tuple(g.nodes))
        assert start <= _shared_prefix(previous, tuple(g.nodes))
        previous = tuple(g.nodes)
