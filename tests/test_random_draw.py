"""Differential tests: the one-pass random draw against recipe -> build -> execute.

``draw_execution`` draws a random recipe straight onto a partial graph,
taking its steps and events from ``StepTables``.  For every draw it must give
what the three separate passes give: ``random_recipe`` from the same stream,
then ``build`` and ``execute``.  That means the same history field for field,
the same ``rng`` state afterwards, and the same redraw decision: ``None``
exactly when the recipe has more events than the cap, or when ``build``
refuses a merge that has no unique LCA.
"""

import random

import pytest

from salcheck import checker
from salcheck.catalog import CATALOG, catalog_get, ctr_inc_mrdt, payload_pool
from salcheck.checker import ORACLE_EVENT_CAP, CheckConfig, PropertyId, run_suite
from salcheck.history import (
    ApplyOp, JoinOp, NoUniqueLcaError, Recipe, StepTables, build, execute, random_recipe,
    run_recipe,
)
from salcheck.model import Add, Event, SpecMismatchError
from walkers import draw_execution

DRAWS = 150
MAX_DRAWS = 5000  # bound on the search for draws that each drop rule refuses


def reference_draw(rng, spec, pool, max_events, replicas, max_joins, cap):
    """``(history, reason)`` from the three passes; ``history`` is ``None``
    when the draw is dropped, and ``reason`` says why."""
    recipe = random_recipe(rng, pool, max_events, replicas, max_joins)
    if cap is not None and recipe.event_count() > cap:
        return None, "cap"
    try:
        graph = build(recipe)
    except NoUniqueLcaError:
        return None, "lca"
    return execute(spec, graph), "kept"


@pytest.mark.parametrize("cap", [None, ORACLE_EVENT_CAP], ids=["no-cap", "cap"])
@pytest.mark.parametrize("max_events", [8, 12])
@pytest.mark.parametrize("max_joins", [1, 2])
@pytest.mark.parametrize("replicas", [2, 3, 4])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_one_pass_draw_equals_the_three_passes(entry, replicas, max_joins, max_events, cap):
    spec = entry.spec
    pool = payload_pool(spec)
    tables = StepTables(pool, replicas, max_events)
    seed = f"{entry.id}/{replicas}/{max_joins}/{max_events}/{cap}"
    fast, slow = random.Random(seed), random.Random(seed)
    # Each drop rule that can fire must fire at least once.
    wanted = {"kept"}
    if cap is not None and max_events > cap:
        wanted.add("cap")
    if replicas > 2:
        wanted.add("lca")
    seen = {}
    draws = 0
    while draws < DRAWS or not wanted <= seen.keys():
        assert draws < MAX_DRAWS, f"no draw dropped by {wanted - seen.keys()}"
        draws += 1
        # As run_suite draws: one join more than the sweep's max_joins.
        expected, reason = reference_draw(slow, spec, pool, max_events, replicas,
                                          max_joins + 1, cap)
        got = draw_execution(fast, tables, spec, max_events, max_joins + 1, cap)
        seen[reason] = seen.get(reason, 0) + 1
        assert fast.getstate() == slow.getstate()
        if expected is None:
            assert got is None, reason
            continue
        assert got is not None
        assert got.spec is spec
        assert got.graph == expected.graph  # recipe, nodes, sink, events and masks
        assert got.states == expected.states


@pytest.mark.parametrize("rdt", ["or-set-mrdt", "ctr-inc-crdt"])
def test_a_draw_dropped_at_an_interior_join_draws_its_remaining_steps(rdt):
    # A criss-cross merge at an interior join needs about four joins; with
    # eight per draw many draws are dropped there, before their last step.
    spec = catalog_get(rdt).spec
    pool = payload_pool(spec)
    tables = StepTables(pool, 3, 12)
    fast, slow = random.Random(rdt), random.Random(rdt)
    dropped = 0
    for _ in range(1000):
        expected, reason = reference_draw(slow, spec, pool, 12, 3, 8, None)
        got = draw_execution(fast, tables, spec, 12, 8)
        assert fast.getstate() == slow.getstate()
        assert got == expected
        dropped += reason == "lca"
    assert dropped >= 50


def test_random_recipe_is_the_draw_without_a_graph():
    spec = catalog_get("g-map-mrdt").spec
    pool = payload_pool(spec)
    tables = StepTables(pool, 3, 12)
    fast, slow = random.Random(3), random.Random(3)
    for _ in range(500):
        ex = draw_execution(fast, tables, spec, 12, 3)
        recipe = random_recipe(slow, pool, 12, 3, 3)
        if ex is not None:
            assert ex.graph.recipe == recipe
    assert fast.random() == slow.random()


@pytest.mark.parametrize("replicas", [2, 3, 4])
def test_table_values_equal_fresh_ones(replicas):
    pool = payload_pool(catalog_get("or-set-mrdt").spec)
    tables = StepTables(pool, replicas, 12)
    assert tables.pool == pool and tables.replicas == replicas
    for r in range(replicas):
        for p, payload in enumerate(pool):
            assert tables.applies[r][p] == ApplyOp(r, payload)
        others = [s for s in range(replicas) if s != r]
        assert tables.joins[r] == [JoinOp(r, s) for s in others]
    assert len(tables.events) == 12
    for ts, row in enumerate(tables.events, 1):
        for r in range(replicas):
            for p, payload in enumerate(pool):
                assert row[r][p] == Event(ts, r, payload)


def test_recipes_from_outside_still_check_payloads():
    # Pool events skip check_payload; a recipe built elsewhere does not.
    with pytest.raises(SpecMismatchError):
        run_recipe(ctr_inc_mrdt, Recipe((ApplyOp(0, Add(1)),)))


def test_run_suite_draws_through_the_checker_namespace(monkeypatch):
    # A tracer wraps checker.draw_history by name, so run_suite must look
    # it up there for every random draw.
    calls = []
    original = checker.draw_history

    def counting(*args):
        calls.append(args[3])  # the draw's max_joins
        return original(*args)

    monkeypatch.setattr(checker, "draw_history", counting)
    cfg = CheckConfig(tests_per_property=30, exhaustive_below=1)
    rep = run_suite(ctr_inc_mrdt, cfg, (PropertyId.MERGE_IDEM,))
    assert rep.verdict(PropertyId.MERGE_IDEM).tests == 30
    assert calls == [cfg.max_joins + 1] * 29  # the sweep's empty history is the first test
