"""The random phase of ``run_suite``: one stream per property.

Each property draws ``random_recipe`` from its own ``random.Random``, seeded
once by ``_stream_seed(seed, entry, property)``, so the properties of a suite
check independent histories.  A draw whose merge has no unique LCA is
redrawn, and so is a draw above ``ORACLE_EVENT_CAP`` events for
``LinearizationExists``; neither counts as a test.  A property stops at its
first violation or when its budget is full.

The evaluators in ``EVALUATORS`` are wrapped to record the histories they
check.  With ``exhaustive_below=1`` the sweep is the single empty history,
so every recorded history after a property's first is a random draw.
``run_suite`` checks each on the live partial graph of its draw, so
``checker.draw_history`` is wrapped too, to keep each graph's last recipe.
"""

import random

import pytest

from salcheck import checker
from salcheck.catalog import CATALOG, catalog_get, payload_pool
from salcheck.checker import (
    EVALUATORS, ORACLE_EVENT_CAP, CheckConfig, PropertyId, _stream_seed, run_suite,
)
from salcheck.history import (
    ApplyOp, Execution, JoinOp, NoUniqueLcaError, Recipe, StepTables, build, random_recipe,
)
from walkers import draw_execution

LIN = PropertyId.LINEARIZATION_EXISTS


def record_evaluations(monkeypatch) -> list:
    """Route every evaluator through a recorder; the returned list fills with
    ``(property, recipe)`` in call order.  A live graph that no draw made is
    the sweep's, at its empty history."""
    calls = []
    drawn = {}  # per partial graph, the recipe of its last kept draw
    draw = checker.draw_history

    def drawing(rng, tables, *rest):
        steps, g = draw(rng, tables, *rest)
        if g is not None:
            drawn[g] = Recipe(steps, tables.replicas)
        return steps, g

    monkeypatch.setattr(checker, "draw_history", drawing)
    for p, fn in list(EVALUATORS.items()):
        def recording(spec, h, *rest, p=p, fn=fn):
            recipe = h.graph.recipe if isinstance(h, Execution) else drawn.get(h, Recipe(()))
            calls.append((p, recipe))
            return fn(spec, h, *rest)
        monkeypatch.setitem(EVALUATORS, p, recording)
    return calls


def checked(calls, prop, tests):
    """The random draws ``prop`` counted as tests: its first ``tests`` calls
    (any later ones are the shrinker's) minus the sweep's empty history."""
    mine = [r for p, r in calls if p is prop][:tests]
    assert mine[0].event_count() == 0
    return mine[1:]


def stream(entry, cfg, prop, n):
    """The first ``n`` draws of ``prop``'s stream that it counts as tests."""
    pool = payload_pool(entry.spec, cfg.literal_pool)
    rng = random.Random(_stream_seed(cfg.seed, entry.id, prop))
    out = []
    while len(out) < n:
        recipe = random_recipe(rng, pool, cfg.max_events, cfg.replica_count,
                               max_joins=cfg.max_joins + 1)
        if prop is LIN and recipe.event_count() > ORACLE_EVENT_CAP:
            continue
        try:
            build(recipe)
        except NoUniqueLcaError:
            continue
        out.append(recipe)
    return out


def test_each_property_checks_its_own_stream(monkeypatch):
    entry = catalog_get("or-set-mrdt")
    cfg = CheckConfig(tests_per_property=120, max_events=12, exhaustive_below=1,
                      replica_count=3, seed=5)
    calls = record_evaluations(monkeypatch)
    rep = run_suite(entry, cfg)
    assert rep.passed()
    seen = {}
    for v in rep.verdicts:
        seen[v.property] = checked(calls, v.property, v.tests)
        assert seen[v.property] == stream(entry, cfg, v.property, v.tests - 1)
    assert all(r.event_count() <= ORACLE_EVENT_CAP for r in seen[LIN])
    # Independent streams: no two properties check the same sequence.
    assert len({tuple(rs) for rs in seen.values()}) == len(seen)


def test_others_keep_their_streams_after_a_failure(monkeypatch):
    entry = catalog_get("ew-flag-buggy")
    props = (PropertyId.MERGE_IDEM, PropertyId.BOTTOM_UP_STEP, PropertyId.MERGE_COMM)
    cfg = CheckConfig(tests_per_property=600, exhaustive_below=1, seed=11)
    calls = record_evaluations(monkeypatch)
    rep = run_suite(entry, cfg, props)
    failed = rep.verdict(PropertyId.BOTTOM_UP_STEP)
    assert failed.status == "fail" and 1 < failed.tests < cfg.tests_per_property
    stopped = checked(calls, PropertyId.BOTTOM_UP_STEP, failed.tests)
    assert stopped == stream(entry, cfg, PropertyId.BOTTOM_UP_STEP, failed.tests - 1)
    for p in (PropertyId.MERGE_IDEM, PropertyId.MERGE_COMM):
        v = rep.verdict(p)
        assert v.status == "pass" and v.tests == cfg.tests_per_property
        assert checked(calls, p, v.tests) == stream(entry, cfg, p, v.tests - 1)


def test_a_property_listed_twice_counts_its_own_tests(monkeypatch):
    entry = catalog_get("ctr-inc-mrdt")
    idem = PropertyId.MERGE_IDEM
    cfg = CheckConfig(tests_per_property=50, exhaustive_below=1)
    calls = record_evaluations(monkeypatch)
    rep = run_suite(entry, cfg, (idem, PropertyId.MERGE_COMM, idem))
    assert [v.tests for v in rep.verdicts] == [50, 50, 50]
    twice = [r for p, r in calls if p is idem]
    assert len(twice) == 100
    # Both listings check the sweep's empty history, then each reads the
    # property's stream from its start.
    assert [r.event_count() for r in twice[:2]] == [0, 0]
    assert twice[2:51] == twice[51:] == stream(entry, cfg, idem, 49)


SHAPES = {
    "2-replicas": {},
    "3-replicas": {"replica_count": 3},
    "12-events": {"max_events": 12},
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_every_verdict_counts_its_budget(monkeypatch, entry, shape):
    cfg = CheckConfig(tests_per_property=40, exhaustive_below=1, seed=7, **SHAPES[shape])
    calls = record_evaluations(monkeypatch)
    rep = run_suite(entry, cfg)
    for v in rep.verdicts:
        if v.status == "vacuous":
            assert v.tests == 0
        elif v.status == "pass":
            assert v.tests == cfg.tests_per_property
            assert sum(1 for p, _ in calls if p is v.property) == v.tests
        else:
            assert entry.known_buggy and 1 <= v.tests <= cfg.tests_per_property


def reference_recipe(rng, pool, max_events, replicas, max_joins) -> Recipe:
    """``random_recipe`` written with the ``random`` methods it stands for."""
    n_events = rng.randint(1, max_events)
    n_joins = rng.randint(0, max_joins)
    slots = n_events + n_joins
    join_at = set(rng.sample(range(slots - 1), n_joins)) if n_joins else set()
    steps = []
    for i in range(slots):
        if i in join_at:
            t = rng.randrange(replicas)
            steps.append(JoinOp(t, rng.choice([x for x in range(replicas) if x != t])))
        else:
            steps.append(ApplyOp(rng.randrange(replicas), rng.choice(pool)))
    return Recipe(tuple(steps), replicas)


@pytest.mark.parametrize("replicas", [2, 3, 4])
@pytest.mark.parametrize("max_events,max_joins", [(1, 0), (8, 2), (12, 3), (3, 6)])
def test_random_recipe_draws_what_the_random_methods_draw(replicas, max_events, max_joins):
    pool = tuple(range(7))
    seed = replicas * 100 + max_events
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(500):
        assert (random_recipe(fast, pool, max_events, replicas, max_joins)
                == reference_recipe(slow, pool, max_events, replicas, max_joins))
    assert fast.random() == slow.random()  # and used up the same bits


def test_random_recipe_refuses_an_empty_choice():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_recipe(rng, (), 3)
    with pytest.raises(ValueError):  # a join needs a second replica
        for _ in range(100):
            random_recipe(rng, (1,), 3, replicas=1, max_joins=2)


def test_draw_execution_refuses_an_empty_choice():
    # Each choice is a rejection loop on getrandbits, which would never end
    # on an empty range: the draw must refuse it instead.
    spec = catalog_get("or-set-mrdt").spec
    pool = payload_pool(spec)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="empty range"):  # no payload
        draw_execution(rng, StepTables((), 2, 3), spec, 3)
    with pytest.raises(ValueError, match="empty range"):  # no event count
        draw_execution(rng, StepTables(pool, 2, 0), spec, 0)
    with pytest.raises(ValueError, match="empty range"):  # no join count
        draw_execution(rng, StepTables(pool, 2, 3), spec, 3, max_joins=-1)
    with pytest.raises(ValueError, match="empty range"):  # a join needs a second replica
        for _ in range(100):
            draw_execution(rng, StepTables(pool, 1, 3), spec, 3, max_joins=2)


BUG_HUNT_SEEDS = range(5000, 5050)


@pytest.mark.parametrize("seed", BUG_HUNT_SEEDS)
def test_random_phase_catches_the_flag_bug(seed):
    # The sweep below 2 events cannot show the enable-wins anomaly, so the
    # random phase must find it, and shrinking must bring it to 4 events.
    props = (PropertyId.BOTTOM_UP_STEP, LIN)
    cfg = CheckConfig(exhaustive_below=2, tests_per_property=2500, seed=seed)
    rep = run_suite(catalog_get("ew-flag-buggy"), cfg, props)
    for v in rep.verdicts:
        assert v.status == "fail", v.property
        assert v.counterexample.shrunk.graph.recipe.event_count() <= 4
