"""Recipes, version graphs, execution, and canonical enumeration."""

import random

import pytest

from salcheck.model import Inc, Add, Rem, Enable, Disable, Event
from salcheck.catalog import ctr_inc_mrdt, or_set_mrdt, ew_flag_buggy, payload_pool
from salcheck.history import (
    Recipe, ApplyOp, JoinOp, RecipeError, build, execute, run_recipe,
    diamond, enumerate_recipes, random_recipe, count_recipes,
)


def test_linear_history_three_nodes():
    g = build(Recipe((ApplyOp(0, Inc()), ApplyOp(0, Inc()))))
    assert len(g.nodes) == 3
    assert g.kind(0) == "root"
    assert g.kind(1) == "apply" and g.kind(2) == "apply"
    assert [e.ts for e in g.all_events()] == [1, 2]
    assert g.sink == 2  # single head: the fold adds no node


def test_empty_recipe_is_root_only():
    g = build(Recipe(()))
    assert len(g.nodes) == 1
    assert g.sink == 0
    assert g.all_events() == ()


def test_diamond_merges_at_fork():
    g = build(diamond((Add(1),), (Rem(1),)))
    assert len(g.nodes) == 4
    kind, left, right, lca = g.nodes[3]
    assert kind == "merge"
    assert {g.nodes[left][1], g.nodes[right][1]} == {0}  # both branches fork at root
    assert lca == 0
    assert g.sink == 3


def test_diamond_with_prefix_forks_at_prefix_head():
    g = build(diamond((Add(2),), (Rem(1),), prefix=(Add(1),)))
    # root, prefix apply, two branch applies, final merge; the fast-forward
    # join adds no node.
    assert len(g.nodes) == 5
    kind, _, _, lca = g.nodes[4]
    assert kind == "merge"
    assert lca == 1


def test_join_equal_heads_is_noop():
    r = Recipe((ApplyOp(0, Inc()), JoinOp(1, 0), JoinOp(1, 0)))
    g = build(r)
    # one apply + fast-forward + no-op join: no merge nodes at all
    assert g.merge_nodes() == []
    assert len(g.nodes) == 2


def test_join_source_behind_is_noop():
    # replica 1 already saw replica 0's state; joining the stale source back
    # changes nothing.
    r = Recipe((ApplyOp(0, Inc()), JoinOp(1, 0), ApplyOp(1, Inc()), JoinOp(1, 0)))
    g = build(r)
    assert g.merge_nodes() == []
    assert len(g.nodes) == 3


def test_join_creates_merge_with_lca():
    r = Recipe((ApplyOp(0, Inc()), ApplyOp(1, Inc()), JoinOp(0, 1)))
    g = build(r)
    merges = g.merge_nodes()
    assert len(merges) == 1
    _, _, _, lca = g.nodes[merges[0]]
    assert lca == 0


def test_timestamps_are_global_and_monotone():
    r = Recipe((ApplyOp(0, Inc()), ApplyOp(1, Inc()), ApplyOp(0, Inc())))
    g = build(r)
    assert [e.ts for e in g.all_events()] == [1, 2, 3]
    assert [e.replica for e in g.all_events()] == [0, 1, 0]


def test_replica_out_of_range_rejected():
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(2, Inc()),), replicas=2))
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(0, Inc()), JoinOp(0, 5))))


def test_join_self_rejected():
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(0, Inc()), JoinOp(0, 0))))


def test_happens_before_strict_partial_order():
    g = build(diamond((Add(1), Rem(2)), (Add(2),)))
    events = g.all_events()
    for e in events:
        assert not g.happens_before(e, e)
    for e1 in events:
        for e2 in events:
            if g.happens_before(e1, e2):
                assert not g.happens_before(e2, e1)
                for e3 in events:
                    if g.happens_before(e2, e3):
                        assert g.happens_before(e1, e3)


def test_concurrency_across_branches():
    g = build(diamond((Add(1),), (Rem(1),)))
    a, r = g.all_events()
    assert g.concurrent(a, r)
    assert not g.happens_before(a, r)


def test_same_replica_events_ordered():
    g = build(Recipe((ApplyOp(0, Add(1)), ApplyOp(0, Rem(1)))))
    a, r = g.all_events()
    assert g.happens_before(a, r)
    assert not g.concurrent(a, r)


def test_lookups_reject_events_not_in_graph():
    g = build(diamond((Add(1),), (Rem(1),)))
    a, r = g.all_events()
    assert (g.node_of(a), g.node_of(r)) == (1, 2)
    strangers = (
        Event(a.ts, a.replica, Add(2)),      # same ts, other payload
        Event(a.ts, r.replica, a.op),        # same ts, other replica
        Event(0, 0, Add(1)),                 # ts 0
        Event(len(g.events) + 1, 0, Add(1)),  # ts past the last event
    )
    for stranger in strangers:
        with pytest.raises(KeyError):
            g.node_of(stranger)
        with pytest.raises(KeyError):
            g.happens_before(stranger, r)
        with pytest.raises(KeyError):
            g.happens_before(r, stranger)


def test_events_of_accumulates_history():
    g = build(diamond((Add(1),), (Rem(1),)))
    assert g.events_of(0) == frozenset()
    assert len(g.events_of(g.sink)) == 2


def test_build_is_deterministic():
    r = diamond((Add(1), Rem(2)), (Add(2),))
    assert build(r) == build(r)


def test_execute_counter_counts_incs():
    ex = run_recipe(ctr_inc_mrdt, diamond((Inc(), Inc()), (Inc(),)))
    assert ex.sink_state() == 3


def test_execute_is_pure():
    r = diamond((Add(1),), (Rem(1),))
    ex1 = run_recipe(or_set_mrdt, r)
    ex2 = run_recipe(or_set_mrdt, r)
    assert ex1.states == ex2.states


def test_final_fold_merges_all_heads():
    # Two replicas never explicitly joined still produce a single sink.
    r = Recipe((ApplyOp(0, Enable()), ApplyOp(1, Disable())))
    g = build(r)
    assert g.kind(g.sink) == "merge"
    ex = execute(ew_flag_buggy, g)
    assert isinstance(ex.sink_state(), tuple)


# ---------------------------------------------------------------------------
# Enumeration.


def test_enumerate_counts_match_count_recipes():
    pool = payload_pool(or_set_mrdt)
    listed = list(enumerate_recipes(pool, max_events=2, replicas=2, max_joins=1))
    assert len(listed) == count_recipes(pool, max_events=2)
    assert len(set(listed)) == len(listed)  # no duplicates


def test_enumerate_sizes_ascending():
    pool = payload_pool(ctr_inc_mrdt)
    sizes = [r.event_count() for r in enumerate_recipes(pool, 3, 2, 1)]
    assert sizes == sorted(sizes)
    assert sizes[0] == 0  # the empty recipe comes first


def test_enumerate_canonical_first_apply_on_replica_zero():
    pool = payload_pool(or_set_mrdt)
    for r in enumerate_recipes(pool, 2, 2, 1):
        applies = [s for s in r.steps if isinstance(s, ApplyOp)]
        if applies:
            assert applies[0].replica == 0


def test_enumerate_canonical_literals_first_use_order():
    pool = payload_pool(or_set_mrdt)
    for r in enumerate_recipes(pool, 2, 2, 1):
        seen_max = 0
        for s in r.steps:
            if isinstance(s, ApplyOp):
                lit = s.payload.elem
                assert lit <= seen_max + 1
                seen_max = max(seen_max, lit)


def test_enumerate_no_trailing_join():
    pool = payload_pool(ctr_inc_mrdt)
    for r in enumerate_recipes(pool, 3, 2, 1):
        if r.steps:
            assert isinstance(r.steps[-1], ApplyOp)


def test_enumerated_recipes_all_buildable():
    pool = payload_pool(ew_flag_buggy)
    for r in enumerate_recipes(pool, 3, 2, 1):
        g = build(r)
        assert g.sink == len(g.nodes) - 1


def test_random_recipe_within_bounds_and_buildable():
    pool = payload_pool(or_set_mrdt)
    rng = random.Random(42)
    for _ in range(200):
        r = random_recipe(rng, pool, max_events=5, replicas=2, max_joins=1)
        assert 1 <= r.event_count() <= 5
        build(r)


def test_random_recipe_deterministic_per_seed():
    pool = payload_pool(or_set_mrdt)
    a = [random_recipe(random.Random(7), pool, 5) for _ in range(1)]
    b = [random_recipe(random.Random(7), pool, 5) for _ in range(1)]
    assert a == b
