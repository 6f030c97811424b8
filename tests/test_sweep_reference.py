"""Differential tests: the incremental sweep against recipe -> build -> execute.

``reference_recipes`` is the enumerator that the sweep walk replaced.  It
yields every canonical recipe, including those whose ``build`` raises
``NoUniqueLcaError``, and tracks node ancestry on its own, with none of the
graph stacks that ``enumerate_executions`` shares with ``build``.  Each
history the walk yields must equal ``execute(spec, build(recipe))`` for the
next reference recipe that builds, field for field and in the same order.
"""

import pytest

from salcheck.catalog import CATALOG, ctr_inc_mrdt, payload_pool
from salcheck.checker import linearization_oracle
from salcheck.history import (
    ApplyOp, JoinOp, NoUniqueLcaError, Recipe, build, enumerate_executions,
    enumerate_recipes, execute,
)
from salcheck.model import Add, Delete, Insert, MapSet, Rem, Write

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def _literals(op) -> tuple[int, ...]:
    if isinstance(op, (Add, Rem, Insert, Delete)):
        return (op.elem,)
    if isinstance(op, Write):
        return (op.value,)
    if isinstance(op, MapSet):
        return (op.key,) + _literals(op.op)
    return ()


def reference_recipes(pool, max_events, replicas, max_joins):
    for n_events in range(max_events + 1):
        for n_joins in range(max_joins + 1):
            if n_joins and not n_events:
                continue
            yield from _reference_size(pool, replicas, n_events, n_joins)


def _reference_size(pool, replicas, n_events, n_joins):
    join_pairs = [(t, s) for t in range(replicas) for s in range(replicas) if t != s]

    def rec(steps, heads, ancestors, seen_max, events_left, joins_left, first_done):
        if not events_left and not joins_left:
            yield Recipe(tuple(steps), replicas)
            return
        if events_left:
            replica_choices = range(replicas) if first_done else (0,)
            for r in replica_choices:
                for payload in pool:
                    seen = seen_max
                    ok = True
                    for lit in _literals(payload):
                        if lit > seen + 1:
                            ok = False
                            break
                        seen = max(seen, lit)
                    if not ok:
                        continue
                    parent = heads[r]
                    new_id = len(ancestors)
                    new_heads = list(heads)
                    new_heads[r] = new_id
                    yield from rec(steps + [ApplyOp(r, payload)], new_heads,
                                   ancestors + [ancestors[parent] | 1 << new_id],
                                   seen, events_left - 1, joins_left, True)
        if joins_left and events_left:
            for t, s in join_pairs:
                x, y = heads[t], heads[s]
                if x == y or ancestors[x] >> y & 1:
                    continue
                new_heads = list(heads)
                if ancestors[y] >> x & 1:
                    new_heads[t] = y
                    yield from rec(steps + [JoinOp(t, s)], new_heads, ancestors,
                                   seen_max, events_left, joins_left - 1, first_done)
                else:
                    new_id = len(ancestors)
                    new_heads[t] = new_id
                    yield from rec(steps + [JoinOp(t, s)], new_heads,
                                   ancestors + [ancestors[x] | ancestors[y] | 1 << new_id],
                                   seen_max, events_left, joins_left - 1, first_done)

    yield from rec([], [0] * replicas, [1], 0, n_events, n_joins, False)


def _fields(ex):
    g = ex.graph
    return (g.recipe, g.nodes, g.sink, g.events, g.event_nodes, g.event_masks, ex.states)


def assert_sweep_matches(spec, max_events, replicas, max_joins, check_oracle=False) -> int:
    """Compare the walk with the reference; return the reference recipes skipped."""
    pool = payload_pool(spec)
    walk = enumerate_executions(spec, pool, max_events, replicas, max_joins)
    skipped = 0
    for recipe in reference_recipes(pool, max_events, replicas, max_joins):
        try:
            graph = build(recipe)
        except NoUniqueLcaError:
            skipped += 1
            continue
        want = execute(spec, graph)
        got = next(walk)
        assert _fields(got) == _fields(want), recipe
        if check_oracle:
            assert (linearization_oracle(spec, got.graph, got.sink_state())
                    == linearization_oracle(spec, graph)), recipe
    assert next(walk, None) is None
    return skipped


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_two_replica_sweep_matches_reference(entry):
    large = entry.id in LARGE_ALPHABET
    assert assert_sweep_matches(entry.spec, 3 if large else 4, 2, 1, check_oracle=True) == 0
    assert assert_sweep_matches(entry.spec, 3, 2, 2) == 0


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_three_replica_sweep_matches_reference(entry):
    assert assert_sweep_matches(entry.spec, 3, 3, 1) == 0
    # A reference recipe whose build raises NoUniqueLcaError is the walk's skip.
    assert assert_sweep_matches(entry.spec, 3, 3, 2) > 0


def test_ctr_three_replica_two_join_sweep_skips_merges_without_unique_lca():
    pool = payload_pool(ctr_inc_mrdt)
    assert sum(1 for _ in reference_recipes(pool, 4, 3, 2)) == 2177
    assert assert_sweep_matches(ctr_inc_mrdt, 4, 3, 2) == 150
    assert sum(1 for _ in enumerate_recipes(pool, 4, 3, 2)) == 2027
    assert sum(1 for _ in enumerate_executions(ctr_inc_mrdt, pool, 4, 3, 2)) == 2027
