"""Recipes, version graphs, execution, and canonical enumeration."""

import dataclasses
import random

import pytest

from salcheck import history
from salcheck.model import Inc, Add, Rem, Enable, Disable, Event, is_crdt
from salcheck.catalog import catalog_get, ctr_inc_mrdt, or_set_mrdt, ew_flag_buggy, payload_pool
from salcheck.checker import EVALUATORS, PropertyId
from salcheck.history import (
    Recipe, ApplyOp, JoinOp, NoUniqueLcaError, RecipeError, StepTables, build, execute,
    run_recipe, diamond, enumerate_recipes, iter_bits, random_recipe,
)
from walkers import apply_nodes, draw_execution, enumerate_executions


def test_linear_history_three_nodes():
    g = build(Recipe((ApplyOp(0, Inc()), ApplyOp(0, Inc()))))
    assert len(g.nodes) == 3
    assert g.kind(0) == "root"
    assert g.kind(1) == "apply" and g.kind(2) == "apply"
    assert [e.ts for e in g.events] == [1, 2]
    assert g.sink == 2  # single head: the fold adds no node


def test_empty_recipe_is_root_only():
    g = build(Recipe(()))
    assert len(g.nodes) == 1
    assert g.sink == 0
    assert g.events == ()


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
    assert [e.ts for e in g.events] == [1, 2, 3]
    assert [e.replica for e in g.events] == [0, 1, 0]


def test_replica_out_of_range_rejected():
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(2, Inc()),), replicas=2))
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(0, Inc()), JoinOp(0, 5))))


def test_join_self_rejected():
    with pytest.raises(RecipeError):
        build(Recipe((ApplyOp(0, Inc()), JoinOp(0, 0))))


def past(g, j: int) -> int:
    """The events that happen before ``g.events[j]``, as the mask the oracle
    reads: the history of its apply node without the event itself."""
    return g.event_masks[apply_nodes(g)[j]] & ~(1 << j)


def test_happens_before_strict_partial_order():
    g = build(diamond((Add(1), Rem(2)), (Add(2),)))
    for j in range(len(g.events)):
        assert g.event_masks[apply_nodes(g)[j]] >> j & 1  # a node's history holds its event
        assert past(g, j) < 1 << j  # timestamps extend happens-before
        for i in iter_bits(past(g, j)):
            assert not past(g, i) >> j & 1  # antisymmetric
            assert past(g, i) & ~past(g, j) == 0  # transitive


def test_concurrency_across_branches():
    g = build(diamond((Add(1),), (Rem(1),)))
    assert not past(g, 1) >> 0 & 1 and not past(g, 0) >> 1 & 1


def test_same_replica_events_ordered():
    g = build(Recipe((ApplyOp(0, Add(1)), ApplyOp(0, Rem(1)))))
    assert past(g, 1) >> 0 & 1
    assert not past(g, 0) >> 1 & 1


def test_apply_nodes_locate_each_event():
    g = build(diamond((Add(1),), (Rem(1),)))
    assert apply_nodes(g) == [1, 2]
    assert g.past == tuple(past(g, j) for j in range(len(g.events)))


def test_events_of_accumulates_history():
    g = build(diamond((Add(1),), (Rem(1),)))
    assert g.event_masks[0] == 0
    assert g.event_masks[g.sink] == 0b11


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
    assert len(listed) == sum(1 for _ in enumerate_recipes(pool, max_events=2))
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


# ---------------------------------------------------------------------------
# The partial graph's fold and spec calls.


def reference_lca(ancestors, x, y):
    """The LCA of nodes ``x`` and ``y`` from their maximal common ancestors,
    found bit by bit; ``None`` when there are several."""
    common = ancestors[x] & ancestors[y]
    maximal = common
    for d in iter_bits(common):
        maximal &= ~ancestors[d] | 1 << d  # drop d's strict ancestors
    return maximal.bit_length() - 1 if maximal.bit_count() == 1 else None


def assert_merge_nodes_listed(g) -> None:
    """The partial graph's listed merge nodes are those a scan of its nodes
    finds, from every start on."""
    for start in range(len(g.nodes) + 1):
        assert g.merge_nodes(start) == [n for n in range(start, len(g.nodes))
                                        if g.nodes[n][0] == "merge"]


@pytest.mark.parametrize("replicas", [2, 3, 4])
def test_fold_finds_the_lca_of_the_maximal_common_ancestors(replicas):
    # Fold every pair of nodes of random graphs and cut each merge back off.
    # The merge nodes listed as they are folded stay those of the nodes.
    pool = payload_pool(ctr_inc_mrdt)
    rng = random.Random(replicas)
    merged = refused = 0
    for _ in range(60):
        g = history._PartialGraph(replicas)
        for step in random_recipe(rng, pool, 8, replicas, 6).steps:
            if isinstance(step, ApplyOp):
                g.apply(Event(len(g.events) + 1, step.replica, step.payload))
            else:
                try:
                    g.join(step)
                except NoUniqueLcaError:
                    break
        for x in range(len(g.nodes)):
            for y in range(len(g.nodes)):
                expected = reference_lca(g.ancestors, x, y)
                mark = g.mark()
                try:
                    n = g.fold(x, y)
                except NoUniqueLcaError:
                    assert expected is None
                    refused += 1
                    continue
                if n not in (x, y):
                    assert g.nodes[n] == ("merge", x, y, expected)
                    merged += 1
                    assert_merge_nodes_listed(g)
                g.restore(mark)
            assert_merge_nodes_listed(g)
    assert merged > 0
    assert (refused > 0) == (replicas > 2)


@pytest.mark.parametrize("replicas, max_joins", [(2, 1), (3, 2)])
def test_the_walk_lists_merge_nodes_as_a_version_graph_does(replicas, max_joins):
    pool = payload_pool(ctr_inc_mrdt)
    for g, steps in history.sweep_walk(pool, 4, replicas, max_joins, ctr_inc_mrdt):
        graph = g.graph(Recipe(tuple(steps), replicas))
        for start in range(len(g.nodes) + 1):
            assert g.merge_nodes(start) == graph.merge_nodes(start)


def test_the_sink_is_the_last_node(monkeypatch):
    # ``VersionGraph.sink``, the evaluators and ``oracle_sweep`` read the sink
    # as the last node: every fold of the heads, on the walk, a draw or
    # ``build``, must end there.
    folded = []
    fold_heads = history._PartialGraph.sink

    def sink(g):
        n = fold_heads(g)
        assert n == len(g.nodes) - 1
        folded.append(n)
        return n

    monkeypatch.setattr(history._PartialGraph, "sink", sink)
    pool = payload_pool(ctr_inc_mrdt)
    leaves = sum(1 for _ in history.sweep_walk(pool, 4, 3, 2, ctr_inc_mrdt))
    assert len(folded) == leaves - 1  # the empty recipe folds nothing
    tables, rng = StepTables(pool, 3, 8), random.Random(3)
    for _ in range(200):
        history.draw_history(rng, tables, 8, 3, history._PartialGraph(3, ctr_inc_mrdt))
    assert len(folded) > leaves
    # Replica 1 never applies: its head stays the root, which the fold skips.
    for steps in ((ApplyOp(0, Inc()), ApplyOp(2, Inc())), (ApplyOp(2, Inc()),),
                  (ApplyOp(2, Inc()), JoinOp(0, 2), ApplyOp(0, Inc()), ApplyOp(2, Inc()))):
        g = build(Recipe(steps, 3))
        assert folded[-1] == g.sink == len(g.nodes) - 1
    # On a multi-payload entry the walk swaps a leaf's last event in place of
    # folding again: after each swap the last node still knows every node,
    # and every history's last state is the sink state of its recipe.
    swapped = []
    swap_last = history._PartialGraph.swap_last

    def swap(g, n, ev):
        swap_last(g, n, ev)
        assert g.ancestors[-1] == (1 << len(g.nodes)) - 1
        swapped.append(n)

    monkeypatch.setattr(history._PartialGraph, "swap_last", swap)
    for g, steps in history.sweep_walk(payload_pool(or_set_mrdt), 3, 3, 1, or_set_mrdt):
        assert g.states[-1] == run_recipe(or_set_mrdt, Recipe(tuple(steps), 3)).sink_state()
    assert swapped


def counted(spec):
    """``spec`` with its ``apply`` and merge counted, copied as a tracer
    copies it, with ``dataclasses.replace``: a CRDT's ``merge2`` is replaced,
    and its ``merge3`` reaches the counted one."""
    calls = {"apply": 0, "merge": 0}
    merge_field = "merge2" if is_crdt(spec) else "merge3"
    apply, merge = spec.apply, getattr(spec, merge_field)

    def counting_apply(*args):
        calls["apply"] += 1
        return apply(*args)

    def counting_merge(*args):
        calls["merge"] += 1
        return merge(*args)

    changes = {"apply": counting_apply, merge_field: counting_merge}
    return dataclasses.replace(spec, **changes), calls


def node_kinds(g) -> dict:
    return {kind: sum(1 for info in g.nodes if info[0] == kind) for kind in ("apply", "merge")}


@pytest.mark.parametrize("rdt", ["or-set-mrdt", "or-set-crdt"])
def test_builders_call_the_spec_they_are_given(rdt, monkeypatch):
    # One apply per apply node and one merge per merge node, on the spec
    # passed in: a binding cached across specs would hide calls from a
    # tracer that counts them on a replaced copy.  Every merge goes through
    # ``merge3``, so MergeComm makes one merge per merge node too, for a CRDT
    # as for an MRDT.
    plain = catalog_get(rdt).spec
    spec, calls = counted(plain)
    pool = payload_pool(plain)
    tables = StepTables(pool, 2, 8)
    rng = random.Random(rdt)

    def spec_calls(run):
        before = dict(calls)
        result = run()
        return result, {k: calls[k] - before[k] for k in calls}

    for _ in range(200):
        state = rng.getstate()
        expected, made = spec_calls(lambda: draw_execution(rng, tables, plain, 8, 3))
        assert made == {"apply": 0, "merge": 0}
        rng.setstate(state)
        ex, made = spec_calls(lambda: draw_execution(rng, tables, spec, 8, 3))
        assert made == node_kinds(ex.graph)
        assert ex.states == expected.states
        rebuilt, made = spec_calls(lambda: execute(spec, build(ex.graph.recipe)))
        assert made == node_kinds(ex.graph)
        assert rebuilt == ex
        violation, made = spec_calls(lambda: EVALUATORS[PropertyId.MERGE_COMM](spec, ex))
        assert violation is None
        assert made == {"apply": 0, "merge": node_kinds(ex.graph)["merge"]}

    # The walk shares prefixes, so count its pushes rather than its nodes.
    # A swap of the last event is a push: one apply, one merge per sink merge.
    pushed = {"apply": 0, "merge": 0}
    push_apply, fold = history._PartialGraph.apply, history._PartialGraph.fold
    swap_last = history._PartialGraph.swap_last

    def counting_push_apply(self, ev):
        pushed["apply"] += 1
        push_apply(self, ev)

    def counting_fold(self, x, y):
        nodes = len(self.nodes)
        head = fold(self, x, y)
        pushed["merge"] += len(self.nodes) - nodes
        return head

    def counting_swap_last(self, n, ev):
        pushed["apply"] += 1
        pushed["merge"] += len(self.nodes) - n - 1
        swap_last(self, n, ev)

    monkeypatch.setattr(history._PartialGraph, "apply", counting_push_apply)
    monkeypatch.setattr(history._PartialGraph, "fold", counting_fold)
    monkeypatch.setattr(history._PartialGraph, "swap_last", counting_swap_last)
    walked, made = spec_calls(lambda: [ex.states for ex in enumerate_executions(spec, pool, 3)])
    assert made == pushed and pushed["apply"] > 0 and pushed["merge"] > 0
    assert walked == [ex.states for ex in enumerate_executions(plain, pool, 3)]
