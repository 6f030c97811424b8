"""Differential tests: the bitmask oracle and peel check against reference
implementations that work on ``Event`` objects and frozensets.

The reference functions below are the Event-based forms of
``linearization_oracle`` and ``bottom_up_instances``.  They take
happens-before from ``RefGraph``, which derives it from the graph's node
tuples alone (parent links, a linear scan for an event's node), so they share
none of the event index that the checked code reads.
"""

import random

import pytest

from salcheck.catalog import CATALOG, payload_pool
from salcheck.checker import (
    ORACLE_EVENT_CAP, BottomUpInstance, OracleResult, OracleScopeError,
    bottom_up_instances, linearization_oracle,
)
from salcheck.history import (
    NoUniqueLcaError, build, enumerate_recipes, execute, merge_with_lca,
    random_recipe,
)
from salcheck.model import Event, RdtSpec, conflicting

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


class RefGraph:
    """Happens-before of a ``VersionGraph``, recomputed from its nodes."""

    def __init__(self, graph):
        self.nodes = graph.nodes
        ancestors: list[frozenset[int]] = []
        for n, info in enumerate(graph.nodes):
            kind = info[0]
            parents = () if kind == "root" else (info[1],) if kind == "apply" else info[1:3]
            below = frozenset({n})
            for p in parents:
                below |= ancestors[p]
            ancestors.append(below)
        self.ancestors = ancestors

    def all_events(self) -> tuple[Event, ...]:
        return tuple(info[2] for info in self.nodes if info[0] == "apply")

    def node_of(self, ev: Event) -> int:
        for n, info in enumerate(self.nodes):
            if info[0] == "apply" and info[2] == ev:
                return n
        raise KeyError(ev)

    def events_of(self, n: int) -> frozenset[Event]:
        return frozenset(
            self.nodes[a][2] for a in self.ancestors[n] if self.nodes[a][0] == "apply"
        )

    def happens_before(self, e1: Event, e2: Event) -> bool:
        n1, n2 = self.node_of(e1), self.node_of(e2)
        return n1 != n2 and n1 in self.ancestors[n2]

    def concurrent(self, e1: Event, e2: Event) -> bool:
        return e1 != e2 and not self.happens_before(e1, e2) and not self.happens_before(e2, e1)


def reference_oracle(spec: RdtSpec, graph) -> OracleResult:
    g = RefGraph(graph)
    events = g.all_events()
    if len(events) > ORACLE_EVENT_CAP:
        raise OracleScopeError(len(events))
    target = execute(spec, graph).sink_state()
    preds = {e: frozenset(o for o in events if g.happens_before(o, e)) for e in events}
    tried = 0

    if spec.replay_apply is not None:
        observed = {e: frozenset(o.ts for o in preds[e]) for e in events}

        def step(s, ev):
            return spec.replay_apply(s, ev, observed[ev])
    else:
        def step(s, ev):
            return spec.apply(s, ev)

    def replay(order):
        s = spec.initial
        for ev in order:
            s = step(s, ev)
        return s

    def dfs(remaining, suffix):
        nonlocal tried
        if not remaining:
            tried += 1
            order = tuple(reversed(suffix))
            return order if replay(order) == target else None
        maximal = [e for e in remaining if not any(o is not e and e in preds[o] for o in remaining)]
        for e in sorted(maximal, key=lambda ev: ev.ts):
            if any(o is not e and spec.rc(e.op, o.op) for o in maximal):
                continue
            found = dfs(tuple(x for x in remaining if x is not e), suffix + (e,))
            if found is not None:
                return found
        return None

    witness = dfs(tuple(sorted(events, key=lambda ev: ev.ts)), ())
    return OracleResult(witness, tried)


def _commute_on_probes(spec, e1, e2, probes) -> bool:
    return all(spec.apply(spec.apply(s, e1), e2) == spec.apply(spec.apply(s, e2), e1)
               for s in probes)


def reference_bottom_up(spec: RdtSpec, ex) -> list[BottomUpInstance]:
    g = RefGraph(ex.graph)
    out = []
    for m in ex.graph.merge_nodes():
        _, left, right, lca = g.nodes[m]
        hist_l = g.events_of(lca)
        for a_node, b_node in ((left, right), (right, left)):
            if g.nodes[a_node][0] != "apply":
                continue
            _, a_prime, e = g.nodes[a_node]
            hist_b = g.events_of(b_node)
            if e in hist_b:
                continue
            l_state = ex.states[lca]
            probes = (spec.initial, l_state, ex.states[a_prime])
            ok = True
            for o in hist_b:
                if not g.concurrent(e, o):
                    continue
                if conflicting(spec.rc, e.op, o.op):
                    if spec.rc(e.op, o.op):
                        screened = any(
                            o2 != o and o2 not in hist_l and g.happens_before(o, o2)
                            and conflicting(spec.rc, o.op, o2.op)
                            for o2 in hist_b
                        )
                        if not screened:
                            ok = False
                            break
                elif not _commute_on_probes(spec, e, o, probes):
                    ok = False
                    break
            if not ok:
                continue
            lhs = merge_with_lca(spec, l_state, ex.states[a_node], ex.states[b_node])
            rhs = spec.apply(merge_with_lca(spec, l_state, ex.states[a_prime],
                                            ex.states[b_node]), e)
            out.append(BottomUpInstance(
                m, e, a_prime, b_node, lhs, rhs,
                spec.format_state(lhs), spec.format_state(rhs), lhs == rhs))
    return out


def _instance_fields(inst: BottomUpInstance):
    return (inst.merge_node, inst.event, inst.a_prime, inst.b_node,
            inst.lhs_str, inst.rhs_str, inst.holds)


def assert_agree(spec: RdtSpec, recipe) -> None:
    graph = build(recipe)
    got, want = linearization_oracle(spec, graph), reference_oracle(spec, graph)
    assert (got.witness, got.orders_tried) == (want.witness, want.orders_tried), recipe
    ex = execute(spec, graph)
    assert ([_instance_fields(i) for i in bottom_up_instances(spec, ex)]
            == [_instance_fields(i) for i in reference_bottom_up(spec, ex)]), recipe


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_agree_on_exhaustive_sweep(entry):
    max_events = 3 if entry.id in LARGE_ALPHABET else 4
    for recipe in enumerate_recipes(payload_pool(entry.spec), max_events):
        assert_agree(entry.spec, recipe)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_agree_on_random_eight_event_histories(entry):
    rng = random.Random(f"eight:{entry.id}")
    pool = payload_pool(entry.spec)
    checked = 0
    while checked < 200:
        recipe = random_recipe(rng, pool, max_events=8, max_joins=2)
        if recipe.event_count() == 8:
            assert_agree(entry.spec, recipe)
            checked += 1


@pytest.mark.parametrize("rid", ["or-set-mrdt", "ew-flag-buggy", "mv-reg-crdt", "rga-mrdt"])
def test_agree_on_three_replica_histories(rid):
    entry = next(e for e in CATALOG if e.id == rid)
    rng = random.Random(f"three:{rid}")
    pool = payload_pool(entry.spec)
    checked = 0
    while checked < 100:
        recipe = random_recipe(rng, pool, max_events=6, replicas=3, max_joins=3)
        try:
            assert_agree(entry.spec, recipe)
        except NoUniqueLcaError:
            continue
        checked += 1
