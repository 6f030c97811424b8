"""Differential tests: the bitmask oracle and peel check against reference
implementations that work on ``Event`` objects and frozensets.

The reference functions below are the Event-based forms of
``linearization_oracle`` and ``bottom_up_instances``.  They take
happens-before from ``RefGraph``, which derives it from the graph's node
tuples alone (parent links, a linear scan for an event's node), so they share
none of the event index that the checked code reads.

``previous_oracle`` is the plain bitmask DFS that the current search
replaced, kept verbatim.  The current one must try the same orders in the
same sequence, so the two agree on the witness, on ``orders_tried`` and on
every ``apply`` and ``replay_apply`` call.
"""

import dataclasses
import os
import random
import sys

import pytest

from salcheck.catalog import CATALOG, payload_pool
from salcheck.checker import (
    ORACLE_EVENT_CAP, BottomUpInstance, OracleResult, OracleScopeError, _first_order,
    bottom_up_instances, linearization_oracle,
)
from salcheck.history import (
    NoUniqueLcaError, StepTables, build, draw_execution, enumerate_executions,
    enumerate_recipes, execute, iter_bits, random_recipe,
)
from salcheck.model import Event, RdtSpec, conflicting, is_crdt, rc_empty

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}
DEEP_SWEEPS = os.environ.get("SALCHECK_DEEP_SWEEPS") == "1"
# Their 5-event sweeps hold 160k histories each (g-map 1.17M): run them with
# SALCHECK_DEEP_SWEEPS=1.  or-set-mrdt, the largest with replay_apply and a
# real rc, always runs.
DEEP = {"or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def merge_with_lca(spec: RdtSpec, lca_state, a, b):
    """The uniform three-way merge as it was before ``spec.merge3`` took its
    place: converged types ignore the ancestor."""
    if is_crdt(spec):
        return spec.merge2(a, b)
    return spec.merge3(lca_state, a, b)


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


# The bitmask DFS that ``linearization_oracle`` replaced, kept verbatim: the
# new search must try the same orders in the same sequence.
def previous_oracle(spec: RdtSpec, graph, target=None) -> OracleResult:
    """Search every admissible total order for one that explains ``target``,
    the sink state (``None``: execute ``graph`` to get it).

    Admissible orders extend happens-before; additionally, a conflicting
    concurrent pair may only appear in the direction the conflict relation
    allows whenever both events are peeled from the same frontier (peeling an
    event last is forbidden while a concurrent conflict loser is still
    unpeeled).  Replay is replication-aware: a spec may declare a
    ``replay_apply`` through which each event acts only on entries created by
    events it observed in the original execution (its causal past), matching
    the sequential-explanation reading where an update cannot affect state it
    never saw.  The first order whose replay from the initial state
    reproduces the final merged state is returned; ``None`` means every
    admissible order was tried and none matched.
    """
    events = graph.events
    n = len(events)
    if n > ORACLE_EVENT_CAP:
        raise OracleScopeError(
            f"{n} events exceed the oracle cap of {ORACLE_EVENT_CAP}"
        )
    if target is None:
        target = execute(spec, graph).sink_state()
    # past[i]: the events that happen before events[i]; later[i]: those after.
    # Timestamps extend happens-before, so past[i] holds only indices below i.
    past = [graph.event_masks[node] & ~(1 << i) for i, node in enumerate(graph.event_nodes)]
    later = [0] * n
    for i in range(n):
        for j in range(i):
            if past[i] >> j & 1:
                later[j] |= 1 << i
    ops = [ev.op for ev in events]
    rc = spec.rc
    tried = 0

    if spec.replay_apply is not None:
        observed = [frozenset(j + 1 for j in iter_bits(past[i])) for i in range(n)]

        def step(s, i: int):
            return spec.replay_apply(s, events[i], observed[i])
    else:
        def step(s, i: int):
            return spec.apply(s, events[i])

    def dfs(remaining: int, suffix: tuple[int, ...]):
        nonlocal tried
        if not remaining:
            tried += 1
            s = spec.initial
            for i in reversed(suffix):
                s = step(s, i)
            return suffix if s == target else None
        frontier = [i for i in range(n) if remaining >> i & 1 and not later[i] & remaining]
        for i in frontier:
            # events[i] may not be ordered last while a concurrent event it
            # must precede (per rc) is still on the frontier.
            if any(j != i and rc(ops[i], ops[j]) for j in frontier):
                continue
            found = dfs(remaining & ~(1 << i), suffix + (i,))
            if found is not None:
                return found
        return None

    suffix = dfs((1 << n) - 1, ())
    del dfs  # its closure holds it: break the cycle, so the search state dies here
    witness = None if suffix is None else tuple(events[i] for i in reversed(suffix))
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


# ---------------------------------------------------------------------------
# The current search against the verbatim previous DFS.


class CountingSpec:
    """A copy of a spec whose ``apply`` and ``replay_apply`` calls are
    counted; its ``rc`` stays the same function, so the oracle takes the same
    path for it."""

    def __init__(self, spec: RdtSpec) -> None:
        self.calls = 0
        changes = {"apply": self._counted(spec.apply)}
        if spec.replay_apply is not None:
            changes["replay_apply"] = self._counted(spec.replay_apply)
        self.spec = dataclasses.replace(spec, **changes)

    def _counted(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)
        return counted

    def search(self, oracle, graph, target) -> tuple[OracleResult, int]:
        self.calls = 0
        return oracle(self.spec, graph, target), self.calls


def assert_same_search(counting: CountingSpec, graph, target) -> OracleResult:
    got, got_calls = counting.search(linearization_oracle, graph, target)
    want, want_calls = counting.search(previous_oracle, graph, target)
    assert (got.witness, got.orders_tried, got_calls) == \
        (want.witness, want.orders_tried, want_calls), graph.recipe
    return got


def _sweep_params(deep: set[str]):
    """Every catalog entry, those in ``deep`` run only with SALCHECK_DEEP_SWEEPS=1."""
    skip = pytest.mark.skipif(not DEEP_SWEEPS, reason="set SALCHECK_DEEP_SWEEPS=1 to run")
    return [pytest.param(e, id=e.id, marks=skip if e.id in deep else ()) for e in CATALOG]


@pytest.mark.parametrize("entry", _sweep_params(DEEP))
def test_same_search_on_five_event_sweep(entry):
    counting = CountingSpec(entry.spec)
    for ex in enumerate_executions(entry.spec, payload_pool(entry.spec), 5):
        assert_same_search(counting, ex.graph, ex.sink_state())


@pytest.mark.parametrize("entry", _sweep_params(LARGE_ALPHABET))  # 405k histories each, g-map 1.96M
def test_same_search_on_three_replica_sweep(entry):
    counting = CountingSpec(entry.spec)
    for ex in enumerate_executions(entry.spec, payload_pool(entry.spec), 4,
                                   replicas=3, max_joins=2):
        assert_same_search(counting, ex.graph, ex.sink_state())


@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_same_search_on_random_histories(entry, replicas):
    rng = random.Random(f"previous:{entry.id}:{replicas}")
    tables = StepTables(payload_pool(entry.spec), replicas, ORACLE_EVENT_CAP)
    counting = CountingSpec(entry.spec)
    checked = 0
    while checked < 150:
        ex = draw_execution(rng, tables, entry.spec, ORACLE_EVENT_CAP, 3)
        if ex is not None:
            assert_same_search(counting, ex.graph, ex.sink_state())
            checked += 1


def _linear_extensions(graph) -> int:
    """How many total orders extend happens-before, counted on ``RefGraph``."""
    g = RefGraph(graph)

    def count(remaining: frozenset) -> int:
        if not remaining:
            return 1
        return sum(count(remaining - {e}) for e in remaining
                   if not any(g.happens_before(e, o) for o in remaining))

    return count(frozenset(g.all_events()))


def _unlinearizable(spec: RdtSpec, max_events: int):
    """The histories of the sweep that no admissible order explains."""
    for ex in enumerate_executions(spec, payload_pool(spec), max_events):
        if previous_oracle(spec, ex.graph, ex.sink_state()).witness is None:
            yield ex


def test_same_search_when_no_order_explains_the_buggy_flag():
    spec = next(e for e in CATALOG if e.id == "ew-flag-buggy").spec
    counting = CountingSpec(spec)
    found = 0
    for ex in _unlinearizable(spec, 5):
        got = assert_same_search(counting, ex.graph, ex.sink_state())
        assert got.orders_tried == reference_oracle(spec, ex.graph).orders_tried
        found += 1
    assert found


def _counter_mutant() -> RdtSpec:
    """ctr-inc-mrdt whose merge adds both branches whole, so the common past
    counts twice: conflict-free, and unlinearizable past a merge."""
    return dataclasses.replace(next(e for e in CATALOG if e.id == "ctr-inc-mrdt").spec,
                               merge3=lambda l, a, b: a + b)


def test_same_search_when_no_order_explains_a_counter_mutant():
    # Each failing call misses its memoized first order and then tries every
    # other extension of happens-before.
    spec = _counter_mutant()
    assert spec.rc is rc_empty
    counting = CountingSpec(spec)
    found = 0
    for ex in _unlinearizable(spec, 5):
        got = assert_same_search(counting, ex.graph, ex.sink_state())
        assert got.orders_tried == _linear_extensions(ex.graph)
        found += 1
    assert found > 1


@pytest.mark.parametrize("rid", ["ctr-inc-mrdt", "g-set-mrdt", "or-set-mrdt"])
def test_same_search_for_a_hand_written_conflict_free_rc(rid):
    # Not rc_empty itself, so the search consults rc on every frontier.
    spec = next(e for e in CATALOG if e.id == rid).spec
    rc_calls = []

    def rc(a, b):
        rc_calls.append((a, b))
        return False

    counting = CountingSpec(dataclasses.replace(spec, rc=rc))
    for ex in enumerate_executions(spec, payload_pool(spec), 4):
        assert_same_search(counting, ex.graph, ex.sink_state())
    assert rc_calls


def test_conflict_free_specs_never_call_rc():
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is rc_empty.__code__:
            calls.append(frame)

    specs = [e.spec for e in CATALOG if e.spec.rc is rc_empty] + [_counter_mutant()]
    histories = [(spec, ex) for spec in specs
                 for ex in enumerate_executions(spec, payload_pool(spec), 3)]
    sys.setprofile(profile)
    try:
        results = [linearization_oracle(spec, ex.graph, ex.sink_state()) for spec, ex in histories]
    finally:
        sys.setprofile(None)
    assert not calls
    assert any(r.witness is None for r in results)  # the search ran past the first order too


def test_first_order_memo_stays_within_its_bound():
    bound = _first_order.cache_info().maxsize
    assert bound is not None
    rng = random.Random("memo")
    for _ in range(2 * bound):
        past = tuple(rng.getrandbits(i) for i in range(ORACLE_EVENT_CAP))
        order = _first_order(past)
        assert sorted(order) == list(range(ORACLE_EVENT_CAP))
    info = _first_order.cache_info()
    assert info.currsize <= bound
