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

``dfs_first_leaf`` is that DFS cut at its first complete order: the order
that ``_greedy_order`` computes without a search, and ``None`` exactly when
the DFS backtracks before it.  Those tests also check the ``past`` masks
that the graphs carry, on every ``VersionGraph`` and on the live partial
graph after each cut back.

``previous_allowed`` is the peel rule as it was, kept verbatim: it reads the
frontier from per-event ``later`` masks (``later_masks``), where ``_allowed``
reads it from ``past``.  The two must agree on every ``remaining`` mask.
"""

import dataclasses
import os
import random
import sys

import pytest

from salcheck.catalog import CATALOG, payload_pool
from salcheck import checker
from salcheck.checker import (
    ORACLE_EVENT_CAP, BottomUpInstance, OracleResult, OracleScopeError, _allowed,
    _first_order, _greedy_order, bottom_up_instances, linearization_oracle,
)
from salcheck.history import (
    NoUniqueLcaError, Recipe, StepTables, _PartialGraph, build, draw_history, enumerate_recipes,
    execute, iter_bits, random_recipe, sweep_walk,
)
from salcheck.model import Event, RdtSpec, conflicting, is_crdt, rc_empty
from walkers import apply_nodes, draw_execution, enumerate_executions

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
    past = [graph.event_masks[node] & ~(1 << i) for i, node in enumerate(apply_nodes(graph))]
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


def test_rc_specs_never_touch_the_first_order_memo():
    # Every rc spec at 3 events, and the buggy flag at 4, where some history
    # has no witness, so the search runs past the first order too.
    buggy = next(e for e in CATALOG if e.id == "ew-flag-buggy").spec
    specs = [(e.spec, 4 if e.spec is buggy else 3) for e in CATALOG if e.spec.rc is not rc_empty]
    histories = [(spec, ex) for spec, size in specs
                 for ex in enumerate_executions(spec, payload_pool(spec), size)]
    before = _first_order.cache_info()
    results = [linearization_oracle(spec, ex.graph, ex.sink_state()) for spec, ex in histories]
    assert _first_order.cache_info() == before
    assert any(r.witness is None for r in results)


# ---------------------------------------------------------------------------
# The peel rule against the verbatim previous one.


def later_masks(past) -> tuple[int, ...]:
    """``later[j]``: the events whose ``past`` holds ``j``."""
    later = [0] * len(past)
    for i, before in enumerate(past):
        for j in iter_bits(before):
            later[j] |= 1 << i
    return tuple(later)


def previous_allowed(remaining: int, later, ops, rc) -> list[int]:
    """The events that may take the last of the positions the events in
    ``remaining`` fill, lowest index first: those that no remaining event
    happens after, less any that must precede (per ``rc``) another of them."""
    frontier = []
    m = remaining
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if not later[i] & remaining:
            frontier.append(i)
        m ^= low
    if rc is None or len(frontier) < 2:
        return frontier
    allowed = []
    for i in frontier:
        op = ops[i]
        for j in frontier:
            if j != i and rc(op, ops[j]):
                break
        else:
            allowed.append(i)
    return allowed


def test_allowed_is_the_previous_rule():
    # past drawn as the memo test draws it: any bits below each index, so
    # not closed under happens-before.  Each rc is checked on events drawn
    # from its own spec's payloads.
    rng = random.Random("allowed")
    flag, orset, mvreg = (next(e for e in CATALOG if e.id == rid).spec
                          for rid in ("ew-flag-fixed", "or-set-mrdt", "mv-reg-mrdt"))
    values = payload_pool(mvreg)
    pairs = frozenset((a, b) for a in values for b in values if rng.random() < 0.4)
    relations = [(mvreg, None), (flag, flag.rc), (orset, orset.rc),
                 (mvreg, lambda a, b: (a, b) in pairs)]
    pruned = 0  # calls where rc refused some frontier event
    for n in range(ORACLE_EVENT_CAP + 1):
        for _ in range(3):
            past = tuple(rng.getrandbits(i) for i in range(n))
            later = later_masks(past)
            for spec, rc in relations:
                pool = payload_pool(spec)
                events = tuple(Event(i + 1, 0, rng.choice(pool)) for i in range(n))
                ops = [ev.op for ev in events]
                for remaining in range(1 << n):
                    got = _allowed(remaining, events, past, rc)
                    assert got == previous_allowed(remaining, later, ops, rc), (past, remaining)
                    pruned += got != _allowed(remaining, events, past, None)
    assert pruned


# ---------------------------------------------------------------------------
# The greedy first order against the DFS's first leaf, and the graphs' past.


def dfs_first_leaf(spec: RdtSpec, graph) -> tuple[tuple[int, ...] | None, bool]:
    """``previous_oracle``'s DFS, stopped at its first complete order: that
    order as event indices (``None`` if it has none), and whether the DFS
    backtracked before reaching it.  Happens-before comes from the node masks."""
    n = len(graph.events)
    past = [graph.event_masks[node] & ~(1 << i) for i, node in enumerate(apply_nodes(graph))]
    later = [sum(1 << i for i in range(n) if past[i] >> j & 1) for j in range(n)]
    ops = [ev.op for ev in graph.events]
    backtracked = False

    def dfs(remaining: int, suffix: tuple[int, ...]):
        nonlocal backtracked
        if not remaining:
            return suffix
        frontier = [i for i in range(n) if remaining >> i & 1 and not later[i] & remaining]
        for i in frontier:
            if any(j != i and spec.rc(ops[i], ops[j]) for j in frontier):
                continue
            found = dfs(remaining & ~(1 << i), suffix + (i,))
            if found is not None:
                return found
        backtracked = True
        return None

    suffix = dfs((1 << n) - 1, ())
    return (None if suffix is None else tuple(reversed(suffix))), backtracked


def assert_past(graph) -> None:
    """``graph.past[i]`` is the mask of ``events[i]``'s node without ``i``."""
    assert list(graph.past) == [graph.event_masks[node] & ~(1 << i)
                                for i, node in enumerate(apply_nodes(graph))]


def assert_greedy_is_first_leaf(spec: RdtSpec, graph) -> None:
    assert_past(graph)
    past = tuple(graph.past)
    leaf, backtracked = dfs_first_leaf(spec, graph)
    got = _greedy_order(graph.events, past, spec.rc)
    assert got == (None if backtracked else leaf), graph.events
    if spec.rc is rc_empty:
        assert _first_order(past) == got


def check_sweep(spec: RdtSpec, max_events: int, replicas: int = 2, max_joins: int = 1) -> int:
    """Check every history of the sweep, on the live graph (cut back between
    histories) and on its ``VersionGraph``; returns how many there were."""
    histories = 0
    for g, steps in sweep_walk(payload_pool(spec), max_events, replicas, max_joins, spec):
        assert_greedy_is_first_leaf(spec, g)
        assert_past(g.graph(Recipe(tuple(steps), replicas)))
        histories += 1
    return histories


@pytest.mark.parametrize("entry", _sweep_params(LARGE_ALPHABET))
def test_greedy_order_is_the_first_leaf_on_five_event_sweep(entry):
    assert check_sweep(entry.spec, 5)


@pytest.mark.parametrize("entry", _sweep_params(LARGE_ALPHABET))
def test_greedy_order_is_the_first_leaf_on_three_replica_sweep(entry):
    assert check_sweep(entry.spec, 4, replicas=3, max_joins=2)


@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_greedy_order_is_the_first_leaf_on_random_histories(entry, replicas):
    # Drawn as run_suite draws: onto one partial graph, cut back to its root
    # before each draw.
    rng = random.Random(f"greedy:{entry.id}:{replicas}")
    tables = StepTables(payload_pool(entry.spec), replicas, ORACLE_EVENT_CAP - 1)
    g = _PartialGraph(replicas, entry.spec)
    root = g.mark()
    checked = 0
    while checked < 150:
        g.restore(root)
        assert g.past == []
        _, drawn = draw_history(rng, tables, ORACLE_EVENT_CAP - 1, 3, g)
        if drawn is not None:
            assert_greedy_is_first_leaf(entry.spec, g)
            checked += 1


def test_restore_cuts_past_back_with_the_events():
    spec = next(e for e in CATALOG if e.id == "ew-flag-fixed").spec
    tables = StepTables(payload_pool(spec), 2, 3)
    g = _PartialGraph(2, spec)
    g.apply(tables.events[0][0][0])
    mark = g.mark()
    g.apply(tables.events[1][1][1])
    g.join(tables.joins[0][0])
    g.apply(tables.events[2][0][0])
    assert g.past == [0, 0, 0b11]
    g.restore(mark)
    assert g.past == [0] and len(g.events) == 1


def _skips(monkeypatch) -> list[int]:
    """Record the ``skip`` of every ``_search`` the oracle runs."""
    skips = []
    search = checker._search

    def recorded(*args):
        skips.append(args[-1])
        return search(*args)

    monkeypatch.setattr(checker, "_search", recorded)
    return skips


@pytest.mark.parametrize("rid", ["pn-ctr-mrdt", "ew-flag-fixed", "mv-reg-crdt"])
def test_an_rc_that_forbids_every_candidate_searches_from_the_start(rid, monkeypatch):
    # No event may be ordered last beside another on the frontier, so every
    # history with two concurrent maximal events has no greedy order: the
    # search runs with skip=0, as the DFS does.
    spec = dataclasses.replace(next(e for e in CATALOG if e.id == rid).spec,
                               rc=lambda a, b: True)
    skips = _skips(monkeypatch)
    counting = CountingSpec(spec)
    dead_ends = 0
    for ex in enumerate_executions(spec, payload_pool(spec), 4):
        assert_greedy_is_first_leaf(spec, ex.graph)
        dead_ends += dfs_first_leaf(spec, ex.graph)[1]
        assert_same_search(counting, ex.graph, ex.sink_state())
    assert dead_ends and 0 in skips


def test_random_rc_relations_agree_with_the_dfs(monkeypatch):
    # Seeded relations over the payloads.  Some greedy orders hit a dead end
    # that the DFS backtracks out of to a later leaf, which must be replayed.
    base = next(e for e in CATALOG if e.id == "mv-reg-mrdt").spec
    pool = payload_pool(base)
    skips = _skips(monkeypatch)
    later_leaves = 0
    for seed in range(4):
        rng = random.Random(f"rc:{seed}")
        pairs = frozenset((a, b) for a in pool for b in pool if rng.random() < 0.4)
        spec = dataclasses.replace(base, rc=lambda a, b, pairs=pairs: (a, b) in pairs)
        counting = CountingSpec(spec)
        for ex in enumerate_executions(spec, pool, 4):
            assert_greedy_is_first_leaf(spec, ex.graph)
            leaf, backtracked = dfs_first_leaf(spec, ex.graph)
            later_leaves += backtracked and leaf is not None
            assert_same_search(counting, ex.graph, ex.sink_state())
    assert later_leaves and 0 in skips and 1 in skips
