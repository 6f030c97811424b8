"""Version histories: recipes, graph construction, execution, enumeration.

A ``Recipe`` is a replayable description of a fork/merge run: a fixed number
of replicas, each holding a head version, plus a sequence of steps.  An apply
step advances one replica's head by one event; a join step folds another
replica's head into the target (fast-forwarding when one head is an ancestor
of the other, merging otherwise).  After the last step every replica is folded
into a single sink version, so each run has one final fully-merged state.

The version graph this produces is series-parallel by construction: with two
replicas every merge has a unique lowest common ancestor, recorded on the
merge edge at build time.  Timestamps are assigned globally in step order,
which makes them consistent with happens-before.

``build`` also indexes the graph's events once.  ``VersionGraph.events`` lists
them in timestamp order, and the event with timestamp ``t`` sits at index
``t - 1``.  Every node carries an int bitmask of its history: bit ``i`` is set
when ``events[i]`` is the node's own event or an ancestor's.  Happens-before,
``node_of`` and ``events_of`` are lookups in this index, and the
linearization oracle and the peel check work on the masks directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import (
    Add, Delete, Event, Insert, MapSet, OpPayload, RdtSpec, Rem, Write,
    check_payload, is_crdt,
)


class RecipeError(ValueError):
    """Raised for malformed recipes (bad replica ids, ambiguous merges)."""


class NoUniqueLcaError(RecipeError):
    """A merge whose two heads have several maximal common ancestors."""


@dataclass(frozen=True)
class ApplyOp:
    replica: int
    payload: OpPayload


@dataclass(frozen=True)
class JoinOp:
    target: int
    source: int


Step = ApplyOp | JoinOp


@dataclass(frozen=True)
class Recipe:
    steps: tuple[Step, ...]
    replicas: int = 2

    def event_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, ApplyOp))


# Per-node shape: ("root",) | ("apply", parent, Event) | ("merge", left, right, lca).
NodeInfo = tuple


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VersionGraph:
    recipe: Recipe
    nodes: tuple[NodeInfo, ...]
    sink: int
    events: tuple[Event, ...]  # timestamp order: the event with ts t is events[t - 1]
    event_nodes: tuple[int, ...]  # per event index, the apply node holding it
    event_masks: tuple[int, ...]  # per node, bit i set when events[i] is in its history

    def kind(self, n: int) -> str:
        return self.nodes[n][0]

    def merge_nodes(self) -> list[int]:
        return [n for n in range(len(self.nodes)) if self.nodes[n][0] == "merge"]

    def event_at(self, n: int) -> Event | None:
        info = self.nodes[n]
        return info[2] if info[0] == "apply" else None

    def all_events(self) -> tuple[Event, ...]:
        return self.events

    def _index_of(self, ev: Event) -> int:
        """Index of ``ev`` in ``events``; ``KeyError`` if the graph does not hold it."""
        i = ev.ts - 1
        if not 0 <= i < len(self.events) or self.events[i] != ev:
            raise KeyError(ev)
        return i

    def node_of(self, ev: Event) -> int:
        return self.event_nodes[self._index_of(ev)]

    def events_of(self, n: int) -> frozenset[Event]:
        return frozenset(self.events[i] for i in iter_bits(self.event_masks[n]))

    def happens_before(self, e1: Event, e2: Event) -> bool:
        i, j = self._index_of(e1), self._index_of(e2)
        return i != j and self.event_masks[self.event_nodes[j]] >> i & 1 == 1

    def concurrent(self, e1: Event, e2: Event) -> bool:
        return e1 != e2 and not self.happens_before(e1, e2) and not self.happens_before(e2, e1)


def _lca_of(ancestors: list[int], left: int, right: int) -> int:
    common = ancestors[left] & ancestors[right]
    maximal = common
    for d in iter_bits(common):
        maximal &= ~ancestors[d] | 1 << d  # drop d's strict ancestors
    if maximal.bit_count() != 1:
        raise NoUniqueLcaError(
            f"merge of nodes {left} and {right} has no unique lowest common ancestor"
        )
    return maximal.bit_length() - 1


def build(recipe: Recipe) -> VersionGraph:
    """Assign timestamps and lay out the version graph; no states yet."""
    if recipe.replicas < 1:
        raise RecipeError("recipe needs at least one replica")
    nodes: list[NodeInfo] = [("root",)]
    ancestors: list[int] = [1]  # per node, bit n set when node n is an ancestor (reflexive)
    events: list[Event] = []
    event_nodes: list[int] = []
    event_masks: list[int] = [0]
    heads = [0] * recipe.replicas

    def fold(x: int, y: int) -> int:
        if x == y or ancestors[x] >> y & 1:
            return x
        if ancestors[y] >> x & 1:
            return y
        lca = _lca_of(ancestors, x, y)
        m = len(nodes)
        nodes.append(("merge", x, y, lca))
        ancestors.append(ancestors[x] | ancestors[y] | 1 << m)
        event_masks.append(event_masks[x] | event_masks[y])
        return m

    for step in recipe.steps:
        if isinstance(step, ApplyOp):
            if not 0 <= step.replica < recipe.replicas:
                raise RecipeError(f"apply on unknown replica {step.replica}")
            parent = heads[step.replica]
            n, i = len(nodes), len(events)
            ev = Event(i + 1, step.replica, step.payload)
            nodes.append(("apply", parent, ev))
            ancestors.append(ancestors[parent] | 1 << n)
            events.append(ev)
            event_nodes.append(n)
            event_masks.append(event_masks[parent] | 1 << i)
            heads[step.replica] = n
        elif isinstance(step, JoinOp):
            if step.target == step.source:
                raise RecipeError("join of a replica with itself")
            if not (0 <= step.target < recipe.replicas and 0 <= step.source < recipe.replicas):
                raise RecipeError(f"join on unknown replica pair {step.target}, {step.source}")
            heads[step.target] = fold(heads[step.target], heads[step.source])
        else:
            raise RecipeError(f"unknown step {step!r}")

    sink = heads[0]
    for r in range(1, recipe.replicas):
        sink = fold(sink, heads[r])
    return VersionGraph(recipe, tuple(nodes), sink, tuple(events), tuple(event_nodes),
                        tuple(event_masks))


@dataclass(frozen=True)
class Execution:
    spec: RdtSpec = field(compare=False)
    graph: VersionGraph
    states: tuple  # node id -> state

    def sink_state(self):
        return self.states[self.graph.sink]


def merge_with_lca(spec: RdtSpec, lca_state, a, b):
    """Uniform three-way merge; converged types simply ignore the ancestor."""
    if is_crdt(spec):
        return spec.merge2(a, b)
    return spec.merge3(lca_state, a, b)


def execute(spec: RdtSpec, graph: VersionGraph) -> Execution:
    states: list = []
    for info in graph.nodes:
        if info[0] == "root":
            states.append(spec.initial)
        elif info[0] == "apply":
            _, parent, ev = info
            check_payload(spec, ev)
            states.append(spec.apply(states[parent], ev))
        else:
            _, left, right, lca = info
            states.append(merge_with_lca(spec, states[lca], states[left], states[right]))
    return Execution(spec, graph, tuple(states))


def run_recipe(spec: RdtSpec, recipe: Recipe) -> Execution:
    return execute(spec, build(recipe))


def diamond(left: tuple[OpPayload, ...], right: tuple[OpPayload, ...],
            prefix: tuple[OpPayload, ...] = ()) -> Recipe:
    """Fork-once recipe: shared prefix on replica 0, then both branches."""
    steps: list[Step] = [ApplyOp(0, p) for p in prefix]
    if prefix:
        steps.append(JoinOp(1, 0))  # fast-forward: fork point is the prefix head
    steps += [ApplyOp(0, p) for p in left]
    steps += [ApplyOp(1, p) for p in right]
    return Recipe(tuple(steps))


# ---------------------------------------------------------------------------
# Recipe generation.


def _payload_literals(op: OpPayload) -> tuple[int, ...]:
    if isinstance(op, (Add, Rem, Insert, Delete)):
        return (op.elem,)
    if isinstance(op, Write):
        return (op.value,)
    if isinstance(op, MapSet):
        return (op.key,) + _payload_literals(op.op)
    return ()


def enumerate_recipes(pool: tuple[OpPayload, ...], max_events: int,
                      replicas: int = 2, max_joins: int = 1):
    """Yield every canonical recipe with up to ``max_events`` events.

    Canonical means: the first apply runs on replica 0, literals appear in
    first-use order 1, 2, 3, no join is a no-op (joining an already-known
    head), and no recipe ends on a join (the automatic final fold would do
    the same work).  Every recipe outside this set is a replica/literal
    renaming or a step-for-step duplicate of a canonical one, so property
    verdicts are unaffected.  Sizes ascend, so the first failure found by a
    sweep is already event-minimal.
    """
    for n_events in range(max_events + 1):
        for n_joins in range(max_joins + 1):
            if n_joins and not n_events:
                continue  # joins before any event never merge anything
            yield from _enumerate(pool, replicas, n_events, n_joins)


def _enumerate(pool, replicas, n_events, n_joins):
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
                    for lit in _payload_literals(payload):
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
        if joins_left and events_left:  # a trailing join duplicates the final fold
            for t, s in join_pairs:
                x, y = heads[t], heads[s]
                if x == y or ancestors[x] >> y & 1:
                    continue  # no-op join
                new_heads = list(heads)
                if ancestors[y] >> x & 1:
                    new_heads[t] = y  # fast-forward
                    yield from rec(steps + [JoinOp(t, s)], new_heads, ancestors,
                                   seen_max, events_left, joins_left - 1, first_done)
                else:
                    new_id = len(ancestors)
                    new_heads[t] = new_id
                    yield from rec(steps + [JoinOp(t, s)], new_heads,
                                   ancestors + [ancestors[x] | ancestors[y] | 1 << new_id],
                                   seen_max, events_left, joins_left - 1, first_done)

    yield from rec([], [0] * replicas, [1], 0, n_events, n_joins, False)


def random_recipe(rng: random.Random, pool: tuple[OpPayload, ...], max_events: int,
                  replicas: int = 2, max_joins: int = 2) -> Recipe:
    n_events = rng.randint(1, max_events)
    n_joins = rng.randint(0, max_joins)
    slots = n_events + n_joins
    join_at = set(rng.sample(range(slots - 1), n_joins)) if n_joins else set()
    steps: list[Step] = []
    for i in range(slots):
        if i in join_at:
            t = rng.randrange(replicas)
            s = rng.choice([x for x in range(replicas) if x != t])
            steps.append(JoinOp(t, s))
        else:
            steps.append(ApplyOp(rng.randrange(replicas), rng.choice(pool)))
    return Recipe(tuple(steps), replicas)


def count_recipes(pool, max_events, replicas=2, max_joins=1) -> int:
    return sum(1 for _ in enumerate_recipes(pool, max_events, replicas, max_joins))


__all__ = [
    "ApplyOp", "JoinOp", "Step", "Recipe", "RecipeError", "NoUniqueLcaError",
    "VersionGraph", "iter_bits",
    "Execution", "build", "execute", "run_recipe", "merge_with_lca", "diamond",
    "enumerate_recipes", "random_recipe", "count_recipes",
]
