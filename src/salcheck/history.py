"""Version histories: recipes, graph construction, execution, enumeration.

A ``Recipe`` is a replayable description of a fork/merge run: a fixed number
of replicas, each holding a head version, plus a sequence of steps.  An apply
step advances one replica's head by one event; a join step folds another
replica's head into the target (fast-forwarding when one head is an ancestor
of the other, merging otherwise).  After the last step every replica is folded
into a single sink version, so each run has one final fully-merged state.

The version graph this produces is series-parallel by construction: with two
replicas every merge has a unique lowest common ancestor, recorded on the
merge edge at build time.  With three or more, a merge can have several
maximal common ancestors; ``build`` then raises ``NoUniqueLcaError``.
Timestamps are assigned globally in step order, which makes them consistent
with happens-before.

``build`` also indexes the graph's events once.  ``VersionGraph.events`` lists
them in timestamp order, and the event with timestamp ``t`` sits at index
``t - 1``.  Every node carries an int bitmask of its history: bit ``i`` is set
when ``events[i]`` is the node's own event or an ancestor's.  Happens-before,
``node_of`` and ``events_of`` are lookups in this index, and the
linearization oracle and the peel check work on the masks directly.

The fold and LCA rules live in ``_PartialGraph``, and the per-node state rule
in ``_node_state``.  ``build`` pushes a whole recipe onto a ``_PartialGraph``
and ``execute`` runs ``_node_state`` over the finished graph.  The exhaustive
sweep (``enumerate_executions``) builds and executes incrementally instead:
it walks the prefix tree of canonical recipes depth-first, pushing one apply
or join per tree edge together with its state and popping it on the way back.
So each tree node's ``apply`` or merge runs once, and a leaf only folds the
heads into the sink.  Each history it yields equals ``execute(spec,
build(recipe))`` field for field.
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

    def merge_nodes(self, start: int = 0) -> list[int]:
        """The merge nodes from node ``start`` on, in order."""
        return [n for n in range(start, len(self.nodes)) if self.nodes[n][0] == "merge"]

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


def _node_state(spec: RdtSpec, states: list, info: NodeInfo):
    """The state of a non-root node, from the states of the nodes before it."""
    if info[0] == "apply":
        _, parent, ev = info
        check_payload(spec, ev)
        return spec.apply(states[parent], ev)
    _, left, right, lca = info
    return merge_with_lca(spec, states[lca], states[left], states[right])


class _PartialGraph:
    """A version graph under construction, kept on stacks that can be cut back.

    ``build`` pushes a whole recipe.  The sweep walk pushes one step per edge
    of the enumeration tree and cuts back to a ``mark`` on the way up.  Given
    a ``spec``, every node gets its state as it is pushed, so a walk leaf is
    already executed.
    """

    def __init__(self, replicas: int, spec: RdtSpec | None = None):
        self.spec = spec
        self.nodes: list[NodeInfo] = [("root",)]
        self.ancestors: list[int] = [1]  # per node, bit n set when node n is an ancestor (reflexive)
        self.events: list[Event] = []
        self.event_nodes: list[int] = []
        self.event_masks: list[int] = [0]
        self.states: list = [] if spec is None else [spec.initial]
        self.heads = [0] * replicas

    def _push(self, info: NodeInfo, ancestors: int, event_mask: int) -> int:
        n = len(self.nodes)
        self.nodes.append(info)
        self.ancestors.append(ancestors | 1 << n)
        self.event_masks.append(event_mask)
        if self.spec is not None:
            self.states.append(_node_state(self.spec, self.states, info))
        return n

    def apply(self, step: ApplyOp) -> None:
        parent = self.heads[step.replica]
        i = len(self.events)
        ev = Event(i + 1, step.replica, step.payload)
        n = self._push(("apply", parent, ev), self.ancestors[parent],
                       self.event_masks[parent] | 1 << i)
        self.events.append(ev)
        self.event_nodes.append(n)
        self.heads[step.replica] = n

    def _lca(self, left: int, right: int) -> int:
        ancestors = self.ancestors
        common = ancestors[left] & ancestors[right]
        maximal = common
        for d in iter_bits(common):
            maximal &= ~ancestors[d] | 1 << d  # drop d's strict ancestors
        if maximal.bit_count() != 1:
            raise NoUniqueLcaError(
                f"merge of nodes {left} and {right} has no unique lowest common ancestor"
            )
        return maximal.bit_length() - 1

    def fold(self, x: int, y: int) -> int:
        """The head that folding head ``y`` into head ``x`` gives: ``x`` when it
        already knows ``y``, ``y`` on a fast-forward, else a new merge node."""
        ancestors = self.ancestors
        if x == y or ancestors[x] >> y & 1:
            return x
        if ancestors[y] >> x & 1:
            return y
        lca = self._lca(x, y)
        return self._push(("merge", x, y, lca), ancestors[x] | ancestors[y],
                          self.event_masks[x] | self.event_masks[y])

    def join(self, step: JoinOp) -> bool:
        """Fold the source's head into the target's; False for a no-op join."""
        head = self.heads[step.target]
        self.heads[step.target] = self.fold(head, self.heads[step.source])
        return self.heads[step.target] != head

    def sink(self) -> int:
        """Fold every head into replica 0's, in replica order."""
        sink = self.heads[0]
        for head in self.heads[1:]:
            sink = self.fold(sink, head)
        return sink

    def mark(self) -> tuple:
        return len(self.nodes), len(self.events), tuple(self.heads)

    def restore(self, mark: tuple) -> None:
        n_nodes, n_events, heads = mark
        del self.nodes[n_nodes:], self.ancestors[n_nodes:], self.event_masks[n_nodes:]
        del self.states[n_nodes:], self.events[n_events:], self.event_nodes[n_events:]
        self.heads[:] = heads

    def graph(self, recipe: Recipe, sink: int) -> VersionGraph:
        return VersionGraph(recipe, tuple(self.nodes), sink, tuple(self.events),
                            tuple(self.event_nodes), tuple(self.event_masks))


def build(recipe: Recipe) -> VersionGraph:
    """Assign timestamps and lay out the version graph; no states yet."""
    if recipe.replicas < 1:
        raise RecipeError("recipe needs at least one replica")
    g = _PartialGraph(recipe.replicas)
    for step in recipe.steps:
        if isinstance(step, ApplyOp):
            if not 0 <= step.replica < recipe.replicas:
                raise RecipeError(f"apply on unknown replica {step.replica}")
            g.apply(step)
        elif isinstance(step, JoinOp):
            if step.target == step.source:
                raise RecipeError("join of a replica with itself")
            if not (0 <= step.target < recipe.replicas and 0 <= step.source < recipe.replicas):
                raise RecipeError(f"join on unknown replica pair {step.target}, {step.source}")
            g.join(step)
        else:
            raise RecipeError(f"unknown step {step!r}")
    return g.graph(recipe, g.sink())


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
    states: list = [spec.initial]
    for info in graph.nodes[1:]:
        states.append(_node_state(spec, states, info))
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
    sweep is already event-minimal.  Recipes with a merge that has no unique
    LCA (three or more replicas, two or more joins) are left out: ``build``
    would refuse them, so every recipe yielded builds.
    """
    for _, recipe, _ in _walk(pool, max_events, replicas, max_joins):
        yield recipe


def enumerate_executions(spec: RdtSpec, pool: tuple[OpPayload, ...], max_events: int,
                         replicas: int = 2, max_joins: int = 1):
    """Yield ``execute(spec, build(r))`` for each ``r`` of ``enumerate_recipes``,
    in the same order.  Each apply or merge of a recipe prefix runs once, and
    every history that extends the prefix shares its state objects, so the
    spec's functions must not mutate their inputs."""
    for g, recipe, sink in _walk(pool, max_events, replicas, max_joins, spec):
        yield Execution(spec, g.graph(recipe, sink), tuple(g.states))


def _walk(pool, max_events, replicas, max_joins, spec=None):
    """Walk the prefix tree of canonical recipes depth-first, keeping one
    partial graph ``g`` at the current prefix, and yield ``(g, recipe, sink)``
    at each leaf; ``g`` holds the recipe's whole graph until the walk resumes.
    A merge with no unique LCA cuts its branch: no recipe below it builds."""
    applies = [(ApplyOp(r, p), _payload_literals(p)) for r in range(replicas) for p in pool]
    first_applies = applies[:len(pool)]  # the first apply runs on replica 0
    joins = [JoinOp(t, s) for t in range(replicas) for s in range(replicas) if t != s]
    g = _PartialGraph(replicas, spec)
    steps: list[Step] = []

    def rec(seen_max, events_left, joins_left):
        mark = g.mark()
        if not events_left and not joins_left:
            try:
                sink = g.sink()
            except NoUniqueLcaError:
                pass
            else:
                yield g, Recipe(tuple(steps), replicas), sink
            g.restore(mark)
            return
        if events_left:
            for step, literals in applies if g.events else first_applies:
                seen = seen_max
                for lit in literals:
                    if lit > seen + 1:
                        break
                    seen = max(seen, lit)
                else:
                    g.apply(step)
                    steps.append(step)
                    yield from rec(seen, events_left - 1, joins_left)
                    steps.pop()
                    g.restore(mark)
        if joins_left and events_left:  # a trailing join duplicates the final fold
            for step in joins:
                try:
                    moved = g.join(step)
                except NoUniqueLcaError:
                    continue
                if not moved:
                    continue  # no-op join
                steps.append(step)
                yield from rec(seen_max, events_left, joins_left - 1)
                steps.pop()
                g.restore(mark)

    for n_events in range(max_events + 1):
        for n_joins in range(max_joins + 1):
            if n_joins and not n_events:
                continue  # joins before any event never merge anything
            yield from rec(0, n_events, n_joins)


def random_recipe(rng: random.Random, pool: tuple[OpPayload, ...], max_events: int,
                  replicas: int = 2, max_joins: int = 2) -> Recipe:
    """A random recipe: 1 to ``max_events`` applies on random replicas with
    payloads from ``pool``, and 0 to ``max_joins`` joins at random positions
    (never the last step).  Every draw is the ``getrandbits`` rejection loop
    that ``rng.randrange`` runs, called directly rather than through the
    ``random`` methods layered on it, and the join positions are drawn as
    ``rng.sample`` draws from a small population.  So the recipes follow the
    same distribution as with those methods."""
    bits = rng.getrandbits

    def below(n: int) -> int:  # uniform on range(n), as rng.randrange(n)
        if n < 1:  # getrandbits(0) is 0, so the loop below would never end
            raise ValueError("empty range: no replica or payload to draw")
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    n_events = 1 + below(max_events)
    n_joins = below(max_joins + 1)
    slots = n_events + n_joins
    positions = list(range(slots - 1))  # rng.sample's draw for a small population
    join_at = set()
    for i in range(n_joins):
        j = below(slots - 1 - i)
        join_at.add(positions[j])
        positions[j] = positions[slots - 2 - i]
    n_pool = len(pool)
    steps: list[Step] = []
    for i in range(slots):
        if i in join_at:
            t = below(replicas)
            s = below(replicas - 1)
            steps.append(JoinOp(t, s + (s >= t)))  # any replica but t
        else:
            steps.append(ApplyOp(below(replicas), pool[below(n_pool)]))
    return Recipe(tuple(steps), replicas)


def count_recipes(pool, max_events, replicas=2, max_joins=1) -> int:
    return sum(1 for _ in enumerate_recipes(pool, max_events, replicas, max_joins))


__all__ = [
    "ApplyOp", "JoinOp", "Step", "Recipe", "RecipeError", "NoUniqueLcaError",
    "VersionGraph", "iter_bits",
    "Execution", "build", "execute", "run_recipe", "merge_with_lca", "diamond",
    "enumerate_recipes", "enumerate_executions", "random_recipe", "count_recipes",
]
