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
when ``events[i]`` is the node's own event or an ancestor's: ``events[i]``
happens before ``events[j]`` when bit ``i`` of the mask of ``events[j]``'s
node (``event_nodes[j]``) is set.  The linearization oracle and the peel
check read happens-before from the masks directly.

The fold and LCA rules live in ``_PartialGraph`` alone.  ``build`` pushes a
whole recipe onto one, and ``execute`` computes the states of a finished
graph, checking each payload against the spec.  The exhaustive sweep
(``sweep_walk``) builds and executes incrementally instead: it walks the
prefix tree of canonical recipes depth-first, pushing one apply or join per
tree edge together with its state and popping it on the way back.  So each
tree node's ``apply`` or merge runs once, and a leaf, yielded from the apply
loop that pushes its last event, only folds the heads into the sink.  The
walk yields its live graph: ``enumerate_executions`` copies out every history,
equal to ``execute(spec, build(recipe))``, and ``oracle_sweep`` a failing one.
Every merge, in ``execute`` and on a partial graph alike, is the spec's
``merge3`` of the LCA's state and the two heads' states; a CRDT's ``merge3``
ignores the LCA.

A random history is made in one flat pass.  ``_draw``, the only draw, runs
``rng.randrange``'s rejection loop inline and pushes each step, with its
state, onto a partial graph as it is drawn.  ``draw_execution`` runs it onto
a graph, ``random_recipe`` without one.  The walk and the draws take their
steps and events from ``StepTables``, built once per suite (and once per
walk), from a pool made from the spec's payload types; so they skip
``check_payload``, which a recipe from outside (a shrink candidate, a
replayed report) still gets from ``execute``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import Event, OpPayload, RdtSpec, check_payload


class RecipeError(ValueError):
    """Raised for malformed recipes (bad replica ids, ambiguous merges).

    ``step`` is the index of the step ``build`` refused, or ``None`` when the
    recipe as a whole is at fault (no replica, or a sink fold without a
    unique LCA)."""

    step: int | None = None


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


class StepTables:
    """The step and event values that the draws or the walk over one pool share.

    ``applies[r][p]`` is ``ApplyOp(r, pool[p])``; ``joins[t][s]`` is the join
    into ``t`` from the ``s``-th of the other replicas in order, so
    ``JoinOp(t, s + (s >= t))``; and ``events[ts - 1][r][p]`` is
    ``Event(ts, r, pool[p])`` for every timestamp up to ``max_events``.
    """

    def __init__(self, pool: tuple[OpPayload, ...], replicas: int, max_events: int):
        self.pool = pool
        self.replicas = replicas
        self.applies = [[ApplyOp(r, p) for p in pool] for r in range(replicas)]
        self.joins = [[JoinOp(t, s) for s in range(replicas) if s != t] for t in range(replicas)]
        self.events = [[[Event(ts, r, p) for p in pool] for r in range(replicas)]
                       for ts in range(1, max_events + 1)]


class _PartialGraph:
    """A version graph under construction, kept on stacks that can be cut back.

    ``build`` and the random draws push a whole recipe.  The sweep walk pushes
    one step per edge of the enumeration tree and cuts back to a ``mark`` on
    the way up.  Given a ``spec``, every node gets its state as it is pushed,
    so a finished graph is already executed.  Those states skip
    ``check_payload``: the walk and the draws push only pool events.  The
    spec's ``apply`` and ``merge3`` are bound per graph, so a copy of a spec
    with other functions gets its own calls.
    """

    def __init__(self, replicas: int, spec: RdtSpec | None = None):
        self.nodes: list[NodeInfo] = [("root",)]
        self.ancestors: list[int] = [1]  # per node, bit n set when node n is an ancestor (reflexive)
        self.events: list[Event] = []
        self.event_nodes: list[int] = []
        self.event_masks: list[int] = [0]
        self.states: list = [] if spec is None else [spec.initial]
        self.heads = [0] * replicas
        self.spec_apply = None if spec is None else spec.apply
        self.merge3 = None if spec is None else spec.merge3

    def apply(self, ev: Event) -> None:
        """Push ``ev`` on its replica's head; ``ev.ts`` is the next timestamp."""
        parent = self.heads[ev.replica]
        n = len(self.nodes)
        self.nodes.append(("apply", parent, ev))
        self.ancestors.append(self.ancestors[parent] | 1 << n)
        self.event_masks.append(self.event_masks[parent] | 1 << len(self.events))
        if self.spec_apply is not None:
            self.states.append(self.spec_apply(self.states[parent], ev))
        self.events.append(ev)
        self.event_nodes.append(n)
        self.heads[ev.replica] = n

    def fold(self, x: int, y: int) -> int:
        """The head that folding head ``y`` into head ``x`` gives: ``x`` when it
        already knows ``y``, ``y`` on a fast-forward, else a new merge node.
        Node ids ascend along edges, so the highest common ancestor is the
        LCA if all the others are its ancestors, and else none is unique."""
        ancestors = self.ancestors
        if x == y or ancestors[x] >> y & 1:
            return x
        if ancestors[y] >> x & 1:
            return y
        common = ancestors[x] & ancestors[y]
        lca = common.bit_length() - 1
        if ancestors[lca] != common:
            raise NoUniqueLcaError(f"merge of nodes {x} and {y} has no unique lowest common ancestor")
        n = len(self.nodes)
        self.nodes.append(("merge", x, y, lca))
        ancestors.append(ancestors[x] | ancestors[y] | 1 << n)
        self.event_masks.append(self.event_masks[x] | self.event_masks[y])
        states = self.states
        if self.merge3 is not None:
            states.append(self.merge3(states[lca], states[x], states[y]))
        return n

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
    for i, step in enumerate(recipe.steps):
        try:
            if isinstance(step, ApplyOp):
                if not 0 <= step.replica < recipe.replicas:
                    raise RecipeError(f"apply on unknown replica {step.replica}")
                g.apply(Event(len(g.events) + 1, step.replica, step.payload))
            elif isinstance(step, JoinOp):
                if step.target == step.source:
                    raise RecipeError("join of a replica with itself")
                if not (0 <= step.target < recipe.replicas and 0 <= step.source < recipe.replicas):
                    raise RecipeError(f"join on unknown replica pair {step.target}, {step.source}")
                g.join(step)
            else:
                raise RecipeError(f"unknown step {step!r}")
        except RecipeError as exc:
            exc.step = i
            raise
    return g.graph(recipe, g.sink())


@dataclass(frozen=True)
class Execution:
    spec: RdtSpec = field(compare=False)
    graph: VersionGraph
    states: tuple  # node id -> state

    def sink_state(self):
        return self.states[self.graph.sink]


def execute(spec: RdtSpec, graph: VersionGraph) -> Execution:
    for ev in graph.events:
        check_payload(spec, ev)
    states: list = [spec.initial]
    for info in graph.nodes[1:]:
        if info[0] == "apply":
            states.append(spec.apply(states[info[1]], info[2]))
        else:
            _, left, right, lca = info
            states.append(spec.merge3(states[lca], states[left], states[right]))
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
    for _, steps, _ in sweep_walk(pool, max_events, replicas, max_joins):
        yield Recipe(tuple(steps), replicas)


def enumerate_executions(spec: RdtSpec, pool: tuple[OpPayload, ...], max_events: int,
                         replicas: int = 2, max_joins: int = 1):
    """Yield ``execute(spec, build(r))`` for each ``r`` of ``enumerate_recipes``,
    in the same order.  Each apply or merge of a recipe prefix runs once, and
    every history that extends the prefix shares its state objects, so the
    spec's functions must not mutate their inputs.  The pool's payloads must
    be in the spec's domain, as ``payload_pool`` makes them: they are not
    checked."""
    for g, steps, sink in sweep_walk(pool, max_events, replicas, max_joins, spec):
        yield Execution(spec, g.graph(Recipe(tuple(steps), replicas), sink), tuple(g.states))


def sweep_walk(pool, max_events, replicas, max_joins, spec=None):
    """Walk the prefix tree of canonical recipes depth-first, keeping one
    partial graph ``g`` at the current prefix, and yield ``(g, steps, sink)``
    per recipe in ``enumerate_recipes``'s order.  ``g`` and ``steps`` are live:
    they hold the recipe until the walk resumes.  No recipe ends on a join, so
    each leaf but the empty recipe (yielded first) is yielded from the apply
    loop that pushes its last event, and ``rec`` runs only at inner nodes.  A
    merge with no unique LCA cuts its branch: no recipe below it builds."""
    tables = StepTables(pool, replicas, max_events)
    literals = [p.literals() for p in pool]
    applies = [(r, p, tables.applies[r][p], literals[p])
               for r in range(replicas) for p in range(len(pool))]
    first_applies = applies[:len(pool)]  # the first apply runs on replica 0
    joins = [step for row in tables.joins for step in row]
    g = _PartialGraph(replicas, spec)
    steps: list[Step] = []

    def rec(seen_max, events_left, joins_left):  # events_left >= 1
        mark = g.mark()
        # A trailing join duplicates the final fold, so the last step is an
        # event, pushed only once every join of the size is spent.
        if events_left > 1 or not joins_left:
            events = tables.events[len(g.events)]
            for r, p, step, lits in applies if g.events else first_applies:
                seen = seen_max
                for lit in lits:
                    if lit > seen + 1:
                        break
                    seen = max(seen, lit)
                else:
                    g.apply(events[r][p])
                    steps.append(step)
                    if events_left > 1:
                        yield from rec(seen, events_left - 1, joins_left)
                    else:
                        try:
                            sink = g.sink()
                        except NoUniqueLcaError:
                            pass
                        else:
                            yield g, steps, sink
                    steps.pop()
                    g.restore(mark)
        if joins_left:
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

    if max_events >= 0:
        yield g, steps, 0  # the empty recipe: its sink is the root
    for n_events in range(1, max_events + 1):
        for n_joins in range(max_joins + 1):
            yield from rec(0, n_events, n_joins)


def _draw(rng: random.Random, tables: StepTables, max_events: int, max_joins: int,
          g: _PartialGraph | None = None, event_cap: int | None = None):
    """Draw one random recipe's steps, pushing each onto ``g`` as it is
    drawn.  Each choice is ``rng.randrange(n)``'s rejection loop
    on ``getrandbits``, inline; it would never end for ``n < 1``, so an empty
    choice raises ``ValueError`` instead.  Returns the steps and ``g``, or
    ``None`` for ``g`` when none was given or the draw is dropped: more than
    ``event_cap`` events, or a merge with no unique LCA.  A dropped draw
    still draws all its steps, so the stream moves on as for a kept one."""
    replicas, n_pool = tables.replicas, len(tables.pool)
    if max_events < 1 or max_joins < 0 or replicas < 1 or n_pool < 1:
        raise ValueError("empty range: no event count, replica or payload to draw")
    bits = rng.getrandbits
    k = max_events.bit_length()
    while (n_events := bits(k) + 1) > max_events:
        pass
    k = (max_joins + 1).bit_length()
    while (n_joins := bits(k)) > max_joins:
        pass
    if n_joins and replicas < 2:
        raise ValueError("empty range: a join needs a second replica")
    slots = n_events + n_joins
    positions = list(range(slots - 1))  # rng.sample's draw for a small population
    is_join = [False] * slots
    for n in range(slots - 1, slots - 1 - n_joins, -1):
        k = n.bit_length()
        while (j := bits(k)) >= n:
            pass
        is_join[positions[j]] = True
        positions[j] = positions[n - 1]
    if event_cap is not None and n_events > event_cap:
        g = None
    k_replica, k_source, k_pool = replicas.bit_length(), (replicas - 1).bit_length(), n_pool.bit_length()
    applies, joins, events = tables.applies, tables.joins, tables.events
    steps: list[Step] = []
    ts = 0  # events drawn so far
    for join in is_join:
        while (r := bits(k_replica)) >= replicas:
            pass
        if join:
            while (s := bits(k_source)) >= replicas - 1:
                pass
            step = joins[r][s]
            if g is not None:
                try:
                    g.join(step)
                except NoUniqueLcaError:
                    g = None
        else:
            while (p := bits(k_pool)) >= n_pool:
                pass
            step = applies[r][p]
            if g is not None:
                g.apply(events[ts][r][p])
            ts += 1
        steps.append(step)
    return tuple(steps), g


def random_recipe(rng: random.Random, pool: tuple[OpPayload, ...], max_events: int,
                  replicas: int = 2, max_joins: int = 2) -> Recipe:
    """A random recipe: 1 to ``max_events`` applies on random replicas with
    payloads from ``pool``, and 0 to ``max_joins`` joins at random positions
    (never the last step), drawn as ``rng.randrange`` and ``rng.sample`` draw
    them.  It is ``draw_execution``'s draw without a graph: for the same
    ``rng`` state both draw the same steps and leave ``rng`` in one state."""
    steps, _ = _draw(rng, StepTables(pool, replicas, 0), max_events, max_joins)
    return Recipe(steps, replicas)


def draw_execution(rng: random.Random, tables: StepTables, spec: RdtSpec, max_events: int,
                   max_joins: int = 2, event_cap: int | None = None) -> Execution | None:
    """Draw ``recipe = random_recipe(rng, tables.pool, max_events,
    tables.replicas, max_joins)`` and return ``execute(spec, build(recipe))``,
    made in ``_draw``'s one pass onto a new partial graph of ``spec``;
    ``tables`` must hold events up to ``max_events``.  ``None`` means the draw
    is dropped: ``recipe`` has more than ``event_cap`` events, or
    ``build(recipe)`` would raise ``NoUniqueLcaError``.  The pool's payloads
    must be in the spec's domain, as ``payload_pool`` makes them: they are
    not checked."""
    steps, g = _draw(rng, tables, max_events, max_joins,
                     _PartialGraph(tables.replicas, spec), event_cap)
    if g is None:
        return None
    try:
        sink = g.sink()
    except NoUniqueLcaError:
        return None
    return Execution(spec, g.graph(Recipe(steps, tables.replicas), sink), tuple(g.states))


__all__ = [
    "ApplyOp", "JoinOp", "Step", "Recipe", "RecipeError", "NoUniqueLcaError",
    "VersionGraph", "iter_bits",
    "Execution", "build", "execute", "run_recipe", "diamond",
    "enumerate_recipes", "enumerate_executions", "sweep_walk", "random_recipe",
    "StepTables", "draw_execution",
]
