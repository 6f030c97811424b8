"""Version histories: recipes, graph construction, execution, enumeration.

A ``Recipe`` replays a fork/merge run: a fixed number of replicas, each
holding a head version, and a sequence of steps.  An apply step advances one
replica's head by one event; a join folds another replica's head into the
target's (a fast-forward when one head is an ancestor of the other, else a
merge over their lowest common ancestor).  After the last step every head is
folded into the sink, the last node.  With three or more replicas a merge
can have several maximal common ancestors; ``build`` then raises
``NoUniqueLcaError``.  Timestamps follow step order, so they extend
happens-before.

``VersionGraph.events`` lists the events in timestamp order (timestamp ``t``
at index ``t - 1``).  Bit ``i`` of a node's ``event_masks`` entry is set when
``events[i]`` is in its history, and ``past[j]`` holds the events that
happen before ``events[j]``.

The fold and LCA rules live in ``_PartialGraph`` alone.  ``build`` pushes a
whole recipe onto one and ``execute`` computes its states, checking each
payload against the spec; the sweep (``sweep_walk``) and the random draw
(``draw_history``) push pool steps with their states and hand out the live
graph.  README tells how they share work.
"""

from __future__ import annotations

import random
from bisect import bisect_left
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
    events: tuple[Event, ...]  # timestamp order: the event with ts t is events[t - 1]
    event_masks: tuple[int, ...]  # per node, bit i set when events[i] is in its history
    past: tuple[int, ...]  # per event index, bit i set when events[i] happens before it

    @property
    def sink(self) -> int:
        return len(self.nodes) - 1  # see ``_PartialGraph.sink``

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
    one step per edge of the enumeration tree, cuts back to a ``mark`` on the
    way up, and turns a leaf into its sibling with ``swap_last``.  Given a
    ``spec``, every node gets its state as it is pushed, so a finished graph
    is already executed.  Those states skip ``check_payload``: the walk and
    the draws push only pool events.  The spec's ``apply`` and ``merge3`` are
    bound per graph, so a copy of a spec with other functions gets its own
    calls.  The merge nodes are listed as they are folded, so ``merge_nodes``
    reads that list rather than scanning the nodes.

    Given a ``replay_step`` (``oracle_sweep``'s walk alone passes one), the
    graph also keeps ``replays``, one entry per event prefix: ``replays[0]``
    is the spec's initial state, and each pushed event pushes
    ``replay_step(replays[-1], events, past)``, read once the event is on
    ``events`` and ``past``.  ``restore`` cuts it back with them and
    ``swap_last`` remakes its top, so it always belongs to the graph's events.
    """

    def __init__(self, replicas: int, spec: RdtSpec | None = None, replay_step=None):
        self.nodes: list[NodeInfo] = [("root",)]
        self.ancestors: list[int] = [1]  # per node, bit n set when node n is an ancestor (reflexive)
        self.events: list[Event] = []
        self.event_masks: list[int] = [0]
        self.past: list[int] = []
        self.states: list = [] if spec is None else [spec.initial]
        self.merges: list[int] = []  # the merge nodes, ascending
        self.heads = [0] * replicas
        self.spec_apply = None if spec is None else spec.apply
        self.merge3 = None if spec is None else spec.merge3
        self.low = 0  # the cut mark, see ``unchecked``
        self.replay_step = replay_step
        self.replays: list = [] if replay_step is None else [spec.initial]

    def apply(self, ev: Event) -> None:
        """Push ``ev`` on its replica's head; ``ev.ts`` is the next timestamp."""
        parent = self.heads[ev.replica]
        n = len(self.nodes)
        self.nodes.append(("apply", parent, ev))
        self.ancestors.append(self.ancestors[parent] | 1 << n)
        before = self.event_masks[parent]
        self.event_masks.append(before | 1 << len(self.events))
        self.past.append(before)
        if self.spec_apply is not None:
            self.states.append(self.spec_apply(self.states[parent], ev))
        self.events.append(ev)
        self.heads[ev.replica] = n
        if self.replay_step is not None:
            self.replays.append(self.replay_step(self.replays[-1], self.events, self.past))

    def swap_last(self, n: int, ev: Event) -> None:
        """Put ``ev``, on the same replica, in place of the last event, held
        by apply node ``n`` below the folded sink.  The layout stays, so only
        the states from ``n`` up and the top replay are made again, by the
        calls a push and fold would make; the cut mark drops to ``n``."""
        nodes, states = self.nodes, self.states
        parent = nodes[n][1]
        nodes[n] = ("apply", parent, ev)
        self.events[-1] = ev
        if self.spec_apply is not None:
            states[n] = self.spec_apply(states[parent], ev)
            for m in range(n + 1, len(nodes)):  # the sink fold's merges
                _, x, y, lca = nodes[m]
                states[m] = self.merge3(states[lca], states[x], states[y])
        if self.replay_step is not None:
            self.replays[-1] = self.replay_step(self.replays[-2], self.events, self.past)
        if n < self.low:
            self.low = n

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
        self.merges.append(n)
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
        """Fold every head into replica 0's, in replica order.  The sink knows
        every node, and node ids ascend along edges: it is the last node."""
        sink = self.heads[0]
        for head in self.heads[1:]:
            sink = self.fold(sink, head)
        return sink

    def mark(self) -> tuple:
        return len(self.nodes), len(self.events), tuple(self.heads)

    def restore(self, mark: tuple) -> None:
        n_nodes, n_events, heads = mark
        if n_nodes < self.low:
            self.low = n_nodes
        del self.nodes[n_nodes:], self.ancestors[n_nodes:], self.event_masks[n_nodes:]
        del self.states[n_nodes:], self.events[n_events:], self.past[n_events:]
        del self.replays[n_events + 1:]
        del self.merges[bisect_left(self.merges, n_nodes):]
        self.heads[:] = heads

    def merge_nodes(self, start: int = 0) -> list[int]:
        """The merge nodes from node ``start`` on, in order."""
        return self.merges[bisect_left(self.merges, start):]

    def unchecked(self) -> int:
        """The cut mark: the lowest node count ``restore`` cut back to, or
        apply node ``swap_last`` remade (it changes nothing below it), since
        the last call (0 at the first); else the node count then.  The nodes
        below it, and their states, are the very objects the graph held at
        the last call, so a node-local check that passed them then need not
        look at them again.  A node pushed back equal to one cut is checked
        again: that costs time, not soundness."""
        n, self.low = self.low, len(self.nodes)
        return n

    def graph(self, recipe: Recipe) -> VersionGraph:
        return VersionGraph(recipe, tuple(self.nodes), tuple(self.events),
                            tuple(self.event_masks), tuple(self.past))


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
    g.sink()
    return g.graph(recipe)


@dataclass(frozen=True)
class Execution:
    spec: RdtSpec = field(compare=False)
    graph: VersionGraph
    states: tuple  # node id -> state

    # The graph's fields, named as on a live ``_PartialGraph``: the evaluators read either.
    nodes = property(lambda self: self.graph.nodes)
    events = property(lambda self: self.graph.events)
    event_masks = property(lambda self: self.graph.event_masks)
    past = property(lambda self: self.graph.past)
    merge_nodes = property(lambda self: self.graph.merge_nodes)

    def sink_state(self):
        return self.states[-1]


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
    for _, steps in sweep_walk(pool, max_events, replicas, max_joins):
        yield Recipe(tuple(steps), replicas)


def sweep_walk(pool, max_events, replicas, max_joins, spec=None, replay_step=None):
    """Walk the prefix tree of canonical recipes depth-first on one partial
    graph ``g`` (made with ``spec`` and ``replay_step``, see
    ``_PartialGraph``) and yield ``(g, steps)``, its sink folded, per recipe
    in ``enumerate_recipes``'s order.  ``g`` and ``steps`` are live until the
    walk resumes, and the recipes below a prefix share its state objects, so
    the spec's functions must not mutate their inputs.  No recipe ends on a
    join, so each leaf but the empty recipe (yielded first) comes from the
    last apply loop.  There the leaves on one replica share their layout: the
    first is pushed and folded, and ``swap_last`` turns it into each next
    one, lowering the cut mark to its apply node.  A merge with no unique LCA
    cuts its branch, or its layout's leaves: no recipe there builds."""
    tables = StepTables(pool, replicas, max_events)
    # The literal rule, applied once: with literals up to ``seen`` in use,
    # ``applies[seen]`` lists the (replica, payload, step, new ``seen``)
    # candidates that keep literals in first-use order, replica-major.
    literals = [p.literals() for p in pool]
    applies = []
    for seen in range(max((lit for lits in literals for lit in lits), default=0) + 1):
        row = []
        for p, lits in enumerate(literals):
            after = seen
            for lit in lits:
                if lit > after + 1:
                    break
                after = max(after, lit)
            else:
                row.append((p, after))
        applies.append([(r, p, tables.applies[r][p], after)
                        for r in range(replicas) for p, after in row])
    first_applies = [c for c in applies[0] if c[0] == 0]  # the first apply runs on replica 0
    joins = [step for row in tables.joins for step in row]
    g = _PartialGraph(replicas, spec, replay_step)
    steps: list[Step] = []

    def rec(seen, events_left, joins_left):  # events_left >= 1
        mark = g.mark()
        # A trailing join duplicates the final fold, so the last step is an
        # event, pushed only once every join of the size is spent.
        if events_left > 1 or not joins_left:
            events = tables.events[len(g.events)]
            candidates = applies[seen] if g.events else first_applies
            if events_left > 1:
                for r, p, step, after in candidates:
                    g.apply(events[r][p])
                    steps.append(step)
                    yield from rec(after, events_left - 1, joins_left)
                    steps.pop()
                    g.restore(mark)
            else:  # the leaves: each next one on a replica is swapped in
                replica = folded = None
                for r, p, step, _ in candidates:
                    if r != replica:
                        if replica is not None:
                            g.restore(mark)
                        replica, folded = r, True
                        g.apply(events[r][p])
                        try:
                            g.sink()
                        except NoUniqueLcaError:
                            folded = False
                    elif folded:
                        g.swap_last(mark[0], events[r][p])
                    if folded:
                        steps.append(step)
                        yield g, steps
                        steps.pop()
                if replica is not None:
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
                yield from rec(seen, events_left, joins_left - 1)
                steps.pop()
                g.restore(mark)

    if max_events >= 0:
        yield g, steps  # the empty recipe: its sink is the root
    for n_events in range(1, max_events + 1):
        for n_joins in range(max_joins + 1):
            yield from rec(0, n_events, n_joins)


def draw_history(rng: random.Random, tables: StepTables, max_events: int, max_joins: int,
                 g: _PartialGraph | None = None, event_cap: int | None = None):
    """Draw one random recipe's steps, pushing each onto ``g`` as it is
    drawn and then folding its sink; ``g`` must be at its root.  Each choice
    is ``rng.randrange(n)``'s rejection loop on ``getrandbits``, inline; it
    would never end for ``n < 1``, so an empty choice raises ``ValueError``
    instead.  Returns the steps and ``g``, or ``None`` for ``g`` when none
    was given or the draw is dropped: more than ``event_cap`` events, or a
    merge with no unique LCA.  A dropped draw still draws all its steps, so
    the stream moves on as for a kept one."""
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
    if g is not None:
        try:
            g.sink()
        except NoUniqueLcaError:
            g = None
    return tuple(steps), g


def random_recipe(rng: random.Random, pool: tuple[OpPayload, ...], max_events: int,
                  replicas: int = 2, max_joins: int = 2) -> Recipe:
    """A random recipe: 1 to ``max_events`` applies on random replicas with
    payloads from ``pool``, and 0 to ``max_joins`` joins at random positions
    (never the last step), drawn as ``rng.randrange`` and ``rng.sample`` draw
    them.  It is ``draw_history`` without a graph: for the same ``rng``
    state both draw the same steps and leave ``rng`` in one state."""
    steps, _ = draw_history(rng, StepTables(pool, replicas, 0), max_events, max_joins)
    return Recipe(steps, replicas)


__all__ = [
    "ApplyOp", "JoinOp", "Step", "Recipe", "RecipeError", "NoUniqueLcaError",
    "VersionGraph", "iter_bits",
    "Execution", "build", "execute", "run_recipe", "diamond",
    "enumerate_recipes", "sweep_walk", "random_recipe", "StepTables", "draw_history",
]
