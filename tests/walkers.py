"""The sweep and the random draw with every history copied out as an
``Execution``, as ``run_suite`` made them before it checked each history on
the live partial graph that made it.  The tests compare these copies with
``build`` and ``execute`` and feed them to the evaluators and the oracle.
``reference_walk`` is the sweep walk before sibling leaves shared their
layout, and ``apply_nodes`` locates each event's apply node."""

from salcheck.history import (
    Execution, NoUniqueLcaError, Recipe, StepTables, _PartialGraph, draw_history, sweep_walk,
)


def enumerate_executions(spec, pool, max_events, replicas=2, max_joins=1, walk=None):
    """Yield ``execute(spec, build(r))`` for each ``r`` of ``enumerate_recipes``,
    in the same order, made on the live graph of ``walk`` (``sweep_walk`` by
    default): histories that extend one prefix share its state objects.  The
    pool's payloads must be in the spec's domain, as ``payload_pool`` makes
    them: they are not checked."""
    for g, steps in (walk or sweep_walk)(pool, max_events, replicas, max_joins, spec):
        yield Execution(spec, g.graph(Recipe(tuple(steps), replicas)), tuple(g.states))


def draw_execution(rng, tables, spec, max_events, max_joins=2, event_cap=None):
    """Draw ``recipe = random_recipe(rng, tables.pool, max_events,
    tables.replicas, max_joins)`` and return ``execute(spec, build(recipe))``,
    made by ``draw_history`` onto a new partial graph of ``spec``; ``tables``
    must hold events up to ``max_events``.  ``None`` means the draw is
    dropped: ``recipe`` has more than ``event_cap`` events, or
    ``build(recipe)`` would raise ``NoUniqueLcaError``."""
    steps, g = draw_history(rng, tables, max_events, max_joins,
                            _PartialGraph(tables.replicas, spec))
    if g is None or event_cap is not None and len(g.events) > event_cap:
        return None
    return Execution(spec, g.graph(Recipe(steps, tables.replicas)), tuple(g.states))


def reference_walk(pool, max_events, replicas, max_joins, spec=None, replay_step=None):
    """``sweep_walk`` as it was before leaves swapped their last event: it
    yields the same live ``(g, steps)`` per recipe, in the same order, but
    pushes and folds every leaf and cuts it back, and applies the literal
    rule afresh at each tree node."""
    tables = StepTables(pool, replicas, max_events)
    applies = [(r, p, tables.applies[r][p], payload.literals())
               for r in range(replicas) for p, payload in enumerate(pool)]
    joins = [step for row in tables.joins for step in row]
    g = _PartialGraph(replicas, spec, replay_step)
    steps = []

    def rec(seen_max, events_left, joins_left):
        mark = g.mark()
        if events_left > 1 or not joins_left:
            events = tables.events[len(g.events)]
            for r, p, step, lits in applies if g.events else applies[:len(pool)]:
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
                            g.sink()
                        except NoUniqueLcaError:
                            pass
                        else:
                            yield g, steps
                    steps.pop()
                    g.restore(mark)
        if joins_left:
            for step in joins:
                try:
                    moved = g.join(step)
                except NoUniqueLcaError:
                    continue
                if moved:
                    steps.append(step)
                    yield from rec(seen_max, events_left, joins_left - 1)
                    steps.pop()
                    g.restore(mark)

    if max_events >= 0:
        yield g, steps
    for n_events in range(1, max_events + 1):
        for n_joins in range(max_joins + 1):
            yield from rec(0, n_events, n_joins)


def apply_nodes(g) -> list[int]:
    """Per event index, the apply node that holds the event."""
    nodes = [0] * len(g.events)
    for n, info in enumerate(g.nodes):
        if info[0] == "apply":
            nodes[info[2].ts - 1] = n
    return nodes
