"""The sweep and the random draw with every history copied out as an
``Execution``, as ``run_suite`` made them before it checked each history on
the live partial graph that made it.  The tests compare these copies with
``build`` and ``execute`` and feed them to the evaluators and the oracle."""

from salcheck.history import Execution, Recipe, _PartialGraph, draw_history, sweep_walk


def enumerate_executions(spec, pool, max_events, replicas=2, max_joins=1):
    """Yield ``execute(spec, build(r))`` for each ``r`` of ``enumerate_recipes``,
    in the same order, made on ``sweep_walk``'s live graph: histories that
    extend one prefix share its state objects.  The pool's payloads must be in
    the spec's domain, as ``payload_pool`` makes them: they are not checked."""
    for g, steps in sweep_walk(pool, max_events, replicas, max_joins, spec):
        yield Execution(spec, g.graph(Recipe(tuple(steps), replicas)), tuple(g.states))


def draw_execution(rng, tables, spec, max_events, max_joins=2, event_cap=None):
    """Draw ``recipe = random_recipe(rng, tables.pool, max_events,
    tables.replicas, max_joins)`` and return ``execute(spec, build(recipe))``,
    made by ``draw_history`` onto a new partial graph of ``spec``; ``tables``
    must hold events up to ``max_events``.  ``None`` means the draw is
    dropped: ``recipe`` has more than ``event_cap`` events, or
    ``build(recipe)`` would raise ``NoUniqueLcaError``."""
    steps, g = draw_history(rng, tables, max_events, max_joins,
                            _PartialGraph(tables.replicas, spec), event_cap)
    if g is None:
        return None
    return Execution(spec, g.graph(Recipe(steps, tables.replicas)), tuple(g.states))
