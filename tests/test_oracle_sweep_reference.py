"""Differential tests: ``oracle_sweep`` on the walk's live graph against the
loop over ``enumerate_executions`` that it replaced.

``reference_oracle_sweep`` is that loop.  It makes an ``Execution`` for every
history and runs the oracle on its ``VersionGraph``.  ``oracle_sweep`` must
return an equal ``SweepResult``: the same counts and, for an unlinearizable
history, the same failure ``Execution``, field for field, which must also
equal ``execute(spec, build(failure.graph.recipe))``.  At every leaf of the
same walk, the oracle on the live partial graph must return what it returns
on the leaf's ``VersionGraph``.  The large alphabets at 5 events, and every
3-replica sweep of them, run only with ``SALCHECK_DEEP_SWEEPS=1``.
"""

import os

import pytest

from salcheck import history
from salcheck.catalog import CATALOG, LITERAL_POOL, catalog_get, payload_pool
from salcheck.checker import (
    ORACLE_EVENT_CAP, OracleScopeError, SweepResult, _as_entry, _check_sweep_bounds,
    linearization_oracle, oracle_sweep,
)
from salcheck.history import Recipe, build, execute, sweep_walk
from walkers import enumerate_executions

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}
DEEP_SWEEPS = os.environ.get("SALCHECK_DEEP_SWEEPS") == "1"


def reference_oracle_sweep(target, max_events, literals=LITERAL_POOL, replicas=2,
                           max_joins=1) -> SweepResult:
    if max_events > ORACLE_EVENT_CAP:
        raise OracleScopeError(
            f"max_events {max_events} exceeds the oracle cap of {ORACLE_EVENT_CAP}")
    _check_sweep_bounds(max_events, literals, replicas, max_joins)
    entry = _as_entry(target)
    pool = payload_pool(entry.spec, literals)
    histories = witnesses = 0
    for ex in enumerate_executions(entry.spec, pool, max_events, replicas, max_joins):
        histories += 1
        if linearization_oracle(entry.spec, ex.graph, ex.sink_state()).witness is not None:
            witnesses += 1
        else:
            return SweepResult(histories, witnesses, ex)
    return SweepResult(histories, witnesses, None)


def _fields(ex):
    g = ex.graph
    return (g.recipe, g.nodes, g.sink, g.events, g.event_masks, g.past, ex.states)


def assert_sweep_agrees(entry, max_events, replicas=2, max_joins=1) -> None:
    spec = entry.spec
    want = reference_oracle_sweep(entry, max_events, replicas=replicas, max_joins=max_joins)
    got = oracle_sweep(entry, max_events, replicas=replicas, max_joins=max_joins)
    assert (got.histories, got.witnesses) == (want.histories, want.witnesses)
    assert (got.failure is None) == (want.failure is None) == (not entry.known_buggy)
    if want.failure is not None:
        assert got.failure.spec is spec
        assert _fields(got.failure) == _fields(want.failure)
        assert _fields(got.failure) == _fields(execute(spec, build(got.failure.graph.recipe)))
    assert got == want
    for g, steps in sweep_walk(payload_pool(spec), max_events, replicas, max_joins, spec):
        graph = g.graph(Recipe(tuple(steps), replicas))
        assert (linearization_oracle(spec, g, g.states[-1])
                == linearization_oracle(spec, graph)), graph.recipe


def _params(deep: set[str]):
    """Every catalog entry, those in ``deep`` run only with SALCHECK_DEEP_SWEEPS=1."""
    skip = pytest.mark.skipif(not DEEP_SWEEPS, reason="set SALCHECK_DEEP_SWEEPS=1 to run")
    return [pytest.param(e, id=e.id, marks=skip if e.id in deep else ()) for e in CATALOG]


@pytest.mark.parametrize("entry", _params(set()))
def test_four_event_sweep_agrees(entry):
    assert_sweep_agrees(entry, 4)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_five_event_sweep_agrees(entry):
    assert_sweep_agrees(entry, 5)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_three_replica_two_join_sweep_agrees(entry):
    assert_sweep_agrees(entry, 4, replicas=3, max_joins=2)


@pytest.mark.parametrize("rid,graphs", [("ew-flag-buggy", 1), ("pn-ctr-mrdt", 0)])
def test_sweep_builds_a_graph_only_for_its_failure(rid, graphs, monkeypatch):
    made = []
    partial_graph = history._PartialGraph.graph

    def counted(self, recipe):
        made.append(recipe)
        return partial_graph(self, recipe)

    monkeypatch.setattr(history._PartialGraph, "graph", counted)
    result = oracle_sweep(catalog_get(rid), 5)
    assert len(made) == graphs
    assert (result.failure is not None) == bool(graphs)
