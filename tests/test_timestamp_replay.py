"""The timestamp replay that ``oracle_sweep`` runs before the oracle.

``oracle_sweep`` first replays each history's events in timestamp order: the
walk's graph keeps the replay of every event prefix, pushed with each event
and cut back with it.  Only where that replay is inadmissible or misses the
sink state does it call ``linearization_oracle``.  These tests watch the
sweep from outside: they record each history the walk hands out and whether
the oracle ran on it, and each event the walk pushes.

Soundness: wherever the replay accepted a history, its timestamp order must
be admissible by a check written here from the oracle's rules (happens-before
read from the node masks, not ``past``, and without ``_allowed``), its replay
must reach the sink state, and ``linearization_oracle`` on the history's own
``VersionGraph`` must find a witness.  Sharing: each event the walk pushes
makes one replay call (``replay_apply``, or ``apply`` where the spec
declares none) while the timestamp prefix it ends is admissible by that
check, and none after that; no spec ``apply`` or ``replay_apply`` runs
outside a push but the oracle's.  The walks are the ones
``test_oracle_sweep_reference.py`` runs.

The oracle calls of the eleven sweeps that the ``oracle-sweep`` benchmark
workload runs are pinned, so a change that widens or narrows the fast path
shows up as a changed count.
"""

from dataclasses import replace

import pytest

from salcheck import checker, history
from salcheck.catalog import CATALOG, catalog_get
from salcheck.checker import (
    CheckConfig, PropertyId, linearization_oracle, oracle_sweep, run_suite,
)
from salcheck.history import Recipe, build, execute
from salcheck.model import Inc, MrdtSpec, Write, rc_empty
from test_oracle_sweep_reference import LARGE_ALPHABET, _params, reference_oracle_sweep
from walkers import apply_nodes


def watched_sweep(entry, max_events, monkeypatch, replicas=2, max_joins=1):
    """Run ``oracle_sweep`` on a copy of the spec whose ``apply`` and
    ``replay_apply`` count their calls, and return its result; per history
    in walk order, ``(recipe, whether the oracle ran)``; and per event the
    walk pushed or swapped in (``swap_last``), ``(events, whether their
    timestamp order is admissible, apply calls, replay_apply calls)`` made
    by the push.  An ``apply`` or
    ``replay_apply`` call outside a push and the oracle fails."""
    spec = checker._as_entry(entry).spec
    leaves, pushes = [], []
    calls = {"apply": 0, "replay_apply": 0, "push": False, "oracle": False}
    walk, oracle = checker.sweep_walk, checker.linearization_oracle
    apply, swap_last = history._PartialGraph.apply, history._PartialGraph.swap_last

    def counting(name, fn):
        def counted(*args):
            assert calls["push"] or calls["oracle"], f"{name} outside a push and the oracle"
            calls[name] += 1
            return fn(*args)
        return counted

    replay = spec.replay_apply
    counted = replace(spec, apply=counting("apply", spec.apply),
                      replay_apply=replay and counting("replay_apply", replay))

    def recording_walk(*args):
        for g, steps in walk(*args):
            leaves.append([Recipe(tuple(steps), replicas), False])
            yield g, steps

    def recording(push):  # a swap of the last event is a push too
        def recorded(g, *args):
            if g.replay_step is None:
                return push(g, *args)
            before = calls["apply"], calls["replay_apply"]
            calls["push"] = True
            push(g, *args)
            calls["push"] = False
            admissible = admissible_prefix(spec, g) == len(g.events)
            pushes.append((tuple(g.events), admissible,
                           calls["apply"] - before[0], calls["replay_apply"] - before[1]))
        return recorded

    def recording_oracle(*args):
        leaves[-1][1] = calls["oracle"] = True
        try:
            return oracle(*args)
        finally:
            calls["oracle"] = False

    monkeypatch.setattr(checker, "sweep_walk", recording_walk)
    monkeypatch.setattr(history._PartialGraph, "apply", recording(apply))
    monkeypatch.setattr(history._PartialGraph, "swap_last", recording(swap_last))
    monkeypatch.setattr(checker, "linearization_oracle", recording_oracle)
    result = oracle_sweep(counted, max_events, replicas=replicas, max_joins=max_joins)
    monkeypatch.undo()
    return result, [tuple(leaf) for leaf in leaves], pushes


def happens_before(graph) -> list[frozenset[int]]:
    """Per event index, the indices of the events that happen before it."""
    return [frozenset(i for i in range(len(graph.events))
                      if i != j and graph.event_masks[node] >> i & 1)
            for j, node in enumerate(apply_nodes(graph))]


def admissible_prefix(spec, graph) -> int:
    """The length of the longest prefix of the timestamp order in which each
    event ``k`` may be peeled last from events ``0..k``: it happens after
    none of them, and no other maximal event of theirs is one that ``k`` must
    precede per ``rc``."""
    before = happens_before(graph)
    ops = [ev.op for ev in graph.events]
    for k in range(len(ops)):
        maximal = [j for j in range(k) if not any(j in before[i] for i in range(k + 1))]
        if any(i >= k for i in before[k]) or any(spec.rc(ops[k], ops[j]) for j in maximal):
            return k
    return len(ops)


def timestamp_replay(spec, graph):
    """The state that replaying ``graph``'s events in timestamp order reaches,
    each acting on the timestamps it observed when the spec says so."""
    s = spec.initial
    for ev, before in zip(graph.events, happens_before(graph)):
        if spec.replay_apply is None:
            s = spec.apply(s, ev)
        else:
            s = spec.replay_apply(s, ev, frozenset(i + 1 for i in before))
    return s


def assert_replay_sound(entry, max_events, monkeypatch, replicas=2, max_joins=1) -> None:
    """Every history the replay accepts is linearizable, and each event the
    walk pushes costs one replay call while its timestamp prefix is
    admissible, and none after that: one ``replay_apply`` call where the
    spec declares one, else one ``apply`` call besides the one that gives
    the pushed node its state."""
    spec = entry.spec
    result, leaves, pushes = watched_sweep(entry, max_events, monkeypatch, replicas, max_joins)
    assert len(leaves) == result.histories
    assert pushes
    declared = spec.replay_apply is not None
    for events, admissible, applies, replays in pushes:
        assert (applies, replays) == ((1, admissible) if declared else (1 + admissible, 0)), events
    accepted = 0
    for recipe, called in leaves:
        ex = execute(spec, build(recipe))
        keyed = list(zip(ex.graph.events, happens_before(ex.graph)))
        admissible = admissible_prefix(spec, ex.graph)
        if not called:
            accepted += 1
            assert admissible == len(keyed), recipe
            assert timestamp_replay(spec, ex.graph) == ex.sink_state(), recipe
            assert linearization_oracle(spec, ex.graph).witness is not None, recipe
    assert accepted  # every sweep starts with the empty recipe
    if result.failure is not None:
        assert leaves[-1][0] == result.failure.graph.recipe and leaves[-1][1]


@pytest.mark.parametrize("entry", _params(set()))
def test_four_event_sweep_accepts_only_linearizable_histories(entry, monkeypatch):
    assert_replay_sound(entry, 4, monkeypatch)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_five_event_sweep_accepts_only_linearizable_histories(entry, monkeypatch):
    assert_replay_sound(entry, 5, monkeypatch)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_three_replica_two_join_sweep_accepts_only_linearizable_histories(entry, monkeypatch):
    assert_replay_sound(entry, 4, monkeypatch, replicas=3, max_joins=2)


# (entry, events, histories, oracle calls): the sweeps of the oracle-sweep
# workload.  The conflict-free entries but mv-reg-mrdt are explained by the
# timestamp replay at every history.  mv-reg-mrdt's replay misses the sink
# state where it does not reach it in timestamp order; ew-flag-fixed's
# timestamp order is inadmissible under its rc on the histories it misses.
# ew-flag-buggy stops at its first unlinearizable history.
WORKLOAD_SWEEPS = [
    ("ctr-inc-mrdt", 5, 176, 0),
    ("pn-ctr-mrdt", 5, 4451, 0),
    ("ew-flag-buggy", 5, 311, 93),
    ("ew-flag-fixed", 5, 4451, 2076),
    ("g-set-mrdt", 5, 5342, 0),
    ("mv-reg-mrdt", 5, 5342, 3818),
    ("ctr-inc-crdt", 5, 176, 0),
    ("pn-ctr-crdt", 5, 4451, 0),
    ("mv-reg-crdt", 5, 5342, 0),
    ("ctr-inc-mrdt", 6, 466, 0),
    ("ctr-inc-crdt", 6, 466, 0),
]


@pytest.mark.parametrize("rid,events,histories,calls", WORKLOAD_SWEEPS,
                         ids=[f"{rid}@{events}" for rid, events, _, _ in WORKLOAD_SWEEPS])
def test_oracle_runs_only_where_the_timestamp_replay_misses(rid, events, histories, calls,
                                                            monkeypatch):
    entry = catalog_get(rid)
    result, leaves, _ = watched_sweep(entry, events, monkeypatch)
    assert result.histories == histories
    assert (result.failure is not None) == entry.known_buggy
    assert sum(called for _, called in leaves) == calls


def test_the_workload_sweeps_cover_every_small_entry():
    small = {rid for rid, events, _, _ in WORKLOAD_SWEEPS if events == 5}
    assert small == {e.id for e in CATALOG if e.id not in LARGE_ALPHABET}


def _last_write(s, ev):
    return s if isinstance(ev.op, Inc) else (ev.ts, ev.op.value)


def _newer(lca, a, b):
    return a if b is None or (a is not None and a[0] > b[0]) else b


# A last-writer register whose state is ``None`` until the first write; an
# ``inc`` leaves the state as it is.  Each history's newest write has the
# largest timestamp, so the timestamp replay reaches every sink state.
NONE_UNTIL_WRITTEN = MrdtSpec("none-until-written", None, _last_write, _newer, rc_empty,
                              (Write, Inc), repr)


def test_a_state_that_is_none_is_replayed_like_any_other(monkeypatch):
    want = reference_oracle_sweep(NONE_UNTIL_WRITTEN, 4)
    result, leaves, _ = watched_sweep(NONE_UNTIL_WRITTEN, 4, monkeypatch)
    assert result == want and result.passed()
    unwritten = [recipe for recipe, _ in leaves
                 if execute(NONE_UNTIL_WRITTEN, build(recipe)).sink_state() is None]
    assert len(unwritten) > 1  # the empty history and the histories of incs alone
    assert not any(called for _, called in leaves)


def test_a_sink_state_that_is_none_is_a_target_like_any_other():
    # ``run_suite`` passes each sink state to the oracle, the empty history's too.
    cfg = CheckConfig(tests_per_property=50, max_events=5, exhaustive_below=3)
    report = run_suite(NONE_UNTIL_WRITTEN, cfg, (PropertyId.LINEARIZATION_EXISTS,))
    assert report.passed() and report.verdicts[0].tests == 50
