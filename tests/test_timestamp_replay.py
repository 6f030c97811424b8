"""The timestamp replay that ``oracle_sweep`` runs before the oracle.

``oracle_sweep`` first replays each history's events in timestamp order,
keeping the replay of every prefix from one history of the walk to the next.
Only where that replay is inadmissible or misses the sink state does it call
``linearization_oracle``.  These tests watch the sweep from outside: they
record each history the walk hands out and whether the oracle ran on it.

Soundness: wherever the replay accepted a history, its timestamp order must
be admissible by a check written here from the oracle's rules (happens-before
read from the node masks, not ``past``, and without ``_allowed``), its replay
must reach the sink state, and ``linearization_oracle`` on the history's own
``VersionGraph`` must find a witness.  Sharing: each history's replay makes
one ``_replay`` step per event it does not share, event and past, with the
history before it, and none past the first event its timestamp order cannot
take.  The walks are the ones ``test_oracle_sweep_reference.py`` runs.

The oracle calls of the eleven sweeps that the ``oracle-sweep`` benchmark
workload runs are pinned, so a change that widens or narrows the fast path
shows up as a changed count.
"""

import pytest

from salcheck import checker
from salcheck.catalog import CATALOG, catalog_get
from salcheck.checker import linearization_oracle, oracle_sweep
from salcheck.history import Recipe, build, execute
from test_oracle_sweep_reference import LARGE_ALPHABET, _params


def watched_sweep(entry, max_events, monkeypatch, replicas=2, max_joins=1):
    """Run ``oracle_sweep`` and return its result and, per history in walk
    order, ``(recipe, events replayed before any oracle call, whether the
    oracle ran)``."""
    leaves = []
    walk, replay, oracle = checker.sweep_walk, checker._replay, checker.linearization_oracle

    def recording_walk(*args):
        for g, steps, sink in walk(*args):
            leaves.append([Recipe(tuple(steps), replicas), 0, False])
            yield g, steps, sink

    def counting_replay(spec, s, events, past, order):
        if not leaves[-1][2]:
            leaves[-1][1] += len(order)
        return replay(spec, s, events, past, order)

    def recording_oracle(spec, graph, target=None):
        leaves[-1][2] = True
        return oracle(spec, graph, target)

    monkeypatch.setattr(checker, "sweep_walk", recording_walk)
    monkeypatch.setattr(checker, "_replay", counting_replay)
    monkeypatch.setattr(checker, "linearization_oracle", recording_oracle)
    result = oracle_sweep(entry, max_events, replicas=replicas, max_joins=max_joins)
    monkeypatch.undo()
    return result, [tuple(leaf) for leaf in leaves]


def happens_before(graph) -> list[frozenset[int]]:
    """Per event index, the indices of the events that happen before it."""
    return [frozenset(i for i in range(len(graph.events))
                      if i != j and graph.event_masks[node] >> i & 1)
            for j, node in enumerate(graph.event_nodes)]


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
    """Every history the replay accepts is linearizable, and each history's
    replay costs one call per event that it does not share with the previous
    history, up to the first event its order cannot take."""
    spec = entry.spec
    result, leaves = watched_sweep(entry, max_events, monkeypatch, replicas, max_joins)
    assert len(leaves) == result.histories
    accepted = 0
    shared: list = []  # the previous history's events with their pasts
    for recipe, replayed, called in leaves:
        ex = execute(spec, build(recipe))
        keyed = list(zip(ex.graph.events, happens_before(ex.graph)))
        common = 0
        while common < min(len(keyed), len(shared)) and keyed[common] == shared[common]:
            common += 1
        shared = keyed
        admissible = admissible_prefix(spec, ex.graph)
        assert replayed == max(0, admissible - common), recipe
        if not called:
            accepted += 1
            assert admissible == len(keyed), recipe
            assert timestamp_replay(spec, ex.graph) == ex.sink_state(), recipe
            assert linearization_oracle(spec, ex.graph).witness is not None, recipe
    assert accepted  # every sweep starts with the empty recipe
    if result.failure is not None:
        assert leaves[-1][0] == result.failure.graph.recipe and leaves[-1][2]


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
    result, leaves = watched_sweep(entry, events, monkeypatch)
    assert result.histories == histories
    assert (result.failure is not None) == entry.known_buggy
    assert sum(called for _, _, called in leaves) == calls


def test_the_workload_sweeps_cover_every_small_entry():
    small = {rid for rid, events, _, _ in WORKLOAD_SWEEPS if events == 5}
    assert small == {e.id for e in CATALOG if e.id not in LARGE_ALPHABET}
