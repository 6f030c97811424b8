"""Differential tests: the timestamp replay that ``oracle_sweep``'s walk keeps
on its graph against ``TimestampReplay``, the per-history replay it replaced.

``TimestampReplay`` is that replay, as it was: it kept the replay of every
prefix from one history of the walk to the next, and cut it back to the first
event that the next history did not share, compared by ``Event`` identity and
by ``past``.  Its inadmissible marker is the state ``None``, which no catalog
entry's state is.  At every history of the walk, the top of the graph's
``replays`` must decide as ``reaches`` does, and be inadmissible exactly
where the reference's last state is ``None``, and else equal it.  The walks are the ones ``test_oracle_sweep_reference.py``
runs; the large alphabets at 5 events, and every 3-replica sweep of them, run
only with ``SALCHECK_DEEP_SWEEPS=1``.
"""

import pytest

from salcheck.catalog import payload_pool
from salcheck.checker import _INADMISSIBLE, _replay, _timestamp_step
from salcheck.history import sweep_walk
from salcheck.model import Event, RdtSpec, rc_empty
from test_oracle_reference import later_masks, previous_allowed
from test_oracle_sweep_reference import LARGE_ALPHABET, _params


class TimestampReplay:
    """The replay of a sweep history's events in timestamp order, kept per
    prefix from one history of the walk to the next.

    Timestamps extend happens-before, so that order is a linear extension;
    for a spec with an ``rc`` it is admissible when each event ``k`` may take
    the last position among events ``0..k`` (``previous_allowed``).  ``events`` and
    ``past`` hold the replayed prefix, and ``states[k]`` the replay of its
    first ``k`` events.  The prefix is cut back to the first event that the
    next history does not share: a different ``Event`` object (the walk takes
    every event from one ``StepTables``) or a different ``past``.  So each new
    event costs one ``apply`` or ``replay_apply``.  An inadmissible prefix
    stays so for every extension: its last state is ``None``.  (A spec whose
    state is ``None`` only sends those histories on to the oracle.)
    """

    def __init__(self, spec: RdtSpec):
        self.spec = spec
        self.rc = None if spec.rc is rc_empty else spec.rc
        self.events: list[Event] = []
        self.past: list[int] = []
        self.states: list = [spec.initial]

    def reaches(self, g, target) -> bool:
        """Whether ``g``'s events, replayed in timestamp order, form an
        admissible order that reaches ``target``."""
        events, past = g.events, g.past
        kept, kept_past, states = self.events, self.past, self.states
        i, stop = 0, min(len(kept), len(events))
        while i < stop and kept[i] is events[i] and kept_past[i] == past[i]:
            i += 1
        del kept[i:], kept_past[i:], states[i + 1:]
        s = states[i]
        if s is None:
            return False
        later = None
        for k in range(i, len(events)):
            kept.append(events[k])
            kept_past.append(past[k])
            if self.rc is not None:
                if later is None:
                    later, ops = later_masks(past), [ev.op for ev in events]
                if k not in previous_allowed((2 << k) - 1, later, ops, self.rc):
                    states.append(None)
                    return False
            s = _replay(self.spec, s, events, past, (k,))
            states.append(s)
        return s == target


def assert_stack_agrees(entry, max_events, replicas=2, max_joins=1) -> None:
    spec = entry.spec
    reference = TimestampReplay(spec)
    histories = 0
    for g, steps in sweep_walk(payload_pool(spec), max_events, replicas, max_joins,
                               spec, _timestamp_step(spec)):
        histories += 1
        final, top = g.states[-1], g.replays[-1]
        assert len(g.replays) == len(g.events) + 1, steps
        assert (top is not _INADMISSIBLE and top == final) == reference.reaches(g, final), steps
        assert (top is _INADMISSIBLE) == (reference.states[-1] is None), steps
        if top is not _INADMISSIBLE:
            assert top == reference.states[-1], steps
    assert histories > 1


@pytest.mark.parametrize("entry", _params(set()))
def test_four_event_stack_agrees(entry):
    assert_stack_agrees(entry, 4)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_five_event_stack_agrees(entry):
    assert_stack_agrees(entry, 5)


@pytest.mark.parametrize("entry", _params(LARGE_ALPHABET))
def test_three_replica_two_join_stack_agrees(entry):
    assert_stack_agrees(entry, 4, replicas=3, max_joins=2)
