"""Property checking of replicated data types over generated histories.

The checker turns replication-aware linearizability into a family of
executable verification conditions:

* merge laws (idempotence, commutativity, absorbing the common ancestor),
* ``BottomUpStep`` — the inductive peel step: merging a branch whose last
  event is ``e`` equals merging without ``e`` and then applying ``e`` on top,
* ``RcPolicy`` — two-event conflict diamonds resolve exactly as the conflict
  resolution relation dictates,
* ``LinearizationExists`` — the semantic ground truth: some total order of
  the history's events that respects happens-before and the conflict policy
  replays, sequentially from the initial state, to the final merged state,
* ``LatticeAssoc`` — two-way merge is associative, for converged types.

Every merge is computed as the spec's ``merge3``, and a CRDT's ``merge3``
ignores the ancestor.  So both kinds check the first six laws, and a spec
with ``merge2`` also checks ``LatticeAssoc``, the one law that calls it
(``properties_for``).

A pass is bounded evidence over the generated histories, not a proof.  Every
suite sweeps all canonical recipes below ``exhaustive_below`` events, each
checked on the walk's live graph from its cut mark
(``_PartialGraph.unchecked``), then tops up with random histories, one
seeded stream per (seed, entry, property), so verdicts are deterministic and
the sweep's first failure is event-minimal.  A draw with no unique LCA, or
above ``ORACLE_EVENT_CAP`` events for ``LinearizationExists``, is redrawn
and counts as no test.  Only a property's first failing history becomes a
``Recipe``, which ``shrink`` builds and executes.  MergeIdem and
MergeWithLca check each distinct input once per suite (``PASSED_ONCE``).
``oracle_sweep`` (``salcheck oracle``) runs ``LinearizationExists`` alone
over the sweep.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from .catalog import LITERAL_POOL, CatalogEntry, payload_pool
from .history import (  # perfbench/tracing.py wraps several of these as checker.<name>
    ApplyOp, Execution, JoinOp, Recipe, StepTables, _PartialGraph, build, draw_history,
    enumerate_recipes, execute, iter_bits, random_recipe, sweep_walk,
)
from .model import Event, RcOrder, RdtSpec, conflicting, is_crdt, rc_empty, rc_order

ORACLE_EVENT_CAP = 9


class PropertyId(enum.Enum):
    # No suite checks LATTICE_COMM or LATTICE_IDEM: on a CRDT's merge3 they
    # are MergeComm and MergeIdem.  They stay because ``salcheck/2`` reports
    # written while suites still checked them name them and must validate,
    # and because the benchmark's per-layer metric list names them.
    MERGE_IDEM = "MergeIdem"
    MERGE_COMM = "MergeComm"
    MERGE_WITH_LCA = "MergeWithLca"
    BOTTOM_UP_STEP = "BottomUpStep"
    RC_POLICY = "RcPolicy"
    LINEARIZATION_EXISTS = "LinearizationExists"
    LATTICE_COMM = "LatticeComm"
    LATTICE_ASSOC = "LatticeAssoc"
    LATTICE_IDEM = "LatticeIdem"


MRDT_PROPERTIES = (
    PropertyId.MERGE_IDEM,
    PropertyId.MERGE_COMM,
    PropertyId.MERGE_WITH_LCA,
    PropertyId.BOTTOM_UP_STEP,
    PropertyId.RC_POLICY,
    PropertyId.LINEARIZATION_EXISTS,
)


def properties_for(spec: RdtSpec) -> tuple[PropertyId, ...]:
    return MRDT_PROPERTIES + ((PropertyId.LATTICE_ASSOC,) if is_crdt(spec) else ())


@dataclass(frozen=True)
class CheckConfig:
    tests_per_property: int = 1000
    seed: int = 0
    max_events: int = 8
    replica_count: int = 2
    exhaustive_below: int = 5
    shrink_budget: int = 500
    literal_pool: tuple[int, ...] = LITERAL_POOL
    max_joins: int = 1  # interior joins per recipe in the exhaustive sweep

    def validate(self) -> None:
        bounds = {
            "tests_per_property": self.tests_per_property,
            "max_events": self.max_events,
            "exhaustive_below": self.exhaustive_below,
            "shrink_budget": self.shrink_budget,
        }
        for name, value in bounds.items():
            if value < 1:
                raise BoundError(name, "must be >= 1", value)
        if self.seed < 0:
            raise BoundError("seed", "must be >= 0", self.seed)
        if self.exhaustive_below > self.max_events:
            raise BoundError("exhaustive_below", "must not exceed max_events",
                             self.exhaustive_below)
        _check_sweep_bounds(self.max_events, self.literal_pool, self.replica_count,
                           self.max_joins)


class BoundError(ValueError):
    """A refused bound, by its ``CheckConfig`` field: ``name`` ``rule``, got ``value``."""

    def __init__(self, name: str, rule: str, value: Any):
        super().__init__(f"{name} {rule}, got {value}")
        self.name, self.rule, self.value = name, rule, value


def _check_sweep_bounds(max_events: int, literals: tuple[int, ...], replicas: int,
                       max_joins: int) -> None:
    """Refuse bounds no exhaustive sweep can run over (``BoundError``)."""
    if max_events < 0:
        raise BoundError("max_events", "must be >= 0", max_events)
    if replicas < 2:  # a join needs two replicas
        raise BoundError("replica_count", "must be >= 2", replicas)
    if max_joins < 0:
        raise BoundError("max_joins", "must be >= 0", max_joins)
    # The sweep's canonical literal order (first use 1, 2, 3, ...) reaches
    # every history only over exactly this pool.
    if not literals or literals != tuple(range(1, len(literals) + 1)):
        raise BoundError("literal_pool", "must be (1, ..., k) with k >= 1", literals)


@dataclass(frozen=True)
class Violation:
    property: PropertyId
    lhs: Any
    rhs: Any
    lhs_str: str
    rhs_str: str
    node: int | None = None
    event: Event | None = None
    linearizations_tried: int | None = None


@dataclass(frozen=True)
class CounterexampleReport:
    shrunk: Execution
    shrink_steps: int
    minimal: bool
    violation: Violation  # the shrunk history's: property, both sides, node and event


@dataclass(frozen=True)
class Verdict:
    property: PropertyId
    status: str  # "pass" | "fail" | "vacuous"
    tests: int
    counterexample: CounterexampleReport | None = None


@dataclass(frozen=True)
class SuiteReport:
    rdt_id: str
    config: CheckConfig
    verdicts: tuple[Verdict, ...]

    def verdict(self, prop: PropertyId) -> Verdict:
        for v in self.verdicts:
            if v.property is prop:
                return v
        raise KeyError(prop)

    def first_failure(self) -> Verdict | None:
        for v in self.verdicts:
            if v.status == "fail":
                return v
        return None

    def passed(self) -> bool:
        return self.first_failure() is None


class OracleScopeError(Exception):
    """History too large for the exhaustive linearization oracle."""


# ---------------------------------------------------------------------------
# Linearization oracle.


@dataclass(frozen=True)
class OracleResult:
    witness: tuple[Event, ...] | None
    orders_tried: int


# ``linearization_oracle``'s default target: execute the graph for its sink
# state.  A private object, since ``None`` may be a state.
_EXECUTE = object()


def linearization_oracle(spec: RdtSpec, graph, target=_EXECUTE) -> OracleResult:
    """Search every admissible total order for one that explains ``target``,
    the sink state (by default, ``graph`` is executed to get it).  Only
    ``graph``'s ``events`` and ``past`` are read, so ``graph`` may also be the
    sweep walk's live partial graph, which cannot be executed: a ``target``
    must then be passed.

    Admissible orders extend happens-before; additionally, a conflicting
    concurrent pair may only appear in the direction the conflict relation
    allows whenever both events are peeled from the same frontier (peeling an
    event last is forbidden while a concurrent conflict loser is still
    unpeeled).  Replay is replication-aware: a spec may declare a
    ``replay_apply`` through which each event acts only on entries created by
    events it observed in the original execution (its causal past), matching
    the sequential-explanation reading where an update cannot affect state it
    never saw.  The first order whose replay from the initial state
    reproduces the final merged state is returned; ``None`` means every
    admissible order was tried and none matched.

    The search is a depth-first walk that fills the order from its last
    position back, trying the frontier's allowed events lowest index first.
    Its first complete order takes the first allowed event at every position,
    so it is computed directly (``_greedy_order``) and replayed before any
    search, which then resumes at the second order only if the replay
    misses.  For a conflict-free spec (``rc`` is ``rc_empty``) no candidate
    is ever pruned, so that order depends on happens-before alone.  It is
    memoized per happens-before shape in the oracle's one bounded memo
    (``_shape``), which also holds the ``later`` masks the search reads.  When some
    position has no allowed event, the walk backtracks before its first
    complete order, and the search runs from the start.
    """
    events = graph.events
    n = len(events)
    if n > ORACLE_EVENT_CAP:
        raise OracleScopeError(
            f"{n} events exceed the oracle cap of {ORACLE_EVENT_CAP}"
        )
    if target is _EXECUTE:
        target = execute(spec, graph).sink_state()
    if not n:
        return OracleResult(() if spec.initial == target else None, 1)
    # past[i]: the events that happen before events[i].  Timestamps extend
    # happens-before, so past[i] holds only indices below i.
    past = tuple(graph.past)
    rc = None if spec.rc is rc_empty else spec.rc
    if rc is None:
        first = _first_order(past)
    else:
        first = _greedy_order(_later(past), [ev.op for ev in events], rc)
    if first is not None and _replay(spec, spec.initial, events, past, first) == target:
        return OracleResult(tuple([events[i] for i in first]), 1)
    order, tried = _search(spec, events, past, target, rc, 0 if first is None else 1)
    return OracleResult(None if order is None else tuple([events[i] for i in order]), tried)


# The timestamps each event observed, by past mask.  past[i] holds only indices
# below i < ORACLE_EVENT_CAP, so it is below 2 ** (ORACLE_EVENT_CAP - 1).
_OBSERVED = tuple(frozenset(j + 1 for j in iter_bits(mask))
                  for mask in range(1 << (ORACLE_EVENT_CAP - 1)))


def _replay(spec: RdtSpec, s, events, past, order):
    """The state that replaying the events at ``order`` from ``s`` reaches:
    each event through ``replay_apply`` with the timestamps it observed, or
    through ``apply`` when the spec declares no ``replay_apply``."""
    replay = spec.replay_apply
    if replay is None:
        apply = spec.apply
        for i in order:
            s = apply(s, events[i])
    else:
        for i in order:
            s = replay(s, events[i], _OBSERVED[past[i]])
    return s


def _allowed(remaining: int, later, ops, rc) -> list[int]:
    """The events that may take the last of the positions the events in
    ``remaining`` fill, lowest index first: those that no remaining event
    happens after, less any that must precede (per ``rc``) another of them."""
    frontier = []
    m = remaining
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if not later[i] & remaining:
            frontier.append(i)
        m ^= low
    if rc is None or len(frontier) < 2:
        return frontier
    allowed = []
    for i in frontier:
        op = ops[i]
        for j in frontier:
            if j != i and rc(op, ops[j]):
                break
        else:
            allowed.append(i)
    return allowed


def _greedy_order(later, ops, rc) -> tuple[int, ...] | None:
    """The search's first complete order: each position, from the last back,
    takes the first of its ``_allowed`` events; ``None`` where one has none."""
    remaining = (1 << len(later)) - 1
    order = []
    while remaining:
        allowed = _allowed(remaining, later, ops, rc)
        if not allowed:
            return None
        order.append(allowed[0])
        remaining ^= 1 << allowed[0]
    return tuple(reversed(order))


@functools.lru_cache(maxsize=1024)
def _shape(past: tuple[int, ...], conflict_free: bool) -> tuple[int, ...]:
    """The oracle's one memo, per happens-before shape and kind of spec: the
    first order (``_greedy_order`` when ``rc`` prunes nothing) for a
    conflict-free spec, else ``later``.  A shape holds only what its callers
    read: a spec with an ``rc`` never reads the first order, and a
    conflict-free spec reads ``later`` only when that order misses."""
    later = [0] * len(past)  # later[j]: the events that happen after events[j]
    for i, before in enumerate(past):
        for j in iter_bits(before):
            later[j] |= 1 << i
    return _greedy_order(later, None, None) if conflict_free else tuple(later)


def _first_order(past: tuple[int, ...]) -> tuple[int, ...]:
    return _shape(past, True)


def _later(past: tuple[int, ...]) -> tuple[int, ...]:
    return _shape(past, False)


def _search(spec: RdtSpec, events, past: tuple[int, ...], target, rc, skip: int):
    """The depth-first search: ``(order, orders tried)``, with ``order`` the
    first admissible order that replays to ``target``, or ``None``.  The first
    ``skip`` complete orders are counted but not replayed (they already were).
    ``rc`` is ``None`` for a conflict-free spec."""
    n = len(events)
    later = _later(past)
    ops = [ev.op for ev in events]
    order = [0] * n  # filled from position n - 1 down to 0
    cands: list[list[int]] = [[]] * n  # per position, its allowed events
    at = [-1] * n  # per position, the next candidate to try; -1: not listed yet
    tried = 0
    remaining = (1 << n) - 1  # the events at positions 0..pos
    pos = n - 1
    while True:
        if at[pos] < 0:
            cands[pos] = _allowed(remaining, later, ops, rc)
            at[pos] = 0
        k = at[pos]
        if k == len(cands[pos]):  # exhausted: undo the choice one position up
            pos += 1
            if pos == n:
                return None, tried
            remaining |= 1 << order[pos]
            continue
        at[pos] = k + 1
        order[pos] = i = cands[pos][k]
        if pos:
            remaining ^= 1 << i
            pos -= 1
            at[pos] = -1
        else:
            tried += 1
            if tried > skip and _replay(spec, spec.initial, events, past, order) == target:
                return order, tried


# ---------------------------------------------------------------------------
# Per-history property evaluators.  Each returns the first violation or None.
# A history ``h`` is an ``Execution`` or the live ``_PartialGraph`` of the
# sweep walk or a random draw, its sink folded: both hold ``nodes``,
# ``states``, ``events``, ``event_masks``, ``past`` and ``merge_nodes``,
# and the sink is the last node.  All evaluators but LinearizationExists, which
# reads the sink and ignores ``start``, are node-local: the verdict at node n
# reads only nodes, states, events, masks and past at or below n.  So each checks
# only the nodes (merge nodes for the merge laws) from ``start`` on; the sweep
# passes its cut mark (``_PartialGraph.unchecked``).  The ``PASSED_ONCE`` laws
# also take ``passed``.


def _viol(spec: RdtSpec, prop: PropertyId, lhs, rhs,
          node: int | None = None, event: Event | None = None) -> Violation:
    return Violation(prop, lhs, rhs, spec.format_state(lhs), spec.format_state(rhs), node, event)


def eval_merge_idem(spec: RdtSpec, h, start: int = 0,
                    passed: set | None = None) -> Violation | None:
    for n, s in enumerate(h.states[start:], start):
        if passed is not None:
            try:
                if s in passed:
                    continue
            except TypeError:  # an unhashable state: no memo for the rest of ``h``
                passed = None
        merged = spec.merge3(s, s, s)
        if merged != s:
            return _viol(spec, PropertyId.MERGE_IDEM, merged, s, node=n)
        if passed is not None:
            passed.add(s)
    return None


def eval_merge_comm(spec: RdtSpec, h, start: int = 0) -> Violation | None:
    nodes, states = h.nodes, h.states
    for m in h.merge_nodes(start):
        _, left, right, lca = nodes[m]
        ab = states[m]  # the history's merge3(lca, left, right)
        ba = spec.merge3(states[lca], states[right], states[left])
        if ab != ba:
            return _viol(spec, PropertyId.MERGE_COMM, ab, ba, node=m)
    return None


def eval_merge_with_lca(spec: RdtSpec, h, start: int = 0,
                        passed: set | None = None) -> Violation | None:
    nodes, states = h.nodes, h.states
    for m in h.merge_nodes(start):
        _, left, right, lca = nodes[m]
        l = states[lca]
        for branch in (left, right):
            s = states[branch]
            if passed is not None:
                try:
                    if (l, s) in passed:
                        continue
                except TypeError:  # an unhashable state: no memo for the rest of ``h``
                    passed = None
            for a, b in ((l, s), (s, l)):
                kept = spec.merge3(l, a, b)
                if kept != s:
                    return _viol(spec, PropertyId.MERGE_WITH_LCA, kept, s, node=m)
            if passed is not None:
                passed.add((l, s))
    return None


@dataclass(frozen=True)
class BottomUpInstance:
    merge_node: int
    event: Event
    a_prime: int  # node holding the branch state with the event peeled off
    b_node: int
    lhs: Any
    rhs: Any
    lhs_str: str
    rhs_str: str
    holds: bool


def _independent(spec: RdtSpec, h, e: Event, hist_b: int, concurrent: int,
                 probe_nodes: tuple[int, int]) -> bool:
    """Whether ``e`` may be peeled past the b-events in ``concurrent`` (see
    ``_peels``); the commute probes are the initial state and the states at
    ``probe_nodes``."""
    past, events = h.past, h.events
    rc = spec.rc
    applied = None  # (probe, apply(probe, e)), built at the first commute check
    for j in iter_bits(concurrent):
        o = events[j]
        ahead = rc(e.op, o.op)
        if ahead or rc(o.op, e.op):
            # Every b-event after o is concurrent with e too, so none of them
            # lies in the LCA's history.
            if ahead and not any(
                past[k] >> j & 1 and conflicting(rc, o.op, events[k].op)
                for k in iter_bits(hist_b & ~(1 << j))
            ):
                return False
            continue
        if applied is None:
            applied = []
            for s in (spec.initial, *(h.states[n] for n in probe_nodes)):
                if not any(s is p for p, _ in applied):  # one state, one probe
                    applied.append((s, spec.apply(s, e)))
        for s, se in applied:
            if spec.apply(se, o) != spec.apply(spec.apply(s, o), e):
                return False
    return True


def _peels(spec: RdtSpec, h, start: int = 0):
    """Yield ``(m, e, a_prime, b_node, lhs, rhs, probe)`` for each candidate
    instance of the bottom-up condition at a merge node ``m >= start``, in
    order; the candidate is peelable when ``_independent(spec, h, *probe)``.

    At a merge of branches a and b over ancestor l, the final event ``e`` of
    branch a may be peeled when its effect is independent of b's concurrent
    events: every concurrent b-event that ``e`` must precede per the conflict
    relation has itself been overridden later on b's branch (a conflicting
    successor observed and resolved it), and every concurrent non-conflicting
    b-event commutes with ``e`` on the states at hand.  Without the override
    rule the condition would flag correct types for peeling a conflict winner
    past a live loser; with it, resurrecting a dead loser is still caught.
    The instance holds when ``lhs``, a merged with b, equals ``rhs``, ``e``
    applied on top of a without ``e`` merged with b.

    The sides come first, since they cost one or two merges and one
    ``apply``, while the commute probes of ``_independent`` cost up to three
    ``apply`` calls per probe state and concurrent event.  The spec functions
    are pure, so which check runs first changes no verdict: callers that only
    need the instances whose sides differ run ``_independent`` on those alone.
    """
    nodes, states, masks = h.nodes, h.states, h.event_masks
    for m in h.merge_nodes(start):
        _, left, right, lca = nodes[m]
        for a_node, b_node in ((left, right), (right, left)):
            info = nodes[a_node]
            if info[0] != "apply":
                continue
            _, a_prime, e = info
            hist_b = masks[b_node]
            if hist_b >> (e.ts - 1) & 1:
                continue
            l_state = states[lca]
            lhs = (states[m] if a_node == left  # the history's merge3(l, a, b)
                   else spec.merge3(l_state, states[a_node], states[b_node]))
            rhs = spec.apply(spec.merge3(l_state, states[a_prime], states[b_node]), e)
            # b's history is closed under happens-before and lacks e, so no
            # b-event comes after e: the concurrent ones are those e did not see.
            yield (m, e, a_prime, b_node, lhs, rhs,
                   (e, hist_b, hist_b & ~masks[a_node], (lca, a_prime)))


def bottom_up_instances(spec: RdtSpec, ex: Execution) -> list[BottomUpInstance]:
    """All peelable instances of the bottom-up verification condition (see
    ``_peels``), with both sides formatted.  Every candidate is probed for
    independence, since an instance that holds is listed too."""
    return [BottomUpInstance(m, e, a_prime, b_node, lhs, rhs,
                             spec.format_state(lhs), spec.format_state(rhs), lhs == rhs)
            for m, e, a_prime, b_node, lhs, rhs, probe in _peels(spec, ex)
            if _independent(spec, ex, *probe)]


def eval_bottom_up_step(spec: RdtSpec, h, start: int = 0) -> Violation | None:
    """A violation at the first peelable instance at a merge node
    ``m >= start`` whose sides differ, or ``None``.  A candidate's sides are
    compared before its independence is probed: a candidate whose sides are
    equal holds whether or not it is peelable, and the spec functions are
    pure, so the probes are skipped there and the first violation is the one
    an independence-first check finds."""
    for m, e, _, _, lhs, rhs, probe in _peels(spec, h, start):
        if lhs != rhs and _independent(spec, h, *probe):
            return _viol(spec, PropertyId.BOTTOM_UP_STEP, lhs, rhs, node=m, event=e)
    return None


def _conflict_diamonds(spec: RdtSpec, h, start: int = 0):
    """Merges whose two branches are single events applied directly to the
    LCA version.  Only there does replaying both events from the LCA state
    reproduce exactly what each event observed; an event forked elsewhere may
    have seen a different past, so the sequential comparison would be unfair.
    """
    nodes = h.nodes
    for m in h.merge_nodes(start):
        _, left, right, lca = nodes[m]
        a, b = nodes[left], nodes[right]
        if a[0] != "apply" or b[0] != "apply" or a[1] != lca or b[1] != lca:
            continue
        ea, eb = a[2], b[2]
        if conflicting(spec.rc, ea.op, eb.op):
            yield m, lca, ea, eb


def eval_rc_policy(spec: RdtSpec, h, start: int = 0) -> Violation | None:
    states = h.states
    for m, lca, ea, eb in _conflict_diamonds(spec, h, start):
        first, second = (ea, eb) if rc_order(spec.rc, ea.op, eb.op) is RcOrder.FIRST else (eb, ea)
        expected = spec.apply(spec.apply(states[lca], first), second)
        if states[m] != expected:
            return _viol(spec, PropertyId.RC_POLICY, states[m], expected, node=m)
    return None


def eval_linearization_exists(spec: RdtSpec, h, start: int = 0) -> Violation | None:
    if len(h.events) > ORACLE_EVENT_CAP:
        return None  # out of oracle scope; covered only by smaller histories
    final = h.states[-1]
    result = linearization_oracle(spec, h, final)
    if result.witness is None:
        return Violation(
            PropertyId.LINEARIZATION_EXISTS, final, None,
            spec.format_state(final), f"no admissible order (tried {result.orders_tried})",
            node=len(h.nodes) - 1, linearizations_tried=result.orders_tried)
    return None


def eval_lattice_assoc(spec: RdtSpec, h, start: int = 0) -> Violation | None:
    nodes, states = h.nodes, h.states
    for m in h.merge_nodes(start):
        _, left, right, lca = nodes[m]
        a, b, ab = states[left], states[right], states[m]
        for c in (states[lca], spec.initial):
            nested = spec.merge2(a, spec.merge2(b, c))
            flat = spec.merge2(ab, c)
            if nested != flat:
                return _viol(spec, PropertyId.LATTICE_ASSOC, nested, flat, node=m)
    return None


EVALUATORS: dict[PropertyId, Callable[..., Violation | None]] = {
    PropertyId.MERGE_IDEM: eval_merge_idem,
    PropertyId.MERGE_COMM: eval_merge_comm,
    PropertyId.MERGE_WITH_LCA: eval_merge_with_lca,
    PropertyId.BOTTOM_UP_STEP: eval_bottom_up_step,
    PropertyId.RC_POLICY: eval_rc_policy,
    PropertyId.LINEARIZATION_EXISTS: eval_linearization_exists,
    PropertyId.LATTICE_ASSOC: eval_lattice_assoc,
}

# The state-only laws, whose evaluators take ``passed``: for one ``run_suite``
# call, a set of the inputs that already passed, in the sweep and the random
# phase.  They skip an input in it and add one once it passes.  MergeWithLca's
# input is ``(states[lca], states[branch])``, which decides both of its
# merges.  This changes no verdict: an input joins only once it passes, no two
# properties share a set, a property stops at its first violation, and equal
# states are interchangeable (see ``model``), so a skipped input would pass
# again.  The first failing history, node and counterexample are those of a
# check without the sets.  ``shrink``, ``oracle_sweep`` and a direct
# ``EVALUATORS[p](spec, h)`` call use none.
PASSED_ONCE = frozenset({PropertyId.MERGE_IDEM, PropertyId.MERGE_WITH_LCA})


def rc_is_vacuous(spec: RdtSpec, literals: tuple[int, ...]) -> bool:
    pool = payload_pool(spec, literals)
    return not any(conflicting(spec.rc, p1, p2) for p1 in pool for p2 in pool)


# ---------------------------------------------------------------------------
# Suite runner.


def _stream_seed(seed: int, rdt_id: str, prop: PropertyId) -> int:
    digest = hashlib.sha256(f"{seed}:{rdt_id}:{prop.value}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _as_entry(target: CatalogEntry | RdtSpec) -> CatalogEntry:
    if isinstance(target, CatalogEntry):
        return target
    return CatalogEntry(target.name, target, False, "ad-hoc")


def run_suite(target: CatalogEntry | RdtSpec, cfg: CheckConfig,
              properties: tuple[PropertyId, ...] | None = None) -> SuiteReport:
    """Check every applicable property; deterministic for a given config."""
    cfg.validate()
    entry = _as_entry(target)
    spec = entry.spec
    props = tuple(properties) if properties else properties_for(spec)
    pool = payload_pool(spec, cfg.literal_pool)
    vacuous_rc = rc_is_vacuous(spec, cfg.literal_pool)

    # Per-property state, indexed like ``props``; ``found`` holds the first failing recipe,
    # and ``memos`` the evaluator's extra arguments: a ``PASSED_ONCE`` law's own set.
    evaluators = [EVALUATORS[p] for p in props]
    memos = [(set(),) if p in PASSED_ONCE else () for p in props]
    tests = [0] * len(props)
    found: list[Recipe | None] = [None] * len(props)
    live = [i for i, p in enumerate(props) if not (p is PropertyId.RC_POLICY and vacuous_rc)]

    if live:
        for g, steps in sweep_walk(pool, cfg.exhaustive_below - 1, cfg.replica_count,
                                   cfg.max_joins, spec):
            start = g.unchecked()  # every live property passed the nodes below it
            for i in live:
                if evaluators[i](spec, g, start, *memos[i]) is not None:
                    found[i] = Recipe(tuple(steps), cfg.replica_count)
                tests[i] += 1
            live = [i for i in live if found[i] is None]
            if not live:
                break

    tables = StepTables(pool, cfg.replica_count, cfg.max_events)
    g = _PartialGraph(cfg.replica_count, spec)
    root = g.mark()
    for i in live:
        p = props[i]
        cap = ORACLE_EVENT_CAP if p is PropertyId.LINEARIZATION_EXISTS else None
        rng = random.Random(_stream_seed(cfg.seed, entry.id, p))
        while tests[i] < cfg.tests_per_property and found[i] is None:
            g.restore(root)
            steps, drawn = draw_history(rng, tables, cfg.max_events, cfg.max_joins + 1, g, cap)
            if drawn is None:
                continue  # above the cap, or a criss-cross merge (3+ replicas): redraw, not a test
            if evaluators[i](spec, g, 0, *memos[i]) is not None:
                found[i] = Recipe(steps, cfg.replica_count)
            tests[i] += 1

    verdicts = []
    for i, p in enumerate(props):
        if p is PropertyId.RC_POLICY and vacuous_rc:
            verdicts.append(Verdict(p, "vacuous", 0))
        elif found[i] is None:
            verdicts.append(Verdict(p, "pass", tests[i]))
        else:
            report = shrink(entry, p, found[i], cfg)
            verdicts.append(Verdict(p, "fail", tests[i], report))
    return SuiteReport(entry.id, cfg, tuple(verdicts))


# ---------------------------------------------------------------------------
# Shrinking.


def _fails(spec: RdtSpec, prop: PropertyId, recipe: Recipe) -> tuple[Execution, Violation] | None:
    """``(execution, violation)`` when ``recipe`` fails ``prop``, else ``None``."""
    try:
        ex = execute(spec, build(recipe))
    except Exception:
        return None  # a reduction that breaks the recipe is not a failure
    v = EVALUATORS[prop](spec, ex)
    return None if v is None else (ex, v)


def _reductions(recipe: Recipe):
    steps = recipe.steps
    apply_idx = [i for i, s in enumerate(steps) if isinstance(s, ApplyOp)]
    join_idx = [i for i, s in enumerate(steps) if isinstance(s, JoinOp)]
    for i in [*reversed(apply_idx), *reversed(join_idx)]:
        yield replace(recipe, steps=steps[:i] + steps[i + 1:])
    collapsed = tuple(ApplyOp(0, s.payload) for s in steps if isinstance(s, ApplyOp))
    if collapsed != steps:
        yield replace(recipe, steps=collapsed)
    for i in apply_idx:
        for smaller in steps[i].payload.smaller():
            yield replace(recipe, steps=steps[:i] + (ApplyOp(steps[i].replica, smaller),)
                          + steps[i + 1:])


def shrink(target: CatalogEntry | RdtSpec, prop: PropertyId, recipe: Recipe,
           cfg: CheckConfig) -> CounterexampleReport:
    """Greedy reduction: fewer events first, then fewer joins, then smaller
    literals; each candidate is re-executed and must still fail the same
    property.  Stops at a local minimum or when the budget runs out."""
    spec = _as_entry(target).spec
    failing = _fails(spec, prop, recipe)
    if failing is None:
        raise ValueError("shrink called on a recipe that does not fail the property")
    current, (shrunk, violation) = recipe, failing  # shrunk: execute(spec, build(current))
    budget = cfg.shrink_budget
    steps_taken = 0
    minimal = False
    improved = True
    while improved:
        improved = False
        for candidate in _reductions(current):
            if budget <= 0:
                break
            budget -= 1
            found = _fails(spec, prop, candidate)
            if found is not None:
                current, (shrunk, violation) = candidate, found
                steps_taken += 1
                improved = True
                break
        else:
            minimal = True
    return CounterexampleReport(shrunk, steps_taken, minimal, violation)


# ---------------------------------------------------------------------------
# Exhaustive linearizability sweep (the CLI oracle command and soundness
# acceptance check drive this directly).


@dataclass(frozen=True)
class SweepResult:
    histories: int
    witnesses: int
    failure: Execution | None  # first history with no admissible order

    def passed(self) -> bool:
        return self.failure is None


# ``oracle_sweep``'s replay stack entry for a timestamp prefix that is not
# admissible, and so for every extension of it.  No state is this object.
_INADMISSIBLE = object()


def _takes_last(k: int, events, past, rc) -> bool:
    """Whether event ``k`` may take the last position among events ``0..k``:
    ``k in _allowed((2 << k) - 1, later, ops, rc)``, read from ``past``.
    Timestamps extend happens-before, so no event of ``0..k`` happens after
    ``k``.  So ``k`` is refused only by ``rc`` against another maximal event:
    an earlier ``j`` that neither ``k`` nor any event between them observed."""
    op = events[k].op
    for j in iter_bits(((1 << k) - 1) & ~past[k]):
        if rc(op, events[j].op) and not any(past[i] >> j & 1 for i in range(j + 1, k)):
            return False
    return True


def _timestamp_step(spec: RdtSpec):
    """The ``replay_step`` of ``oracle_sweep``'s walk: given the replay of the
    events before the one just pushed, the replay of the whole timestamp
    prefix, made by one call as ``_replay`` makes it, or ``_INADMISSIBLE``
    once some event cannot take the last position among the events up to
    it (``_takes_last``)."""
    rc = None if spec.rc is rc_empty else spec.rc
    apply, replay = spec.apply, spec.replay_apply

    def step(s, events, past):
        if s is _INADMISSIBLE:
            return s
        k = len(events) - 1
        if rc is not None and not _takes_last(k, events, past, rc):
            return _INADMISSIBLE
        if replay is None:
            return apply(s, events[k])
        return replay(s, events[k], _OBSERVED[past[k]])
    return step


def oracle_sweep(target: CatalogEntry | RdtSpec, max_events: int,
                 literals: tuple[int, ...] = LITERAL_POOL, replicas: int = 2,
                 max_joins: int = 1) -> SweepResult:
    """Run the linearization oracle on every history of ``sweep_walk``, up to
    the first that no admissible order explains (the ``failure``, copied out
    as an ``Execution`` equal to ``execute(spec, build(recipe))``).

    Each history is first replayed in timestamp order, an order that always
    extends happens-before.  The walk's graph keeps that replay per event
    prefix (``replays``, pushed by ``_timestamp_step`` with each event and
    cut back with it), so each event the walk pushes costs one ``apply`` or
    ``replay_apply`` here, shared by every history below it.  Where the whole
    order is admissible and its replay reaches the sink state, the history
    has a witness.  Only where it is not, or misses, does
    ``linearization_oracle`` run, on the walk's live graph, exactly as it
    would on its own.  So the result is the one that running the oracle on
    every history gives.
    """
    if max_events > ORACLE_EVENT_CAP:
        raise OracleScopeError(
            f"max_events {max_events} exceeds the oracle cap of {ORACLE_EVENT_CAP}")
    _check_sweep_bounds(max_events, literals, replicas, max_joins)
    spec = _as_entry(target).spec
    histories = 0
    for g, steps in sweep_walk(payload_pool(spec, literals), max_events, replicas,
                               max_joins, spec, _timestamp_step(spec)):
        histories += 1
        final, replayed = g.states[-1], g.replays[-1]
        if ((replayed is _INADMISSIBLE or replayed != final)
                and linearization_oracle(spec, g, final).witness is None):
            failure = Execution(spec, g.graph(Recipe(tuple(steps), replicas)), tuple(g.states))
            return SweepResult(histories, histories - 1, failure)
    return SweepResult(histories, histories, None)


__all__ = [
    "PropertyId", "MRDT_PROPERTIES", "properties_for",
    "CheckConfig", "Violation", "CounterexampleReport", "Verdict", "SuiteReport",
    "OracleScopeError", "BoundError", "OracleResult", "linearization_oracle",
    "BottomUpInstance", "bottom_up_instances",
    "run_suite", "shrink", "EVALUATORS", "ORACLE_EVENT_CAP",
    "SweepResult", "oracle_sweep",
]
