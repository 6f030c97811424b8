"""Differential tests: the evaluators and ``run_suite``'s sweep against
whole-history references.

The ``reference_*`` evaluators below are the evaluators as they were before
they took a first node ``start``: each checks every node of a history from
node 0, recomputes every merge it compares, and the peel check builds and
formats every instance eagerly.  ``reference_sweep`` runs them over
``enumerate_recipes`` -> ``build`` -> ``execute`` with no state shared between
histories.  ``run_suite``'s sweep, which checks a history only from the
walk's cut mark on, must reach the same verdicts, test counts and first
violations.
"""

import random

import pytest

from salcheck import checker
from salcheck.catalog import CATALOG, catalog_get, payload_pool
from salcheck.checker import (
    EVALUATORS, ORACLE_EVENT_CAP, BottomUpInstance, CheckConfig, PropertyId, Violation,
    bottom_up_instances, linearization_oracle, properties_for, rc_is_vacuous, run_suite,
)
from salcheck.history import (
    NoUniqueLcaError, build, enumerate_recipes, execute, iter_bits, random_recipe,
)
from salcheck.model import (
    Inc, MrdtSpec, RcOrder, Write, conflicting, is_crdt, rc_empty, rc_order,
)
from walkers import apply_nodes

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def merge_with_lca(spec, lca_state, a, b):
    """The uniform three-way merge as it was before ``spec.merge3`` took its
    place: converged types ignore the ancestor."""
    if is_crdt(spec):
        return spec.merge2(a, b)
    return spec.merge3(lca_state, a, b)


def _viol(spec, prop, ex, lhs, rhs, node=None, event=None, tried=None):
    return Violation(prop, lhs, rhs, spec.format_state(lhs), spec.format_state(rhs),
                     node, event, tried)


def reference_merge_idem(spec, ex):
    for n, s in enumerate(ex.states):
        merged = merge_with_lca(spec, s, s, s)
        if merged != s:
            return _viol(spec, PropertyId.MERGE_IDEM, ex, merged, s, node=n)
    return None


def reference_merge_comm(spec, ex):
    g = ex.graph
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        ab = merge_with_lca(spec, ex.states[lca], ex.states[left], ex.states[right])
        ba = merge_with_lca(spec, ex.states[lca], ex.states[right], ex.states[left])
        if ab != ba:
            return _viol(spec, PropertyId.MERGE_COMM, ex, ab, ba, node=m)
    return None


def reference_merge_with_lca(spec, ex):
    g = ex.graph
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        l = ex.states[lca]
        for branch in (left, right):
            for kept in (merge_with_lca(spec, l, l, ex.states[branch]),
                         merge_with_lca(spec, l, ex.states[branch], l)):
                if kept != ex.states[branch]:
                    return _viol(spec, PropertyId.MERGE_WITH_LCA, ex, kept, ex.states[branch],
                                 node=m)
    return None


def _commute_on_probes(spec, e1, e2, probes) -> bool:
    for s in probes:
        if spec.apply(spec.apply(s, e1), e2) != spec.apply(spec.apply(s, e2), e1):
            return False
    return True


def reference_bottom_up_instances(spec, ex):
    g = ex.graph
    masks = g.event_masks
    event_nodes = apply_nodes(g)
    ops = [ev.op for ev in g.events]
    out = []
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        for a_node, b_node in ((left, right), (right, left)):
            if g.kind(a_node) != "apply":
                continue
            _, a_prime, e = g.nodes[a_node]
            i = e.ts - 1
            hist_b = masks[b_node]
            if hist_b >> i & 1:
                continue
            l_state = ex.states[lca]
            probes = (spec.initial, l_state, ex.states[a_prime])
            ok = True
            for j in iter_bits(hist_b & ~masks[a_node]):
                if conflicting(spec.rc, e.op, ops[j]):
                    if spec.rc(e.op, ops[j]):
                        screened = any(
                            masks[event_nodes[k]] >> j & 1
                            and conflicting(spec.rc, ops[j], ops[k])
                            for k in iter_bits(hist_b & ~(1 << j))
                        )
                        if not screened:
                            ok = False
                            break
                elif not _commute_on_probes(spec, e, g.events[j], probes):
                    ok = False
                    break
            if not ok:
                continue
            lhs = merge_with_lca(spec, l_state, ex.states[a_node], ex.states[b_node])
            rhs = spec.apply(merge_with_lca(spec, l_state, ex.states[a_prime],
                                            ex.states[b_node]), e)
            out.append(BottomUpInstance(
                m, e, a_prime, b_node, lhs, rhs,
                spec.format_state(lhs), spec.format_state(rhs), lhs == rhs))
    return out


def reference_bottom_up_step(spec, ex):
    for inst in reference_bottom_up_instances(spec, ex):
        if not inst.holds:
            return _viol(spec, PropertyId.BOTTOM_UP_STEP, ex, inst.lhs, inst.rhs,
                         node=inst.merge_node, event=inst.event)
    return None


def reference_rc_policy(spec, ex):
    g = ex.graph
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        if g.kind(left) != "apply" or g.kind(right) != "apply":
            continue
        if g.nodes[left][1] != lca or g.nodes[right][1] != lca:
            continue
        ea, eb = g.nodes[left][2], g.nodes[right][2]
        if not conflicting(spec.rc, ea.op, eb.op):
            continue
        first, second = (ea, eb) if rc_order(spec.rc, ea.op, eb.op) is RcOrder.FIRST else (eb, ea)
        expected = spec.apply(spec.apply(ex.states[lca], first), second)
        if ex.states[m] != expected:
            return _viol(spec, PropertyId.RC_POLICY, ex, ex.states[m], expected, node=m)
    return None


def reference_linearization_exists(spec, ex):
    if len(ex.graph.events) > ORACLE_EVENT_CAP:
        return None
    final = ex.sink_state()
    result = linearization_oracle(spec, ex.graph, final)
    if result.witness is None:
        return Violation(
            PropertyId.LINEARIZATION_EXISTS, final, None,
            spec.format_state(final),
            f"no admissible order (tried {result.orders_tried})",
            node=ex.graph.sink, linearizations_tried=result.orders_tried)
    return None


def reference_lattice_comm(spec, ex):
    g = ex.graph
    for m in g.merge_nodes():
        _, left, right, _ = g.nodes[m]
        ab = spec.merge2(ex.states[left], ex.states[right])
        ba = spec.merge2(ex.states[right], ex.states[left])
        if ab != ba:
            return _viol(spec, PropertyId.LATTICE_COMM, ex, ab, ba, node=m)
    return None


def reference_lattice_assoc(spec, ex):
    g = ex.graph
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        a, b = ex.states[left], ex.states[right]
        for c in (ex.states[lca], spec.initial):
            nested = spec.merge2(a, spec.merge2(b, c))
            flat = spec.merge2(spec.merge2(a, b), c)
            if nested != flat:
                return _viol(spec, PropertyId.LATTICE_ASSOC, ex, nested, flat, node=m)
    return None


def reference_lattice_idem(spec, ex):
    for n, s in enumerate(ex.states):
        joined = spec.merge2(s, s)
        if joined != s:
            return _viol(spec, PropertyId.LATTICE_IDEM, ex, joined, s, node=n)
    return None


REFERENCE = {
    PropertyId.MERGE_IDEM: reference_merge_idem,
    PropertyId.MERGE_COMM: reference_merge_comm,
    PropertyId.MERGE_WITH_LCA: reference_merge_with_lca,
    PropertyId.BOTTOM_UP_STEP: reference_bottom_up_step,
    PropertyId.RC_POLICY: reference_rc_policy,
    PropertyId.LINEARIZATION_EXISTS: reference_linearization_exists,
    PropertyId.LATTICE_COMM: reference_lattice_comm,
    PropertyId.LATTICE_ASSOC: reference_lattice_assoc,
    PropertyId.LATTICE_IDEM: reference_lattice_idem,
}


def _fields(v: Violation | None, recipe=None):
    """A violation's fields, with the recipe of the history it was found on
    (a ``Violation`` does not hold it)."""
    if v is None:
        return None
    return (v.property, recipe, v.node, v.event, v.lhs_str, v.rhs_str,
            v.linearizations_tried)


def _shared(a, b) -> int:
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


def reference_sweep(spec, max_events, replicas):
    """Per property: (status, tests, first violation, nodes the failing
    history shared with the one before it)."""
    props = properties_for(spec)
    vacuous = rc_is_vacuous(spec, (1, 2, 3))
    tests = {p: 0 for p in props}
    found = {p: None for p in props}
    recipes = {}
    shared_at = {}
    live = [p for p in props if not (p is PropertyId.RC_POLICY and vacuous)]
    previous = ()
    for recipe in enumerate_recipes(payload_pool(spec), max_events, replicas, 1):
        ex = execute(spec, build(recipe))
        for p in live:
            v = REFERENCE[p](spec, ex)
            tests[p] += 1
            if v is not None:
                found[p] = v
                recipes[p] = recipe
                shared_at[p] = _shared(previous, ex.graph.nodes)
        live = [p for p in live if found[p] is None]
        if not live:
            break
        previous = ex.graph.nodes
    return {p: ("vacuous" if p is PropertyId.RC_POLICY and vacuous
                else "pass" if found[p] is None else "fail",
                tests[p], _fields(found[p], recipes.get(p)), shared_at.get(p))
            for p in props}


def suite_sweep(monkeypatch, spec, max_events, replicas):
    """``run_suite`` held to its sweep (one test per property suffices, so no
    random phase runs), with the first violation each evaluator returned and
    the recipe ``shrink`` was handed for it: the failing history's."""
    first = {}
    recipes = {}
    shrink = checker.shrink

    def recording_shrink(target, prop, recipe, cfg):
        recipes[prop] = recipe
        return shrink(target, prop, recipe, cfg)

    monkeypatch.setattr(checker, "shrink", recording_shrink)
    for p, fn in list(EVALUATORS.items()):
        def recording(*args, p=p, fn=fn):
            v = fn(*args)
            if v is not None:
                first.setdefault(p, v)
            return v
        monkeypatch.setitem(EVALUATORS, p, recording)
    cfg = CheckConfig(tests_per_property=1, max_events=max_events + 1,
                      exhaustive_below=max_events + 1, replica_count=replicas)
    report = run_suite(spec, cfg)
    return {v.property: (v.status, v.tests,
                         _fields(first.get(v.property), recipes.get(v.property)))
            for v in report.verdicts}


def assert_sweeps_agree(monkeypatch, spec, max_events, replicas):
    want = reference_sweep(spec, max_events, replicas)
    got = suite_sweep(monkeypatch, spec, max_events, replicas)
    assert got == {p: w[:3] for p, w in want.items()}
    return want


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_agrees_two_replicas(monkeypatch, entry):
    max_events = 3 if entry.id in LARGE_ALPHABET else 4
    want = assert_sweeps_agree(monkeypatch, entry.spec, max_events, 2)
    if entry.known_buggy:
        assert want[PropertyId.BOTTOM_UP_STEP][0] == "fail"


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_agrees_three_replicas(monkeypatch, entry):
    assert_sweeps_agree(monkeypatch, entry.spec, 3, 3)


def _idem_breaking_merge3(l: int, a: int, b: int) -> int:
    if l == a == b == 2:
        return 3  # merging state 2 with itself diverges
    return a + b - l


# A counter whose merge is not idempotent on state 2 only.  The sweep first
# reaches state 2 at node 2 of [inc, inc] on replica 0, the first node that
# history does not share with [inc]; every longer history down that branch
# shares it.
IDEM_BREAKING = MrdtSpec(
    name="idem-breaking-counter",
    initial=0,
    apply=lambda s, ev: s + 1,
    merge3=_idem_breaking_merge3,
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=str,
)


def _clamp_apply(s: int, ev) -> int:
    return s + 1 if isinstance(ev.op, Inc) else min(s, ev.op.value)


# A counter that a write clamps from above, merged by keeping the left side.
# Inc and write(v) commute on state 0 but not on states >= v, so whether an
# inc may be peeled depends on every probe state; and the merge is not
# commutative, so the two peel orientations have different left-hand sides.
CLAMP_LEFT = MrdtSpec(
    name="clamp-left-counter",
    initial=0,
    apply=_clamp_apply,
    merge3=lambda l, a, b: a,
    rc=rc_empty,
    payload_types=(Inc, Write),
    format_state=str,
)

SPECS = [e.spec for e in CATALOG] + [IDEM_BREAKING, CLAMP_LEFT]


def _differing_sides_probed(spec, ex) -> int:
    """How many peel candidates with unequal sides an evaluator that compares
    the sides first must probe for independence: those up to and including
    the first that the reference finds peelable."""
    g = ex.graph
    peelable = {(i.merge_node, i.event, i.b_node)
                for i in reference_bottom_up_instances(spec, ex)}
    probed = 0
    for m in g.merge_nodes():
        _, left, right, lca = g.nodes[m]
        for a_node, b_node in ((left, right), (right, left)):
            if g.kind(a_node) != "apply":
                continue
            _, a_prime, e = g.nodes[a_node]
            if g.event_masks[b_node] >> (e.ts - 1) & 1:
                continue
            l_state = ex.states[lca]
            lhs = merge_with_lca(spec, l_state, ex.states[a_node], ex.states[b_node])
            rhs = spec.apply(merge_with_lca(spec, l_state, ex.states[a_prime],
                                            ex.states[b_node]), e)
            if lhs != rhs:
                probed += 1
                if (m, e, b_node) in peelable:
                    return probed
    return probed


@pytest.mark.parametrize("rdt", ["ew-flag-fixed", "or-set-mrdt"])
def test_bottom_up_step_probes_only_candidates_whose_sides_differ(monkeypatch, rdt):
    """ew-flag-fixed peels through its conflict relation and observed
    replay; or-set-mrdt has no conflicts, so every concurrent event is
    probed.  Equal sides hold whether or not the peel is independent, so
    only the candidates with unequal sides may be probed."""
    spec = catalog_get(rdt).spec
    calls = 0
    independent = checker._independent

    def counting(*args):
        nonlocal calls
        calls += 1
        return independent(*args)

    monkeypatch.setattr(checker, "_independent", counting)
    probed = held = 0
    for recipe in enumerate_recipes(payload_pool(spec), 4, 2, 1):
        ex = execute(spec, build(recipe))
        calls = 0
        got = checker.eval_bottom_up_step(spec, ex)
        want = _differing_sides_probed(spec, ex)
        assert calls == want, recipe
        assert _fields(got) == _fields(reference_bottom_up_step(spec, ex)), recipe
        probed += want
        held += sum(i.holds for i in reference_bottom_up_instances(spec, ex))
    assert probed > 0 and held > 0  # both kinds of candidate occur


def test_sweep_checks_the_first_unshared_node(monkeypatch):
    want = assert_sweeps_agree(monkeypatch, IDEM_BREAKING, 4, 2)
    status, _, fields, shared = want[PropertyId.MERGE_IDEM]
    assert status == "fail"
    node = fields[2]
    assert node == shared == 2


def test_sweep_agrees_on_a_non_commutative_merge(monkeypatch):
    want = assert_sweeps_agree(monkeypatch, CLAMP_LEFT, 3, 2)
    assert want[PropertyId.MERGE_COMM][0] == "fail"


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_evaluators_agree_on_random_eight_event_histories(spec):
    """Two and three replicas; past two, a draw may merge heads with several
    maximal common ancestors, which ``build`` refuses, so it is redrawn."""
    pool = payload_pool(spec)
    props = properties_for(spec)
    for replicas in (2, 3):
        rng = random.Random(f"evaluators:{spec.name}")
        checked = 0
        while checked < 200:
            recipe = random_recipe(rng, pool, max_events=8, replicas=replicas, max_joins=2)
            if recipe.event_count() != 8:
                continue
            try:
                ex = execute(spec, build(recipe))
            except NoUniqueLcaError:
                continue
            for p in props:
                assert (_fields(EVALUATORS[p](spec, ex))
                        == _fields(REFERENCE[p](spec, ex))), (p, recipe)
            assert bottom_up_instances(spec, ex) == reference_bottom_up_instances(spec, ex), recipe
            checked += 1
