"""Property evaluators, the linearization oracle, suites, and shrinking."""

import dataclasses
import functools
import gc
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from salcheck import checker
from salcheck.model import Inc, Dec, Add, Rem, Enable, Disable, Event
from salcheck.catalog import CATALOG, catalog_get, payload_pool, ctr_inc_mrdt, or_set_mrdt
from salcheck.history import (
    Recipe, ApplyOp, JoinOp, NoUniqueLcaError, build, execute, run_recipe, diamond,
    iter_bits, random_recipe,
)
from salcheck.checker import (
    PropertyId, CheckConfig, OracleScopeError, linearization_oracle,
    bottom_up_instances, run_suite, oracle_sweep, shrink,
    ORACLE_EVENT_CAP, EVALUATORS, _conflict_diamonds, _stream_seed,
)
from walkers import apply_nodes

CORRECT = [e for e in CATALOG if not e.known_buggy]
DEEP_SWEEPS = os.environ.get("SALCHECK_DEEP_SWEEPS") == "1"


def fig2_recipe() -> Recipe:
    return Recipe((
        ApplyOp(0, Enable()), ApplyOp(1, Enable()), ApplyOp(1, Disable()),
        JoinOp(1, 0), ApplyOp(0, Disable()),
    ))


# ---------------------------------------------------------------------------
# CheckConfig validation.


def test_default_config_is_valid():
    CheckConfig().validate()


def test_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        CheckConfig(tests_per_property=0).validate()
    with pytest.raises(ValueError):
        CheckConfig(max_events=0).validate()
    with pytest.raises(ValueError):
        CheckConfig(exhaustive_below=6, max_events=4).validate()
    with pytest.raises(ValueError, match="replica_count must be >= 2"):
        CheckConfig(replica_count=1).validate()
    with pytest.raises(ValueError, match="max_joins must be >= 0"):
        CheckConfig(max_joins=-1).validate()
    # The sweep's canonical literal order needs exactly the pool (1, ..., k).
    for pool in ((), (2, 3, 4), (1, 1, 2), (1, 3), (2, 1)):
        with pytest.raises(ValueError, match="literal_pool"):
            CheckConfig(literal_pool=pool).validate()
    CheckConfig(literal_pool=(1,)).validate()
    CheckConfig(max_joins=0).validate()


# ---------------------------------------------------------------------------
# Linearization oracle.


def test_oracle_linear_history_returns_the_history():
    g = build(Recipe((ApplyOp(0, Add(1)), ApplyOp(0, Rem(1)), ApplyOp(0, Add(2)))))
    res = linearization_oracle(or_set_mrdt, g)
    assert res.witness == g.events


def test_oracle_empty_history_trivial_witness():
    res = linearization_oracle(or_set_mrdt, build(Recipe(())))
    assert res.witness == ()
    assert res.orders_tried == 1


def test_oracle_witness_extends_happens_before():
    g = build(diamond((Add(1), Rem(2)), (Add(2),)))
    res = linearization_oracle(or_set_mrdt, g)
    assert res.witness is not None
    pos = {e: i for i, e in enumerate(res.witness)}
    for j, e2 in enumerate(g.events):
        # events[i] happens before e2 when bit i of e2's node's history is set.
        for i in iter_bits(g.event_masks[apply_nodes(g)[j]] & ~(1 << j)):
            assert pos[g.events[i]] < pos[e2]


def test_oracle_add_wins_cycle_history_has_witness():
    # Each replica adds one element and removes the other's: happens-before
    # plus the rem-before-add direction admits no order, yet the observed
    # effects explain the merged state (the removes saw nothing).
    r = Recipe((ApplyOp(0, Add(1)), ApplyOp(1, Add(2)),
                ApplyOp(0, Rem(2)), ApplyOp(1, Rem(1))))
    ex = run_recipe(or_set_mrdt, r)
    assert or_set_mrdt.format_state(ex.sink_state()) == "#[(1, 1), (2, 2)]#"
    assert linearization_oracle(or_set_mrdt, ex.graph).witness is not None


def test_oracle_none_on_buggy_flag_bug_shape():
    spec = catalog_get("ew-flag-buggy").spec
    res = linearization_oracle(spec, build(fig2_recipe()))
    assert res.witness is None
    assert res.orders_tried == 2


def test_oracle_witness_on_fixed_flag_bug_shape():
    spec = catalog_get("ew-flag-fixed").spec
    res = linearization_oracle(spec, build(fig2_recipe()))
    assert res.witness is not None
    labels = [type(e.op).__name__ for e in res.witness]
    last_enable = max(i for i, n in enumerate(labels) if n == "Enable")
    assert "Disable" in labels[last_enable + 1:]  # a disable lands after the last enable


def test_oracle_leaves_no_reference_cycle():
    # The search state (events, target, observed sets) is freed by reference
    # counting when the call returns, not left to the cyclic collector.
    g = build(diamond((Add(1), Rem(2)), (Add(2), Rem(1))))
    gc.collect()
    gc.disable()
    try:
        assert linearization_oracle(or_set_mrdt, g).witness is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_over_cap_raises_scope_error():
    steps = tuple(ApplyOp(0, Inc()) for _ in range(ORACLE_EVENT_CAP + 1))
    with pytest.raises(OracleScopeError):
        linearization_oracle(ctr_inc_mrdt, build(Recipe(steps)))


# ---------------------------------------------------------------------------
# Oracle agreement sweeps: every correct entry explains every small history.


@pytest.mark.parametrize("entry", CORRECT, ids=lambda e: e.id)
def test_oracle_agreement_up_to_four_events(entry):
    res = oracle_sweep(entry, max_events=4)
    assert res.passed(), f"unlinearizable {entry.id} history found"
    assert res.witnesses == res.histories


CHEAP_POOL = ["ctr-inc-mrdt", "pn-ctr-mrdt", "ew-flag-fixed", "g-set-mrdt",
              "mv-reg-mrdt", "ctr-inc-crdt", "pn-ctr-crdt", "mv-reg-crdt"]


@pytest.mark.parametrize("rid", CHEAP_POOL)
def test_oracle_agreement_up_to_five_events_small_pools(rid):
    assert oracle_sweep(catalog_get(rid), max_events=5).passed()


def test_oracle_agreement_up_to_five_events_or_set():
    assert oracle_sweep(catalog_get("or-set-mrdt"), max_events=5).passed()


@pytest.mark.skipif(not DEEP_SWEEPS, reason="set SALCHECK_DEEP_SWEEPS=1 to run")
@pytest.mark.parametrize("rid", ["or-set-eff-mrdt", "rga-mrdt", "or-set-crdt"])
def test_oracle_agreement_up_to_five_events_deep(rid):
    assert oracle_sweep(catalog_get(rid), max_events=5).passed()


def test_buggy_flag_sweep_fails_within_five_events():
    res = oracle_sweep(catalog_get("ew-flag-buggy"), max_events=5)
    assert not res.passed()
    assert res.failure.graph.recipe.event_count() <= 4


def test_sweep_beyond_cap_rejected():
    with pytest.raises(OracleScopeError):
        oracle_sweep(catalog_get("ctr-inc-mrdt"), max_events=ORACLE_EVENT_CAP + 1)


@pytest.mark.parametrize("bounds,match", [
    ({"literals": (2, 3, 4)}, "literal_pool"),  # would sweep 1 history of 80
    ({"literals": (1, 1, 2)}, "literal_pool"),  # would sweep 279, with duplicates
    ({"literals": ()}, "literal_pool"),
    ({"max_joins": -1}, "max_joins must be >= 0"),  # would sweep 0
    ({"replicas": 1}, "replica_count must be >= 2"),
    ({"max_events": -1}, "max_events must be >= 0"),  # would sweep 0
])
def test_sweep_refuses_the_bounds_the_config_refuses(bounds, match):
    settings = {"max_events": 3, **bounds}
    with pytest.raises(ValueError, match=match):
        oracle_sweep(catalog_get("g-set-mrdt"), **settings)


def test_sweep_accepts_the_bounds_the_config_accepts():
    res = oracle_sweep(catalog_get("g-set-mrdt"), 3, literals=(1, 2), replicas=3, max_joins=0)
    assert res.passed() and res.histories
    assert oracle_sweep(catalog_get("g-set-mrdt"), 0).histories == 1


# ---------------------------------------------------------------------------
# Bottom-up instances.


def test_ctr_bottom_up_holds_universally():
    # Peeling an increment is exactly +1 on both sides of the equation.
    ex = run_recipe(ctr_inc_mrdt, diamond((Inc(), Inc()), (Inc(),), prefix=(Inc(),)))
    insts = list(bottom_up_instances(ctr_inc_mrdt, ex))
    assert insts
    assert all(i.holds for i in insts)


@settings(max_examples=1000, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_ctr_bottom_up_equation_algebraically(l, da, db):
    # merge3(l, a+1, b) == merge3(l, a, b) + 1 for the delta-sum merge
    a, b = l + da, l + db
    assert ctr_inc_mrdt.merge3(l, a + 1, b) == ctr_inc_mrdt.merge3(l, a, b) + 1


def test_fig2_sink_instance_fails_on_buggy_flag():
    spec = catalog_get("ew-flag-buggy").spec
    ex = execute(spec, build(fig2_recipe()))
    sink = [i for i in bottom_up_instances(spec, ex) if i.merge_node == ex.graph.sink]
    assert len(sink) == 1
    inst = sink[0]
    assert not inst.holds
    assert inst.lhs_str == "(2, true)"
    assert inst.rhs_str == "(2, false)"


def test_fig2_sink_instance_holds_on_fixed_flag():
    spec = catalog_get("ew-flag-fixed").spec
    ex = execute(spec, build(fig2_recipe()))
    assert all(i.holds for i in bottom_up_instances(spec, ex))
    assert spec.format_state(ex.sink_state()) == "(false, #[]#)"


# ---------------------------------------------------------------------------
# RcPolicy instances.


def rc_policy_instances(spec, ex) -> int:
    """Count of one-conflict diamonds the rc-policy check applies to."""
    return sum(1 for _ in _conflict_diamonds(spec, ex))


def test_rc_policy_counts_true_diamonds_only():
    ex = run_recipe(or_set_mrdt, diamond((Rem(1),), (Add(1),)))
    assert rc_policy_instances(or_set_mrdt, ex) == 1
    # two ops on one branch: the tip is no longer applied directly to the lca
    ex2 = run_recipe(or_set_mrdt, diamond((Rem(1), Add(2)), (Add(1),)))
    assert rc_policy_instances(or_set_mrdt, ex2) == 0


def test_rc_policy_holds_on_or_set_diamond():
    cfg = CheckConfig(tests_per_property=50, seed=1, max_events=4, exhaustive_below=4)
    verdict = run_suite(catalog_get("or-set-mrdt"), cfg, (PropertyId.RC_POLICY,)).verdicts[0]
    assert verdict.status == "pass"


def test_rc_policy_vacuous_without_conflicts():
    cfg = CheckConfig(tests_per_property=10, seed=1, max_events=3, exhaustive_below=3)
    verdict = run_suite(catalog_get("ctr-inc-mrdt"), cfg, (PropertyId.RC_POLICY,)).verdicts[0]
    assert verdict.status == "vacuous"
    assert verdict.tests == 0


# ---------------------------------------------------------------------------
# Suites.


@functools.lru_cache(maxsize=1)
def buggy_default_suite():
    return run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=42))


def test_buggy_flag_suite_at_defaults():
    rep = buggy_default_suite()
    status = {v.property: v.status for v in rep.verdicts}
    assert status[PropertyId.BOTTOM_UP_STEP] == "fail"
    assert status[PropertyId.LINEARIZATION_EXISTS] == "fail"
    assert status[PropertyId.MERGE_IDEM] == "pass"
    assert status[PropertyId.MERGE_COMM] == "pass"
    assert status[PropertyId.MERGE_WITH_LCA] == "pass"
    assert status[PropertyId.RC_POLICY] == "pass"


def test_buggy_flag_counterexample_is_small_and_refails():
    rep = buggy_default_suite()
    ce = rep.verdict(PropertyId.BOTTOM_UP_STEP).counterexample
    assert ce is not None
    assert ce.shrunk.graph.recipe.event_count() <= 4
    assert ce.violation.lhs_str == "(2, true)" and ce.violation.rhs_str == "(2, false)"
    # the recorded recipe really does violate the property when re-executed
    replayed = run_recipe(catalog_get("ew-flag-buggy").spec, ce.shrunk.graph.recipe)
    viol = EVALUATORS[PropertyId.BOTTOM_UP_STEP](catalog_get("ew-flag-buggy").spec, replayed)
    assert viol is not None


def test_crdt_suite_includes_lattice_laws():
    # A CRDT checks the six MRDT laws, in their order, then LatticeAssoc:
    # LatticeComm and LatticeIdem would repeat MergeComm and MergeIdem.
    cfg = CheckConfig(tests_per_property=100, seed=3, max_events=4, exhaustive_below=4)
    rep = run_suite(catalog_get("ctr-inc-crdt"), cfg)
    assert [v.property for v in rep.verdicts] == [
        PropertyId.MERGE_IDEM, PropertyId.MERGE_COMM, PropertyId.MERGE_WITH_LCA,
        PropertyId.BOTTOM_UP_STEP, PropertyId.RC_POLICY, PropertyId.LINEARIZATION_EXISTS,
        PropertyId.LATTICE_ASSOC,
    ]
    assert all(v.status in ("pass", "vacuous") for v in rep.verdicts)


def test_crdt_whose_update_deflates_fails_merge_with_lca():
    # For a join, merge3(l, l, s) == s says l <= s: every update inflates the
    # state.  A pn-ctr-crdt whose dec also lowers the inc vector at its
    # replica breaks that.  Its merge is still a join, so the lattice laws
    # pass; MergeWithLca fails, as do BottomUpStep and LinearizationExists.
    spec = catalog_get("pn-ctr-crdt").spec

    def apply(s, ev):
        pos, neg = spec.apply(s, ev)
        if isinstance(ev.op, Dec) and ev.replica < len(pos):
            counts = [*pos]
            counts[ev.replica] = max(counts[ev.replica] - 1, 0)
            while counts and not counts[-1]:
                counts.pop()
            pos = tuple(counts)
        return pos, neg

    mutant = dataclasses.replace(spec, name="deflating-pn-ctr", apply=apply)
    rep = run_suite(mutant, CheckConfig(seed=42))
    v = rep.verdict(PropertyId.MERGE_WITH_LCA)
    assert v.status == "fail"
    assert (v.counterexample.violation.lhs_str, v.counterexample.violation.rhs_str) == (
        "({1: 1}, {1: 1})", "({}, {1: 1})")
    for p in (PropertyId.MERGE_IDEM, PropertyId.MERGE_COMM, PropertyId.LATTICE_ASSOC):
        assert rep.verdict(p).status == "pass"


def test_mrdt_suite_property_order():
    cfg = CheckConfig(tests_per_property=5, seed=0, max_events=2, exhaustive_below=2)
    rep = run_suite(catalog_get("ctr-inc-mrdt"), cfg)
    assert [v.property for v in rep.verdicts] == [
        PropertyId.MERGE_IDEM, PropertyId.MERGE_COMM, PropertyId.MERGE_WITH_LCA,
        PropertyId.BOTTOM_UP_STEP, PropertyId.RC_POLICY, PropertyId.LINEARIZATION_EXISTS,
    ]


def test_suite_is_deterministic_per_seed():
    cfg = CheckConfig(tests_per_property=60, seed=11, max_events=5, exhaustive_below=3)
    a = run_suite(catalog_get("or-set-mrdt"), cfg)
    b = run_suite(catalog_get("or-set-mrdt"), cfg)
    assert a == b


def test_suite_seed_changes_random_phase():
    cfg1 = CheckConfig(tests_per_property=40, seed=1, max_events=6, exhaustive_below=2)
    cfg2 = CheckConfig(tests_per_property=40, seed=2, max_events=6, exhaustive_below=2)
    # both pass; determinism within a seed is what matters, two seeds may agree
    assert run_suite(catalog_get("g-set-mrdt"), cfg1).verdicts[0].tests == 40
    assert run_suite(catalog_get("g-set-mrdt"), cfg2).verdicts[0].tests == 40


def test_three_replica_suite_redraws_merges_without_unique_lca():
    entry = catalog_get("or-set-mrdt")
    cfg = CheckConfig(replica_count=3, exhaustive_below=2)
    # An early draw of the LinearizationExists stream merges two heads that
    # have two maximal common ancestors; the suite must skip it, not crash or
    # count it.
    rng = random.Random(_stream_seed(cfg.seed, entry.id, PropertyId.LINEARIZATION_EXISTS))
    for _ in range(cfg.tests_per_property // 2):
        recipe = random_recipe(rng, payload_pool(entry.spec), cfg.max_events,
                               cfg.replica_count, max_joins=cfg.max_joins + 1)
        try:
            build(recipe)
        except NoUniqueLcaError:
            break
    else:
        pytest.fail("no draw in the first half of the stream lacks a unique LCA")
    with pytest.raises(NoUniqueLcaError):
        build(recipe)
    rep = run_suite(entry, cfg)
    assert all(v.status == "pass" and v.tests == cfg.tests_per_property for v in rep.verdicts)


def test_three_replica_two_join_sweep_skips_merges_without_unique_lca():
    # 150 of the sweep's 2,177 canonical recipes up to 4 events merge two
    # heads with two maximal common ancestors: skipped, not counted as tests.
    rep = run_suite(ctr_inc_mrdt, CheckConfig(replica_count=3, max_joins=2))
    assert rep.passed()
    assert rep.verdict(PropertyId.MERGE_IDEM).tests == 2027


def test_oracle_scope_redraws_histories_above_the_cap(monkeypatch):
    # Above ORACLE_EVENT_CAP the oracle checks nothing, so such a random draw
    # is redrawn, not counted as a LinearizationExists test.  The other
    # properties check and count histories of that size.
    prop, other = PropertyId.LINEARIZATION_EXISTS, PropertyId.MERGE_IDEM
    sizes = {prop: [], other: []}

    def recording(p):
        check = EVALUATORS[p]

        def record(spec, ex, *rest):
            sizes[p].append(len(ex.events))
            return check(spec, ex, *rest)
        return record

    for p in sizes:
        monkeypatch.setitem(EVALUATORS, p, recording(p))
    cfg = CheckConfig(tests_per_property=200, max_events=12, exhaustive_below=1)
    rep = run_suite(ctr_inc_mrdt, cfg, properties=(prop, other))
    assert rep.verdict(prop).tests == len(sizes[prop]) == 200
    assert max(sizes[prop]) == ORACLE_EVENT_CAP
    assert rep.verdict(other).tests == len(sizes[other]) == 200
    assert max(sizes[other]) > ORACLE_EVENT_CAP


def test_oracle_scope_ends_the_sweep_at_the_cap(monkeypatch):
    # ctr-inc-mrdt's sweep below 11 events has 15,386 histories, 6,680 of
    # them with at most ORACLE_EVENT_CAP events.  LinearizationExists sweeps
    # those, then its random phase tops it up to 7,000 with 320 draws; every
    # test it counts is an oracle call.  MergeComm keeps the whole sweep.
    sizes, drawn = [], []
    oracle, draw = checker.linearization_oracle, checker.draw_history

    def checking(spec, graph, *rest):
        sizes.append(len(graph.events))
        return oracle(spec, graph, *rest)

    def drawing(*args):
        steps, g = draw(*args)
        drawn.append(len(g.events))  # two replicas: no draw lacks a unique LCA
        return steps, g

    monkeypatch.setattr(checker, "linearization_oracle", checking)
    monkeypatch.setattr(checker, "draw_history", drawing)
    prop, other = PropertyId.LINEARIZATION_EXISTS, PropertyId.MERGE_COMM
    cfg = CheckConfig(max_events=11, exhaustive_below=11, tests_per_property=7000)
    rep = run_suite(ctr_inc_mrdt, cfg, properties=(prop, other))
    assert rep.passed()
    assert rep.verdict(prop).tests == len(sizes) == 7000
    assert max(sizes) == sizes[6679] == ORACLE_EVENT_CAP
    assert sizes[:6680] == sorted(sizes[:6680])  # the sweep's, sizes ascending
    kept = [n for n in drawn if n <= ORACLE_EVENT_CAP]  # only LinearizationExists draws
    assert len(kept) == 320 < len(drawn)
    assert rep.verdict(other).tests == 15386


def test_linearization_evaluator_refuses_a_history_above_the_cap():
    steps = tuple(ApplyOp(i % 2, Inc()) for i in range(ORACLE_EVENT_CAP + 1))
    ex = run_recipe(ctr_inc_mrdt, Recipe(steps))
    with pytest.raises(OracleScopeError):
        EVALUATORS[PropertyId.LINEARIZATION_EXISTS](ctr_inc_mrdt, ex)


def test_exhaustive_phase_counts_toward_test_budget():
    # 131 flag recipes below 4 events > 50 requested tests: random phase skipped
    cfg = CheckConfig(tests_per_property=50, seed=5, max_events=6, exhaustive_below=4)
    rep = run_suite(catalog_get("ew-flag-fixed"), cfg)
    assert all(v.tests >= 50 for v in rep.verdicts if v.status != "vacuous")


# ---------------------------------------------------------------------------
# Shrinking.


def test_shrunk_counterexample_marked_minimal():
    recipe = Recipe((ApplyOp(0, Disable()),) + fig2_recipe().steps)  # one event to spare
    ce = shrink(catalog_get("ew-flag-buggy"), PropertyId.BOTTOM_UP_STEP, recipe, CheckConfig(seed=42))
    assert ce.minimal
    assert ce.shrunk.graph.recipe.event_count() <= recipe.event_count()


def test_shrink_builds_each_recipe_once(monkeypatch):
    # One build for the recipe handed in and one per candidate tried: the
    # shrunk history is the last failing candidate's execution, not rebuilt.
    from salcheck import checker
    calls = {"build": 0, "candidates": 0}
    build_, reductions_ = checker.build, checker._reductions

    def counted_build(recipe):
        calls["build"] += 1
        return build_(recipe)

    def counted_reductions(recipe):
        for candidate in reductions_(recipe):
            calls["candidates"] += 1
            yield candidate

    monkeypatch.setattr(checker, "build", counted_build)
    monkeypatch.setattr(checker, "_reductions", counted_reductions)
    report = run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=42))
    failing = [v for v in report.verdicts if v.status == "fail"]
    assert failing and all(v.counterexample.minimal for v in failing)  # no budget cut a pass short
    assert calls["build"] == calls["candidates"] + len(failing)


def test_unlinearizable_counterexample_reports_orders_tried():
    ce = buggy_default_suite().verdict(PropertyId.LINEARIZATION_EXISTS).counterexample
    assert ce is not None
    assert ce.violation.property is PropertyId.LINEARIZATION_EXISTS
    assert ce.violation.rhs_str.startswith("no admissible order")
    tried = ce.violation.linearizations_tried
    assert tried is not None and tried >= 1
