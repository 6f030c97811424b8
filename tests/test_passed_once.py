"""The state-only laws check each distinct input once per suite.

``run_suite`` hands MergeIdem and MergeWithLca each its own set of the inputs
they already passed (``PASSED_ONCE``): states for MergeIdem,
``(LCA state, branch state)`` pairs for MergeWithLca.  They
skip an input equal to one in their set, and add one only once it passes.

The memo must hide no violation.  Every ``SuiteReport`` here is compared
whole with the report of the same suite run without it: every evaluator
wrapped to drop the arguments past ``start`` (``unremembered``).  The
comparisons run on every catalog entry in the sweep and in the random phase,
and on mutants whose first violation comes after many inputs passed.

A property stops at its first violation, so a failing input that entered a
set early would never be looked up again by the property that owns it.  The
sets handed out are therefore checked directly as well: each property gets
one set of its own, and every input in it satisfies that property's law.
"""

import dataclasses

import pytest

from salcheck.catalog import CATALOG, catalog_get, vec_value
from salcheck.checker import (
    EVALUATORS, PASSED_ONCE, CheckConfig, PropertyId, properties_for, run_suite,
)
from salcheck.model import Inc, MrdtSpec, rc_empty

LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def unremembered(monkeypatch) -> None:
    """``EVALUATORS`` without the memo: each gets ``(spec, h, start)`` alone."""
    for p, fn in list(EVALUATORS.items()):
        monkeypatch.setitem(EVALUATORS, p, lambda spec, h, start=0, *_, fn=fn: fn(spec, h, start))


def record_passed(monkeypatch) -> dict:
    """Route every evaluator through a recorder; the returned dict fills with
    each property's sets, by ``id``, as handed to its evaluator."""
    handed: dict = {}
    for p, fn in list(EVALUATORS.items()):
        def recording(spec, h, *rest, p=p, fn=fn):
            for memo in rest[1:]:
                handed.setdefault(p, {})[id(memo)] = memo
            return fn(spec, h, *rest)
        monkeypatch.setitem(EVALUATORS, p, recording)
    return handed


def holds(spec, prop, key) -> bool:
    """Whether ``key``, an input of ``prop``'s set, satisfies its law."""
    if prop is PropertyId.MERGE_WITH_LCA:
        l, s = key
        return spec.merge3(l, l, s) == s and spec.merge3(l, s, l) == s
    return spec.merge3(key, key, key) == key


def assert_memo_hides_nothing(target, cfg: CheckConfig):
    """Run the suite on ``target``, a catalog entry or a spec, with and
    without the memo; return the report and the number of inputs the sets
    held."""
    with pytest.MonkeyPatch.context() as mp:
        handed = record_passed(mp)
        got = run_suite(target, cfg)
    with pytest.MonkeyPatch.context() as mp:
        unremembered(mp)
        want = run_suite(target, cfg)
    assert got == want
    spec = getattr(target, "spec", target)
    ran = set(properties_for(spec)) & PASSED_ONCE
    assert set(handed) == ran
    assert all(len(sets) == 1 for sets in handed.values())  # one set per property
    memos = [memo for sets in handed.values() for memo in sets.values()]
    assert len({id(memo) for memo in memos}) == len(memos)  # no set shared
    for p, sets in handed.items():
        for memo in sets.values():
            assert all(holds(spec, p, key) for key in memo), p
    return got, sum(len(memo) for memo in memos)


def sweep_config(max_events: int, replicas: int = 2, max_joins: int = 1) -> CheckConfig:
    # One test per property: the sweep alone fills the budget.
    return CheckConfig(tests_per_property=1, max_events=max_events + 1,
                       exhaustive_below=max_events + 1, replica_count=replicas,
                       max_joins=max_joins)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_two_replicas(entry):
    max_events = 3 if entry.id in LARGE_ALPHABET else 4
    report, remembered = assert_memo_hides_nothing(entry, sweep_config(max_events))
    assert report.passed() != entry.known_buggy
    assert remembered


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_sweep_three_replicas_two_joins(entry):
    assert_memo_hides_nothing(entry, sweep_config(3, replicas=3, max_joins=2))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_random_phase(entry, seed):
    cfg = CheckConfig(tests_per_property=100, exhaustive_below=2, seed=seed)
    assert_memo_hides_nothing(entry, cfg)


# ---------------------------------------------------------------------------
# Mutants whose first violation comes after many inputs of its law passed.


def _size_gated_idem_merge3(l: int, a: int, b: int) -> int:
    if l == a == b >= 4:
        return a + 1  # merging a state of 4 or more with itself grows it
    return a + b - l


SIZE_GATED_IDEM = MrdtSpec(
    name="size-gated-idem-counter",
    initial=0,
    apply=lambda s, ev: s + 1,
    merge3=_size_gated_idem_merge3,
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=str,
)


def _late_lca_merge3(l: int, a: int, b: int) -> int:
    if b == l and a >= l + 3:
        return a + 1  # merge3(l, s, l) keeps s only while s is within 2 of l
    return a + b - l


# Only MergeWithLca merges a branch with its own LCA, so only it sees this
# fault, and only on its second merge of a pair whose branch is 3 events
# ahead: a 4-event history of the sweep, after 2- and 3-event ones passed.
LATE_LCA = MrdtSpec(
    name="late-lca-counter",
    initial=0,
    apply=lambda s, ev: s + 1,
    merge3=_late_lca_merge3,
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=str,
)


@pytest.mark.parametrize("spec, prop", [
    (SIZE_GATED_IDEM, PropertyId.MERGE_IDEM),
    (LATE_LCA, PropertyId.MERGE_WITH_LCA),
], ids=lambda x: getattr(x, "name", None) or x.value)
@pytest.mark.parametrize("cfg", [CheckConfig(seed=42), CheckConfig(exhaustive_below=2, seed=3)],
                         ids=["sweep", "random"])
def test_mutant_fails_alike(spec, prop, cfg):
    report, remembered = assert_memo_hides_nothing(spec, cfg)
    assert report.verdict(prop).status == "fail"
    assert report.verdict(prop).tests > 1 and remembered


def test_crdt_mutant_fails_merge_idem_alike():
    # A vector counter whose merge of a state with itself gains an increment
    # once the state has counted 3: MergeIdem fails on it, with its own set.
    spec = catalog_get("ctr-inc-crdt").spec

    def merge2(a, b):
        merged = spec.merge2(a, b)
        return (merged[0] + 1, *merged[1:]) if a == b and vec_value(a) >= 3 else merged

    mutant = dataclasses.replace(spec, name="size-gated-idem-vector", merge2=merge2)
    report, _ = assert_memo_hides_nothing(mutant, CheckConfig(seed=42))
    assert report.verdict(PropertyId.MERGE_IDEM).status == "fail"


@pytest.mark.parametrize("cfg", [CheckConfig(seed=42), CheckConfig(exhaustive_below=2, seed=5)],
                         ids=["defaults", "random"])
def test_ew_flag_buggy_fails_alike(cfg):
    report, _ = assert_memo_hides_nothing(catalog_get("ew-flag-buggy"), cfg)
    assert not report.passed()


# ---------------------------------------------------------------------------
# Unhashable states: checked every time, with the same verdicts.


LIST_COUNTER = MrdtSpec(
    name="list-counter",
    initial=[0],
    apply=lambda s, ev: [s[0] + 1],
    merge3=lambda l, a, b: [a[0] + b[0] - l[0]],
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=str,
)


@pytest.mark.parametrize("spec", [
    LIST_COUNTER,
    dataclasses.replace(LIST_COUNTER, name="list-idem-breaking",
                        merge3=lambda l, a, b: [a[0] + b[0] - l[0] + (l == a == b == [3])]),
], ids=lambda s: s.name)
def test_unhashable_states_run_without_the_memo(spec):
    report, remembered = assert_memo_hides_nothing(spec, CheckConfig(tests_per_property=200,
                                                                     seed=1))
    assert remembered == 0
    want = "pass" if spec is LIST_COUNTER else "fail"
    assert report.verdict(PropertyId.MERGE_IDEM).status == want
    assert all(v.status == "pass" for v in report.verdicts
               if v.property is not PropertyId.MERGE_IDEM and v.status != "vacuous")
