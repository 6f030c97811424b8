"""Acceptance gate: one test per shipping criterion, one printed line each.

Each criterion is deliberately checked against independent oracles written
inline here (raw frozenset replays, closed-form merge identities) rather than
through the code paths under test, so a regression cannot hide behind its own
arithmetic.
"""

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

from salcheck.model import Inc, Add, Rem, Enable, Disable, Event
from salcheck.catalog import CATALOG, catalog_get, payload_pool
from salcheck.checker import (
    PropertyId, CheckConfig, EVALUATORS, bottom_up_instances, oracle_sweep,
    run_suite,
)
from salcheck.history import (
    Recipe, ApplyOp, JoinOp, build, execute, run_recipe, random_recipe, diamond,
)
from salcheck.cli import DEMO_RECIPES, demo_model
from salcheck.report import (
    parse_report, recipe_from_dict, render_dot, render_html, render_json,
    render_text, suite_report_to_dict,
)

GOLDEN = Path(__file__).parent / "golden"
CORRECT = [e for e in CATALOG if not e.known_buggy]


@contextmanager
def criterion(capsys, n, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance {n}] FAIL — {desc}")
        raise
    with capsys.disabled():
        print(f"\n[acceptance {n}] PASS — {desc}")


# ---------------------------------------------------------------------------
# 1. The seeded bug is caught quickly, shrunk small, and displayed exactly.


def test_acceptance_1_buggy_flag_is_caught(capsys):
    with criterion(capsys, 1, "buggy flag caught under 10s at any seed, "
                              "shrunk to <= 4 events, exact (2, true)/(2, false)"):
        for seed in (0, 123456, 2**31 - 1):
            start = time.perf_counter()
            report = run_suite(catalog_get("ew-flag-buggy"), CheckConfig(seed=seed))
            assert time.perf_counter() - start < 10.0
            failed = {v.property for v in report.verdicts if v.status == "fail"}
            assert failed & {PropertyId.BOTTOM_UP_STEP, PropertyId.LINEARIZATION_EXISTS}
            for v in report.verdicts:
                if v.status == "fail":
                    assert v.counterexample.shrunk.graph.recipe.event_count() <= 4

        # The fork/cross-merge/late-disable shape shows the exact disagreement.
        spec = catalog_get("ew-flag-buggy").spec
        ex = run_recipe(spec, DEMO_RECIPES["ew-flag-buggy"])
        sink = [i for i in bottom_up_instances(spec, ex)
                if i.merge_node == ex.graph.sink]
        assert sink and not sink[-1].holds
        assert sink[-1].lhs_str == "(2, true)"
        assert sink[-1].rhs_str == "(2, false)"


# ---------------------------------------------------------------------------
# 2. Every correct entry passes the full default suite and the exhaustive
#    linearizability sweep.


def test_acceptance_2_correct_catalog_passes(capsys):
    with criterion(capsys, 2, "13 correct entries pass defaults (1000 tests, "
                              "seed 42) and the exhaustive <=4-event sweep"):
        start = time.perf_counter()
        for entry in CORRECT:
            report = run_suite(entry, CheckConfig(seed=42))
            assert report.passed(), f"{entry.id} failed {report.first_failure().property}"
            sweep = oracle_sweep(entry, max_events=4)
            assert sweep.passed(), f"{entry.id} has an unlinearizable history"
            assert sweep.witnesses == sweep.histories
        assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 3. The increment-only counter agrees with closed-form arithmetic.


def test_acceptance_3_counter_arithmetic(capsys):
    with criterion(capsys, 3, "ctr-inc merge equals l+(a-l)+(b-l) on 10,000 "
                              "triples; final value counts Inc events"):
        spec = catalog_get("ctr-inc-mrdt").spec
        rng = random.Random(42)
        for _ in range(10_000):
            l = rng.randrange(0, 1_000_000)
            a = l + rng.randrange(0, 1_000_000)
            b = l + rng.randrange(0, 1_000_000)
            assert spec.merge3(l, a, b) == l + (a - l) + (b - l)

        pool = payload_pool(spec, (1, 2, 3))
        for i in range(10_000):
            recipe = random_recipe(random.Random(i), pool, max_events=8,
                                   replicas=2, max_joins=2)
            ex = run_recipe(spec, recipe)
            assert ex.sink_state() == recipe.event_count()


# ---------------------------------------------------------------------------
# 4. Observed-remove set merges agree with raw set algebra on every diamond.


def raw_branch(state: frozenset, payloads, ts0: int) -> frozenset:
    for i, op in enumerate(payloads):
        if isinstance(op, Add):
            state = state | {(ts0 + i, op.elem)}
        else:
            state = frozenset(p for p in state if p[1] != op.elem)
    return state


def test_acceptance_4_or_set_against_set_algebra(capsys):
    with criterion(capsys, 4, "or-set merge matches (l&a&b)|(a-l)|(b-l) on all "
                              "<=4-event diamonds; concurrent Rem|Add keeps the add"):
        spec = catalog_get("or-set-mrdt").spec
        pool = payload_pool(spec, (1, 2, 3))
        checked = 0
        for total in range(5):
            for p, m in itertools.product(range(total + 1), repeat=2):
                n = total - p - m
                if n < 0:
                    continue
                for ops in itertools.product(pool, repeat=total):
                    prefix, left, right = ops[:p], ops[p:p + m], ops[p + m:]
                    ex = run_recipe(spec, diamond(left, right, prefix=prefix))
                    l = raw_branch(frozenset(), prefix, 1)
                    a = raw_branch(l, left, p + 1)
                    b = raw_branch(l, right, p + m + 1)
                    expected = (l & a & b) | (a - l) | (b - l)
                    assert frozenset(ex.sink_state()) == expected
                    checked += 1
        assert checked == 21835  # all compositions of <=4 events over 6 payloads

        demo = run_recipe(spec, DEMO_RECIPES["or-set-mrdt"])
        assert spec.format_state(demo.sink_state()) == "#[(1, 3)]#"


# ---------------------------------------------------------------------------
# 5. Converged (two-way) merges are lattice joins.


def state_pool(entry, count=600):
    pool = payload_pool(entry.spec, (1, 2, 3))
    states = [entry.spec.initial]
    i = 0
    while len(states) < count:
        recipe = random_recipe(random.Random(i), pool, max_events=6,
                               replicas=2, max_joins=1)
        states.extend(run_recipe(entry.spec, recipe).states)
        i += 1
    return states[:count]


def test_acceptance_5_crdt_lattice_laws(capsys):
    crdts = [e for e in CATALOG if e.kind == "crdt"]
    with criterion(capsys, 5, f"lattice laws hold for {len(crdts)} converged "
                              "entries over 1000 pairs and 1000 triples each"):
        assert len(crdts) == 4
        for entry in crdts:
            merge = entry.spec.merge2
            states = state_pool(entry)
            rng = random.Random(hash(entry.id) & 0xFFFF)
            for _ in range(1000):
                a, b = rng.choice(states), rng.choice(states)
                assert merge(a, b) == merge(b, a)
                assert merge(a, a) == a
            for _ in range(1000):
                a, b, c = (rng.choice(states) for _ in range(3))
                assert merge(a, merge(b, c)) == merge(merge(a, b), c)


# ---------------------------------------------------------------------------
# 6. Reports are reproducible artifacts: byte-stable, replayable, lossless.


def test_acceptance_6_reports_are_reproducible(capsys):
    with criterion(capsys, 6, "reports byte-identical per seed, counterexamples "
                              "re-fail on replay, JSON lossless, goldens stable"):
        entry = catalog_get("ew-flag-buggy")
        first = render_json(run_suite(entry, CheckConfig(seed=42)))
        second = render_json(run_suite(entry, CheckConfig(seed=42)))
        assert first.encode() == second.encode()

        doc = parse_report(first)
        assert doc == suite_report_to_dict(run_suite(entry, CheckConfig(seed=42)))
        replayed = 0
        for v in doc["verdicts"]:
            if "counterexample" not in v:
                continue
            recipe = recipe_from_dict(v["counterexample"]["recipe"], "recipe")
            violation = EVALUATORS[PropertyId(v["property"])](
                entry.spec, run_recipe(entry.spec, recipe))
            assert violation is not None
            replayed += 1
        assert replayed == 2  # BottomUpStep and LinearizationExists

        renderers = {"txt": render_text, "dot": render_dot, "html": render_html}
        for rid in ("ew-flag-buggy", "or-set-mrdt"):
            demo_entry = catalog_get(rid)
            model = demo_model(demo_entry,
                               run_recipe(demo_entry.spec, DEMO_RECIPES[rid]))
            for ext, renderer in renderers.items():
                golden = (GOLDEN / f"{rid}-demo.{ext}").read_text()
                assert renderer(model) == golden


# ---------------------------------------------------------------------------
# 7. The tracked-set substrate obeys set algebra on 1000 random cases.


def test_acceptance_7_tracked_substrate(capsys):
    from salcheck.tracked import TrackedSet, ExtensionalMap

    with criterion(capsys, 7, "TrackedSet/ExtensionalMap laws hold on 1000 "
                              "random cases each"):
        rng = random.Random(7)

        def rand_set():
            members = frozenset(rng.sample(range(1, 9), rng.randint(0, 5)))
            touched = frozenset(rng.sample(range(1, 9), rng.randint(0, 5)))
            s = TrackedSet.empty()
            for x in touched:
                s = s.insert(x).remove(x)
            for x in members:
                s = s.insert(x)
            return s

        for _ in range(1000):
            a, b, c = rand_set(), rand_set(), rand_set()
            assert a.union(b) == b.union(a)
            assert a.intersect(b) == b.intersect(a)
            assert a.union(b.union(c)) == a.union(b).union(c)
            assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
            assert a.diff(b).intersect(b) == TrackedSet()
            assert a.diff(b).union(a.intersect(b)) == a
            # extensional equality: the insert/remove history does not participate
            assert a == TrackedSet(a.members)
            assert hash(a) == hash(TrackedSet(a.members))

        for _ in range(1000):
            m = ExtensionalMap.empty(0)
            shadow: dict[int, int] = {}
            for _ in range(rng.randint(0, 8)):
                k, v = rng.randint(1, 4), rng.randint(0, 3)
                m = m.set(k, v)
                shadow[k] = v
            for k in range(1, 5):
                assert m.get(k) == shadow.get(k, 0)
            # a map is exactly its non-default entries
            assert set(m.keys()) == {k for k, v in shadow.items() if v != 0}
            rebuilt = ExtensionalMap.empty(0)
            for k, v in m.items():
                rebuilt = rebuilt.set(k, v)
            assert rebuilt == m and hash(rebuilt) == hash(m)
