"""Differential tests: the catalog kernels against their allocation-heavy
references.

The ``Ref*`` classes and ``ref_*`` kernels below are the value substrate and
kernels as they were before ``TrackedSet`` became a ``frozenset`` subclass:
a frozen dataclass around a frozenset, an ``ExtensionalMap.set`` that
rebuilds and re-sorts its entries, and kernels that remove members one at a
time over the sorted ``elements()``.  On every input, each catalog kernel
must give the reference's value with the same members, the same map entries
and default, and the same ``format_state`` string.  It must also return one
of its arguments exactly when the reference does: the peel check dedupes its
commute probes by identity, so a kernel that returned its input in a new
place would change how often ``apply`` runs.

Three entries once kept ``ExtensionalMap`` states and now keep plain values:
ctr-inc-crdt and each half of pn-ctr-crdt an int tuple indexed by replica,
g-map-mrdt the frozenset of its ``(key, element)`` pairs.  Their references
still run on maps, reached through the converters ``AS_MAP`` and
``FROM_MAP``, and ``MAP_FORM`` keeps the three map-valued specs as they were,
which must agree with the catalog's at every node of every history.

The inputs are hypothesis-drawn states (with negative and zero counts and
keys present only in the LCA), every kernel input reached by the entry's
exhaustive sweep, and every kernel input reached by 200 seeded random
8-event histories.
"""

import dataclasses
import random
from dataclasses import dataclass, field
from operator import add, or_
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from salcheck.catalog import catalog_get, payload_pool
from salcheck.checker import EVALUATORS, CheckConfig, properties_for, run_suite
from salcheck.history import random_recipe, run_recipe, sweep_walk
from salcheck.model import Add, Enable, Event, Inc, Insert, is_crdt
from salcheck.tracked import ExtensionalMap, element_str, show_set

# ---------------------------------------------------------------------------
# Reference values.


@dataclass(frozen=True)
class RefSet:
    members: frozenset = frozenset()

    def member(self, x) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def insert(self, x) -> "RefSet":
        return RefSet(self.members | {x})

    def remove(self, x) -> "RefSet":
        return RefSet(self.members - {x})

    def union(self, other: "RefSet") -> "RefSet":
        return RefSet(self.members | other.members)

    def intersect(self, other: "RefSet") -> "RefSet":
        return RefSet(self.members & other.members)

    def diff(self, other: "RefSet") -> "RefSet":
        return RefSet(self.members - other.members)

    def filter(self, keep) -> "RefSet":
        return RefSet(frozenset(x for x in self.members if keep(x)))

    def elements(self) -> list:
        return sorted(self.members)


REF_EMPTY = RefSet()


@dataclass(frozen=True)
class RefMap:
    default: Any = field(compare=False, default=0)
    entries: tuple = ()

    def get(self, k):
        for key, value in self.entries:
            if key == k:
                return value
        return self.default

    def set(self, k, v) -> "RefMap":
        kept = tuple((key, value) for key, value in self.entries if key != k)
        if v == self.default:
            return RefMap(self.default, kept)
        return RefMap(self.default, tuple(sorted(kept + ((k, v),))))

    def show(self, value_str=element_str) -> str:
        body = ", ".join(f"{element_str(k)}: {value_str(v)}" for k, v in self.entries)
        return "{" + body + "}"


def to_ref(v):
    if isinstance(v, frozenset):
        return RefSet(frozenset(v))
    if isinstance(v, ExtensionalMap):
        return RefMap(to_ref(v.default), tuple((k, to_ref(x)) for k, x in v.entries))
    if isinstance(v, tuple):
        return tuple(to_ref(x) for x in v)
    return v


def from_ref(v):
    if isinstance(v, RefSet):
        return v.members
    if isinstance(v, RefMap):
        return ExtensionalMap(from_ref(v.default), tuple((k, from_ref(x)) for k, x in v.entries))
    if isinstance(v, tuple):
        return tuple(from_ref(x) for x in v)
    return v


def shape(v):
    """A plain, exact form of a value of either substrate."""
    if isinstance(v, (frozenset, RefSet)):
        return ("set", frozenset(v))
    if isinstance(v, (ExtensionalMap, RefMap)):
        return ("map", shape(v.default), tuple((k, shape(x)) for k, x in v.entries))
    if isinstance(v, tuple):
        return tuple(shape(x) for x in v)
    return v


# ---------------------------------------------------------------------------
# Reference kernels.


def _saw(observed, ts) -> bool:
    return observed is None or ts in observed


def ref_orset_apply(s, ev, observed=None):
    if isinstance(ev.op, Add):
        return s.insert((ev.ts, ev.op.elem))
    removed = s
    for pair in s.elements():
        if pair[1] == ev.op.elem and _saw(observed, pair[0]):
            removed = removed.remove(pair)
    return removed


def ref_orset_merge3(l, a, b):
    return l.intersect(a).intersect(b).union(a.diff(l)).union(b.diff(l))


def ref_orset_eff_apply(s, ev, observed=None):
    if isinstance(ev.op, Add):
        elem = ev.op.elem
        compacted = s
        for triple in s.elements():
            if triple[2] == elem and triple[1] == ev.replica and _saw(observed, triple[0]):
                compacted = compacted.remove(triple)
        return compacted.insert((ev.ts, ev.replica, elem))
    removed = s
    for triple in s.elements():
        if triple[2] == ev.op.elem and _saw(observed, triple[0]):
            removed = removed.remove(triple)
    return removed


def ref_flag_fixed_apply(s, ev, observed=None):
    if isinstance(ev.op, Enable):
        return s.insert(ev.ts)
    cleared = s
    for ts in s.elements():
        if _saw(observed, ts):
            cleared = cleared.remove(ts)
    return cleared


def ref_gset_apply(s, ev):
    return s.insert(ev.op.elem)


def ref_gset_merge3(l, a, b):
    return a.union(b)


def ref_gmap_apply(s, ev):
    op = ev.op
    return s.set(op.key, s.get(op.key).insert(op.op.elem))


def ref_gmap_merge3(l, a, b):
    dl, da, db = dict(l.entries), dict(a.entries), dict(b.entries)
    merged = ((k, ref_gset_merge3(dl.get(k, REF_EMPTY), da.get(k, REF_EMPTY),
                                  db.get(k, REF_EMPTY)))
              for k in sorted(dl.keys() | da.keys() | db.keys()))
    return RefMap(REF_EMPTY, tuple((k, v) for k, v in merged if v != REF_EMPTY))


def ref_rga_apply(s, ev, observed=None):
    elems, tombs = s
    if isinstance(ev.op, Insert):
        return (elems.insert((ev.ts, ev.op.elem)), tombs)
    doomed = tombs
    for ts, elem in elems.elements():
        if elem == ev.op.elem and _saw(observed, ts) and not tombs.member(ts):
            doomed = doomed.insert(ts)
    return (elems, doomed)


def ref_rga_merge3(l, a, b):
    return (ref_orset_merge3(l[0], a[0], b[0]), ref_orset_merge3(l[1], a[1], b[1]))


def ref_mvreg_apply(s, ev):
    kept = s.filter(lambda pair: pair[0] > ev.ts)
    return kept.insert((ev.ts, ev.op.value))


def ref_vec_apply(m, ev):
    return m.set(ev.replica, m.get(ev.replica) + 1)


def ref_vec_merge2(a, b):
    da, db = dict(a.entries), dict(b.entries)
    merged = ((k, max(da.get(k, 0), db.get(k, 0))) for k in sorted(da.keys() | db.keys()))
    return RefMap(0, tuple((k, v) for k, v in merged if v != 0))


def ref_pn_vec_apply(s, ev):
    pos, neg = s
    if isinstance(ev.op, Inc):
        return (ref_vec_apply(pos, ev), neg)
    return (pos, ref_vec_apply(neg, ev))


def ref_pn_vec_merge2(a, b):
    return (ref_vec_merge2(a[0], b[0]), ref_vec_merge2(a[1], b[1]))


def ref_mvreg_crdt_apply(s, ev):
    return RefSet(frozenset({(ev.ts, ev.op.value)}))


def ref_mvreg_crdt_merge2(a, b):
    merged = a.union(b)
    if not merged.members:
        return merged
    top = max(ts for ts, _ in merged.members)
    return merged.filter(lambda pair: pair[0] == top)


def ref_orset_crdt_apply(s, ev, observed=None):
    adds, tombs = s
    if isinstance(ev.op, Add):
        return (adds.insert((ev.ts, ev.op.elem)), tombs)
    doomed = tombs
    for pair in adds.elements():
        if pair[1] == ev.op.elem and _saw(observed, pair[0]) and not tombs.member(pair):
            doomed = doomed.insert(pair)
    return (adds, doomed)


def ref_orset_crdt_merge2(a, b):
    return (a[0].union(b[0]), a[1].union(b[1]))


# ---------------------------------------------------------------------------
# The map forms.


def vec_as_map(v: tuple) -> ExtensionalMap:
    """The map ``replica -> count`` that the vector ``v`` stands for."""
    return ExtensionalMap(0, tuple((r, n) for r, n in enumerate(v) if n))


def map_as_vec(m: ExtensionalMap) -> tuple:
    counts = [0] * (max(m.keys(), default=-1) + 1)
    for r, n in m.items():
        counts[r] = n
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def pairs_as_map(s: frozenset) -> ExtensionalMap:
    """The map ``key -> set of elements`` that the ``(key, element)`` pairs
    ``s`` stand for."""
    keys = sorted({k for k, _ in s})
    return ExtensionalMap(frozenset(), tuple((k, frozenset(e for j, e in s if j == k))
                                             for k in keys))


def map_as_pairs(m: ExtensionalMap) -> frozenset:
    return frozenset((k, e) for k, v in m.items() for e in v)


# Entry id -> the map form of a catalog state, and back.
AS_MAP = {
    "ctr-inc-crdt": vec_as_map,
    "pn-ctr-crdt": lambda s: (vec_as_map(s[0]), vec_as_map(s[1])),
    "g-map-mrdt": pairs_as_map,
}
FROM_MAP = {
    "ctr-inc-crdt": map_as_vec,
    "pn-ctr-crdt": lambda m: (map_as_vec(m[0]), map_as_vec(m[1])),
    "g-map-mrdt": map_as_pairs,
}


def map_vec_apply(m, ev):
    return m.update(ev.replica, add, 1)


def map_vec_merge2(a, b):
    return a.combine(b, max)


def map_pn_vec_apply(s, ev):
    pos, neg = s
    if isinstance(ev.op, Inc):
        return (map_vec_apply(pos, ev), neg)
    return (pos, map_vec_apply(neg, ev))


def map_gmap_apply(s, ev):
    op = ev.op
    return s.update(op.key, or_, {op.op.elem})


# The three entries as they were on ``ExtensionalMap`` states, map kernels
# and map display included.
MAP_FORM = {
    "ctr-inc-crdt": dataclasses.replace(
        catalog_get("ctr-inc-crdt").spec, initial=ExtensionalMap.empty(0),
        apply=map_vec_apply, merge2=map_vec_merge2, format_state=lambda m: m.show()),
    "pn-ctr-crdt": dataclasses.replace(
        catalog_get("pn-ctr-crdt").spec,
        initial=(ExtensionalMap.empty(0), ExtensionalMap.empty(0)),
        apply=map_pn_vec_apply,
        merge2=lambda a, b: (map_vec_merge2(a[0], b[0]), map_vec_merge2(a[1], b[1])),
        format_state=lambda s: f"({s[0].show()}, {s[1].show()})"),
    "g-map-mrdt": dataclasses.replace(
        catalog_get("g-map-mrdt").spec, initial=ExtensionalMap.empty(frozenset()),
        apply=map_gmap_apply, merge3=lambda l, a, b: a.combine(b, or_),
        format_state=lambda m: m.show(show_set)),
}


def _same(v):
    return v


# Entry id -> (apply, merge); each entry with a ``replay_apply`` uses its
# ``apply`` for it, as the catalog does.
REFERENCE = {
    "or-set-mrdt": (ref_orset_apply, ref_orset_merge3),
    "or-set-eff-mrdt": (ref_orset_eff_apply, ref_orset_merge3),
    "ew-flag-fixed": (ref_flag_fixed_apply, ref_orset_merge3),
    "g-set-mrdt": (ref_gset_apply, ref_gset_merge3),
    "g-map-mrdt": (ref_gmap_apply, ref_gmap_merge3),
    "rga-mrdt": (ref_rga_apply, ref_rga_merge3),
    "mv-reg-mrdt": (ref_mvreg_apply, ref_orset_merge3),
    "ctr-inc-crdt": (ref_vec_apply, ref_vec_merge2),
    "pn-ctr-crdt": (ref_pn_vec_apply, ref_pn_vec_merge2),
    "mv-reg-crdt": (ref_mvreg_crdt_apply, ref_mvreg_crdt_merge2),
    "or-set-crdt": (ref_orset_crdt_apply, ref_orset_crdt_merge2),
}
ENTRIES = sorted(REFERENCE)
LARGE_ALPHABET = {"or-set-mrdt", "or-set-eff-mrdt", "g-map-mrdt", "rga-mrdt", "or-set-crdt"}


def _merge(spec):
    return spec.merge2 if is_crdt(spec) else spec.merge3


def assert_matches_reference(rdt_id: str, kind: str, args: tuple) -> None:
    """Run the catalog kernel ``kind`` and its reference on ``args``;
    ``args`` are states and, for an apply, the event and observation set."""
    spec = catalog_get(rdt_id).spec
    ref_apply, ref_merge = REFERENCE[rdt_id]
    kernel = {"apply": spec.apply, "replay_apply": spec.replay_apply,
              "merge": _merge(spec)}[kind]
    reference = ref_merge if kind == "merge" else ref_apply
    as_map, from_map = AS_MAP.get(rdt_id, _same), FROM_MAP.get(rdt_id, _same)
    ref_show = (MAP_FORM.get(rdt_id) or spec).format_state
    n_states = len(args) if kind == "merge" else 1
    ref_args = tuple(to_ref(as_map(a)) for a in args[:n_states]) + args[n_states:]
    got, want = kernel(*args), reference(*ref_args)
    context = f"{rdt_id} {kind}{args!r}"
    assert shape(as_map(got)) == shape(want), context
    assert got == from_map(from_ref(want)), context
    assert spec.format_state(got) == ref_show(want), context
    for a, r in zip(args[:n_states], ref_args):
        # CPython keeps one empty tuple, so an empty vector is every other one.
        assert (got is a) == (want is r) or got == () == a, f"{context}: identity differs"


# ---------------------------------------------------------------------------
# Inputs reached by the sweep and by random histories.


def recording(spec, seen: set):
    """``spec`` with kernels that add each distinct input to ``seen``."""
    def wrap(kind, fn):
        def recorded(*args):
            seen.add((kind, args))
            return fn(*args)
        return recorded

    kernels = {"apply": wrap("apply", spec.apply)}
    if spec.replay_apply is not None:
        kernels["replay_apply"] = wrap("replay_apply", spec.replay_apply)
    merge_field = "merge2" if is_crdt(spec) else "merge3"
    kernels[merge_field] = wrap("merge", getattr(spec, merge_field))
    return dataclasses.replace(spec, **kernels)


def _check_all(rdt_id: str, seen: set) -> None:
    kinds = {kind for kind, _ in seen}
    assert {"apply", "merge"} <= kinds
    assert ("replay_apply" in kinds) == (catalog_get(rdt_id).spec.replay_apply is not None)
    for kind, args in seen:
        assert_matches_reference(rdt_id, kind, args)


@pytest.mark.parametrize("rdt_id", ENTRIES)
def test_sweep_inputs_match_reference(rdt_id):
    seen: set = set()
    events = 3 if rdt_id in LARGE_ALPHABET else 4
    cfg = CheckConfig(exhaustive_below=events + 1, tests_per_property=1)
    report = run_suite(recording(catalog_get(rdt_id).spec, seen), cfg)
    assert report.first_failure() is None
    _check_all(rdt_id, seen)


@pytest.mark.parametrize("rdt_id", ENTRIES)
def test_random_history_inputs_match_reference(rdt_id):
    seen: set = set()
    spec = recording(catalog_get(rdt_id).spec, seen)
    pool = payload_pool(spec)
    rng = random.Random(f"kernel-reference/{rdt_id}")
    for _ in range(200):
        ex = run_recipe(spec, random_recipe(rng, pool, 8, 2, max_joins=2))
        for p in properties_for(spec):
            EVALUATORS[p](spec, ex)
    _check_all(rdt_id, seen)


# ---------------------------------------------------------------------------
# Hypothesis-drawn inputs.

SUITE = settings(max_examples=300, derandomize=True, deadline=None)

stamps = st.integers(1, 7)
replicas = st.integers(0, 2)
literals = st.integers(1, 3)


def sets(elems):
    return st.frozensets(elems, max_size=5)


pairs = sets(st.tuples(stamps, literals))
# Counts below zero and zeros inside, which the kernels must drop where a
# result ends on one.  A vector that ends on a zero is not a state: it has no
# map form, so a pn-ctr-crdt half that an apply passes through untouched could
# not be compared.
vectors = st.lists(st.integers(-2, 4), max_size=3).map(lambda c: map_as_vec(vec_as_map(c)))
STATES = {
    "or-set-mrdt": pairs,
    "or-set-eff-mrdt": sets(st.tuples(stamps, replicas, literals)),
    "ew-flag-fixed": sets(stamps),
    "g-set-mrdt": sets(literals),
    "g-map-mrdt": st.frozensets(st.tuples(st.integers(0, 4), literals), max_size=8),
    "rga-mrdt": st.tuples(pairs, sets(stamps)),
    "mv-reg-mrdt": pairs,
    "ctr-inc-crdt": vectors,
    "pn-ctr-crdt": st.tuples(vectors, vectors),
    "mv-reg-crdt": pairs,
    "or-set-crdt": st.tuples(pairs, pairs),
}


@pytest.mark.parametrize("rdt_id", ENTRIES)
def test_drawn_inputs_match_reference(rdt_id):
    spec = catalog_get(rdt_id).spec
    states = STATES[rdt_id]
    events = st.builds(Event, stamps, replicas, st.sampled_from(payload_pool(spec)))
    observed = st.none() | st.frozensets(stamps)

    @SUITE
    @given(states, states, states, events, observed)
    def check(l, a, b, ev, obs):
        assert_matches_reference(rdt_id, "apply", (a, ev))
        if spec.replay_apply is not None:
            assert_matches_reference(rdt_id, "replay_apply", (a, ev, obs))
        assert_matches_reference(rdt_id, "merge", (a, b) if is_crdt(spec) else (l, a, b))

    check()


# ---------------------------------------------------------------------------
# The map forms agree with the catalog's at every node.


def _assert_same_nodes(spec, old, states: tuple, old_states: tuple, context) -> None:
    """Equal display strings at every node, and equal ``==`` between any two."""
    assert [spec.format_state(x) for x in states] == \
        [old.format_state(x) for x in old_states], context
    assert [[x == y for y in states] for x in states] == \
        [[x == y for y in old_states] for x in old_states], context


@pytest.mark.parametrize("rdt_id", sorted(MAP_FORM))
def test_map_form_agrees_at_every_node(rdt_id):
    spec, old = catalog_get(rdt_id).spec, MAP_FORM[rdt_id]
    pool = payload_pool(spec)
    walks = zip(sweep_walk(pool, 4, 2, 1, spec), sweep_walk(pool, 4, 2, 1, old))
    n = 0
    for (g, steps), (old_g, old_steps) in walks:
        assert steps == old_steps
        _assert_same_nodes(spec, old, tuple(g.states), tuple(old_g.states), steps)
        n += 1
    assert n == sum(1 for _ in sweep_walk(pool, 4, 2, 1))
    rng = random.Random(f"map-form/{rdt_id}")
    for _ in range(200):
        recipe = random_recipe(rng, pool, 8, 2, max_joins=2)
        _assert_same_nodes(spec, old, run_recipe(spec, recipe).states,
                           run_recipe(old, recipe).states, recipe)
