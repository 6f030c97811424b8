"""Per-entry semantics of the bundled data type catalog."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from salcheck.model import (
    Inc, Dec, Add, Rem, Enable, Disable, Write, Insert, Delete, MapSet,
    Event, SpecMismatchError, is_crdt,
)
from salcheck.tracked import ExtensionalMap, TrackedSet
from salcheck.catalog import (
    CATALOG, catalog_get, payload_pool, LITERAL_POOL,
    ctr_inc_mrdt, pn_ctr_mrdt, pn_value, or_set_mrdt, or_set_eff_mrdt,
    ew_flag_buggy, ew_flag_fixed, flag_value, g_set_mrdt, g_map_mrdt,
    rga_mrdt, rga_read, mv_reg_mrdt, mv_reg_read, ctr_inc_crdt, vec_value,
    pn_ctr_crdt, pn_vec_value, mv_reg_crdt, or_set_crdt, orset_crdt_members,
)
from salcheck.checker import _as_entry
from salcheck.history import Recipe, ApplyOp, diamond, random_recipe, run_recipe, sweep_walk
from test_kernel_reference import pairs_as_map, vec_as_map

SUITE = settings(max_examples=1000, derandomize=True)


def test_catalog_has_fourteen_entries_with_unique_ids():
    assert len(CATALOG) == 14
    ids = [e.id for e in CATALOG]
    assert len(set(ids)) == 14


def test_exactly_one_known_buggy_entry():
    buggy = [e for e in CATALOG if e.known_buggy]
    assert [e.id for e in buggy] == ["ew-flag-buggy"]


def test_kind_matches_spec_shape():
    for e in CATALOG:
        assert e.kind == ("crdt" if is_crdt(e.spec) else "mrdt")
        assert e.id == e.spec.name
    # A bare spec, as run_suite and shrink take one, gets its kind the same way.
    for spec in (ctr_inc_mrdt, ctr_inc_crdt):
        assert _as_entry(spec).kind == ("crdt" if is_crdt(spec) else "mrdt")


def test_catalog_get_unknown_raises():
    with pytest.raises(KeyError):
        catalog_get("no-such-rdt")


def foreign_type(v) -> type | None:
    """The first type in ``v`` other than int, bool, str, tuple and frozenset,
    looking inside the last two; ``None`` if there is none.  Types are matched
    exactly, so a subclass (``TrackedSet``, ``ExtensionalMap``) is foreign."""
    t = type(v)
    if t is tuple or t is frozenset:
        return next(filter(None, map(foreign_type, v)), None)
    return None if t in (int, bool, str) else t


def _checking_outputs(spec):
    """``spec`` with ``apply`` and its merge checking each state they return."""
    def wrap(kind, fn):
        def checked(*args):
            out = fn(*args)
            assert foreign_type(out) is None, f"{spec.name} {kind}{args!r} gave {out!r}"
            return out
        return checked

    merge_field = "merge2" if is_crdt(spec) else "merge3"
    return dataclasses.replace(spec, apply=wrap("apply", spec.apply),
                               **{merge_field: wrap("merge", getattr(spec, merge_field))})


@pytest.mark.parametrize("rdt_id", [e.id for e in CATALOG])
def test_states_are_plain_immutable_values(rdt_id):
    # Every state a history reaches is the initial state or a kernel's
    # output: here those of the 2-replica sweep to 4 events and of 200
    # seeded random 8-event histories.
    spec = _checking_outputs(catalog_get(rdt_id).spec)
    assert foreign_type(spec.initial) is None
    pool = payload_pool(spec)
    for _ in sweep_walk(pool, 4, 2, 1, spec):
        pass
    rng = random.Random(f"plain-states/{rdt_id}")
    for _ in range(200):
        run_recipe(spec, random_recipe(rng, pool, 8, 2, max_joins=2))


# ---------------------------------------------------------------------------
# Counter MRDTs.


@SUITE
@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_ctr_merge3_closed_form(l, da, db):
    a, b = l + da, l + db
    assert ctr_inc_mrdt.merge3(l, a, b) == l + (a - l) + (b - l)


def test_ctr_final_equals_inc_count():
    ex = run_recipe(ctr_inc_mrdt, diamond((Inc(), Inc()), (Inc(),), prefix=(Inc(),)))
    assert ex.sink_state() == 4


def test_pn_ctr_tracks_both_signs():
    ex = run_recipe(pn_ctr_mrdt, diamond((Inc(), Inc()), (Dec(),)))
    assert pn_value(ex.sink_state()) == 1


# ---------------------------------------------------------------------------
# Observed-removed sets.


def test_orset_add_then_rem_sequential():
    ex = run_recipe(or_set_mrdt, Recipe((ApplyOp(0, Add(1)), ApplyOp(0, Rem(1)))))
    assert ex.sink_state() == TrackedSet.empty().insert((1, 1)).remove((1, 1))
    assert or_set_mrdt.format_state(ex.sink_state()) == "#[]#"


def test_orset_add_wins_over_concurrent_rem():
    ex = run_recipe(or_set_mrdt, diamond((Rem(3),), (Add(3),)))
    # the add got timestamp 2 (rem drew 1 on the other branch)
    assert or_set_mrdt.format_state(ex.sink_state()) == "#[(2, 3)]#"


def test_orset_observed_replay_matches_apply_in_causal_order():
    s = or_set_mrdt.initial
    ev_add = Event(1, 0, Add(1))
    ev_rem = Event(2, 0, Rem(1))
    s = or_set_mrdt.apply(s, ev_add)
    plain = or_set_mrdt.apply(s, ev_rem)
    aware = or_set_mrdt.replay_apply(s, ev_rem, frozenset({1}))
    assert plain == aware


def test_orset_observed_replay_spares_unseen_entries():
    s = or_set_mrdt.initial | {(5, 1)}
    out = or_set_mrdt.replay_apply(s, Event(2, 0, Rem(1)), frozenset())
    assert (5, 1) in out


def test_orset_eff_compacts_per_replica():
    r = Recipe((ApplyOp(0, Add(1)), ApplyOp(0, Add(1)), ApplyOp(1, Add(1))))
    ex = run_recipe(or_set_eff_mrdt, r)
    # replica 0's second add supersedes its first; replica 1 keeps its own
    assert ex.sink_state() == frozenset({(2, 0, 1), (3, 1, 1)})


# ---------------------------------------------------------------------------
# Enable-wins flags.


def test_buggy_flag_counts_enables():
    s = ew_flag_buggy.initial
    s = ew_flag_buggy.apply(s, Event(1, 0, Enable()))
    assert s == (1, True)
    s = ew_flag_buggy.apply(s, Event(2, 0, Disable()))
    assert s == (1, False)


def test_buggy_flag_merge_consults_counter():
    # one branch enabled beyond the lca count: flag wrongly resurrects
    assert ew_flag_buggy.merge3((1, True), (2, True), (1, False)) == (2, True)
    assert ew_flag_buggy.merge3((0, False), (1, False), (0, False)) == (1, False)


def test_fixed_flag_tracks_enable_timestamps():
    s = ew_flag_fixed.initial
    s = ew_flag_fixed.apply(s, Event(1, 0, Enable()))
    s = ew_flag_fixed.apply(s, Event(2, 0, Enable()))
    assert flag_value(s) and s == frozenset({1, 2})
    s = ew_flag_fixed.apply(s, Event(3, 0, Disable()))
    assert not flag_value(s)
    assert ew_flag_fixed.format_state(s) == "(false, #[]#)"


def test_fixed_flag_enable_wins_concurrent_disable():
    ex = run_recipe(ew_flag_fixed, diamond((Disable(),), (Enable(),)))
    assert flag_value(ex.sink_state())


# ---------------------------------------------------------------------------
# Grow-only structures.


def test_gset_union_merge():
    ex = run_recipe(g_set_mrdt, diamond((Add(1),), (Add(2),)))
    assert ex.sink_state() == frozenset({1, 2})


def test_gmap_pointwise_union():
    ex = run_recipe(g_map_mrdt, diamond((MapSet(1, Add(1)),), (MapSet(1, Add(2)), MapSet(2, Add(3)))))
    m = pairs_as_map(ex.sink_state())
    assert m.get(1) == frozenset({1, 2})
    assert m.get(2) == frozenset({3})


def test_gmap_rejects_non_add_values():
    with pytest.raises(SpecMismatchError):
        g_map_mrdt.apply(g_map_mrdt.initial, Event(1, 0, MapSet(1, Rem(2))))


# ---------------------------------------------------------------------------
# RGA.


def test_rga_insert_delete_tombstones():
    ex = run_recipe(rga_mrdt, Recipe((ApplyOp(0, Insert(3)), ApplyOp(0, Delete(3)))))
    elems, tombs = ex.sink_state()
    assert elems == frozenset({(1, 3)})
    assert tombs == frozenset({1})
    assert rga_read(ex.sink_state()) == []


def test_rga_insert_wins_concurrent_delete():
    ex = run_recipe(rga_mrdt, diamond((Delete(3),), (Insert(3),)))
    assert rga_read(ex.sink_state()) == [3]


def test_rga_read_newest_first():
    r = Recipe((ApplyOp(0, Insert(1)), ApplyOp(0, Insert(2)), ApplyOp(0, Insert(3))))
    ex = run_recipe(rga_mrdt, r)
    assert rga_read(ex.sink_state()) == [3, 2, 1]


# ---------------------------------------------------------------------------
# Multi-value registers.


def test_mv_reg_mrdt_keeps_concurrent_writes():
    ex = run_recipe(mv_reg_mrdt, diamond((Write(1),), (Write(2),)))
    assert mv_reg_read(ex.sink_state()) == frozenset({1, 2})


def test_mv_reg_mrdt_overwrites_causally():
    ex = run_recipe(mv_reg_mrdt, Recipe((ApplyOp(0, Write(1)), ApplyOp(0, Write(2)))))
    assert mv_reg_read(ex.sink_state()) == frozenset({2})


def test_mv_reg_crdt_last_writer_wins():
    ex = run_recipe(mv_reg_crdt, diamond((Write(1),), (Write(2),)))
    # the concurrent write with the larger timestamp survives the join
    assert ex.sink_state() == frozenset({(2, 2)})


# ---------------------------------------------------------------------------
# CRDT entries.


def test_ctr_inc_crdt_vector_semantics():
    ex = run_recipe(ctr_inc_crdt, diamond((Inc(), Inc()), (Inc(),)))
    assert vec_value(ex.sink_state()) == 3
    assert ex.sink_state()[0] == 2 and ex.sink_state()[1] == 1


def test_ctr_inc_crdt_merge2_pointwise_max():
    a = (2, 1)
    b = (1, 3)
    merged = ctr_inc_crdt.merge2(a, b)
    assert merged[0] == 2 and merged[1] == 3
    assert vec_value(merged) == 5


def _per_key_fold(default, keys, value_at) -> ExtensionalMap:
    """A map merge as one ``set`` call per key, in key order."""
    merged = ExtensionalMap.empty(default)
    for k in sorted(keys):
        merged = merged.set(k, value_at(k))
    return merged


# Drawn with trailing zeros, the vector analog of a map entry that holds the
# default; a merge must drop them.
_VECTORS = st.lists(st.integers(0, 3), max_size=5).map(tuple)
_PAIR_SETS = st.frozensets(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=8)


@SUITE
@given(_VECTORS, _VECTORS)
def test_vec_merge2_equals_the_per_key_fold(a, b):
    ma, mb = vec_as_map(a), vec_as_map(b)
    want = _per_key_fold(0, set(ma.keys()) | set(mb.keys()), lambda k: max(ma.get(k), mb.get(k)))
    got = ctr_inc_crdt.merge2(a, b)
    assert vec_as_map(got) == want and vec_as_map(got).entries == want.entries
    assert not got or got[-1]  # no trailing zero: equal vectors are equal tuples


@SUITE
@given(_PAIR_SETS, _PAIR_SETS, _PAIR_SETS)
def test_gmap_merge3_equals_the_per_key_fold(l, a, b):
    ml, ma, mb = pairs_as_map(l), pairs_as_map(a), pairs_as_map(b)
    want = _per_key_fold(frozenset(), set(ml.keys()) | set(ma.keys()) | set(mb.keys()),
                         lambda k: ma.get(k) | mb.get(k))
    got = g_map_mrdt.merge3(l, a, b)
    assert pairs_as_map(got) == want and pairs_as_map(got).entries == want.entries


def test_pn_ctr_crdt_value():
    ex = run_recipe(pn_ctr_crdt, diamond((Inc(),), (Dec(), Dec())))
    assert pn_vec_value(ex.sink_state()) == -1


def test_or_set_crdt_add_wins_members():
    ex = run_recipe(or_set_crdt, diamond((Rem(3),), (Add(3),)))
    assert orset_crdt_members(ex.sink_state()) == frozenset({3})


def test_or_set_crdt_observed_remove_tombstones():
    ex = run_recipe(or_set_crdt, Recipe((ApplyOp(0, Add(3)), ApplyOp(0, Rem(3)))))
    adds, tombs = ex.sink_state()
    assert adds == tombs == frozenset({(1, 3)})
    assert orset_crdt_members(ex.sink_state()) == frozenset()


# ---------------------------------------------------------------------------
# Payload pools.


def test_payload_pool_shapes():
    assert payload_pool(ctr_inc_mrdt) == (Inc(),)
    assert set(payload_pool(or_set_mrdt)) == {Add(i) for i in LITERAL_POOL} | {Rem(i) for i in LITERAL_POOL}
    assert payload_pool(ew_flag_buggy) == (Enable(), Disable())
    assert len(payload_pool(g_map_mrdt)) == 9  # 3 keys x 3 added values
    assert set(payload_pool(mv_reg_mrdt)) == {Write(i) for i in LITERAL_POOL}


def test_payload_pool_respects_custom_literals():
    pool = payload_pool(or_set_mrdt, literals=(1,))
    assert set(pool) == {Add(1), Rem(1)}
