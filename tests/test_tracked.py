"""Property suites for the tracked set and the extensional map."""

import copy
import operator
import pickle

from hypothesis import given, settings, strategies as st

from salcheck.tracked import TrackedSet, ExtensionalMap, element_str, show_set

SUITE = settings(max_examples=1000, derandomize=True)

elems = st.integers(min_value=-3, max_value=9)
elem_sets = st.frozensets(elems, max_size=6)


def ts(members: frozenset, removed: frozenset = frozenset()) -> TrackedSet:
    """A set with ``members``, built after inserting and removing ``removed``."""
    s = TrackedSet.empty()
    for x in removed:
        s = s.insert(x).remove(x)
    for x in members:
        s = s.insert(x)
    return s


# ---------------------------------------------------------------------------
# Set algebra laws.


@SUITE
@given(elem_sets, elem_sets)
def test_union_commutes(a, b):
    assert ts(a).union(ts(b)) == ts(b).union(ts(a))


@SUITE
@given(elem_sets, elem_sets, elem_sets)
def test_union_associates(a, b, c):
    sa, sb, sc = ts(a), ts(b), ts(c)
    assert sa.union(sb).union(sc) == sa.union(sb.union(sc))


@SUITE
@given(elem_sets)
def test_union_idempotent(a):
    assert ts(a).union(ts(a)) == ts(a)


@SUITE
@given(elem_sets, elem_sets)
def test_intersect_commutes(a, b):
    assert ts(a).intersect(ts(b)) == ts(b).intersect(ts(a))


@SUITE
@given(elem_sets, elem_sets, elem_sets)
def test_intersect_distributes_over_union(a, b, c):
    sa, sb, sc = ts(a), ts(b), ts(c)
    assert sa.intersect(sb.union(sc)) == sa.intersect(sb).union(sa.intersect(sc))


@SUITE
@given(elem_sets, elem_sets)
def test_diff_is_relative_complement(a, b):
    assert ts(a).diff(ts(b)).members == a - b


@SUITE
@given(elem_sets, elem_sets)
def test_diff_disjoint_from_subtrahend(a, b):
    assert ts(a).diff(ts(b)).intersect(ts(b)).members == frozenset()


@SUITE
@given(elem_sets, elem_sets)
def test_union_restores_diff(a, b):
    assert ts(a).diff(ts(b)).union(ts(a).intersect(ts(b))) == ts(a)


# ---------------------------------------------------------------------------
# Extensional equality: the insert/remove history never influences ==.


@SUITE
@given(elem_sets, elem_sets, elem_sets)
def test_equality_ignores_insert_remove_history(a, h1, h2):
    assert ts(a, h1) == ts(a, h2)


@SUITE
@given(elem_sets, elem_sets, elem_sets)
def test_hash_ignores_insert_remove_history(a, h1, h2):
    assert hash(ts(a, h1)) == hash(ts(a, h2))


@SUITE
@given(elem_sets, elem_sets)
def test_unequal_members_unequal_sets(a, b):
    assert (ts(a) == ts(b)) == (a == b)


# ---------------------------------------------------------------------------
# Display.


def test_show_set_is_sorted_and_bracketed():
    s = ts(frozenset({3, 1, 2}))
    assert show_set(s) == "#[1, 2, 3]#"
    assert s.show() == "#[1, 2, 3]#"
    assert show_set(TrackedSet.empty()) == "#[]#"


def test_element_str_tuples_and_bools():
    assert element_str((1, 3)) == "(1, 3)"
    assert element_str((1, 0, 2)) == "(1, 0, 2)"
    assert element_str(True) == "true"
    assert element_str(False) == "false"
    assert element_str(7) == "7"


def test_show_set_of_pairs():
    s = TrackedSet.empty().insert((2, 1)).insert((1, 3))
    assert show_set(s) == "#[(1, 3), (2, 1)]#"


# ---------------------------------------------------------------------------
# ExtensionalMap.

map_entries = st.dictionaries(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=-2, max_value=9), max_size=5)


def em(d: dict, default=0) -> ExtensionalMap:
    m = ExtensionalMap.empty(default)
    for k, v in d.items():
        m = m.set(k, v)
    return m


@SUITE
@given(map_entries, map_entries)
def test_map_equality_is_extensional(d1, d2):
    keys = set(d1) | set(d2)
    same = all(d1.get(k, 0) == d2.get(k, 0) for k in keys)
    assert (em(d1) == em(d2)) == same


@SUITE
@given(map_entries, st.integers(min_value=0, max_value=5), st.integers(min_value=-2, max_value=9))
def test_map_set_then_get(d, k, v):
    assert em(d).set(k, v).get(k) == v


@SUITE
@given(map_entries, st.integers(min_value=0, max_value=5))
def test_map_get_missing_returns_default(d, k):
    m = em(d, default=-99)
    if k not in d:
        assert m.get(k) == -99


@SUITE
@given(map_entries)
def test_map_default_entries_vanish(d):
    m = em(d)
    for k in d:
        m = m.set(k, 0)  # write the default back
    assert m == ExtensionalMap.empty(0)
    assert m.keys() == []


@SUITE
@given(map_entries)
def test_map_domain_tracks_nondefault_keys(d):
    m = em(d)
    live = sorted(k for k, v in d.items() if v != 0)
    assert m.keys() == live
    assert m.domain().members == frozenset(live)


def test_map_show_sorted_by_key():
    m = em({2: 5, 1: 7})
    assert m.show() == "{1: 7, 2: 5}"
    assert ExtensionalMap.empty(0).show() == "{}"


# ---------------------------------------------------------------------------
# ExtensionalMap.update and combine against a dict model.  Maps are built
# directly, so an input entry may hold its map's default; the two defaults of
# a combine may differ; and values often meet a default, so results equal to
# it must be dropped.

small = st.integers(min_value=-1, max_value=2)
keys = st.integers(min_value=0, max_value=4)
given_entries = st.dictionaries(keys, small, max_size=4)
binary = st.sampled_from([operator.add, operator.sub, max, lambda old, x: x])


def direct(d: dict, default) -> ExtensionalMap:
    return ExtensionalMap(default, tuple(sorted(d.items())))


@SUITE
@given(given_entries, small, keys, binary, small)
def test_map_update_matches_dict_model(d, default, k, f, x):
    want = dict(d)
    v = f(want.get(k, default), x)
    if v == default:
        want.pop(k, None)
    else:
        want[k] = v
    got = direct(d, default).update(k, f, x)
    assert type(got) is ExtensionalMap
    assert got.default == default
    assert got.entries == tuple(sorted(want.items()))


@SUITE
@given(given_entries, small, given_entries, small, binary)
def test_map_combine_matches_dict_model(d1, default1, d2, default2, f):
    want = {}
    for k in d1.keys() | d2.keys():
        v = f(d1.get(k, default1), d2.get(k, default2))
        if v != default1:
            want[k] = v
    got = direct(d1, default1).combine(direct(d2, default2), f)
    assert type(got) is ExtensionalMap
    assert got.default == default1
    assert got.entries == tuple(sorted(want.items()))


@SUITE
@given(map_entries, small)
def test_equal_maps_hash_alike(d, default):
    # One map built by ``set`` in two orders, and directly from its live entries.
    a, b = em(d, default), em(dict(reversed(d.items())), default)
    c = direct({k: v for k, v in d.items() if v != default}, default)
    assert a == b == c and not a != b and not a != c
    assert hash(a) == hash(b) == hash(c)


@SUITE
@given(map_entries, small)
def test_map_never_equals_a_non_map(d, default):
    m = em(d, default)
    for other in ((default, m.entries), tuple(m), m.entries, dict(m.items()), default):
        assert not m == other and m != other
        assert not other == m and other != m
    assert (default, m.entries) not in {m}


def test_map_survives_copy_and_pickle():
    m = em({1: 2, 3: 4}, default=-1)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is ExtensionalMap
        assert twin == m and twin.default == -1 and twin.entries == ((1, 2), (3, 4))


def test_maps_with_different_defaults_differ():
    # Both have no entries, yet they map every key differently.
    five, zero = ExtensionalMap(5, ()), ExtensionalMap(0, ())
    assert five.get(1) == 5 and zero.get(1) == 0
    assert five != zero and not five == zero
    assert len({five, zero}) == 2
