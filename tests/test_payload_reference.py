"""Differential tests: the payload protocol against the hand-written payload
code it replaced.

The ``ref_*`` functions below are the per-payload code as it was before each
payload class declared only its JSON kind and derived the rest from its
fields: ``catalog.payload_pool``, ``history._payload_literals``,
``checker._smaller_payloads``, the ``label()`` method of each class, and
``report.payload_to_dict`` / ``payload_from_dict`` with their kind table.
On every catalog spec and literal pool ``(1,)`` to ``(1, 2, 3, 4)`` the
derived code must give the same pool (in the same order, which fixes the
sweep order and the random draw streams), literals, shrink candidates (in
order), labels and JSON, and parsing must fail with the same messages.

A payload declared here, and nowhere else, shows that a new payload needs no
edit outside its own class.
"""

from dataclasses import dataclass

import pytest

from salcheck.catalog import CATALOG, payload_pool
from salcheck.checker import CheckConfig, _reductions, run_suite
from salcheck.history import ApplyOp, Recipe, enumerate_recipes
from salcheck.model import (
    Add, Dec, Delete, Disable, Enable, Inc, Insert, MapSet, MrdtSpec, Payload,
    Rem, Write, rc_empty,
)
from salcheck.report import ReportFormatError, payload_from_dict, payload_to_dict

POOLS = [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]

# ---------------------------------------------------------------------------
# Reference: the hand-written payload code.


def ref_payload_pool(spec, literals):
    pool = []
    for t in spec.payload_types:
        if t in (Inc, Dec, Enable, Disable):
            pool.append(t())
        elif t in (Add, Rem, Insert, Delete):
            pool.extend(t(x) for x in literals)
        elif t is Write:
            pool.extend(Write(x) for x in literals)
        elif t is MapSet:
            pool.extend(MapSet(k, Add(v)) for k in literals for v in literals)
        else:
            raise ValueError(f"no pool rule for payload type {t!r}")
    return tuple(pool)


def ref_payload_literals(op):
    if isinstance(op, (Add, Rem, Insert, Delete)):
        return (op.elem,)
    if isinstance(op, Write):
        return (op.value,)
    if isinstance(op, MapSet):
        return (op.key,) + ref_payload_literals(op.op)
    return ()


def ref_smaller_payloads(op):
    if isinstance(op, (Add, Rem, Insert, Delete)) and op.elem > 1:
        yield op.__class__(op.elem - 1)
    elif isinstance(op, Write) and op.value > 1:
        yield Write(op.value - 1)
    elif isinstance(op, MapSet):
        if op.key > 1:
            yield MapSet(op.key - 1, op.op)
        for smaller in ref_smaller_payloads(op.op):
            yield MapSet(op.key, smaller)


def ref_label(op):
    if isinstance(op, (Inc, Dec, Enable, Disable)):
        return {Inc: "inc", Dec: "dec", Enable: "enable", Disable: "disable"}[type(op)]
    if isinstance(op, (Add, Rem, Insert, Delete)):
        head = {Add: "add", Rem: "rem", Insert: "ins", Delete: "del"}[type(op)]
        return f"{head}({op.elem})"
    if isinstance(op, Write):
        return f"write({op.value})"
    return f"set({op.key}, {ref_label(op.op)})"


REF_PAYLOAD_KINDS = {
    "inc": Inc, "dec": Dec, "enable": Enable, "disable": Disable,
    "add": Add, "rem": Rem, "insert": Insert, "delete": Delete,
    "write": Write, "set": MapSet,
}
REF_KIND_OF_TYPE = {t: k for k, t in REF_PAYLOAD_KINDS.items()}


def ref_require(d, key, typ, path):
    if not isinstance(d, dict):
        raise ReportFormatError(f"{path}: expected object")
    if key not in d:
        raise ReportFormatError(f"{path}.{key}: missing")
    val = d[key]
    if typ is int and isinstance(val, bool):
        raise ReportFormatError(f"{path}.{key}: expected {typ.__name__}")
    if not isinstance(val, typ):
        raise ReportFormatError(f"{path}.{key}: expected {typ.__name__}")
    return val


def ref_payload_to_dict(op):
    kind = REF_KIND_OF_TYPE[type(op)]
    if isinstance(op, (Add, Rem, Insert, Delete)):
        return {"kind": kind, "elem": op.elem}
    if isinstance(op, Write):
        return {"kind": kind, "value": op.value}
    if isinstance(op, MapSet):
        return {"kind": kind, "key": op.key, "op": ref_payload_to_dict(op.op)}
    return {"kind": kind}


def ref_payload_from_dict(d, path="op"):
    kind = ref_require(d, "kind", str, path)
    cls = REF_PAYLOAD_KINDS.get(kind)
    if cls is None:
        raise ReportFormatError(f"{path}.kind: unknown payload kind {kind!r}")
    if cls in (Add, Rem, Insert, Delete):
        return cls(ref_require(d, "elem", int, path))
    if cls is Write:
        return Write(ref_require(d, "value", int, path))
    if cls is MapSet:
        return MapSet(ref_require(d, "key", int, path),
                      ref_payload_from_dict(ref_require(d, "op", dict, path), f"{path}.op"))
    return cls()


# ---------------------------------------------------------------------------
# The derived protocol against the reference.


def assert_payload_matches(op):
    assert op.literals() == ref_payload_literals(op)
    assert list(op.smaller()) == list(ref_smaller_payloads(op))
    assert op.label() == ref_label(op)
    d = payload_to_dict(op)
    assert d == ref_payload_to_dict(op)
    assert list(d) == list(ref_payload_to_dict(op))  # same key order
    assert payload_from_dict(d) == ref_payload_from_dict(d) == op


@pytest.mark.parametrize("literals", POOLS, ids=lambda p: "pool" + "".join(map(str, p)))
@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_pool_and_each_payload_match_the_reference(entry, literals):
    pool = payload_pool(entry.spec, literals)
    assert pool == ref_payload_pool(entry.spec, literals)
    for op in pool:
        assert_payload_matches(op)


@pytest.mark.parametrize("op", [
    MapSet(2, Rem(3)), MapSet(3, Write(2)), MapSet(1, Inc()),
    MapSet(3, MapSet(2, Delete(4))), Insert(7), Write(9),
], ids=repr)
def test_nested_payloads_outside_the_pool_match_the_reference(op):
    # Parsing accepts any nested kind, so every derived function must handle
    # a nested payload that no pool holds.
    assert_payload_matches(op)


@pytest.mark.parametrize("doc", [
    {"kind": "add"},
    {"kind": "write", "value": True},
    {"kind": "frobnicate"},
    {"value": 1},
    {"kind": "set", "key": 1},
    {"kind": "set", "key": 1, "op": [1]},
    {"kind": "set", "key": 1, "op": {"kind": "add", "elem": True}},
    {"kind": "set", "key": 1, "op": {"kind": "set", "key": 2, "op": {"kind": "rem"}}},
], ids=["missing", "bool-as-int", "unknown-kind", "no-kind", "nested-missing",
        "nested-not-object", "nested-op.op.elem", "twice-nested"])
def test_parse_errors_match_the_reference(doc):
    with pytest.raises(ReportFormatError) as ref:
        ref_payload_from_dict(doc)
    with pytest.raises(ReportFormatError) as new:
        payload_from_dict(doc)
    assert str(new.value) == str(ref.value)


def test_nested_bool_error_names_the_nested_path():
    with pytest.raises(ReportFormatError, match=r"^op\.op\.elem: expected int$"):
        payload_from_dict({"kind": "set", "key": 1, "op": {"kind": "add", "elem": True}})


# ---------------------------------------------------------------------------
# A payload declared only here.


@dataclass(frozen=True)
class Move(Payload, kind="move"):
    src: int
    dst: int


def test_a_new_payload_needs_no_edit_elsewhere():
    spec = MrdtSpec(
        name="move-max", initial=0,
        apply=lambda s, ev: max(s, 10 * ev.op.src + ev.op.dst),
        merge3=lambda lca, a, b: max(a, b),
        rc=rc_empty, payload_types=(Move,), format_state=str,
    )
    pool = payload_pool(spec, (1, 2))
    assert pool == (Move(1, 1), Move(1, 2), Move(2, 1), Move(2, 2))
    assert [op.literals() for op in pool] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(Move(2, 2).smaller()) == [Move(1, 2), Move(2, 1)]
    assert list(Move(1, 1).smaller()) == []
    assert Move(2, 1).label() == "move(2, 1)"
    assert payload_to_dict(Move(2, 1)) == {"kind": "move", "src": 2, "dst": 1}
    # The shrinker proposes the smaller moves; the sweep renames literals to
    # first-use order: of the four one-event recipes only those over 1 remain.
    candidates = list(_reductions(Recipe((ApplyOp(0, Move(2, 2)),))))
    assert Recipe((ApplyOp(0, Move(1, 2)),)) in candidates
    assert Recipe((ApplyOp(0, Move(2, 1)),)) in candidates
    one_event = [r for r in enumerate_recipes(pool, 1) if r.steps]
    assert one_event == [Recipe((ApplyOp(0, Move(1, 1)),)), Recipe((ApplyOp(0, Move(1, 2)),))]
    suite = run_suite(spec, CheckConfig(tests_per_property=20, max_events=3,
                                        exhaustive_below=2, literal_pool=(1, 2)))
    assert {v.status for v in suite.verdicts} == {"pass", "vacuous"}  # rc is empty


def test_a_payload_field_must_be_int_or_a_payload():
    with pytest.raises(TypeError, match=r"Bad\.name must be int or a payload"):
        class Bad(Payload, kind="bad"):
            name: str
