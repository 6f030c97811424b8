"""Catalog of replicated data types known to the workbench.

Each entry wires a concrete state type, apply/merge functions and a conflict
resolution relation into an ``MrdtSpec`` or ``CrdtSpec``.  The definitions
are standard textbook constructions (grow-only and observed-removed sets,
add-wins flags, per-replica counter vectors, a tombstone sequence, multi-value
registers); none of them is trusted — the checker validates every entry, and
``ew-flag-buggy`` is shipped precisely because its merge is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Add, CrdtSpec, Dec, Delete, Disable, Enable, Event, Inc, Insert, MapSet,
    MrdtSpec, OpPayload, RdtSpec, Rem, SpecMismatchError, Write, is_crdt, rc_empty,
)
from .tracked import ExtensionalMap, TrackedSet, show_set

LITERAL_POOL: tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    spec: RdtSpec
    known_buggy: bool
    notes: str

    @property
    def kind(self) -> str:
        return "crdt" if is_crdt(self.spec) else "mrdt"


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# Counters.


def _ctr_apply(s: int, ev: Event) -> int:
    return s + 1


def _ctr_merge3(l: int, a: int, b: int) -> int:
    return l + (a - l) + (b - l)


ctr_inc_mrdt = MrdtSpec(
    name="ctr-inc-mrdt",
    initial=0,
    apply=_ctr_apply,
    merge3=_ctr_merge3,
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=str,
)


def _pn_apply(s: tuple[int, int], ev: Event) -> tuple[int, int]:
    p, n = s
    return (p + 1, n) if isinstance(ev.op, Inc) else (p, n + 1)


def _pn_merge3(l, a, b):
    return (_ctr_merge3(l[0], a[0], b[0]), _ctr_merge3(l[1], a[1], b[1]))


def pn_value(s: tuple[int, int]) -> int:
    return s[0] - s[1]


pn_ctr_mrdt = MrdtSpec(
    name="pn-ctr-mrdt",
    initial=(0, 0),
    apply=_pn_apply,
    merge3=_pn_merge3,
    rc=rc_empty,
    payload_types=(Inc, Dec),
    format_state=lambda s: f"({s[0]}, {s[1]})",
)


# ---------------------------------------------------------------------------
# Observed-removed sets (MRDT).  State: TrackedSet of (timestamp, element).
#
# Destructive operations throughout the catalog take an optional observation
# set (the timestamps of the events in the acting event's causal past) and
# only touch entries they observed.  Applied in causal order — as on a
# version graph — the guard excludes nothing, because every entry in the
# pre-state was made by an observed event; the same functions double as the
# replay semantics for sequential witnesses, where an event replayed out of
# causal context must not act on entries it could never have seen.  A remove
# that removes nothing returns its input itself (``TrackedSet.filter``): the
# peel check probes each distinct state object once, so a fresh copy would
# add ``apply`` calls.


def _saw(observed: frozenset | None, ts: int) -> bool:
    return observed is None or ts in observed


def _orset_apply(s: TrackedSet, ev: Event, observed: frozenset | None = None) -> TrackedSet:
    if isinstance(ev.op, Add):
        return s.insert((ev.ts, ev.op.elem))
    elem = ev.op.elem
    return s.filter(lambda pair: not (pair[1] == elem and _saw(observed, pair[0])))


def orset_merge3(l: TrackedSet, a: TrackedSet, b: TrackedSet) -> TrackedSet:
    """Keep what survived on both branches plus whatever either branch added."""
    return TrackedSet((l & a & b) | (a - l) | (b - l))


def _orset_rc(o1: OpPayload, o2: OpPayload) -> bool:
    # A remove is ordered before a concurrent add of the same element: adds win.
    return isinstance(o1, Rem) and isinstance(o2, Add) and o1.elem == o2.elem


or_set_mrdt = MrdtSpec(
    name="or-set-mrdt",
    initial=TrackedSet.empty(),
    apply=_orset_apply,
    merge3=orset_merge3,
    rc=_orset_rc,
    payload_types=(Add, Rem),
    format_state=show_set,
    replay_apply=_orset_apply,
)


def _orset_eff_apply(s: TrackedSet, ev: Event, observed: frozenset | None = None) -> TrackedSet:
    # State: TrackedSet of (timestamp, replica, element).  An add supersedes
    # the adder's own previous entry for that element, so each (element,
    # replica) pair keeps a single latest timestamp.
    elem, replica = ev.op.elem, ev.replica
    if isinstance(ev.op, Add):
        kept = [t for t in s
                if not (t[2] == elem and t[1] == replica and _saw(observed, t[0]))]
        kept.append((ev.ts, replica, elem))
        return TrackedSet(kept)
    return s.filter(lambda t: not (t[2] == elem and _saw(observed, t[0])))


or_set_eff_mrdt = MrdtSpec(
    name="or-set-eff-mrdt",
    initial=TrackedSet.empty(),
    apply=_orset_eff_apply,
    merge3=orset_merge3,
    rc=_orset_rc,
    payload_types=(Add, Rem),
    format_state=show_set,
    replay_apply=_orset_eff_apply,
)


# ---------------------------------------------------------------------------
# Enable-wins flags.


def _flag_buggy_apply(s: tuple[int, bool], ev: Event) -> tuple[int, bool]:
    c, _ = s
    if isinstance(ev.op, Enable):
        return (c + 1, True)
    return (c, False)


def _flag_buggy_merge3(l, a, b):
    # Counter of enables merged like a counter; the flag consults the counter
    # when the branches disagree.  This is the classic wrong formulation: the
    # counter cannot tell a surviving enable from an already-disabled one.
    if a[1] and b[1]:
        flag = True
    elif not a[1] and not b[1]:
        flag = False
    elif a[1]:
        flag = a[0] > l[0]
    else:
        flag = b[0] > l[0]
    return (a[0] + b[0] - l[0], flag)


def _flag_rc(o1: OpPayload, o2: OpPayload) -> bool:
    # A disable is ordered before a concurrent enable: enables win.
    return isinstance(o1, Disable) and isinstance(o2, Enable)


ew_flag_buggy = MrdtSpec(
    name="ew-flag-buggy",
    initial=(0, False),
    apply=_flag_buggy_apply,
    merge3=_flag_buggy_merge3,
    rc=_flag_rc,
    payload_types=(Enable, Disable),
    format_state=lambda s: f"({s[0]}, {_bool_str(s[1])})",
)


def _flag_fixed_apply(s: TrackedSet, ev: Event, observed: frozenset | None = None) -> TrackedSet:
    # State: the set of enable timestamps that no disable has observed yet.
    if isinstance(ev.op, Enable):
        return s.insert(ev.ts)
    return s.filter(lambda ts: not _saw(observed, ts))


def flag_value(s: TrackedSet) -> bool:
    return len(s) > 0


ew_flag_fixed = MrdtSpec(
    name="ew-flag-fixed",
    initial=TrackedSet.empty(),
    apply=_flag_fixed_apply,
    merge3=orset_merge3,
    rc=_flag_rc,
    payload_types=(Enable, Disable),
    format_state=lambda s: f"({_bool_str(flag_value(s))}, {show_set(s)})",
    replay_apply=_flag_fixed_apply,
)


# ---------------------------------------------------------------------------
# Grow-only set and map.


def _gset_apply(s: TrackedSet, ev: Event) -> TrackedSet:
    return s.insert(ev.op.elem)


def _gset_merge3(l, a, b):
    return a.union(b)


g_set_mrdt = MrdtSpec(
    name="g-set-mrdt",
    initial=TrackedSet.empty(),
    apply=_gset_apply,
    merge3=_gset_merge3,
    rc=rc_empty,
    payload_types=(Add,),
    format_state=show_set,
)


def _gmap_apply(s: ExtensionalMap, ev: Event) -> ExtensionalMap:
    op = ev.op
    if not isinstance(op.op, Add):
        raise SpecMismatchError(f"g-map values only accept add, got {op.op!r}")
    elem = op.op.elem
    return s.update(op.key, lambda v: v.insert(elem))


def _gmap_merge3(l: ExtensionalMap, a: ExtensionalMap, b: ExtensionalMap) -> ExtensionalMap:
    # The g-set merge ignores the LCA, so merging pointwise is uniting a and b.
    return a.combine(b, TrackedSet.union)


g_map_mrdt = MrdtSpec(
    name="g-map-mrdt",
    initial=ExtensionalMap.empty(TrackedSet.empty()),
    apply=_gmap_apply,
    merge3=_gmap_merge3,
    rc=rc_empty,
    payload_types=(MapSet,),
    format_state=lambda m: m.show(lambda v: show_set(v)),
)


# ---------------------------------------------------------------------------
# Replicated growable array, simplified to a timestamp-ordered sequence:
# inserts append timestamped elements, deletes tombstone every live copy of
# an element, and the read is the live elements sorted newest-first.


def _rga_apply(s, ev: Event, observed: frozenset | None = None):
    elems, tombs = s
    if isinstance(ev.op, Insert):
        return (elems.insert((ev.ts, ev.op.elem)), tombs)
    doomed = {ts for ts, elem in elems if elem == ev.op.elem and _saw(observed, ts)}
    return (elems, TrackedSet(tombs | doomed))


def _rga_merge3(l, a, b):
    return (
        orset_merge3(l[0], a[0], b[0]),
        orset_merge3(l[1], a[1], b[1]),
    )


def _rga_rc(o1: OpPayload, o2: OpPayload) -> bool:
    return isinstance(o1, Delete) and isinstance(o2, Insert) and o1.elem == o2.elem


def rga_read(s) -> list[int]:
    elems, tombs = s
    live = [(ts, elem) for ts, elem in elems.elements() if not tombs.member(ts)]
    return [elem for ts, elem in sorted(live, reverse=True)]


rga_mrdt = MrdtSpec(
    name="rga-mrdt",
    initial=(TrackedSet.empty(), TrackedSet.empty()),
    apply=_rga_apply,
    merge3=_rga_merge3,
    rc=_rga_rc,
    payload_types=(Insert, Delete),
    format_state=lambda s: f"({show_set(s[0])}, {show_set(s[1])})",
    replay_apply=_rga_apply,
)


# ---------------------------------------------------------------------------
# Multi-value register (MRDT).  State: TrackedSet of (timestamp, value).
# A write supersedes every entry it can have observed (strictly older
# timestamps) but leaves newer entries alone, so replaying concurrent writes
# in any causal order reproduces the set of surviving values.


def _mvreg_apply(s: TrackedSet, ev: Event) -> TrackedSet:
    kept = [pair for pair in s if pair[0] > ev.ts]
    kept.append((ev.ts, ev.op.value))
    return TrackedSet(kept)


def mv_reg_read(s: TrackedSet) -> frozenset:
    return frozenset(v for _, v in s.members)


mv_reg_mrdt = MrdtSpec(
    name="mv-reg-mrdt",
    initial=TrackedSet.empty(),
    apply=_mvreg_apply,
    merge3=orset_merge3,
    rc=rc_empty,
    payload_types=(Write,),
    format_state=show_set,
)


# ---------------------------------------------------------------------------
# CRDT counterparts.


def _vec_apply(m: ExtensionalMap, ev: Event) -> ExtensionalMap:
    return m.update(ev.replica, lambda n: n + 1)


def _vec_merge2(a: ExtensionalMap, b: ExtensionalMap) -> ExtensionalMap:
    return a.combine(b, max)


def vec_value(m: ExtensionalMap) -> int:
    return sum(v for _, v in m.items())


ctr_inc_crdt = CrdtSpec(
    name="ctr-inc-crdt",
    initial=ExtensionalMap.empty(0),
    apply=_vec_apply,
    merge2=_vec_merge2,
    rc=rc_empty,
    payload_types=(Inc,),
    format_state=lambda m: m.show(),
)


def _pn_vec_apply(s, ev: Event):
    pos, neg = s
    if isinstance(ev.op, Inc):
        return (_vec_apply(pos, ev), neg)
    return (pos, _vec_apply(neg, ev))


def _pn_vec_merge2(a, b):
    return (_vec_merge2(a[0], b[0]), _vec_merge2(a[1], b[1]))


def pn_vec_value(s) -> int:
    return vec_value(s[0]) - vec_value(s[1])


pn_ctr_crdt = CrdtSpec(
    name="pn-ctr-crdt",
    initial=(ExtensionalMap.empty(0), ExtensionalMap.empty(0)),
    apply=_pn_vec_apply,
    merge2=_pn_vec_merge2,
    rc=rc_empty,
    payload_types=(Inc, Dec),
    format_state=lambda s: f"({s[0].show()}, {s[1].show()})",
)


def _mvreg_crdt_apply(s: TrackedSet, ev: Event) -> TrackedSet:
    return TrackedSet(((ev.ts, ev.op.value),))


def _mvreg_crdt_merge2(a: TrackedSet, b: TrackedSet) -> TrackedSet:
    merged = a | b
    top = max((ts for ts, _ in merged), default=None)
    return TrackedSet([pair for pair in merged if pair[0] == top])


mv_reg_crdt = CrdtSpec(
    name="mv-reg-crdt",
    initial=TrackedSet.empty(),
    apply=_mvreg_crdt_apply,
    merge2=_mvreg_crdt_merge2,
    rc=rc_empty,
    payload_types=(Write,),
    format_state=show_set,
)


def _orset_crdt_apply(s, ev: Event, observed: frozenset | None = None):
    adds, tombs = s
    if isinstance(ev.op, Add):
        return (adds.insert((ev.ts, ev.op.elem)), tombs)
    doomed = {pair for pair in adds if pair[1] == ev.op.elem and _saw(observed, pair[0])}
    return (adds, TrackedSet(tombs | doomed))


def _orset_crdt_merge2(a, b):
    return (a[0].union(b[0]), a[1].union(b[1]))


def orset_crdt_members(s) -> frozenset:
    adds, tombs = s
    return frozenset(elem for ts, elem in adds.members if (ts, elem) not in tombs.members)


or_set_crdt = CrdtSpec(
    name="or-set-crdt",
    initial=(TrackedSet.empty(), TrackedSet.empty()),
    apply=_orset_crdt_apply,
    merge2=_orset_crdt_merge2,
    rc=_orset_rc,
    payload_types=(Add, Rem),
    format_state=lambda s: f"({show_set(s[0])}, {show_set(s[1])})",
    replay_apply=_orset_crdt_apply,
)


# ---------------------------------------------------------------------------
# Registry.

CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("ctr-inc-mrdt", ctr_inc_mrdt, False,
                 "increment-only counter, three-way merge adds branch deltas"),
    CatalogEntry("pn-ctr-mrdt", pn_ctr_mrdt, False,
                 "increment/decrement counter as a pair of grow-only counters"),
    CatalogEntry("or-set-mrdt", or_set_mrdt, False,
                 "observed-removed set over (timestamp, element) pairs, adds win"),
    CatalogEntry("or-set-eff-mrdt", or_set_eff_mrdt, False,
                 "observed-removed set compacted to one entry per (element, replica)"),
    CatalogEntry("ew-flag-buggy", ew_flag_buggy, True,
                 "enable-wins flag over an enable counter; merge resurrects dead enables"),
    CatalogEntry("ew-flag-fixed", ew_flag_fixed, False,
                 "enable-wins flag as an observed-removed set of enable timestamps"),
    CatalogEntry("g-set-mrdt", g_set_mrdt, False,
                 "grow-only set, merge is plain union"),
    CatalogEntry("g-map-mrdt", g_map_mrdt, False,
                 "map from keys to grow-only sets, merged pointwise"),
    CatalogEntry("rga-mrdt", rga_mrdt, False,
                 "timestamp-ordered sequence with tombstoned deletes, inserts win"),
    CatalogEntry("mv-reg-mrdt", mv_reg_mrdt, False,
                 "multi-value register keeping concurrent writes"),
    CatalogEntry("ctr-inc-crdt", ctr_inc_crdt, False,
                 "per-replica increment vector, merged by pointwise max"),
    CatalogEntry("pn-ctr-crdt", pn_ctr_crdt, False,
                 "pair of increment vectors for increments and decrements"),
    CatalogEntry("mv-reg-crdt", mv_reg_crdt, False,
                 "register of (timestamp, value) entries, dominated entries pruned"),
    CatalogEntry("or-set-crdt", or_set_crdt, False,
                 "add set plus tombstone set, merged by pointwise union"),
)


def catalog_get(rdt_id: str) -> CatalogEntry:
    for e in CATALOG:
        if e.id == rdt_id:
            return e
    raise KeyError(rdt_id)


def payload_pool(spec: RdtSpec, literals: tuple[int, ...] = LITERAL_POOL) -> tuple[OpPayload, ...]:
    """The concrete payloads history generators draw from: each of the spec's
    payload types pooled over ``literals`` (see ``model.Payload.pool``)."""
    return tuple(p for t in spec.payload_types for p in t.pool(literals))
