"""Core model for replicated data types under test.

An RDT is described by an initial state, a deterministic ``apply`` step that
folds one timestamped event into a state, a merge function (three-way with a
lowest common ancestor for MRDTs, two-way for state-based CRDTs), and a
conflict-resolution relation ``rc`` that orders concurrent conflicting
operations (e.g. a remove before the add that should win over it).

States are opaque to the rest of the workbench: it only ever applies events,
merges states, compares them with ``==`` and renders them with the spec's
formatter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

Timestamp = int
ReplicaId = int


class SpecMismatchError(Exception):
    """An event carried a payload outside the RDT's declared domain."""


# ---------------------------------------------------------------------------
# Operation payloads.
#
# Each RDT declares the closed subset of these constructors it accepts.
# Payloads carry only operation arguments; the timestamp and replica id live
# on the Event so the same payload can occur many times in one history.


@dataclass(frozen=True)
class Inc:
    def label(self) -> str:
        return "inc"


@dataclass(frozen=True)
class Dec:
    def label(self) -> str:
        return "dec"


@dataclass(frozen=True)
class Add:
    elem: int

    def label(self) -> str:
        return f"add({self.elem})"


@dataclass(frozen=True)
class Rem:
    elem: int

    def label(self) -> str:
        return f"rem({self.elem})"


@dataclass(frozen=True)
class Enable:
    def label(self) -> str:
        return "enable"


@dataclass(frozen=True)
class Disable:
    def label(self) -> str:
        return "disable"


@dataclass(frozen=True)
class Write:
    value: int

    def label(self) -> str:
        return f"write({self.value})"


@dataclass(frozen=True)
class Insert:
    elem: int

    def label(self) -> str:
        return f"ins({self.elem})"


@dataclass(frozen=True)
class Delete:
    elem: int

    def label(self) -> str:
        return f"del({self.elem})"


@dataclass(frozen=True)
class MapSet:
    key: int
    op: "OpPayload"

    def label(self) -> str:
        return f"set({self.key}, {self.op.label()})"


OpPayload = Inc | Dec | Add | Rem | Enable | Disable | Write | Insert | Delete | MapSet


@dataclass(frozen=True)
class Event:
    """One operation occurrence: globally unique timestamp, origin replica, payload."""

    ts: Timestamp
    replica: ReplicaId
    op: OpPayload


def event_label(ev: Event) -> str:
    """Render an event as ``op(args,t=..,r=..)``, e.g. ``inc(t=1,r=0)``."""
    base = ev.op.label()
    if base.endswith(")"):
        return f"{base[:-1]},t={ev.ts},r={ev.replica})"
    return f"{base}(t={ev.ts},r={ev.replica})"


# ---------------------------------------------------------------------------
# Conflict resolution.

RcRelation = Callable[[OpPayload, OpPayload], bool]


def rc_empty(_a: OpPayload, _b: OpPayload) -> bool:
    return False


class RcOrder(enum.Enum):
    FIRST = "first"      # o1 is ordered before o2
    SECOND = "second"    # o2 is ordered before o1
    UNORDERED = "unordered"


def conflicting(rc: RcRelation, o1: OpPayload, o2: OpPayload) -> bool:
    """Two payloads conflict when rc orders them one way or the other."""
    return rc(o1, o2) or rc(o2, o1)


def rc_order(rc: RcRelation, o1: OpPayload, o2: OpPayload) -> RcOrder:
    fwd, bwd = rc(o1, o2), rc(o2, o1)
    if fwd and bwd:
        raise ValueError(f"rc relation is not antisymmetric on {o1} / {o2}")
    if fwd:
        return RcOrder.FIRST
    if bwd:
        return RcOrder.SECOND
    return RcOrder.UNORDERED


# ---------------------------------------------------------------------------
# RDT descriptions.


@dataclass(frozen=True)
class MrdtSpec:
    """A mergeable replicated data type with a three-way merge.

    ``merge3(lca, a, b)`` reconciles two sibling states against their lowest
    common ancestor.  ``apply(state, event)`` must be total over the declared
    payload types and deterministic.
    """

    name: str
    initial: Any
    apply: Callable[[Any, Event], Any]
    merge3: Callable[[Any, Any, Any], Any]
    rc: RcRelation
    payload_types: tuple[type, ...]
    format_state: Callable[[Any], str]
    # Observation-aware form of ``apply`` for replaying an event outside its
    # original causal context (sequential witnesses): receives the set of
    # timestamps of the events the replayed event actually observed, so a
    # destructive operation acts only on entries it could have seen.  ``None``
    # means ``apply`` is context-free already.
    replay_apply: Callable[[Any, Event, frozenset], Any] | None = None


@dataclass(frozen=True)
class CrdtSpec:
    """A state-based replicated data type with a two-way merge.

    ``merge2`` is intended to be a join-semilattice operation; the checker
    verifies commutativity, associativity and idempotence rather than
    assuming them.
    """

    name: str
    initial: Any
    apply: Callable[[Any, Event], Any]
    merge2: Callable[[Any, Any], Any]
    rc: RcRelation
    payload_types: tuple[type, ...]
    format_state: Callable[[Any], str]
    # See MrdtSpec.replay_apply.
    replay_apply: Callable[[Any, Event, frozenset], Any] | None = None


RdtSpec = MrdtSpec | CrdtSpec


def is_crdt(spec: RdtSpec) -> bool:
    return isinstance(spec, CrdtSpec)


def check_payload(spec: RdtSpec, ev: Event) -> None:
    if not isinstance(ev.op, spec.payload_types):
        raise SpecMismatchError(
            f"{spec.name} does not accept payload {ev.op!r} (event ts={ev.ts}, replica={ev.replica})"
        )
