"""Core model for replicated data types under test.

An RDT is described by an initial state, a deterministic ``apply`` step that
folds one timestamped event into a state, a three-way merge ``merge3(lca, a,
b)``, and a conflict-resolution relation ``rc`` that orders concurrent
conflicting operations (e.g. a remove before the add that should win over
it).  A state-based CRDT declares a two-way ``merge2`` instead, and its
``merge3`` ignores the ancestor, so every merge is computed as ``merge3``.

States are opaque to the rest of the workbench: it only ever applies events,
merges states, compares them with ``==``, hashes them and renders them with
the spec's formatter.  A spec relies on one contract for this: states are
immutable values.  No spec function mutates a state it is given, and equal
states are interchangeable: every spec function gives equal results on equal
states.  So a history may share one state object among many nodes, and a
suite checks each distinct input of a state-only law once.  A state that does
not hash, such as a list, still runs; it is checked every time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, ClassVar, get_args, get_type_hints

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


class Payload:
    """Base of the operation payload dataclasses.

    A payload class declares its JSON ``kind`` (and its label ``head`` where
    that differs); everything else follows from its fields, in declaration
    order.  An ``int`` field is a literal: pooled over the literal pool,
    shrunk by decrementing towards 1, and serialized under its field name.
    A field typed with a payload class nests that payload.
    """

    kind: ClassVar[str]
    head: ClassVar[str]
    # (field name, nested payload class, or None for an int literal)
    layout: ClassVar[tuple[tuple[str, type[Payload] | None], ...]]

    def __init_subclass__(cls, kind: str, head: str | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind, cls.head = kind, head or kind
        hints = get_type_hints(cls)
        layout = []
        for name in cls.__dict__.get("__annotations__", {}):  # own fields, in order
            typ = hints[name]
            if not (typ is int or (isinstance(typ, type) and issubclass(typ, Payload))):
                raise TypeError(f"payload field {cls.__name__}.{name} must be int or a payload, not {typ!r}")
            layout.append((name, None if typ is int else typ))
        cls.layout = tuple(layout)

    @classmethod
    def pool(cls, literals: tuple[int, ...]) -> tuple[Payload, ...]:
        """Every instance over ``literals``, fields varied in declaration
        order with the first field outermost."""
        choices = [literals if sub is None else sub.pool(literals) for _, sub in cls.layout]
        return tuple(cls(*values) for values in product(*choices))

    def literals(self) -> tuple[int, ...]:
        """The int literals of this payload and any nested one, in field order."""
        out: tuple[int, ...] = ()
        for name, sub in self.layout:
            value = getattr(self, name)
            out += (value,) if sub is None else value.literals()
        return out

    def smaller(self):
        """Yield each payload one shrink step smaller: one literal above 1
        decremented, or one nested payload made smaller, in field order."""
        values = [getattr(self, name) for name, _ in self.layout]
        for i, (_, sub) in enumerate(self.layout):
            if sub is None:
                options = (values[i] - 1,) if values[i] > 1 else ()
            else:
                options = values[i].smaller()
            for option in options:
                yield type(self)(*values[:i], option, *values[i + 1:])

    def label(self) -> str:
        """``head`` alone, or ``head(arg, ...)``, e.g. ``set(1, add(2))``."""
        args = [str(getattr(self, name)) if sub is None else getattr(self, name).label()
                for name, sub in self.layout]
        return f"{self.head}({', '.join(args)})" if args else self.head


@dataclass(frozen=True)
class Inc(Payload, kind="inc"):
    pass


@dataclass(frozen=True)
class Dec(Payload, kind="dec"):
    pass


@dataclass(frozen=True)
class Add(Payload, kind="add"):
    elem: int


@dataclass(frozen=True)
class Rem(Payload, kind="rem"):
    elem: int


@dataclass(frozen=True)
class Enable(Payload, kind="enable"):
    pass


@dataclass(frozen=True)
class Disable(Payload, kind="disable"):
    pass


@dataclass(frozen=True)
class Write(Payload, kind="write"):
    value: int


@dataclass(frozen=True)
class Insert(Payload, kind="insert", head="ins"):
    elem: int


@dataclass(frozen=True)
class Delete(Payload, kind="delete", head="del"):
    elem: int


@dataclass(frozen=True)
class MapSet(Payload, kind="set"):
    key: int
    op: Add  # g-map pools adds; parsing accepts any payload and apply refuses the rest


OpPayload = Inc | Dec | Add | Rem | Enable | Disable | Write | Insert | Delete | MapSet

# JSON kind -> payload class, over the union above.
PAYLOAD_KINDS: dict[str, type[Payload]] = {cls.kind: cls for cls in get_args(OpPayload)}


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
    assuming them.  ``merge3`` exposes it as a three-way merge that ignores
    the ancestor, the form every merge is computed in.
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

    def merge3(self, lca, a, b):
        return self.merge2(a, b)


# Either kind of spec.  Its states are immutable values, and equal states are
# interchangeable (see the module docstring).
RdtSpec = MrdtSpec | CrdtSpec


def is_crdt(spec: RdtSpec) -> bool:
    return isinstance(spec, CrdtSpec)


def check_payload(spec: RdtSpec, ev: Event) -> None:
    if not isinstance(ev.op, spec.payload_types):
        raise SpecMismatchError(
            f"{spec.name} does not accept payload {ev.op!r} (event ts={ev.ts}, replica={ev.replica})"
        )
